import itertools
import operator
import random
import re
from collections import defaultdict
from fractions import Fraction
from heapq import heappop, heappush
from operator import add, le, mul

import pytest

from polyfunctor import (
    ConstF,
    ExtF,
    FieldDescriptor,
    GradedRing,
    IdF,
    QuotF,
    ShiftF,
    SumF,
    SymF,
    TenAltF,
    TenSymF,
    TensorF,
    normalize,
)
from polyfunctor import groebner
from polyfunctor.fields import _q_raw
from polyfunctor.groebner import Budget, _prepared
from polyfunctor.functors import _power_matrix, _refuse_char2, _tensor_matrix, induced_map
from polyfunctor.hasse import DirectionSubspace, DirectionalData, directional_data, doubled_ring, fresh_name
from polyfunctor.matrices import LinearMapMatrix, _SliceSum, space_labels
from polyfunctor.proofstep import _segre_map, _segre_points
from polyfunctor.errors import AlgebraError, FieldMismatchError, ParseError
from polyfunctor.rings import (
    GradedPoly, RingVariable, _Divisors, _from_raw, _raw_mul_into, _raw_pow, _reduced,
)

Q = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)

ALL_FIELDS = (Q, F2, F3, F5)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def boxed_calls(monkeypatch):
    """Counts, by "Class.method", of the boxed GradedPoly arithmetic and the
    GradedPoly.substitute calls made after it is set up."""
    calls = {}

    def counting(key, method):
        def wrapper(*args):
            calls[key] = calls.get(key, 0) + 1
            return method(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__",
                 "substitute"):
        monkeypatch.setattr(GradedPoly, name, counting(f"GradedPoly.{name}", getattr(GradedPoly, name)))
    return calls


@pytest.fixture
def scalar_calls(monkeypatch):
    """The FieldDescriptor.scalar and zero calls made after it is set up, as
    (name, field, *args): a boxed scalar is for callers of the package, and
    no run of it calls either."""
    calls = []

    def recording(name, method):
        def wrapper(field, *args):
            calls.append((name, field, *args))
            return method(field, *args)
        return wrapper

    for name in ("scalar", "zero"):
        monkeypatch.setattr(FieldDescriptor, name, recording(name, getattr(FieldDescriptor, name)))
    return calls


def witness_data(f, model, r_label):
    """Directional data of f along the summand r_label of model, the data
    derivative_step hands to extraction and to the direction scan."""
    return directional_data(f, DirectionSubspace(model.ring, model.ring.vars_of_part(r_label)))


# -- the conversion into raw coefficients before FieldDescriptor.raw: the
# reference that raw is checked against

def raw_coefficient(field, value):
    """Raw coefficient of a scalar (a constant of a variable-free ring), int
    or Fraction as it was computed by boxing: FieldDescriptor.scalar's old
    body (over q always a Fraction), then rings._raw's unboxing (over q an
    int when integral)."""
    if isinstance(value, GradedPoly):
        if value.ring.field is not field and value.ring.field != field:
            raise FieldMismatchError(f"scalar over {value.ring.field} used in {field}")
        v = value.constant_value()
    elif field.characteristic == 0:
        v = Fraction(value)
    elif isinstance(value, Fraction):
        num = value.numerator % field.characteristic
        den = value.denominator % field.characteristic
        if den == 0:
            raise AlgebraError("denominator vanishes in the prime field")
        v = num * pow(den, -1, field.characteristic) % field.characteristic
    else:
        v = int(value) % field.characteristic
    return v if field.characteristic or v.denominator != 1 else v.numerator


# -- the polynomial parser on (kind, value, position) tokens from three re.Match
# calls per token, a factor dict per factor and _raw_pow per power: the
# reference that parsing's one-findall parser is checked against

# every non-blank character starts a token; "bad" ones are rejected at their
# own position
_TOKEN = re.compile(r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*^()/]))|(?P<bad>\S)")

_SIGNS = {"+": 1, "-": -1}


def _tokenize(text: str, pattern: re.Pattern):
    """(kind, value, position) of each match of pattern, the group that
    matched naming the kind, then an end token; a "bad" match is an error
    at the start of the match."""
    tokens = []
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(), text)
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _PolyParser:
    def __init__(self, text: str, ring: GradedRing):
        self.text = text
        self.ring = ring
        self.p = ring.field.characteristic
        self.unit = (0,) * len(ring.names)
        self.tokens = _tokenize(text, _TOKEN)
        self.i = 0
        self.variables: dict = {}  # name -> its raw terms {exps: 1}, read only

    def peek(self) -> str:
        """Value of the next token: operators are told apart by value alone."""
        return self.tokens[self.i][1]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> GradedPoly:
        acc = self.expression()
        kind, value, pos = self.next()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos, self.text)
        return _from_raw(self.ring, acc)

    def expression(self) -> dict:
        acc: dict = {}
        sign = _SIGNS[self.next()[1]] if self.peek() in _SIGNS else 1
        while True:
            for exps, c in self.term().items():
                acc[exps] = acc.get(exps, 0) + sign * c
            if self.peek() not in _SIGNS:
                return acc
            sign = _SIGNS[self.next()[1]]

    def term(self) -> dict:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            if len(acc) == 1 == len(rhs):
                ((e1, c1),), ((e2, c2),) = acc.items(), rhs.items()
                acc = {tuple(map(operator.add, e1, e2)): c1 * c2}
            else:
                acc = _raw_mul_into({}, _reduced(acc, self.p), _reduced(rhs, self.p), 1)
        return acc

    def factor(self) -> dict:
        acc = self.atom()
        if self.peek() == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos, self.text)
            acc = _raw_pow(acc, int(value), self.p, self.unit)
        return acc

    def atom(self) -> dict:
        kind, value, pos = self.next()
        if kind == "int":
            c = int(value)
            if self.peek() == "/":
                self.next()
                kind, value, pos = self.next()
                if kind != "int":
                    raise ParseError("expected integer denominator", pos, self.text)
                if not int(value):
                    raise ParseError("zero denominator", pos, self.text)
                c = Fraction(c, int(value))
            return {self.unit: raw_coefficient(self.ring.field, c)}
        if kind == "name":
            if value not in self.variables:
                if value not in self.ring._pos:
                    raise ParseError(f"unknown variable {value!r}", pos, self.text)
                self.variables[value] = self.ring.var(value).terms
            return self.variables[value]
        if value == "(":
            acc = self.expression()
            kind, value, pos = self.next()
            if value != ")":
                raise ParseError("expected ')'", pos, self.text)
            return acc
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos, self.text)


def parse_polynomial_by_tokens(text: str, ring: GradedRing) -> GradedPoly:
    return _PolyParser(text, ring).parse()




# -- the joint laws as formal identities, the reference that hasse's exponent
# criteria are checked on; each substitutes into a doubled or c-extended ring

def _additivity_defect(f: GradedPoly, span_vars) -> GradedPoly:
    """f(v + w) - f(v) - f(w) in doubled variables v, w on span_vars."""
    ring = f.ring
    ext, copies = doubled_ring(ring, span_vars, "_b")
    sum_map = {name: ext.var(name) for name in ring.names}
    copy_map = dict(sum_map)
    for orig, copy in copies:
        sum_map[orig] = ext.var(orig) + ext.var(copy)
        copy_map[orig] = ext.var(copy)
    return f.substitute(sum_map) - f.convert(ext) - f.substitute(copy_map)


def joint_additivity_by_identity(data: DirectionalData) -> bool:
    """h(w', v + w) = h(w', v) + h(w', w) as a formal identity."""
    if not data.dependent:
        return True
    return _additivity_defect(data.joint, tuple(c for _, c in data.copies)).is_zero()


def joint_scaling_by_identity(data: DirectionalData) -> bool:
    """h(w', c*w) = c^(p^e) * h(w', w) as a formal identity in a fresh c."""
    if not data.dependent:
        return True
    joint = data.joint
    ring = joint.ring
    c_name = fresh_name("c", set(ring.names))
    ext = ring.extended([RingVariable(c_name, "aux", 0)])
    scale_map = {name: ext.var(name) for name in ring.names}
    c_var = ext.var(c_name)
    for _, copy in data.copies:
        scale_map[copy] = c_var * ext.var(copy)
    q = ring.field.char_exponent ** data.level
    return (joint.substitute(scale_map) - joint.convert(ext) * c_var ** q).is_zero()


def random_scalar(rng, field, lo=-6, hi=6):
    if field.characteristic == 0:
        return rng.randint(lo, hi)
    return rng.randrange(field.characteristic)


def random_poly(rng, ring, max_degree=4, max_terms=5):
    terms = {}
    width = len(ring.names)
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * width
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(width)] += 1
        c = random_scalar(rng, ring.field)
        if c:
            terms[tuple(exps)] = c
    poly = ring.zero()
    for exps, c in terms.items():
        poly = poly + ring.monomial(exps, c)
    return poly


def random_matrix(rng, field, rows, cols, lo=-3, hi=3):
    return [[random_scalar(rng, field, lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_functor(rng, max_degree=3, depth=2):
    """Small random expression, covering every constructor."""
    choices = ["const", "id", "tensor", "sum", "sym", "ext", "shift", "tsym", "talt", "quot"]
    kind = rng.choice(choices)
    if depth == 0 or kind == "id":
        return IdF()
    if kind == "const":
        return ConstF(rng.randint(1, 3))
    if kind == "tsym":
        return TenSymF()
    if kind == "talt":
        return TenAltF()
    if kind == "tensor":
        a = random_functor(rng, max_degree=2, depth=depth - 1)
        b = random_functor(rng, max_degree=2, depth=depth - 1)
        if a.degree() + b.degree() > max_degree:
            return a
        return TensorF((a, b))
    if kind == "sum":
        return SumF(
            (
                random_functor(rng, max_degree, depth - 1),
                random_functor(rng, max_degree, depth - 1),
            )
        )
    if kind == "sym":
        d = rng.randint(1, 2)
        inner = random_functor(rng, max_degree=1, depth=depth - 1)
        if d * inner.degree() > max_degree:
            return inner
        return SymF(d, inner)
    if kind == "ext":
        d = rng.randint(1, 2)
        inner = random_functor(rng, max_degree=1, depth=depth - 1)
        if d * inner.degree() > max_degree:
            return inner
        return ExtF(d, inner)
    if kind == "shift":
        return ShiftF(rng.randint(1, 2), random_functor(rng, max_degree, depth - 1))
    if kind == "quot":
        inner = random_functor(rng, max_degree, depth - 1)
        summands = normalize(inner)
        if len(summands) < 2:
            return inner
        return QuotF(inner, rng.randrange(len(summands)))
    return IdF()


# Ideals of the Groebner tests: 2x2 minors, katsura-n and cyclic-n.

def leading_item(f):
    """(exponents, raw coefficient) of the leading term of f under the ring order."""
    exps = f._associate()[0]
    return exps, f.terms[exps]


def s_polynomial(f, g):
    """a_g*x^(l-e_f)*f' - a_f*x^(l-e_g)*g' from the associates: a_f*a_g*S(f, g),
    the reference S-polynomial that buchberger's packed S-pairs are checked on."""
    pair = _Divisors(f.ring, (f, g))
    spair = (pair.packing[0](tuple(map(max, leading_item(f)[0], leading_item(g)[0]))), 0, 1)
    return pair.divide(spair, lambda work: GradedPoly(
        f.ring, {work.exponents(m): _q_raw(c, work.scale) for m, c in work.terms.items()}, _canonical=True
    ))


def normal_form(f, generators, budget=None):
    """Remainder of f modulo a Groebner basis of the generators, zero exactly
    when f lies in their ideal: the reference that exact membership checks
    are compared with.  Raises BudgetExceededError when the budget runs out."""
    gens = _prepared(f.ring, generators)
    budget = budget or Budget()
    return groebner.reduce_poly(f, groebner.buchberger(gens.polys, budget), budget) if gens.polys else f


def buchberger_by_tuples(gens, budget=None):
    """The Gebauer-Moeller update on exponent tuples, as buchberger ran it
    before the pair data was packed: tuple max lcms, GradedRing.order_key
    heap keys and per-variable bit masks.  The reference that buchberger's
    bases, budgets and S-pair sequences are checked on; it reduces each
    S-pair through groebner.reduce_poly too, its lcm packed at the basis's width."""
    budget = budget or Budget()
    gens = [g for g in gens if g]
    if not gens:
        return []
    basis = _Divisors(gens[0].ring)
    key, leads, pending, pairs = basis.ring.order_key, [], {}, []

    def join(h):
        """Gebauer-Moeller update as h joins; each lcm goes with the bit mask
        of its variables, a cheap first test of divisibility."""
        basis.append(groebner._monic(h))
        e, new = leading_item(h)[0], len(leads)
        s = sum(1 << v for v, x in enumerate(e) if x)
        kept = []  # a proper divisor has the smaller key; coprime first among equal lcms
        for order, shared, mask, k in sorted((key(tuple(map(max, d, e))), bool(t & s), t | s, k)
                                             for k, (d, t) in enumerate(leads)):
            for other, other_mask, _, _ in kept:  # M, and F keeping one
                if other_mask | mask == mask and all(map(le, other[1], order[1])):
                    break
            else:
                kept.append((order, mask, shared, k))
        for (i, j), (lcm, mask) in list(pending.items()):  # B
            if s | mask == mask and all(map(le, e, lcm)) and lcm not in (
                    tuple(map(max, leads[i][0], e)), tuple(map(max, leads[j][0], e))):
                del pending[i, j]
        leads.append((e, s))
        for order, mask, shared, k in kept:
            if shared:  # a coprime pair is dropped only now, having served M and F
                pending[k, new] = order[1], mask
                heappush(pairs, (order, (k, new)))

    for g in gens:
        join(g)
    while pairs:
        (_, lcm), (i, j) = heappop(pairs)
        if pending.pop((i, j), None) is None:  # dropped by criterion B
            continue
        budget.spend()
        remainder = groebner.reduce_poly((basis.packing[0](lcm), i, j), basis, budget)
        if remainder:
            join(remainder)
    return basis.polys


def minors_ideal(field, rows, cols):
    ring = GradedRing(field, [f"x{i}{j}" for i in range(rows) for j in range(cols)])
    v = lambda i, j: ring.var(f"x{i}{j}")
    return [v(a, c) * v(b, d) - v(a, d) * v(b, c)
            for a, b in itertools.combinations(range(rows), 2)
            for c, d in itertools.combinations(range(cols), 2)]


def katsura_ideal(field, n):
    ring = GradedRing(field, [f"u{i}" for i in range(n + 1)])

    def u(i):
        return ring.var(f"u{abs(i)}") if abs(i) <= n else ring.zero()
    gens = [sum((u(i) for i in range(-n, n + 1)), ring.zero()) - 1]
    for m in range(n):
        gens.append(sum((u(k) * u(m - k) for k in range(-n, n + 1)), ring.zero()) - u(m))
    return gens


def cyclic_ideal(field, n):
    ring = GradedRing(field, [f"c{i}" for i in range(n)])
    v = [ring.var(f"c{i}") for i in range(n)]
    gens = []
    for d in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for k in range(d):
                term = term * v[(i + k) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for x in v:
        prod = prod * x
    gens.append(prod - 1)
    return gens


def random_ideal(rng, field):
    """2 to 4 seeded random generators (some may be 0) in 2 or 3 variables."""
    ring = GradedRing(field, ["x", "y", "z"][:rng.choice((2, 3))])
    return [random_poly(rng, ring, max_degree=rng.randint(2, 4), max_terms=4) for _ in range(rng.randint(2, 4))]


IDEALS = {
    "cyclic4": lambda field: cyclic_ideal(field, 4),
    "katsura3": lambda field: katsura_ideal(field, 3),
    "minors3x4": lambda field: minors_ideal(field, 3, 4),
}

# The large ideals of the groebner benchmark workload, pinned by goldens only.
LARGE_IDEALS = {
    "katsura4": lambda field: katsura_ideal(field, 4),
    "minors3x5": lambda field: minors_ideal(field, 3, 5),
    "minors4x4": lambda field: minors_ideal(field, 4, 4),
}


# The rank-one tensors in plain coordinates x_i_j: the 2x2 minors and the
# split coordinates written in the x_i_j, the reference for the example's
# membership check.

def rank_one_minors_plain(model):
    """The 2x2 minors x_i_k*x_j_l - x_i_l*x_j_k (i < j, k < l) of the plain
    tensor coordinates, each built straight as its two canonical terms."""
    m = model.dimension
    ring = model.ring
    p = ring.field.characteristic
    minus_one = p - 1 if p else -1
    at = [[ring.position(f"x_{a + 1}_{b + 1}") for b in range(m)] for a in range(m)]
    width = len(ring.names)

    def monomial(u, v):
        exps = [0] * width
        exps[u] = exps[v] = 1
        return tuple(exps)

    out = []
    for i, j in itertools.combinations(range(m), 2):
        for k, l in itertools.combinations(range(m), 2):
            terms = {monomial(at[i][k], at[j][l]): 1, monomial(at[i][l], at[j][k]): minus_one}
            out.append(GradedPoly(ring, terms, _canonical=True))
    return out


def split_to_plain_map(split_model, plain_model):
    """Substitution expressing split coordinates in tensor coordinates."""
    ring = plain_model.ring
    half = Fraction(1, 2)
    x = ring.var
    mapping = {}
    m = split_model.dimension
    for a in range(m):
        mapping[f"y_{a + 1}_{a + 1}"] = x(f"x_{a + 1}_{a + 1}")
        for b in range(a + 1, m):
            mapping[f"y_{a + 1}_{b + 1}"] = (x(f"x_{a + 1}_{b + 1}") + x(f"x_{b + 1}_{a + 1}")) * half
            mapping[f"z_{a + 1}_{b + 1}"] = (x(f"x_{a + 1}_{b + 1}") - x(f"x_{b + 1}_{a + 1}")) * half
    return mapping


def substitute_by_powers(f, mapping):
    """f.substitute(mapping) as the kernel before the integer one computed it:
    each image's raw powers cached reduced mod p, every term's product of
    powers multiplied into one accumulator, over q in int and Fraction
    arithmetic.  Images must share one ring and cover f's variables."""
    target = next(iter(mapping.values())).ring
    p = target.field.characteristic
    names = f.ring.names
    unit = (0,) * len(target.names)
    one = ((unit, 1),)
    powers = {}

    def power(i, e):
        cache = powers.get(i)
        if cache is None:
            cache = powers[i] = [one, mapping[names[i]].terms.items()]
        while len(cache) <= e:
            cache.append(_reduced(_raw_mul_into({}, cache[-1], cache[1], 1), p))
        return cache[e]

    acc = {}
    for exps, c in f.terms.items():
        term, *factors = [power(i, e) for i, e in enumerate(exps) if e] or [one]
        for factor in factors[:-1]:
            term = _reduced(_raw_mul_into({}, term, factor, 1), p)
        _raw_mul_into(acc, term, factors[-1] if factors else one, c)
    return _from_raw(target, acc)


def segre_map_by_arithmetic(model, kept=()):
    """The Segre map of proofstep._segre_map built by ring arithmetic, each
    split coordinate as (v_a*w_b +- v_b*w_a)*(1/2): the reference that the
    raw-term construction is checked on."""
    m, fld = model.dimension, model.field
    ring = GradedRing(fld, [f"{c}_{a + 1}" for c in "vw" for a in range(m)] + list(kept))
    v = [ring.var(f"v_{a + 1}") for a in range(m)]
    w = [ring.var(f"w_{a + 1}") for a in range(m)]
    half = Fraction(1, 2)
    signs = {"y": 1, "z": -1}
    segre = {name: ring.var(name) for name in ring.names[2 * m:]}
    for name in model.ring.names:
        s, a, b = name.split("_")
        a, b = int(a) - 1, int(b) - 1
        segre[name] = (v[a] * w[b] + v[b] * w[a] * signs[s]) * half
    return segre


def rank_one_points(rng, model, count, unit=None):
    """count split coordinate points, name -> raw coefficient, of rank-one tensors
    v (x) w, drawn from rng as run_rank_one_example draws (v, w) and read
    through the Segre images; with a unit, a polynomial on model.ring, each
    is drawn again until the unit does not vanish there."""
    segre = _segre_map(model)
    if unit is not None:
        unit = unit.substitute(segre)
    for vw in itertools.islice(_segre_points(rng, model.field, model.dimension, unit), count):
        yield {name: image.evaluate(vw) for name, image in segre.items()}


def boxed_rows(m):
    """The entries of a LinearMapMatrix as polynomials, row by row, boxed
    from its monomial slices (the package boxes no entry: it prints each
    from its raw terms in the slices)."""
    terms = [[{} for _ in m.col_labels] for _ in m.row_labels]
    for e, (rows, cols, block) in m.slices.items():
        for i, values in zip(rows, block):
            for j, v in zip(cols, values):
                if v:
                    terms[i][j][e] = v
    return tuple(tuple(GradedPoly(m.ring, t, _canonical=True) for t in row) for row in terms)


def scaled(matrix, factor):
    """factor times a LinearMapMatrix, entry by entry, through its constructor."""
    rows = [[entry * factor for entry in row] for row in boxed_rows(matrix)]
    return LinearMapMatrix(matrix.row_labels, matrix.col_labels, matrix.ring, rows)


def canonical_matrix(acc, row_labels, col_labels, ring):
    """The matrix of a _SliceSum of raw values on the given labels, each
    value made canonical first (over q, fields._q_raw turns an integral
    Fraction into its int), as the package's kernels leave them."""
    if not ring.field.characteristic:
        for rows in acc.by_exps.values():
            for row in rows.values():
                row[:] = map(_q_raw, row)
    return acc.matrix(row_labels, col_labels, ring)


def compose_by_dot_products(self, other):
    """self after other by dense row-by-column dot products over the inner
    indices of each left slice, for each pair of monomial slices that meets
    on an inner index: the reference that LinearMapMatrix.compose, which
    multiplies packed integer rows, is checked on."""
    if self.ring != other.ring:
        raise AlgebraError("composition across entry rings")
    if self.col_labels != other.row_labels:
        raise AlgebraError("inner labels do not match in composition")
    # per right slice: its row positions, columns, and column vectors
    # with a trailing 0 that stands for every row where it has no term
    right = {
        f: ({k: q for q, k in enumerate(rows)}, cols, [col + (0,) for col in zip(*block)])
        for f, (rows, cols, block) in other.slices.items()
    }
    meets = defaultdict(list)  # inner index -> right slices with a term in that row
    for f, (at, _, _) in right.items():
        for k in at:
            meets[k].append(f)
    acc = _SliceSum(len(other.col_labels))
    for e, (rows, inner, block) in self.slices.items():
        for f in dict.fromkeys(f for k in inner for f in meets[k]):
            at, cols, columns = right[f]
            picked = [[col[at.get(k, -1)] for k in inner] for col in columns]
            products = [[sum(map(mul, row, col)) for col in picked] for row in block]
            acc.add(tuple(map(add, e, f)), rows, cols, products)
    return canonical_matrix(acc, self.row_labels, other.col_labels, self.ring)


def dense_split_square_matrix(phi, alternating):
    """The symmetric or alternating half of the tensor square of phi with
    every product of two slice blocks taken densely, zeros included: the
    reference that functors._split_square_matrix is checked on."""
    _refuse_char2(phi.ring.field)
    gap, sign, tag = (1, -1, "z") if alternating else (0, 1, "y")
    m = len(phi.row_labels)
    n = len(phi.col_labels)
    col_pairs = [(i, j) for i in range(n) for j in range(i + gap, n)]
    row_pairs = [(k, l) for k in range(m) for l in range(k + gap, m)]
    row_at = {pair: r for r, pair in enumerate(row_pairs)}
    col_at = {pair: c for c, pair in enumerate(col_pairs)}
    slices = [(e, *s) for e, s in phi.slices.items()]
    acc = _SliceSum(len(col_pairs))
    for e, rows_a, cols_a, a in slices:
        for f, rows_b, cols_b, b in slices:
            pairs = [(row_at[k, l], x, y) for k, x in zip(rows_a, a) for l, y in zip(rows_b, b) if l - k >= gap]
            spots = [
                (col_at[min(i, j), max(i, j)], sign if i > j else 1, q, r)
                for q, i in enumerate(cols_a) for r, j in enumerate(cols_b) if abs(i - j) >= gap
            ]
            block = [[s * x[q] * y[r] for _, s, q, r in spots] for _, x, y in pairs]
            acc.add(tuple(map(add, e, f)), [r for r, _, _ in pairs], [c for c, *_ in spots], block)
    return canonical_matrix(
        acc, tuple((tag,) + pair for pair in row_pairs), tuple((tag,) + pair for pair in col_pairs), phi.ring
    )


def _times_column(acc: dict, column, alternating: bool) -> dict:
    """acc, exponents -> {int key of a row multiset: raw coefficient}, times
    the image sum_i a[i][c] e_i of one column, given per monomial slice as
    (exponents, [(key of {i}, mask of the indices above i, raw coefficient)]).
    An exterior key is the bitmask S of its rows: e_S ^ e_i is 0 when S holds
    i, else its sign is the parity of the count of S's indices above i.  A
    symmetric key counts each index in a fixed-width bit field, so the keys
    of multisets add."""
    new: dict = {}
    for e1, keyed in acc.items():
        for e2, live in column:
            exps = tuple(map(add, e1, e2))
            out = new.setdefault(exps, {})
            for key, coeff in keyed.items():
                for bit, above, c in live:
                    if alternating:
                        if key & bit:
                            continue
                        if (key & above).bit_count() & 1:
                            c = -c
                    k = key + bit
                    out[k] = out.get(k, 0) + coeff * c
    return new


def power_matrix_by_columns(a, power, alternating):
    """Matrix of the symmetric power of a, or of the exterior power when
    alternating, expanded one column factor at a time on dicts of int keys
    of row multisets (see _times_column): the reference that
    functors._power_matrix, which works on packed integer column blocks, is
    checked on.

    The column of e_c1...e_ck is (A e_c1)...(A e_ck), expanded one factor at
    a time on int keys of row multisets; in the alternating case this gives
    every k x k minor without a determinant.  Column tuples come in
    lexicographic order, so the expansion of the prefix shared with the
    previous tuple is reused; only the chain of the current tuple's prefixes
    is kept, and each finished column goes straight into the slice
    accumulator.
    """
    choose = itertools.combinations if alternating else itertools.combinations_with_replacement
    row_tuples = list(choose(range(len(a.row_labels)), power))
    col_tuples = list(choose(range(len(a.col_labels)), power))
    field_bits = 1 if alternating else power.bit_length()
    row_at = {sum(1 << i * field_bits for i in idx): r for r, idx in enumerate(row_tuples)}
    columns = [[] for _ in a.col_labels]
    for e, (rows, cols, block) in a.slices.items():
        for q, j in enumerate(cols):
            live = [(1 << i * field_bits, -2 << i, row[q]) for i, row in zip(rows, block) if row[q]]
            columns[j].append((e, live))
    acc = _SliceSum(len(col_tuples))
    chain = [{(0,) * len(a.ring.names): {0: 1}}]
    prev = ()
    for cj, combo in enumerate(col_tuples):
        shared = 0
        while shared < len(prev) and prev[shared] == combo[shared]:
            shared += 1
        del chain[shared + 1:]
        for c in combo[shared:]:
            chain.append(_times_column(chain[-1], columns[c], alternating))
        for exps, keyed in chain[-1].items():
            # the former _SliceSum.add_column(exps, cj, rows, values)
            target = acc.by_exps[exps]
            for i, v in zip([row_at[key] for key in keyed], keyed.values()):
                target[i][cj] += v
        prev = combo
    tag = "ext" if alternating else "sym"
    row_labels = tuple((tag, tuple(a.row_labels[i] for i in idx)) for idx in row_tuples)
    col_labels = tuple((tag, tuple(a.col_labels[i] for i in idx)) for idx in col_tuples)
    return canonical_matrix(acc, row_labels, col_labels, a.ring)


def _add_at(acc, m, row0, col0):
    """Add the slices of m into acc, its first entry at (row0, col0)."""
    for e, (rows, cols, block) in m.slices.items():
        acc.add(e, [row0 + i for i in rows], [col0 + j for j in cols], block)


def block_diag_by_accumulation(blocks, indices):
    """The direct sum of blocks on the summand labels ("s", index, label),
    every block added at its offset into one full-width accumulator that is
    then reduced: the reference that the direct sums of functors.induced_map,
    which place the blocks' canonical slices side by side
    (matrices._block_diagonal), are checked on."""
    row_labels = [("s", idx, lab) for idx, b in zip(indices, blocks) for lab in b.row_labels]
    col_labels = [("s", idx, lab) for idx, b in zip(indices, blocks) for lab in b.col_labels]
    acc = _SliceSum(len(col_labels))
    r0 = c0 = 0
    for b in blocks:
        _add_at(acc, b, r0, c0)
        r0 += len(b.row_labels)
        c0 += len(b.col_labels)
    return acc.matrix(row_labels, col_labels, blocks[0].ring)


def widened_by_accumulation(phi, u):
    """1_U (+) phi, the widening of shift(u, .), with 1 added at (i, i) for
    i < u and phi at (u, u) into one accumulator that is then reduced."""
    m, n = phi.shape
    acc = _SliceSum(u + n)
    for i in range(u):
        acc.add((0,) * len(phi.ring.names), (i,), (i,), ((1,),))
    _add_at(acc, phi, u, u)
    return acc.matrix(space_labels(u + m), space_labels(u + n), phi.ring)


def induced_by_accumulation(expr, phi):
    """functors.induced_map with every direct sum, quotient and shift built
    by accumulation (block_diag_by_accumulation, widened_by_accumulation) and
    the other constructors by the package's kernels."""
    if isinstance(expr, SumF):
        return block_diag_by_accumulation([induced_by_accumulation(p, phi) for p in expr.parts], range(len(expr.parts)))
    if isinstance(expr, QuotF) and expr.kept():
        kept = expr.kept()
        return block_diag_by_accumulation([induced_by_accumulation(s, phi) for _, s in kept], [i for i, _ in kept])
    if isinstance(expr, ShiftF):
        return induced_by_accumulation(expr.inner, widened_by_accumulation(phi, expr.by))
    if isinstance(expr, TensorF):
        return _tensor_matrix([induced_by_accumulation(f, phi) for f in expr.factors])
    if isinstance(expr, (SymF, ExtF)):
        return _power_matrix(induced_by_accumulation(expr.inner, phi), expr.power, isinstance(expr, ExtF))
    return induced_map(expr, phi)
