"""Sparse graded multivariate polynomials with exact coefficients.

A GradedRing fixes an ordered list of variables, each carrying the label of
the functor summand it lives on and a nonnegative integer weight (the degree
of that summand).  A GradedPoly is a canonical sparse map from exponent
vectors to nonzero raw coefficients (fields.FieldDescriptor.raw), which
every kernel keeps: over q each sum, product or quotient that is no int
passes fields._q_raw, so an integral one is an int.  This module owns the
raw-term helpers (_raw_mul_into, _raw_pow, _reduced, _from_raw) that the
parser, the Hasse calculus and Groebner division build terms with; the
matrices and the proof step hand GradedPoly canonical term dicts.  The
term order used for printing, leading terms and division is graded
lexicographic: weighted degree first, then the exponent vector compared
lexicographically with earlier variables more significant.  One printer,
GradedRing.render, reads raw terms, a polynomial's or a matrix entry's
unboxed; canonical form plus a fixed order makes them byte-stable.

All values are immutable after construction and all operations are pure; a
polynomial only remembers what was asked of it, each a function of its
terms, which nothing changes in place: its associate (monic over F_p, over q
the primitive integer multiple with positive leading coefficient) and its
exponent classes, one grouping per set of direction axes that keeps each
term's exponents off the axes (hasse._exponent_classes); the private
working polynomial of heap division (_Dividend, over q an integer multiple
`scale` of the true one) never leaves its division, and a prepared divisor
set (_Divisors) only grows.

Substitution is one integer kernel for both field kinds: each image used
is cleared of its denominators once, each term scaled onto one common
denominator, which is divided out once per nonzero result term (the
fraction-free idea of Bareiss, Math. Comp. 22 (1968)).

Division and Buchberger's pair update alone pack monomials into ints
(_packing): the weighted degree on top, then k bytes per variable whose top
bit is a guard bit, so int order is the term order, divisibility is one
subtraction and one mask test, and an lcm is a per-field max (cf. Monagan &
Pearce, J. Symb. Comp. 46 (2011); Bachmann & Schoenemann, ISSAC 1998).  A
divisor set (_Divisors) packs its associates and the pairs pending on them at
one width, which only grows: a divisor or a division that meets an exponent
that does not fit widens the set, repacking them in place.  The pair update
filters lcms without the degree, and an S-pair remainder leaves its division
with the associate read off the ints it popped.  Ring products, substitution,
the Hasse calculus and the parser stay on exponent tuples.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import AlgebraError, FieldMismatchError, InternalCheckError, Record, RingMismatchError, SubstitutionError
from .fields import FieldDescriptor, _q_raw


class RingVariable(Record, frozen=True):
    name: str
    part: str = "main"
    weight: int = 1

    def __post_init__(self):
        # the names the polynomial grammar reads
        if not re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", self.name):
            raise AlgebraError(f"bad variable name {self.name!r}")
        if self.weight < 0:
            raise AlgebraError("variable weight must be nonnegative")


def _as_variable(spec) -> RingVariable:
    if isinstance(spec, RingVariable):
        return spec
    if isinstance(spec, str):
        return RingVariable(spec)
    name, part, weight = spec
    return RingVariable(name, part, int(weight))


class GradedRing:
    """Ordered, part-labelled, weighted variable list over a fixed field."""

    __slots__ = ("field", "variables", "names", "weights", "_pos")

    def __init__(self, field: FieldDescriptor, variables=()):
        self.field = field
        self.variables = tuple(_as_variable(v) for v in variables)
        self.names = tuple(v.name for v in self.variables)
        self.weights = tuple(v.weight for v in self.variables)
        if len(set(self.names)) != len(self.names):
            raise AlgebraError("duplicate variable names")
        self._pos = {name: i for i, name in enumerate(self.names)}

    # -- ring derivation ---------------------------------------------------

    def extended(self, extra) -> "GradedRing":
        return GradedRing(self.field, self.variables + tuple(_as_variable(v) for v in extra))

    def without(self, names) -> "GradedRing":
        drop = set(names)
        missing = drop - set(self.names)
        if missing:
            raise AlgebraError(f"variables {sorted(missing)} not in ring")
        return GradedRing(self.field, tuple(v for v in self.variables if v.name not in drop))

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise AlgebraError(f"variable {name!r} not in ring") from None

    def vars_of_part(self, part: str) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.part == part)

    # -- element construction ----------------------------------------------

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    def one(self) -> "GradedPoly":
        return self.const(1)

    def const(self, value) -> "GradedPoly":
        return self.monomial((0,) * len(self.names), value)

    def var(self, name: str) -> "GradedPoly":
        exps = [0] * len(self.names)
        exps[self.position(name)] = 1
        return GradedPoly(self, {tuple(exps): 1}, _canonical=True)

    def monomial(self, exps, coeff=1) -> "GradedPoly":
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise AlgebraError("exponent vector length mismatch")
        c = self.field.raw(coeff)
        return GradedPoly(self, {exps: c} if c else {}, _canonical=True)

    def order_key(self, exps):
        return (sum(map(operator.mul, exps, self.weights)), exps)

    def render(self, terms: dict) -> str:
        """Text of raw terms (exponents -> nonzero raw coefficient) over this
        ring, the one printer of polynomials and matrix entries: terms in
        descending term order, a coefficient +-1 elided before variables."""
        items = terms.items()
        if len(terms) > 1:
            items = sorted(items, key=lambda item: self.order_key(item[0]), reverse=True)
        chunks = []
        for exps, c in items:
            factors = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(self.names, exps) if e])
            negative = c < 0
            mag = -c if negative else c
            body = factors if factors and mag == 1 else f"{mag}*{factors}" if factors else str(mag)
            chunks.append((" - " if negative else " + ") + body)
        text = "".join(chunks)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, GradedRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __str__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    __repr__ = __str__


class GradedPoly:
    """Canonical sparse polynomial: exponent vector -> nonzero raw coefficient,
    each converted by ring.field.raw unless a kernel passes _canonical terms.
    Two private slots are filled on first use and kept: _assoc, the associate
    division reads, and _classes, the exponent classes per set of direction
    axes that the Hasse calculus reads.  A constant of the variable-free ring
    is a scalar (FieldDescriptor.scalar): arithmetic never mixes it with
    another ring's polynomials.  == reads an int or a Fraction by field.raw,
    and a polynomial of another ring is equal exactly when both are
    constants over the same field with equal values: == is transitive within
    a field, and an int still bridges two (F5's one and F3's one equal 1,
    not each other).  A constant hashes as the raw value it holds, so it,
    that value and its scalar are one set element; an int outside the
    canonical range, such as 6 over F5, compares equal but is not hashed
    equal."""

    __slots__ = ("ring", "terms", "_assoc", "_classes")

    def __init__(self, ring: GradedRing, terms: dict, _canonical: bool = False):
        self.ring = ring
        self.terms = terms if _canonical else {e: r for e, c in terms.items() if (r := ring.field.raw(c))}

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support_vars(self) -> tuple[str, ...]:
        """Names of the variables that actually occur, in ring order."""
        used = [False] * len(self.ring.names)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.ring.names, used) if u)

    def weighted_degree(self):
        """Maximum weighted degree, or None for the zero polynomial."""
        return max((sum(map(operator.mul, exps, self.ring.weights)) for exps in self.terms), default=None)

    def total_degree(self):
        return max(map(sum, self.terms), default=None)

    def is_weight_homogeneous(self) -> bool:
        w = self.ring.weights
        degs = {sum(e * wi for e, wi in zip(exps, w)) for exps in self.terms}
        return len(degs) <= 1

    def _associate(self):
        """(leading exponents, a, raw items, packed) of the associate every
        division step by this polynomial reads, computed once: over F_p the
        monic polynomial (a = 1), over q the primitive integer one (a > 0);
        packed is its one-byte _packed form."""
        try:
            return self._assoc
        except AttributeError:
            if not self.terms:
                raise AlgebraError("zero polynomial has no leading term") from None
            exps = max(self.terms, key=self.ring.order_key)
            c, p, ks = self.terms[exps], self.ring.field.characteristic, self.terms.values()
            if p:
                u = pow(c, -1, p)
            else:  # 1 / content, signed so that a > 0
                u = _q_raw(lcm(*(k.denominator for k in ks)), gcd(*(k.numerator for k in ks)))
                u = u if c > 0 else -u
            items = {e: k * u % p if p else (k * u).numerator for e, k in self.terms.items()}
            a, items = items[exps], tuple(items.items())
            self._assoc = exps, a, items, _packed(_packing(self.ring.weights, 1)[0], exps, a, items)
            return self._assoc

    def constant_value(self):
        return self.terms.get((0,) * len(self.ring.names), 0)

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check_same_ring(self, other: "GradedPoly"):
        if self.ring != other.ring:
            error = FieldMismatchError if self.ring.field != other.ring.field else RingMismatchError
            raise error(f"rings differ: {self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ring.field.characteristic
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            s = terms.get(exps)
            if s is None:
                terms[exps] = c
            else:
                s = (s + c) % p if p else _q_raw(s + c)
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return GradedPoly(self.ring, terms, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.characteristic
        return GradedPoly(
            self.ring, {e: p - c if p else -c for e, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.mul_term((0,) * len(self.ring.names), other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_raw(self.ring, _raw_mul_into({}, self.terms.items(), o.terms.items(), 1))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise AlgebraError("polynomial exponent must be a nonnegative integer")
        unit = (0,) * len(self.ring.names)
        return _from_raw(self.ring, _raw_pow(self.terms, exponent, self.ring.field.characteristic, unit))

    def mul_term(self, exps, coeff) -> "GradedPoly":
        """Multiply by a single monomial, exps relative to this ring."""
        c = self.ring.field.raw(coeff)
        if not c:
            return self.ring.zero()
        p = self.ring.field.characteristic
        return GradedPoly(
            self.ring,
            {
                tuple(map(operator.add, e, exps)): k * c % p if p else _q_raw(k * c)
                for e, k in self.terms.items()
            },
            _canonical=True,
        )

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            if other.ring == self.ring:
                return self.terms == other.terms
            return other.ring.field == self.ring.field and self.is_constant() and other.is_constant() and (
                self.constant_value() == other.constant_value())
        try:
            o = self.ring.field.raw(other)
        except AlgebraError:  # a value this field cannot hold
            return False
        return self.is_constant() and self.constant_value() == o

    def __hash__(self):
        return hash(self.constant_value() if self.is_constant() else (self.ring, frozenset(self.terms.items())))

    # -- structural operations -------------------------------------------------

    def coeff_of_power(self, var: str, k: int, target_ring: GradedRing | None = None) -> "GradedPoly":
        """Coefficient polynomial of var**k, in the ring without var."""
        i = self.ring.position(var)
        if target_ring is None:
            target_ring = self.ring.without((var,))
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                terms[exps[:i] + exps[i + 1:]] = c
        return GradedPoly(target_ring, terms, _canonical=True)

    def powers_of(self, var: str) -> tuple[int, ...]:
        i = self.ring.position(var)
        return tuple(sorted({exps[i] for exps in self.terms}))

    def convert(self, target_ring: GradedRing) -> "GradedPoly":
        """Re-express in another ring containing the same-named variables."""
        if target_ring.field != self.ring.field:
            raise FieldMismatchError("conversion across fields")
        positions = [(i, target_ring._pos.get(name)) for i, name in enumerate(self.ring.names)]
        width = len(target_ring.names)
        terms = {}
        for exps, c in self.terms.items():
            out = [0] * width
            for i, j in positions:
                if exps[i]:
                    if j is None:
                        raise AlgebraError(
                            f"variable {self.ring.names[i]!r} absent from target ring"
                        )
                    out[j] = exps[i]
            terms[tuple(out)] = c
        return GradedPoly(target_ring, terms, _canonical=True)

    def substitute(self, mapping: dict) -> "GradedPoly":
        """Ring homomorphism sending each variable to the assigned polynomial.

        The assignment must cover every variable occurring in the polynomial
        and all images must live in one common ring, which becomes the ring
        of the result.  Each term's nonzero (position, exponent) pairs are
        read once.  Each image used is cleared to d_i times itself with int
        coefficients (d_i = 1 over F_p), its powers cached reduced mod p.
        A term c*x^e is scaled onto D, the lcm of den(c)*prod d_i^e_i over
        the terms so far (raising D rescales the sum), and its product of
        cleared powers summed in ints.  D is divided out once per nonzero
        result term by fields._q_raw, so a zero result, as every Segre check
        of a passing rank-one run, meets no Fraction.
        """
        if not mapping:
            raise SubstitutionError("empty substitution")
        target = None
        for img in mapping.values():
            if not isinstance(img, GradedPoly):
                raise SubstitutionError("substitution images must be polynomials")
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise RingMismatchError("substitution images live in different rings")
        if target.field != self.ring.field:
            raise FieldMismatchError("substitution across fields")
        names = self.ring.names
        sparse = [(c, [(i, e) for i, e in enumerate(exps) if e]) for exps, c in self.terms.items()]
        used = {i for _, pairs in sparse for i, _ in pairs}
        missing = [names[i] for i in sorted(used) if names[i] not in mapping]
        if missing:
            raise SubstitutionError(f"missing assignment for {missing}")
        p = target.field.characteristic
        powers = {}  # position -> [d, its cleared image, that image squared, ...]
        for i in used:
            image = mapping[names[i]].terms
            d = lcm(*[c.denominator for c in image.values()])
            powers[i] = [d, [(e, c.numerator * (d // c.denominator)) for e, c in image.items()]]
        one, bare = (((0,) * len(target.names), 1),), (((), 1),)  # bare * factor is factor, with no tuple sums
        acc, D = {}, 1
        for c, pairs in sparse:
            den, factors = c.denominator, []
            for i, e in pairs:
                cache = powers[i]
                den *= cache[0] ** e
                while len(cache) <= e:
                    cache.append(_reduced(_raw_mul_into({}, cache[-1], cache[1], 1), p))
                factors.append(cache[e])
            if D % den:
                rescale = lcm(D, den) // D
                D *= rescale
                acc = {m: v * rescale for m, v in acc.items()}
            *heads, last = factors or [one]
            term = heads[0] if heads else bare
            for factor in heads[1:]:
                term = _reduced(_raw_mul_into({}, term, factor, 1), p)
            _raw_mul_into(acc, term, last, c.numerator * (D // den))
        terms = {m: _q_raw(v, D) for m, v in _reduced(acc, p)}
        return GradedPoly(target, terms, _canonical=True)

    def evaluate(self, point: dict):
        """The raw value at a point given as name -> coordinate, each read
        by field.raw (coordinates outside the ring too).  Only the variables
        the polynomial uses need a coordinate; the first one missing, in
        ring order, is named."""
        field = self.ring.field
        for name in self.support_vars():
            if name not in point:
                raise SubstitutionError(f"missing coordinate for {name!r}")
        raw = {name: field.raw(v) for name, v in point.items()}
        at = [raw.get(name, 0) for name in self.ring.names]
        p = field.characteristic
        total = 0
        for exps, c in self.terms.items():
            for x, e in zip(at, exps):
                if e:
                    c = c * pow(x, e, p) % p if p else c * x**e
            total += c
        return field.raw(total)

    # -- printing ---------------------------------------------------------------

    def to_text(self) -> str:
        return self.ring.render(self.terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"<{self.to_text()}>"


def _raw_mul_into(acc: dict, a, b, scale) -> dict:
    """acc += scale * a * b, unreduced, where acc maps exponents to raw
    coefficients, scale is a raw coefficient and a, b are (exponents, raw)
    pairs: the terms.items() of a polynomial or of an accumulator.  Returns
    acc."""
    for e1, c1 in a:
        c1 *= scale
        for e2, c2 in b:
            # an empty exponent tuple means a ring without variables
            m = tuple(map(operator.add, e1, e2)) if e1 else e2
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def _raw_pow(acc: dict, n: int, p: int, unit) -> dict:
    """acc ** n, unreduced, for a raw accumulator and the exponents unit of
    its ring's constants: a single term scales its exponents, anything else
    is squared and multiplied."""
    if len(acc) == 1:
        ((exps, c),) = acc.items()
        return {tuple(e * n for e in exps): pow(c, n, p) if p else c**n}
    result, base = [(unit, 1)], _reduced(acc, p)
    while n:
        if n & 1:
            result = _reduced(_raw_mul_into({}, result, base, 1), p)
        n >>= 1
        if n:
            base = _reduced(_raw_mul_into({}, base, base, 1), p)
    return dict(result)


def _reduced(acc: dict, p: int) -> list:
    """Nonzero raw terms of an accumulator: reduced mod p over F_p, over q _q_raw's."""
    if p:
        return [(e, r) for e, v in acc.items() if (r := v % p)]
    return [item if type(item[1]) is int else (item[0], _q_raw(item[1])) for item in acc.items() if item[1]]


def _from_raw(ring: GradedRing, acc: dict) -> GradedPoly:
    """Canonical polynomial of a raw accumulator: coefficients reduced mod p
    and zeros dropped."""
    return GradedPoly(ring, dict(_reduced(acc, ring.field.characteristic)), _canonical=True)


class _Overflow(Exception):
    """A monomial of a division does not fit its packed exponent fields."""


@functools.cache
def _packing(weights: tuple, k: int):
    """(pack, unpack, guard, lcm, divides) of monomials with these variable
    weights as ints: the weighted degree over k bytes per exponent, earlier
    variables more significant.  While every guard bit (the top bit of a
    field) is clear, l divides m exactly when ((m | guard) - l) & guard ==
    guard (divides(l, m)), m - l is the quotient, and l + m sets a guard bit
    exactly when an exponent of the product does not fit; pack raises
    _Overflow for such an exponent.  lcm is a per-field max: the guard bits of (a | guard) - b mark
    the fields where a >= b, one product spreads each over its field, and the
    weighted degree is put back on top."""
    low = 8 * k * len(weights)
    mask, guard = (1 << low) - 1, int.from_bytes(bytes([128] + [0] * (k - 1)) * len(weights), "big")
    ones, scales = (1 << 8 * k) - 1, [w << 8 * i for w in weights for i in range(k)[::-1]]
    fields = bytes if k == 1 else lambda exps: b"".join(e.to_bytes(k, "big") for e in exps)

    def pack(exps):
        try:
            body = int.from_bytes(fields(exps), "big")
        except (ValueError, OverflowError):  # an exponent of 8k bits or more, or below 0
            if min(exps) < 0:  # no width would ever fit it
                raise AlgebraError(f"negative exponent in {exps}") from None
            raise _Overflow from None
        if body & guard:
            raise _Overflow
        return sum(map(operator.mul, exps, weights)) << low | body

    def unpack(m):
        body = (m & mask).to_bytes(low // 8, "big")
        if k == 1:
            return tuple(body)
        return tuple(int.from_bytes(body[i:i + k], "big") for i in range(0, len(body), k))

    def lcm(a, b):
        m = a & (s := ((((a | guard) - b) & guard) >> 8 * k - 1) * ones) | b & (mask ^ s)
        return sum(map(operator.mul, m.to_bytes(low // 8, "big"), scales)) << low | m

    return pack, unpack, guard, lcm, lambda l, m: ((m | guard) - l) & guard == guard


def _packed(pack, exps, a, items):
    """An associate (leading exponents, a, raw items) with its monomials
    packed, or None where an exponent does not fit."""
    try:
        return pack(exps), a, tuple((pack(e), c) for e, c in items)
    except _Overflow:
        return None


class _Divisors:
    """Nonzero divisors of one ring, in order, with their associates packed
    (lead, a, items) at the set's one width of k bytes per exponent, and the
    heap of pairs (packed lcm, i, j) that buchberger keeps pending on them;
    packing is _packing's tuple at k.  The set only grows, and so does k:
    widen() repacks the associates and the pairs in place, and packing keeps
    the pairs' order, and so the heap."""

    __slots__ = ("ring", "polys", "packed", "pairs", "k", "packing")

    def __init__(self, ring: GradedRing, polys=()):
        self.ring, self.polys, self.packed, self.pairs = ring, [], [], []
        self.k, self.packing = 1, _packing(ring.weights, 1)
        for g in polys:
            self.append(g)

    def append(self, g: GradedPoly):
        if g.ring is not self.ring and g.ring != self.ring:
            raise RingMismatchError(f"rings differ: {self.ring} vs {g.ring}")
        if g.terms:
            self.polys.append(g)
            self.packed.append(g._associate()[3] if self.k == 1 else _packed(self.packing[0], *g._associate()[:3]))
            if self.packed[-1] is None:
                self.widen()

    def widen(self, f=None):
        """Double k, and again while a divisor does not fit; returns f, its
        lcm repacked too if it is an S-pair (lcm, i, j)."""
        unpack = self.packing[1]
        packed = [None]
        while None in packed:
            self.k *= 2
            self.packing = pack, *_ = _packing(self.ring.weights, self.k)
            packed = [_packed(pack, *g._associate()[:3]) for g in self.polys]
        self.packed = packed
        self.pairs[:] = [(pack(unpack(m)), i, j) for m, i, j in self.pairs]
        return (pack(unpack(f[0])), *f[1:]) if type(f) is tuple else f

    def join(self, h: GradedPoly) -> list:
        """Append h, a basis element of buchberger, and run its Gebauer-Moeller
        update: push the new pairs (k, h) that M and F keep unless coprime, and
        return the pending (i, j) that B drops.  The new lcms are sorted and
        filtered as bodies, without the degree on top; a pair pushed gets it back."""
        self.append(h)  # which may widen the leads and the pairs
        _, _, guard, lcm, _ = self.packing
        bits, mask, ones = 8 * self.k, (1 << guard.bit_length()) - 1, (1 << 8 * self.k) - 1
        *leads, e = [lead for lead, _, _ in self.packed]
        dropped = [(i, j) for m, i, j in self.pairs  # B
                   if ((m | guard) - e) & guard == guard and m not in (lcm(leads[i], e), lcm(leads[j], e))]
        candidates = []  # (body | guard, not coprime, k): coprime first among equal lcms, then lowest k
        for k, d in enumerate(leads):
            s = ((((d | guard) - e) & guard) >> bits - 1) * ones  # the fields where d >= e
            body = d & s | e & (mask ^ s)
            candidates.append((body | guard, body != (d + e) & mask, k))
        candidates.sort()
        while candidates:  # each one kept drops those after it whose lcm its lcm divides (M, F)
            m, shared, k = candidates[0]
            if shared:  # a coprime pair is dropped only now, having served M and F
                heappush(self.pairs, (lcm(leads[k], e), k, len(leads)))
            m ^= guard
            candidates = [c for c in candidates if (c[0] - m) & guard != guard]
        return dropped

    def divide(self, f, run):
        """run(work) on a _Dividend of f at the set's width, widened while a
        monomial does not fit; f may be the S-pair (lcm packed at that width, i, j)."""
        while True:
            try:
                return run(_Dividend(f, self))
            except _Overflow:
                f = self.widen(f)


class _Dividend:
    """Working polynomial of a multivariate division, changed in place.

    Its terms are a mutable copy of the dividend's terms keyed by packed
    monomials (_packing), and a heap holds the negated monomials with lazy
    deletion, so the leading term is found by popping the heap rather than
    scanning the terms (cf. Monagan & Pearce, "Sparse polynomial division
    using a heap", J. Symb. Comp. 46 (2011)).  Its terms are ints, scale
    times the true polynomial (scale is 1 over F_p).  Its divisors are the
    packed associates of a divisor set, at the set's width.  One loop,
    reduce, makes every step of a division: it calls the budget's spend once
    per leading term, rescales the work through rescale, and records each step
    for divide_exact's quotient; pop_leading takes a lead without a divisor.
    """

    __slots__ = ("p", "scale", "terms", "heap", "divisors", "guard", "exponents", "popped", "spair")

    def __init__(self, f, divisors: _Divisors):
        """f is a polynomial or the S-pair (lcm, i, j) of two divisors with
        associates (e, a, g'): a_j*x^(lcm-e_i)*g_i' - a_i*x^(lcm-e_j)*g_j',
        lcm packed at the set's width.  An lcm that is not a multiple of both
        leads is an InternalCheckError."""
        self.p, self.divisors = divisors.ring.field.characteristic, divisors.packed
        pack, self.exponents, self.guard, _, divides = divisors.packing
        self.popped, self.spair = [], type(f) is tuple
        if self.spair:
            top, i, j = f
            (ei, ai, gi), (ej, aj, gj) = self.divisors[i], self.divisors[j]
            self.scale, self.terms, self.heap = 1, {}, []
            for e in (ei, ej):
                if not divides(e, top):
                    raise InternalCheckError(
                        f"S-pair lcm {self.exponents(top)} is not a multiple of the lead {self.exponents(e)}"
                    )
            self.sub_mul(gi, top - ei, -aj)
            self.sub_mul(gj, top - ej, ai)
            return
        self.scale = s = lcm(*(c.denominator for c in f.terms.values()))
        self.terms = {pack(e): c.numerator * (s // c.denominator) for e, c in f.terms.items()}
        self.heap = [-m for m in self.terms]
        heapify(self.heap)

    def reduce(self, spend=None, steps=None):
        """Divide until a leading term has no divisor: returns its packed monomial,
        left on top of the heap, or None once zero.  spend(), if given, is called
        once per leading term.  A step cancels c*x^m by c'*x^(m - lead), c' =
        c/gcd(c, a), times the first divisor (lead, a, items) whose lead divides
        m: it rescales the work by a/gcd(c, a), appends (m - lead, c', scale) to
        steps if given, pops m and subtracts in place as sub_mul does."""
        heap, terms, p, guard, divisors = self.heap, self.terms, self.p, self.guard, self.divisors
        while heap:
            m = -heap[0]
            if (c := terms.get(m)) is None:
                heappop(heap)
                continue
            if spend is not None:
                spend()
            top = m | guard
            for lead, a, items in divisors:
                if (top - lead) & guard == guard:
                    break
            else:
                return m
            heappop(heap)  # the step cancels m
            if a != 1:
                h = gcd(c, a)
                if h != a:
                    self.rescale(a // h)
                    terms = self.terms
                c //= h
            shift = m - lead
            if steps is not None:
                steps.append((shift, c, self.scale))
            for e, k in items:
                e += shift
                kc = k * c
                if (s := terms.get(e)) is None:
                    if e & guard:
                        raise _Overflow
                    terms[e] = -kc % p if p else -kc
                    heappush(heap, -e)
                elif s := (s - kc) % p if p else s - kc:
                    terms[e] = s
                else:
                    del terms[e]
        return None

    def pop_leading(self):
        """Move the leading term, the monomial reduce returned, to popped: (packed monomial, int coefficient, scale)."""
        m = -heappop(self.heap)
        self.popped.append((m, self.terms.pop(m), self.scale))

    def remainder(self, divisors: _Divisors) -> GradedPoly:
        """The popped terms, in order, as a polynomial of the divisors' ring.  An
        S-pair's comes with its associate: the popped ints at the last scale, the
        first one leading, times its inverse over F_p, over q over their signed gcd."""
        popped, ring, p = self.popped, divisors.ring, self.p
        r = GradedPoly(ring, {self.exponents(m): _q_raw(c, s) for m, c, s in popped}, _canonical=True)
        if self.spair and popped:
            ints = [c * (self.scale // s) for _, c, s in popped]
            u = pow(ints[0], -1, p) if p else gcd(*ints) if ints[0] > 0 else -gcd(*ints)
            ints = [c * u % p for c in ints] if p else [c // u for c in ints]
            lead, a, items = next(iter(r.terms)), ints[0], tuple(zip(r.terms, ints))
            packed = (popped[0][0], a, tuple(zip([m for m, _, _ in popped], ints))) if divisors.k == 1 else (
                _packed(_packing(ring.weights, 1)[0], lead, a, items))
            r._assoc = lead, a, items, packed
        return r

    def rescale(self, m: int):
        """Multiply the work polynomial, and so scale, by the int m."""
        self.scale *= m
        self.terms = {e: c * m for e, c in self.terms.items()}

    def sub_mul(self, items, shift, coeff):
        """work -= coeff * x^shift * items, for packed (monomial, int) items, as
        a step of reduce does inline.  A new monomial is pushed onto the heap
        (_Overflow if it sets a guard bit); a cancelled one is left there."""
        terms, heap, p, guard = self.terms, self.heap, self.p, self.guard
        for e, k in items:
            m = e + shift
            kc = k * coeff
            if (s := terms.get(m)) is None:
                if m & guard:
                    raise _Overflow
                terms[m] = -kc % p if p else -kc
                heappush(heap, -m)
            elif s := (s - kc) % p if p else s - kc:
                terms[m] = s
            else:
                del terms[m]


class Vector(Record, frozen=True):
    """Coordinates of a point or direction over a labelled basis."""

    basis: tuple[str, ...]
    coords: tuple  # raw coefficients

    def __post_init__(self):
        if len(self.basis) != len(self.coords):
            raise AlgebraError("vector length does not match its basis")

    def as_dict(self) -> dict:
        return dict(zip(self.basis, self.coords))
