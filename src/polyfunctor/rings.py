"""Sparse graded multivariate polynomials with exact coefficients.

A GradedRing fixes an ordered list of variables, each carrying the label of
the functor summand it lives on and a nonnegative integer weight (the degree
of that summand).  A GradedPoly is a canonical sparse map from exponent
vectors to nonzero raw coefficients: residues in [1, p) over F_p, and over
q an int when the value is integral, else a Fraction (an integral Fraction
a kernel leaves behind is equal, hashes equal and prints the same).  Only
this module knows that format; Scalar is the type at the API boundary
(constant_value, evaluate, evaluate_all, Vector).  The term order used for
printing, leading terms and division is graded lexicographic: weighted
degree first, then the exponent vector compared lexicographically with
earlier variables more significant.  Canonical form plus a fixed order
makes all printed output byte-stable.

All values are immutable after construction and all operations are pure; a
polynomial only remembers its associate once asked for it (monic over F_p,
over q the primitive integer multiple with positive leading coefficient),
and the private working polynomial of heap division (_Dividend, over q an
integer multiple `scale` of the true one) never leaves its division.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm

from .errors import AlgebraError, FieldMismatchError, RingMismatchError, SubstitutionError
from .fields import FieldDescriptor, Scalar


@dataclass(frozen=True)
class RingVariable:
    name: str
    part: str = "main"
    weight: int = 1

    def __post_init__(self):
        if not self.name or not (self.name[0].isalpha()):
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
        c = _raw(self.field, coeff)
        return GradedPoly(self, {exps: c} if c else {}, _canonical=True)

    def order_key(self, exps):
        return (sum(map(operator.mul, exps, self.weights)), exps)

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
    """Canonical sparse polynomial: exponent vector -> nonzero raw coefficient."""

    __slots__ = ("ring", "terms", "_assoc")

    def __init__(self, ring: GradedRing, terms: dict, _canonical: bool = False):
        self.ring = ring
        if _canonical:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if c}

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
        if not self.terms:
            return None
        w = self.ring.weights
        return max(sum(e * wi for e, wi in zip(exps, w)) for exps in self.terms)

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(exps) for exps in self.terms)

    def is_weight_homogeneous(self) -> bool:
        w = self.ring.weights
        degs = {sum(e * wi for e, wi in zip(exps, w)) for exps in self.terms}
        return len(degs) <= 1

    def leading_item(self):
        """(exponents, raw coefficient) of the leading term under the ring order."""
        exps = self._associate()[0]
        return exps, self.terms[exps]

    def _associate(self):
        """(leading exponents, a, raw items) of the associate every division
        step by this polynomial reads, computed once: over F_p the monic
        polynomial (a = 1), over q the primitive integer one (a > 0)."""
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
                u = Fraction(lcm(*(k.denominator for k in ks)), gcd(*(k.numerator for k in ks)))
                u = u if c > 0 else -u
            items = {e: k * u % p if p else (k * u).numerator for e, k in self.terms.items()}
            self._assoc = exps, items[exps], tuple(items.items())
            return self._assoc

    def constant_value(self) -> Scalar:
        return self.ring.field.scalar(self.terms.get((0,) * len(self.ring.names), 0))

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check_same_ring(self, other: "GradedPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction, Scalar)):
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
                s = (s + c) % p if p else s + c
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
        if isinstance(other, (int, Fraction, Scalar)):
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
        c = _raw(self.ring.field, coeff)
        if not c:
            return self.ring.zero()
        p = self.ring.field.characteristic
        return GradedPoly(
            self.ring,
            {
                tuple(map(operator.add, e, exps)): k * c % p if p else k * c
                for e, k in self.terms.items()
            },
            _canonical=True,
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

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

    def max_power(self, var: str) -> int:
        i = self.ring.position(var)
        return max((exps[i] for exps in self.terms), default=0)

    def powers_of(self, var: str) -> tuple[int, ...]:
        i = self.ring.position(var)
        return tuple(sorted({exps[i] for exps in self.terms}))

    def convert(self, target_ring: GradedRing) -> "GradedPoly":
        """Re-express in another ring containing the same-named variables."""
        if target_ring.field != self.ring.field:
            raise FieldMismatchError("conversion across fields")
        positions = []
        for i, name in enumerate(self.ring.names):
            if name in target_ring._pos:
                positions.append((i, target_ring.position(name)))
            else:
                positions.append((i, None))
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
        of the result.  Powers of each image are cached reduced mod p; every
        term's product of powers is multiplied into one accumulator.
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
        missing = [n for n in self.support_vars() if n not in mapping]
        if missing:
            raise SubstitutionError(f"missing assignment for {missing}")
        p = target.field.characteristic
        names = self.ring.names
        unit = (0,) * len(target.names)
        one = ((unit, 1),)
        powers: dict[int, list] = {}  # position -> raw powers of its image

        def power(i: int, e: int):
            cache = powers.get(i)
            if cache is None:
                cache = powers[i] = [one, mapping[names[i]].terms.items()]
            while len(cache) <= e:
                cache.append(_reduced(_raw_mul_into({}, cache[-1], cache[1], 1), p))
            return cache[e]

        acc: dict = {}
        for exps, c in self.terms.items():
            term, *factors = [power(i, e) for i, e in enumerate(exps) if e] or [one]
            for factor in factors[:-1]:
                term = _reduced(_raw_mul_into({}, term, factor, 1), p)
            _raw_mul_into(acc, term, factors[-1] if factors else one, c)
        return _from_raw(target, acc)

    def evaluate(self, point: dict) -> Scalar:
        """Evaluate at a point given as name -> scalar (ints are coerced)."""
        return evaluate_all((self,), point)[0]

    # -- printing ---------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self.ring.order_key(item[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            negative = c < 0
            mag = -c if negative else c
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"<{self.to_text()}>"


def evaluate_all(polys, point: dict) -> list[Scalar]:
    """Values of a sequence of polynomials of one ring at a point given as
    name -> scalar (ints and Fractions are coerced).  Every coordinate is
    coerced once, even one outside the ring, and each term multiplies only
    its nonzero powers.  Only the variables a polynomial uses need a
    coordinate; the first one missing, in ring order, is named."""
    if not polys:
        return []
    for f in polys:
        polys[0]._check_same_ring(f)
    ring = polys[0].ring
    if not point.keys() >= ring._pos.keys():
        for f in polys:
            for name in f.support_vars():
                if name not in point:
                    raise SubstitutionError(f"missing coordinate for {name!r}")
    field = ring.field
    raw = {name: _raw(field, v) for name, v in point.items()}
    vals = [raw.get(name) for name in ring.names]
    p = field.characteristic
    out = []
    for f in polys:
        total = 0
        for exps, c in f.terms.items():
            for v, e in compress(zip(vals, exps), exps):
                c = c * pow(v, e, p) % p if p else c * v**e
            total += c
        out.append(field.scalar(total))
    return out


def _raw(field: FieldDescriptor, value):
    """Raw coefficient of a Scalar, int or Fraction: a residue in [0, p) over
    F_p; over q an int when integral, so products of integer entries skip
    Fraction, else a Fraction."""
    v = field.scalar(value).value
    return v if field.characteristic or v.denominator != 1 else v.numerator


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
    """Nonzero raw terms of an accumulator, reduced mod p over F_p."""
    if p:
        return [(e, r) for e, v in acc.items() if (r := v % p)]
    return [item for item in acc.items() if item[1]]


def _from_raw(ring: GradedRing, acc: dict) -> GradedPoly:
    """Canonical polynomial of a raw accumulator: coefficients reduced mod p
    and zeros dropped."""
    return GradedPoly(ring, dict(_reduced(acc, ring.field.characteristic)), _canonical=True)


def _heap_entry(exps, weights):
    """Heap entry of a monomial: heapq's minimum is the leading monomial."""
    return (-sum(map(operator.mul, exps, weights)), tuple(map(operator.neg, exps)), exps)


class _Dividend:
    """Working polynomial of a multivariate division, changed in place.

    Its terms are a mutable copy of the dividend's terms, and a heap holds
    its monomials with lazy deletion, so the leading term is found by popping
    the heap rather than scanning the terms (cf. Monagan & Pearce, "Sparse
    polynomial division using a heap", J. Symb. Comp. 46 (2011)).  Its terms
    are ints, scale times the true polynomial (scale is 1 over F_p).
    """

    __slots__ = ("p", "weights", "scale", "terms", "heap")

    def __init__(self, f: GradedPoly):
        self.p = f.ring.field.characteristic
        self.weights = weights = f.ring.weights
        self.scale = s = lcm(*(k.denominator for k in f.terms.values()))
        self.terms = {e: k.numerator * (s // k.denominator) for e, k in f.terms.items()}
        self.heap = [_heap_entry(e, weights) for e in self.terms]
        heapify(self.heap)

    def leading(self):
        """(exponents, coefficient) of the leading term, or None once zero."""
        heap, terms = self.heap, self.terms
        while heap:
            exps = heap[0][2]
            c = terms.get(exps)
            if c is not None:
                return exps, c
            heappop(heap)
        return None

    def pop_leading(self):
        """Remove the leading term, found by leading(); returns its true value."""
        return self.unscale(self.terms.pop(heappop(self.heap)[2]))

    def unscale(self, c):
        """True value of a raw coefficient of the work polynomial."""
        return c if self.scale == 1 else Fraction(c, self.scale)

    def rescale(self, m: int):
        """Multiply the work polynomial, and so scale, by the int m."""
        self.scale *= m
        self.terms = {e: c * m for e, c in self.terms.items()}

    def sub_mul(self, items, exps, coeff):
        """work -= coeff * x^exps * items, for raw (exponents, int) items.  A new
        monomial is pushed onto the heap; a cancelled one is left there."""
        terms, heap, p, weights = self.terms, self.heap, self.p, self.weights
        for e, k in items:
            m = tuple(map(operator.add, e, exps))
            kc = k * coeff
            s = terms.get(m)
            if s is None:
                terms[m] = -kc % p if p else -kc
                heappush(heap, _heap_entry(m, weights))
            else:
                s = (s - kc) % p if p else s - kc
                if s:
                    terms[m] = s
                else:
                    del terms[m]


@dataclass(frozen=True)
class Vector:
    """Coordinates of a point or direction over a labelled basis."""

    space: str
    basis: tuple[str, ...]
    coords: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.coords):
            raise AlgebraError("vector length does not match its basis")

    def as_dict(self) -> dict:
        return dict(zip(self.basis, self.coords))
