"""Exact scalars over the rationals or a prime field.

A field element has one format, the raw coefficient: a residue in [0, p)
over F_p; over q an int when integral, else a fractions.Fraction, a rule
that _q_raw alone decides and every kernel keeps: no result holds an
integral Fraction.  FieldDescriptor.raw is the one conversion into it, and
every value the package computes or returns is one.  A boxed scalar,
FieldDescriptor.scalar, is a constant of the field's variable-free ring
(rings.GradedRing(field, ())), with that ring's operators; no module of the
package builds one.  No floating point is used anywhere.

The characteristic exponent of a field is 1 in characteristic 0 and p in
characteristic p; it is the base for the power levels appearing in
directional calculus, so that code paths in both characteristics unify.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import AlgebraError, FieldMismatchError, ParseError, Record


# Miller-Rabin with the first thirteen prime bases is deterministic below
# this bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise AlgebraError(f"modulus {p} is too large for the deterministic primality test")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _q_raw(v, d: int = 1):
    """The raw q coefficient of v / d, for ints v and d != 0 or a Fraction v
    over 1: an int when integral, else a Fraction; an int over 1 as it is."""
    if type(v) is not int:
        return v.numerator if v.denominator == 1 else v
    return v if d == 1 else v // d if v % d == 0 else Fraction(v, d)


class FieldDescriptor(Record, frozen=True):
    """Ground field: either the rationals or F_p for a prime p."""

    kind: str  # "rationals" | "prime-field"
    characteristic: int
    char_exponent: int

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0 or self.char_exponent != 1:
                raise AlgebraError("rationals must have characteristic 0 and exponent 1")
        elif self.kind == "prime-field":
            if not _is_prime(self.characteristic):
                raise AlgebraError(f"{self.characteristic} is not prime")
            if self.char_exponent != self.characteristic:
                raise AlgebraError("characteristic exponent must equal p")
        else:
            raise AlgebraError(f"unknown field kind {self.kind!r}")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rationals() -> "FieldDescriptor":
        return FieldDescriptor("rationals", 0, 1)

    @staticmethod
    def prime_field(p: int) -> "FieldDescriptor":
        return FieldDescriptor("prime-field", p, p)

    @staticmethod
    def parse(text: str) -> "FieldDescriptor":
        """Parse a field selector string: ``q`` or ``fp:<prime>``."""
        text = text.strip()
        if text == "q":
            return FieldDescriptor.rationals()
        if text.startswith("fp:"):
            digits = text[3:]
            if not digits.isdigit():
                raise ParseError(f"bad prime in field selector {text!r}", 3, text)
            return FieldDescriptor.prime_field(int(digits))
        raise ParseError(f"unknown field selector {text!r}", 0, text)

    # -- element construction ---------------------------------------------

    def raw(self, value):
        """The raw coefficient of an int, a Fraction or a scalar (a constant
        of this field's variable-free ring), the package's one number format:
        a residue in [0, p) over F_p; over q _q_raw's.  A scalar of another
        field is a FieldMismatchError, any other value an AlgebraError."""
        p = self.characteristic
        if isinstance(value, int):
            return value % p if p else int(value)
        if isinstance(value, Fraction):
            if p and not value.denominator % p:
                raise AlgebraError("denominator vanishes in the prime field")
            return value.numerator * pow(value.denominator, -1, p) % p if p else _q_raw(value)
        from .rings import GradedPoly  # rings builds on this module

        if not isinstance(value, GradedPoly) or value.ring.names:
            raise AlgebraError(f"{value!r} is no int, Fraction or scalar")
        if value.ring.field is not self and value.ring.field != self:
            raise FieldMismatchError(f"scalar over {value.ring.field} used in {self}")
        return value.terms.get((), 0)

    def scalar(self, value):
        """value as a constant of this field's variable-free ring."""
        from .rings import GradedRing  # rings builds on this module

        return GradedRing(self).const(value)

    def zero(self):
        return self.scalar(0)

    def __str__(self) -> str:
        if self.characteristic == 0:
            return "q"
        return f"fp:{self.characteristic}"


def lucas_binomial(a: int, r: int, field: FieldDescriptor) -> int:
    """Binomial coefficient C(a, r) as a raw coefficient of the field.

    In characteristic p the value is computed digit-wise in base p, which
    keeps each factor below p regardless of the size of a.
    """
    if a < 0 or r < 0:
        raise AlgebraError("binomial arguments must be nonnegative")
    p = field.characteristic
    if p == 0:
        return comb(a, r)
    result = 1
    while result and (a or r):
        (a, ad), (r, rd) = divmod(a, p), divmod(r, p)
        result = result * comb(ad, rd) % p
    return result
