"""Exact scalars over the rationals or a prime field.

Rational values are arbitrary-precision fractions.Fraction instances and
prime-field values are canonical residues in [0, p).  No floating point is
used anywhere in the package.

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

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"scalar over {value.field} used in {self}")
            return value
        if self.characteristic == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            num = value.numerator % self.characteristic
            den = value.denominator % self.characteristic
            if den == 0:
                raise AlgebraError("denominator vanishes in the prime field")
            return Scalar(self, num * pow(den, -1, self.characteristic) % self.characteristic)
        return Scalar(self, int(value) % self.characteristic)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def __str__(self) -> str:
        if self.characteristic == 0:
            return "q"
        return f"fp:{self.characteristic}"


class Scalar:
    """An exact field element tagged with its field."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError("scalars over different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.field.characteristic == 0:
            return Scalar(self.field, self.value + o.value)
        return Scalar(self.field, (self.value + o.value) % self.field.characteristic)

    __radd__ = __add__

    def __neg__(self):
        if self.field.characteristic == 0:
            return Scalar(self.field, -self.value)
        return Scalar(self.field, (-self.value) % self.field.characteristic)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.field.characteristic == 0:
            return Scalar(self.field, self.value * o.value)
        return Scalar(self.field, (self.value * o.value) % self.field.characteristic)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.characteristic == 0:
            return Scalar(self.field, self.value ** exponent)
        return Scalar(self.field, pow(self.value, exponent, self.field.characteristic))

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.field.characteristic == 0:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, self.field.characteristic))

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        o = self._coerce(other) if not isinstance(other, Scalar) else other
        if o is None:
            return NotImplemented
        if isinstance(o, Scalar) and o.field != self.field:
            return False
        return self.value == o.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self) -> str:
        if self.field.characteristic == 0 and self.value.denominator != 1:
            return f"{self.value.numerator}/{self.value.denominator}"
        return str(int(self.value) if self.field.characteristic else self.value.numerator)

    __repr__ = __str__


def lucas_binomial(a: int, r: int, field: FieldDescriptor) -> Scalar:
    """Binomial coefficient C(a, r) reduced into the field.

    In characteristic p the value is computed digit-wise in base p, which
    keeps each factor below p regardless of the size of a.
    """
    if a < 0 or r < 0:
        raise AlgebraError("binomial arguments must be nonnegative")
    p = field.characteristic
    if p == 0:
        return field.scalar(comb(a, r))
    result = 1
    aa, rr = a, r
    while rr > 0 or aa > 0:
        ad, aa = aa % p, aa // p
        rd, rr = rr % p, rr // p
        result = result * comb(ad, rd) % p
        if result == 0:
            return field.zero()
    return field.scalar(result)
