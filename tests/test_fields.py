import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from polyfunctor import AlgebraError, FieldDescriptor, GradedRing, lucas_binomial
from polyfunctor.errors import FieldMismatchError, RingMismatchError
from polyfunctor.fields import _is_prime

from conftest import F2, F3, F5, Q


def test_field_descriptor_invariants():
    assert Q.characteristic == 0 and Q.char_exponent == 1
    assert F5.characteristic == 5 and F5.char_exponent == 5
    with pytest.raises(AlgebraError):
        FieldDescriptor.prime_field(6)
    # a field is its characteristic: FieldDescriptor(0) is q, so prime_field(0) refuses
    assert FieldDescriptor(0) == Q and FieldDescriptor(5) == F5
    with pytest.raises(AlgebraError, match="^0 is not prime$"):
        FieldDescriptor.prime_field(0)


def test_field_parse_round_trip():
    assert FieldDescriptor.parse("q") == Q
    assert FieldDescriptor.parse("fp:7") == FieldDescriptor.prime_field(7)
    assert str(F3) == "fp:3"
    assert str(Q) == "q"


def test_scalar_exactness_rationals():
    a = Q.scalar(Fraction(1, 3))
    b = Q.scalar(Fraction(1, 6))
    assert Q.raw(a + b) == Fraction(1, 2)
    assert Q.raw(a - b) == Fraction(1, 6)
    assert Q.raw(a * b) == Fraction(1, 18)


def test_scalar_prime_field_canonical():
    a = F5.scalar(7)
    assert F5.raw(a) == 2
    assert F5.raw(a + F5.scalar(3)) == 0
    assert F5.raw(-a) == 3
    assert F5.raw(F5.scalar(Fraction(1, 2))) == 3  # 2 * 3 = 6 = 1 mod 5


def test_scalar_field_mismatch():
    with pytest.raises(FieldMismatchError):
        F3.scalar(1) + F5.scalar(1)


def test_a_scalar_meets_no_other_ring_in_arithmetic():
    # a scalar is a constant of the variable-free ring: polynomials of another
    # ring over the same field scale by ints and Fractions, not by it
    x = GradedRing(F5, ["x"]).var("x")
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(RingMismatchError):
            op(x, F5.scalar(2))
        with pytest.raises(RingMismatchError):
            op(F5.scalar(2), x)
    assert x * 2 == x * Fraction(12, 6) == 2 * x


def test_lucas_small_rational():
    assert lucas_binomial(6, 2, Q) == 15


def test_lucas_p_choose_one_vanishes():
    for fld in (F2, F3, F5):
        p = fld.characteristic
        assert not lucas_binomial(p, 1, fld)


def test_lucas_matches_factorial_oracle_everywhere():
    # digit-wise product agrees with the plain binomial reduced mod p
    for fld in (F2, F3, F5, FieldDescriptor.prime_field(7)):
        p = fld.characteristic
        for a in range(201):
            for r in range(a + 1):
                assert lucas_binomial(a, r, fld) == comb(a, r) % p


@pytest.mark.parametrize("a, r", [(-1, 0), (0, -1), (-2, -3)])
@pytest.mark.parametrize("fld", (Q, F5), ids=str)
def test_lucas_refuses_a_negative_argument(fld, a, r):
    with pytest.raises(AlgebraError) as info:
        lucas_binomial(a, r, fld)
    assert type(info.value) is AlgebraError and str(info.value) == "binomial arguments must be nonnegative"


@given(st.integers(0, 500), st.integers(0, 500))
def test_lucas_rational_is_exact_binomial(a, r):
    assert lucas_binomial(a, r, Q) == comb(a, r)


def test_lucas_returns_the_raw_binomial():
    # an int, as the Hasse kernel multiplies it: comb(a, r) over q, in [0, p) over F_p
    for a in range(40):
        for r in range(a + 2):
            got = lucas_binomial(a, r, Q)
            assert type(got) is int and got == comb(a, r)
            for fld in (F3, FieldDescriptor.prime_field(101)):
                got = lucas_binomial(a, r, fld)
                assert type(got) is int and 0 <= got < fld.characteristic and got == comb(a, r) % fld.characteristic


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_scalar_arithmetic_is_field_arithmetic(x, y, z):
    a, b, c = Q.scalar(x), Q.scalar(y), Q.scalar(z)
    assert Q.raw((a + b) + c) == (x + y) + z
    assert Q.raw(a * (b + c)) == x * (y + z)


def _trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_primality_matches_trial_division():
    for p in range(0, 3000):
        assert _is_prime(p) == _trial_division_is_prime(p), p
    # Carmichael numbers and strong pseudoprimes to the smallest bases
    for composite in (561, 41041, 3215031751, 3825123056546413051):
        assert not _is_prime(composite)


def test_large_prime_modulus_parses_quickly():
    start = time.perf_counter()
    field = FieldDescriptor.parse("fp:2305843009213693951")  # 2^61 - 1
    assert time.perf_counter() - start < 0.5
    assert field.characteristic == 2**61 - 1


def test_composite_without_small_factors_is_refused():
    # 399165290221 * 798330580441: a strong pseudoprime to every prime base
    # up to 37, caught by base 41
    with pytest.raises(AlgebraError, match="not prime"):
        FieldDescriptor.parse("fp:318665857834031151167461")


def test_modulus_beyond_the_deterministic_bound_is_refused():
    with pytest.raises(AlgebraError, match="too large"):
        FieldDescriptor.parse("fp:3317044064679887385961981")
    with pytest.raises(AlgebraError, match="too large"):
        FieldDescriptor.prime_field(2**127 - 1)


def test_equality_with_a_value_the_field_cannot_hold_is_false():
    # a denominator that vanishes mod p, or a scalar of another field, is not
    # equal to anything of this field; arithmetic with it still raises
    one, x_one = F5.scalar(1), GradedRing(F5, ["x"]).one()
    for other in (Fraction(1, 5), Q.scalar(1), F3.scalar(1)):
        assert one != other and not one == other and other != one
        assert x_one != other and not x_one == other and other != x_one
    assert Fraction(1, 5) not in [one] and Q.scalar(1) not in [x_one]
    assert one == Fraction(6, 1) and x_one == F5.scalar(6) and F5.scalar(6) == x_one and x_one == 1
    with pytest.raises(AlgebraError, match="denominator vanishes"):
        one + Fraction(1, 5)
    with pytest.raises(AlgebraError, match="denominator vanishes"):
        x_one + Fraction(1, 5)
    with pytest.raises(FieldMismatchError):
        x_one * Q.scalar(1)
