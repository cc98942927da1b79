"""FieldDescriptor.raw, the one conversion into raw coefficients, against the
conversion by boxing it replaced; and the parser, which converts every
coefficient it reads without building a scalar."""

import random
from fractions import Fraction

import pytest

from polyfunctor import AlgebraError, FieldDescriptor, GradedRing, parse_polynomial
from polyfunctor.errors import FieldMismatchError
from polyfunctor.rings import GradedPoly

from conftest import F2, F3, F5, Q, raw_coefficient

F101 = FieldDescriptor.prime_field(101)
FIELDS = (Q, F2, F3, F5, F101, FieldDescriptor.prime_field(32003))


def _same(got, want):
    assert got == want and type(got) is type(want)


def _values(rng, field):
    """Seeded signed ints (0, multiples of p and 30-digit ones among them)
    and Fractions (integral ones among them) whose denominators are units."""
    p = field.characteristic
    ints = [0, 1, -1, p, -p, 3 * p + 1, 10**30, -(10**30) - 7]
    ints += [rng.randint(-(10**30), 10**30) for _ in range(20)] + [rng.randint(-50, 50) for _ in range(20)]
    fractions = [Fraction(4, 2), Fraction(-9, 3), Fraction(0, 5), Fraction(-1, 2) if p != 2 else Fraction(-1, 3)]
    while len(fractions) < 60:
        f = Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**6))
        if not p or f.denominator % p:
            fractions.append(f)
    return ints, fractions


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_raw_agrees_with_the_conversion_by_boxing(field):
    rng = random.Random(field.characteristic)
    ints, fractions = _values(rng, field)
    for v in ints + fractions:
        _same(field.raw(v), raw_coefficient(field, v))
        _same(field.raw(field.scalar(v)), raw_coefficient(field, v))
    # integral Fractions come back as ints over q, as residues over F_p
    for v in (Fraction(4, 2), Fraction(-9, 3), Fraction(10**40, 1)):
        _same(field.raw(v), int(v) % field.characteristic if field.characteristic else int(v))
    # a scalar of the field gives its raw value, built directly or left by arithmetic
    for v in ints + fractions:
        s = field.scalar(v)
        _same(field.raw(s), raw_coefficient(field, s))
        assert field.scalar(s) == s
        left = s * 3 - s - s
        assert field.raw(left) == raw_coefficient(field, left) == raw_coefficient(field, v)


@pytest.mark.parametrize("field", FIELDS[1:], ids=str)
def test_raw_refuses_a_vanishing_denominator(field):
    rng = random.Random(field.characteristic)
    p = field.characteristic
    for _ in range(20):
        num = rng.choice([k for k in range(-50, 51) if k % p])
        v = Fraction(num, p * rng.randint(1, 40))
        with pytest.raises(AlgebraError) as want:
            raw_coefficient(field, v)
        with pytest.raises(AlgebraError) as got:
            field.raw(v)
        assert str(got.value) == str(want.value) == "denominator vanishes in the prime field"
        with pytest.raises(AlgebraError, match="denominator vanishes"):
            field.scalar(v)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_raw_refuses_a_scalar_of_another_field(field):
    for other in FIELDS:
        if other == field:
            continue
        s = other.scalar(Fraction(1, 3) if other.characteristic != 3 else 2)
        with pytest.raises(FieldMismatchError) as want:
            raw_coefficient(field, s)
        with pytest.raises(FieldMismatchError) as got:
            field.raw(s)
        assert str(got.value) == str(want.value)
        with pytest.raises(FieldMismatchError):
            field.scalar(s)


def test_scalar_value_is_the_raw_coefficient():
    half = Q.scalar(Fraction(1, 2))
    _same(Q.raw(Q.scalar(Fraction(6, 3))), 2)
    _same(F5.raw(F5.zero()), 0)
    # an integral Fraction left by arithmetic equals, hashes and prints as its int
    for s, text in ((half + half, "1"), (half * -4, "-2"), (half - 1, "-1/2"), (half ** 3, "1/8"),
                    (F5.scalar(Fraction(1, 2)), "3")):
        field = s.ring.field
        assert str(s) == text and repr(s) == f"<{text}>"
        assert s == field.scalar(Fraction(text)) and hash(s) == hash(field.scalar(Fraction(text)))
        _same(field.raw(s), field.raw(Fraction(text)))


def test_a_constant_hashes_as_the_value_it_equals():
    ring = GradedRing(F5, ["x"])
    assert len({ring.one(), 1, F5.scalar(1)}) == 1
    assert len({ring.zero(), 0}) == 1 and len({F5.zero(), 0, ring.zero()}) == 1
    assert {ring.const(3): "c"}[3] == "c" and hash(ring.const(3)) == hash(3)
    # an int outside the canonical range compares equal but hashes apart
    assert ring.one() == 6 and hash(ring.one()) != hash(6)
    q_ring = GradedRing(Q, ["x", "y"])
    half = Fraction(1, 2)
    assert len({q_ring.const(half), half, Q.scalar(half)}) == 1
    assert len({q_ring.one(), 1, Fraction(1), Q.scalar(1)}) == 1
    # a nonconstant polynomial still hashes by its ring and terms
    x = q_ring.var("x")
    assert len({x + half, x + half, GradedRing(Q, ["x", "z"]).var("x") + half}) == 2


@pytest.mark.parametrize("field, value", ((F5, 1), (Q, Fraction(1, 2))), ids=str)
def test_constants_of_two_rings_over_one_field_are_equal(field, value):
    # equality within a field is transitive, so a set's size does not depend
    # on the order its elements are inserted in
    rx, ry = GradedRing(field, ["x"]).const(value), GradedRing(field, ["y"]).const(value)
    assert rx == ry and ry == rx and rx == field.scalar(value) == ry
    assert len({rx, value, ry}) == len({value, rx, ry}) == len({ry, rx}) == 1
    # a polynomial of another ring equals only as a constant of equal value
    x, y = GradedRing(field, ["x"]).var("x"), GradedRing(field, ["y"]).var("y")
    assert rx != ry + 1 and x != y and x != GradedRing(field, ["x", "z"]).var("x") and rx + x != ry + y
    # an int still bridges two fields, whose constants stay unequal
    other = GradedRing(F3 if field is F5 else F5, ["y"]).one()
    assert GradedRing(field, ["x"]).one() == 1 == other and GradedRing(field, ["x"]).one() != other


@pytest.mark.parametrize("field", (Q, F3, F101), ids=str)
@pytest.mark.parametrize("fractional", (False, True))
def test_parsing_builds_no_scalar(field, fractional, scalar_calls):
    # a conversion by boxing would build one scalar per coefficient read
    rng = random.Random(3)
    ring = GradedRing(field, ["x", "y", "z"])
    chunks, want = [], ring.zero()
    for i in range(200):
        exps = [rng.randint(0, 4) for _ in ring.names]
        c = Fraction(rng.randint(1, 9), rng.choice((2, 5, 7)) if fractional else 1)
        chunks.append(f"{c}*x^{exps[0]}*y^{exps[1]}*z^{exps[2]}")
        want = want + ring.monomial(exps, c if i == 0 else -c)
    text = " - ".join(chunks)
    if fractional:
        text += " + 2*(x - 1/2*y)^3"
        want = want + 2 * (ring.var("x") - Fraction(1, 2) * ring.var("y")) ** 3
    scalar_calls.clear()
    f = parse_polynomial(text, ring)
    assert scalar_calls == []
    assert f == want


@pytest.mark.parametrize("field", (Q, F5), ids=str)
@pytest.mark.parametrize("value", (0.5, 2.7, -1.0, "3", "1/2", None, [1], 1j, GradedRing(Q, ["x"]).var("x"),
                                   GradedRing(Q, ["x"]).one()), ids=repr)
def test_raw_refuses_anything_but_an_int_a_fraction_or_a_scalar(field, value):
    with pytest.raises(AlgebraError, match="is no int, Fraction or scalar"):
        field.raw(value)
    with pytest.raises(AlgebraError):
        field.scalar(value)
    with pytest.raises(AlgebraError):
        GradedRing(field, ["x"]).const(value)
    # the int and Fraction paths stay open, a bool reading as its int
    _same(field.raw(True), 1)
    _same(field.raw(Fraction(6, 2)), 3)


def test_the_public_polynomial_constructor_converts_each_coefficient():
    ring = GradedRing(F5, ["x"])
    x = ring.var("x")
    seven = GradedPoly(ring, {(1,): 7, (0,): Fraction(1, 2)})
    assert seven.terms == {(1,): 2, (0,): 3}
    assert seven == 2 * x + 3 and seven.to_text() == "2*x + 3"
    assert (seven - (2 * x + 3)).is_zero()
    assert GradedPoly(ring, {(1,): 5, (0,): -10}).is_zero()
    assert GradedPoly(ring, {(1,): F5.scalar(4)}) == 4 * x
    with pytest.raises(FieldMismatchError):
        GradedPoly(ring, {(1,): Q.scalar(4)})
    with pytest.raises(AlgebraError, match="denominator vanishes"):
        GradedPoly(ring, {(1,): Fraction(1, 5)})
    q_ring = GradedRing(Q, ["x"])
    halves = GradedPoly(q_ring, {(1,): Fraction(4, 2), (0,): Fraction(1, 2), (2,): Fraction(0)})
    assert halves.terms == {(1,): 2, (0,): Fraction(1, 2)} and type(halves.terms[(1,)]) is int
    with pytest.raises(AlgebraError, match="is no int, Fraction or scalar"):
        GradedPoly(q_ring, {(1,): 0.5})
    assert GradedPoly(q_ring, {}).is_zero() and GradedPoly(q_ring, {}) == q_ring.zero()
