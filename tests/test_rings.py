import pytest
from hypothesis import given, settings, strategies as st

from polyfunctor import (
    AlgebraError,
    CoordinateModel,
    FieldDescriptor,
    GradedRing,
    RingVariable,
    parse_polynomial,
)
from polyfunctor.errors import FieldMismatchError, RingMismatchError, SubstitutionError
from polyfunctor.functors import SumF, TenAltF, TenSymF
from polyfunctor.rings import _Overflow, _packing

from conftest import ALL_FIELDS, F2, F3, Q, random_poly, rank_one_points, substitute_by_powers

import random
from fractions import Fraction


def det_ring(field=Q):
    return GradedRing(
        field,
        [(n, "main", 2) for n in ("x_1_1", "x_1_2", "x_2_1", "x_2_2")],
    )


def split_ring(field=Q):
    names = ["y_1_1", "y_1_2", "y_2_2", "z_1_2"]
    return GradedRing(field, [(n, "q" if n.startswith("y") else "r", 2) for n in names])


def test_determinant_from_products():
    ring = det_ring()
    f = ring.var("x_1_1") * ring.var("x_2_2") - ring.var("x_1_2") * ring.var("x_2_1")
    assert f == parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", ring)


def test_add_zero_is_identity():
    ring = det_ring()
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", ring)
    assert f + ring.zero() == f


def test_frobenius_squares_in_characteristic_two():
    ring = GradedRing(F2, ["x", "y"])
    s = parse_polynomial("x + y", ring)
    assert s * s == parse_polynomial("x^2 + y^2", ring)


def test_ring_mismatch_raises():
    a = det_ring()
    b = GradedRing(Q, ["u"])
    with pytest.raises(RingMismatchError):
        a.one() + b.one()


@pytest.mark.parametrize("field", (Q, F3), ids=str)
def test_a_number_minus_a_polynomial(field):
    # the number is the left operand, so the subtraction is __rsub__'s
    x = GradedRing(field, ["x"]).var("x")
    for number in (1, Fraction(1, 2)):
        difference = number - x
        assert difference == -x + number and difference.ring == x.ring
    assert (1 - x).to_text() == ("-x + 1" if field is Q else "2*x + 1")
    assert (Fraction(1, 2) - x).to_text() == ("-x + 1/2" if field is Q else "2*x + 2")


def test_canonical_form_equality():
    ring = GradedRing(Q, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    a = (x + y) * (x - y)
    b = x * x - y * y
    assert a == b
    assert a.terms == b.terms  # identical term lists, not just equal values


def test_substitution_identity_and_deletion():
    ring = split_ring()
    f = parse_polynomial("y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", ring)
    identity = {n: ring.var(n) for n in ring.names}
    assert f.substitute(identity) == f
    kill = dict(identity)
    kill["z_1_2"] = ring.zero()
    assert f.substitute(kill) == parse_polynomial("y_1_1*y_2_2 - y_1_2^2", ring)


def test_substitution_missing_entry():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("x*y", ring)
    with pytest.raises(SubstitutionError):
        f.substitute({"x": ring.var("x")})


def test_weighted_degree_examples():
    ring = det_ring()
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", ring)
    assert f.weighted_degree() == 4
    split = split_ring()
    h = parse_polynomial("2*z_1_2", split)
    assert h.weighted_degree() == 2
    assert ring.const(5).weighted_degree() == 0
    assert ring.zero().weighted_degree() is None


def test_coeff_of_power_basics():
    ring = GradedRing(Q, [("x", "main", 1), ("t", "aux", 0)])
    f = parse_polynomial("x^2*t^2 + 3*x*t + 7", ring)
    assert f.coeff_of_power("t", 0) == parse_polynomial("7", ring.without(["t"]))
    assert f.coeff_of_power("t", 1) == parse_polynomial("3*x", ring.without(["t"]))
    assert f.coeff_of_power("t", 5).is_zero()


def test_coeff_of_power_reassembly_oracle():
    rng = random.Random(1)
    for field in ALL_FIELDS:
        ring = GradedRing(field, [("x", "main", 1), ("y", "main", 1), ("t", "aux", 0)])
        for _ in range(25):
            f = random_poly(rng, ring, max_degree=5, max_terms=6)
            total = ring.zero()
            for k in f.powers_of("t"):
                piece = f.coeff_of_power("t", k).convert(ring)
                total = total + piece * ring.var("t") ** k
            assert total == f


def test_printing_is_stable_and_reparses():
    ring = split_ring(F3)
    f = parse_polynomial("2*y_1_1*y_2_2 + z_1_2^2 + 1", ring)
    text = f.to_text()
    assert parse_polynomial(text, ring) == f
    assert text == f.to_text()


# -- property suites ------------------------------------------------------------

_small = st.integers(-4, 4)


def _poly_strategy(ring):
    width = len(ring.names)
    term = st.tuples(
        st.tuples(*[st.integers(0, 3) for _ in range(width)]),
        _small,
    )
    def build(term_list):
        poly = ring.zero()
        for exps, c in term_list:
            poly = poly + ring.monomial(exps, c)
        return poly
    return st.lists(term, max_size=4).map(build)


RING_Q = GradedRing(Q, ["x", "y", "z"])
RING_F3 = GradedRing(F3, ["x", "y", "z"])


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(RING_Q), _poly_strategy(RING_Q), _poly_strategy(RING_Q))
def test_ring_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(RING_F3), _poly_strategy(RING_F3), _poly_strategy(RING_F3))
def test_ring_axioms_prime_field(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(RING_Q), _poly_strategy(RING_Q))
def test_substitute_is_ring_homomorphism(f, g):
    target = GradedRing(Q, ["u", "v"])
    images = {
        "x": parse_polynomial("u + v", target),
        "y": parse_polynomial("u*v - 1", target),
        "z": parse_polynomial("v^2", target),
    }
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


# -- packed monomials of the division engine: int order is ring.order_key
# order, the guard-bit test is componentwise <=, the lcm is the componentwise
# max, unpacking inverts packing ----------------------------------------------

@st.composite
def _packed_case(draw):
    """Variable weights from {0, 1, 3}, bytes per exponent, and two exponent
    vectors whose entries fit the fields, drawn small often enough that one
    divides the other."""
    weights = tuple(draw(st.lists(st.sampled_from((0, 1, 3)), max_size=6)))
    k = draw(st.sampled_from((1, 2)))
    entry = st.one_of(st.integers(0, 2), st.integers(0, 2 ** (8 * k - 1) - 1))
    vector = st.tuples(*[entry] * len(weights))
    return weights, k, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None)
@given(_packed_case())
def test_packed_monomials_order_divide_and_round_trip(case):
    weights, k, a, b = case
    ring = GradedRing(Q, [(f"x{i}", "main", w) for i, w in enumerate(weights)])
    pack, unpack, guard, lcm, divides = _packing(ring.weights, k)
    ma, mb = pack(a), pack(b)
    assert (unpack(ma), unpack(mb)) == (a, b)
    assert (ma < mb, ma == mb) == (ring.order_key(a) < ring.order_key(b), a == b)
    divisible = all(x <= y for x, y in zip(a, b))
    assert (((mb | guard) - ma) & guard == guard) == divides(ma, mb) == divisible
    if divisible:
        assert mb - ma == pack(tuple(y - x for x, y in zip(a, b)))
    assert lcm(ma, mb) == lcm(mb, ma) == pack(tuple(map(max, a, b)))
    # a product sets a guard bit exactly when one of its exponents does not fit
    product = tuple(x + y for x, y in zip(a, b))
    fits = all(e < 2 ** (8 * k - 1) for e in product)
    assert (not (ma + mb) & guard) == fits
    if fits:
        assert ma + mb == pack(product)


@pytest.mark.parametrize("k", (1, 2))
def test_pack_refuses_an_exponent_that_does_not_fit(k):
    pack, unpack, *_ = _packing((1, 0, 3), k)
    top = 2 ** (8 * k - 1) - 1
    assert unpack(pack((top, 0, top))) == (top, 0, top)
    for e in (top + 1, 2 ** (8 * k) - 1, 2 ** (8 * k), 300 * 2 ** (8 * k)):
        with pytest.raises(_Overflow):
            pack((0, e, 1))


def test_degree_multiplicativity_over_domain():
    rng = random.Random(2)
    ring = GradedRing(Q, [("x", "main", 1), ("y", "main", 3)])
    for _ in range(50):
        f = random_poly(rng, ring, max_degree=4, max_terms=4)
        g = random_poly(rng, ring, max_degree=4, max_terms=4)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).weighted_degree() == f.weighted_degree() + g.weighted_degree()


def test_zero_weight_variables_are_allowed():
    ring = GradedRing(Q, [("c", "base", 0), ("f", "top", 2)])
    poly = parse_polynomial("c^3*f", ring)
    assert poly.weighted_degree() == 2


def test_vector_length_checked():
    from polyfunctor import Vector

    with pytest.raises(AlgebraError):
        Vector("v", ("a", "b"), (1,))


F101 = FieldDescriptor.prime_field(101)


def _is_raw(value, field):
    """value is a raw coefficient of field, in the canonical type."""
    return (type(value), value) == (type(field.raw(value)), field.raw(value))


def test_evaluate_matches_substitution_to_constants():
    rng = random.Random(5)
    for field in (Q, F3, F101):
        ring = GradedRing(field, [("x", "main", 1), ("y", "main", 2), ("z", "aux", 0)])
        for _ in range(40):
            f = random_poly(rng, ring, max_degree=6, max_terms=7)
            point = {
                "x": field.scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))),
                "y": rng.randint(-20, 20),
                "z": field.scalar(rng.randint(-5, 5)),
            }
            constants = {name: ring.const(v) for name, v in point.items()}
            value = f.evaluate(point)
            assert _is_raw(value, field)
            assert value == f.substitute(constants).constant_value()


def test_evaluate_errors():
    ring = GradedRing(F3, ["x", "y", "z"])
    f = parse_polynomial("x*z + z^2", ring)
    # only occurring variables need a coordinate; the first missing one in
    # ring order is named
    assert f.evaluate({"x": 1, "z": 2}) == F3.scalar(6)
    with pytest.raises(SubstitutionError, match="missing coordinate for 'x'"):
        f.evaluate({"y": 1})
    with pytest.raises(FieldMismatchError):
        f.evaluate({"x": 1, "y": 0, "z": F101.scalar(2)})
    with pytest.raises(FieldMismatchError):
        f.evaluate({"x": 1, "z": 2, "w": Q.scalar(1)})
    assert ring.zero().evaluate({}) == F3.zero()


def test_evaluator_matches_evaluate_and_substitution():
    # every entry is coerced, one outside the ring too
    rng = random.Random(23)
    for field in (Q, F3, F101):
        ring = GradedRing(
            field, [("x", "main", 1), ("y", "main", 2), ("z", "aux", 0), ("w", "aux", 1)]
        )
        for _ in range(15):
            polys = [random_poly(rng, ring, max_degree=6, max_terms=7) for _ in range(5)]
            for _ in range(2):
                point = {
                    "x": field.scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))),
                    "y": Fraction(rng.randint(-20, 20), rng.choice((1, 5, 7))),
                    "z": rng.randint(-5, 5),
                    "w": field.scalar(rng.choice((0, 1, Fraction(-3, 2)))),
                    "outside": field.scalar(rng.randint(-5, 5)),
                }
                constants = {name: ring.const(point[name]) for name in ring.names}
                got = [f.evaluate(point) for f in polys]
                assert all(_is_raw(v, field) for v in got)
                assert got == [f.substitute(constants).constant_value() for f in polys]


def test_evaluator_empty_and_errors():
    assert GradedRing(F3, []).const(2).evaluate({"x": 1}) == F3.scalar(2)
    ring = GradedRing(F3, ["x", "y", "z"])
    f = parse_polynomial("x*z + z^2", ring)
    g = parse_polynomial("y + 1", ring)
    point = {"x": 1, "y": 2, "z": 2}
    assert [f.evaluate(point), g.evaluate(point)] == [F3.scalar(6), F3.zero()]
    with pytest.raises(SubstitutionError, match="missing coordinate for 'y'"):
        g.evaluate({"x": 1, "z": 2})
    with pytest.raises(SubstitutionError, match="missing coordinate for 'x'"):
        f.evaluate({"y": 1, "z": 2})
    with pytest.raises(FieldMismatchError):
        g.evaluate({"x": 1, "y": 0, "z": 2, "w": F101.scalar(1)})


# -- evaluate: against plain Fraction arithmetic as the oracle ----------------


def _reference_values(field, term_lists, point, names):
    """Each polynomial, given as (exponents, coefficient) pairs, at the point
    by plain Fraction arithmetic, reduced mod p at the end over F_p."""
    p = field.characteristic
    out = []
    for terms in term_lists:
        total = Fraction(0)
        for exps, c in terms:
            term = Fraction(c)
            for name, e in zip(names, exps):
                term *= Fraction(point[name]) ** e
            total += term
        out.append(total.numerator * pow(total.denominator, -1, p) % p if p else total)
    return out


def _check_against_reference(field, names, term_lists, points):
    ring = GradedRing(field, names)
    polys = [sum((ring.monomial(e, c) for e, c in terms), ring.zero()) for terms in term_lists]
    for point in points:
        got = [f.evaluate(point) for f in polys]
        assert got == _reference_values(field, term_lists, point, names)


def test_evaluator_matches_fraction_reference_over_q():
    names = ["x", "y", "z", "w"]
    term_lists = [
        # non-homogeneous with Fraction coefficients
        [((3, 1, 0, 0), Fraction(3, 4)), ((1, 0, 1, 0), Fraction(-5, 6)), ((0, 2, 0, 0), 7),
         ((0, 0, 0, 1), Fraction(1, 9)), ((0, 0, 0, 0), Fraction(2, 9))],
        # negative leading coefficient
        [((2, 0, 0, 0), Fraction(-3, 2)), ((0, 1, 0, 0), 5), ((0, 0, 1, 1), Fraction(1, 3))],
        [((0, 0, 0, 0), Fraction(-7, 3))],  # constant
        [],  # zero
        [((0, 0, 4, 0), -6), ((1, 1, 1, 1), Fraction(14, 5)), ((0, 0, 0, 2), Fraction(-1, 2))],
    ]
    points = [
        {"x": Fraction(1, 2), "y": Fraction(-1, 3), "z": Fraction(5, 7), "w": 4},
        {"x": 3, "y": Fraction(-1, 3), "z": Fraction(5, 7), "w": -2},
        {"x": Fraction(1, 2), "y": 0, "z": Fraction(-5, 7), "w": Fraction(7, 6)},
        {"x": 1, "y": -1, "z": 2, "w": 0},
    ]
    _check_against_reference(Q, names, term_lists, points)
    rng = random.Random(41)
    for _ in range(20):
        term_lists = [
            [(tuple(rng.randint(0, 3) for _ in names),
              Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5))))
             for _ in range(rng.randint(0, 6))]
            for _ in range(3)
        ]
        points = [{name: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for name in names}
                  for _ in range(3)]
        _check_against_reference(Q, names, term_lists, points)


def test_evaluator_with_more_variables_than_a_byte_holds():
    # 300 used variables, each term a product of two of them
    names = [f"x{i}" for i in range(300)]
    rng = random.Random(3)
    for field in (Q, F101):
        term_lists = [[]]
        for i in range(300):
            exps = [0] * 300
            exps[i] += 1
            exps[rng.randrange(300)] += 2
            term_lists[0].append((tuple(exps), Fraction(rng.randint(1, 9), rng.choice((1, 4)))))
        point = {name: Fraction(rng.randint(-9, 9), rng.choice((1, 3))) for name in names}
        _check_against_reference(field, names, term_lists, [point])


def test_evaluator_of_a_degree_past_the_chain_bound():
    # exponents up to 700
    names = ["x", "y"]
    term_lists = [[((700, 0), Fraction(1, 3)), ((1, 0), 2), ((0, 0), Fraction(-5, 7))],
                  [((350, 350), 1), ((0, 699), Fraction(3, 4))]]
    points = [{"x": Fraction(-3, 2), "y": Fraction(2, 5)}, {"x": 1, "y": -1}]
    for field in (Q, F101):
        _check_against_reference(field, names, term_lists, points)


@pytest.mark.parametrize("p", (3, 101, 32003))
def test_evaluator_matches_fraction_reference_over_fp(p):
    field = FieldDescriptor.prime_field(p)
    names = ["x", "y", "z"]
    rng = random.Random(p)
    for _ in range(20):
        term_lists = [
            [(tuple(rng.randint(0, 4) for _ in names), rng.choice((p - 1, p - 2, 1, rng.randrange(1, p))))
             for _ in range(rng.randint(0, 6))]
            for _ in range(3)
        ] + [[((0, 0, 0), p - 1)], []]
        points = [{name: rng.choice((p - 1, p - 2, 0, rng.randrange(p))) for name in names}
                  for _ in range(3)]
        _check_against_reference(field, names, term_lists, points)


# -- evaluate: at sampled rank-one points -----------------------------------


def _split_model(field, n):
    return CoordinateModel(SumF((TenSymF(), TenAltF())), field, n)


@pytest.mark.parametrize("selector", ["q", "fp:3", "fp:101"])
def test_kernel_matches_substitution_at_rank_one_points(selector):
    field = FieldDescriptor.parse(selector)
    model = _split_model(field, 3)
    ring = model.ring
    rng = random.Random(17)
    polys = [random_poly(rng, ring, max_degree=4, max_terms=6) for _ in range(6)]
    polys += [
        # non-homogeneous, denominators 2, 4 and 7, and a constant term
        parse_polynomial("1/2*y_1_1^3 - 3/4*y_1_2*z_2_3 + y_3_3 + 5/7", ring),
        parse_polynomial("-9/4", ring),
        ring.zero(),
    ]
    for point in rank_one_points(random.Random(3), model, 12):
        constants = {name: ring.const(x) for name, x in point.items()}
        assert [f.evaluate(point) for f in polys] == [f.substitute(constants).constant_value() for f in polys]


# -- substitute: edge cases, against boxed arithmetic as the oracle -----------


def _boxed_substitute(f, mapping, target):
    """sum of c * prod image^e, with the boxed operators."""
    total = target.zero()
    for exps, c in f.terms.items():
        term = target.const(c)
        for name, e in zip(f.ring.names, exps):
            term = term * mapping[name] ** e
        total = total + term
    return total


def test_substitute_matches_boxed_arithmetic():
    rng = random.Random(13)
    for field in (Q, F3, F101):
        ring = GradedRing(field, [("x", "main", 1), ("y", "main", 2), ("z", "aux", 0)])
        target = GradedRing(field, ["u", "v"])
        for _ in range(25):
            f = random_poly(rng, ring, max_degree=7, max_terms=6)
            mapping = {n: random_poly(rng, target, max_degree=2, max_terms=3) for n in ring.names}
            assert f.substitute(mapping) == _boxed_substitute(f, mapping, target)


def _random_ratio_poly(rng, ring, max_degree, max_terms):
    """A random polynomial whose coefficients a/b have b in 1..6, a unit mod p."""
    p = ring.field.characteristic
    poly = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(ring.names)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(exps))] += 1
        b = rng.choice([b for b in range(1, 7) if not p or b % p])
        poly = poly + ring.monomial(exps, Fraction(rng.randint(-6, 6), b))
    return poly


def test_substitute_with_denominators_matches_boxed_arithmetic():
    rng = random.Random(17)
    seen = set()
    for field in (Q, F3, F101):
        ring = GradedRing(field, [("x", "main", 1), ("y", "main", 2), ("z", "aux", 0)])
        target = GradedRing(field, ["u", "v"])
        for _ in range(30):
            f = _random_ratio_poly(rng, ring, 6, 6)
            mapping = {n: _random_ratio_poly(rng, target, 2, 3) for n in ring.names}
            result = f.substitute(mapping)
            assert result == _boxed_substitute(f, mapping, target) == substitute_by_powers(f, mapping)
            for c in result.terms.values():
                # over q an integral coefficient is an int, the rest Fractions
                assert type(c) is (int if c.denominator == 1 else Fraction)
                seen.add((field.characteristic, c.denominator == 1))
            for g in [f, *mapping.values()]:
                seen.update(("source", c.denominator) for c in g.terms.values() if not field.characteristic)
    # both kinds of q coefficient came back, and denominators up to 6 went in
    assert {(0, True), (0, False), (3, True), (101, True)} <= seen
    assert {("source", b) for b in range(1, 7)} <= seen
    # halves that sum to integers come back as ints, not integral Fractions
    ring, target = GradedRing(Q, ["x"]), GradedRing(Q, ["u"])
    image = parse_polynomial("1/2*x + 1/2", ring).substitute({"x": parse_polynomial("2*u + 1", target)})
    assert image == parse_polynomial("u + 1", target) and {type(c) for c in image.terms.values()} == {int}


def test_substitute_into_a_ring_without_variables():
    empty = GradedRing(Q, [])
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("1/2*x^3*y - 3*y^2 + 7", ring)
    image = f.substitute({"x": empty.const(2), "y": empty.const(Fraction(-1, 3))})
    assert image.ring == empty and image.is_constant()
    assert image.constant_value() == f.evaluate({"x": 2, "y": Fraction(-1, 3)})
    assert f.substitute({"x": empty.zero(), "y": empty.const(1)}) == empty.const(4)


def test_substitute_images_that_cancel_and_constant_images():
    for field in (Q, F3):
        ring = GradedRing(field, ["x", "y", "z"])
        target = GradedRing(field, ["u", "v"])
        u, v = target.var("u"), target.var("v")
        f = parse_polynomial("x^2 - y^2 + z", ring)
        # every term survives on its own, the sum cancels to 0
        assert f.substitute({"x": u + v, "y": u + v, "z": target.zero()}).is_zero()
        assert f.substitute({"x": v, "y": v, "z": u - u}) == target.zero()
        # constant images, as specialise_joint and the rank-one pullbacks use them
        constants = {"x": target.const(2), "y": target.const(5), "z": u * v}
        assert f.substitute(constants) == _boxed_substitute(f, constants, target)
        assert f.substitute({"x": target.const(1), "y": target.const(1), "z": target.zero()}).is_zero()


def test_substitute_of_the_zero_polynomial():
    ring = GradedRing(F3, ["x"])
    target = GradedRing(F3, ["u", "v"])
    zero = ring.zero().substitute({"x": target.var("u")})
    assert zero.is_zero() and zero.ring == target


def test_substitute_exponents_above_the_characteristic():
    ring = GradedRing(F3, ["x", "y"])
    target = GradedRing(F3, ["u", "v"])
    u, v = target.var("u"), target.var("v")
    # Frobenius: (u + v)^3 = u^3 + v^3 and (u + v)^9 = u^9 + v^9
    assert parse_polynomial("x^3", ring).substitute({"x": u + v}) == u ** 3 + v ** 3
    assert parse_polynomial("x^9", ring).substitute({"x": u + v}) == u ** 9 + v ** 9
    f = parse_polynomial("x^7*y^4 + 2*x^5 + y^10", ring)
    mapping = {"x": u + 2 * v, "y": u * v + 1}
    assert f.substitute(mapping) == _boxed_substitute(f, mapping, target)


def test_substitute_fraction_coefficients():
    ring = GradedRing(Q, ["x", "y"])
    target = GradedRing(Q, ["u", "v"])
    f = parse_polynomial("1/2*x^2 - 2/3*x*y^3 + 5/7", ring)
    mapping = {
        "x": parse_polynomial("3/4*u - v", target),
        "y": parse_polynomial("1/3*u*v + 2", target),
    }
    result = f.substitute(mapping)
    assert result == _boxed_substitute(f, mapping, target)
    assert any(Fraction(c).denominator > 1 for c in result.terms.values())


def test_substitute_validates_before_any_work(monkeypatch):
    import polyfunctor.rings as rings

    ring = GradedRing(Q, ["x", "y"])
    target = GradedRing(Q, ["u"])
    other = GradedRing(Q, ["v"])
    f3 = GradedRing(F3, ["u"])
    f = parse_polynomial("x^2*y + 1", ring)
    work = []
    for name in ("_raw_mul_into", "_reduced", "_from_raw"):
        monkeypatch.setattr(rings, name, lambda *args, name=name: work.append(name))
    for mul in ("__mul__", "__rmul__"):
        monkeypatch.setattr(rings.GradedPoly, mul, lambda *args: work.append("mul"))
    u = target.var("u")
    cases = [
        ({}, SubstitutionError, "empty substitution"),
        ({"x": u, "y": 2}, SubstitutionError, "must be polynomials"),
        ({"x": u, "y": other.var("v")}, RingMismatchError, "different rings"),
        ({"x": f3.var("u"), "y": f3.var("u")}, FieldMismatchError, "across fields"),
        ({"x": u}, SubstitutionError, r"missing assignment for \['y'\]"),
    ]
    for mapping, error, message in cases:
        with pytest.raises(error, match=message):
            f.substitute(mapping)
    assert work == []


# -- variable names -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["x y", "é", "x-1", "_x", "1x", "x.y", "t ", ""])
def test_ring_variable_refuses_a_name_the_grammar_cannot_read(name):
    with pytest.raises(AlgebraError, match="bad variable name"):
        RingVariable(name)


def test_every_name_the_package_builds_is_readable():
    names = ["x_1_2", "y_1_2", "z_1_2", "p0_1", "x_1_2_w", "t", "t_", "v_0", "w_0", "n", "X9"]
    ring = GradedRing(Q, [RingVariable(name) for name in names])
    assert parse_polynomial(" + ".join(names), ring) == sum((ring.var(name) for name in names), ring.zero())
