import functools
import hashlib
import random
from fractions import Fraction

import pytest

from polyfunctor import (
    DirectionSubspace,
    DirectionalData,
    FieldDescriptor,
    GradedPoly,
    GradedRing,
    directional_data,
    hasse_derivative,
    joint_additivity_holds,
    joint_scaling_holds,
    lucas_binomial,
    parse_polynomial,
    specialise_joint,
    taylor_expand,
)
from polyfunctor.errors import AlgebraError, DirectionError
from polyfunctor.hasse import doubled_ring

from conftest import (
    ALL_FIELDS, F2, F3, F5, Q, joint_additivity_by_identity, joint_scaling_by_identity, random_poly, random_scalar,
)


def xyz_ring(field):
    return GradedRing(field, ["x", "y", "z"])


def taylor_coefficient_oracle(f, w_coords, r, W):
    """Expand f(x + t*w) by direct substitution and read the t^r coefficient."""
    ring = f.ring
    ext = ring.extended([("t", "aux", 0)])
    mapping = {n: ext.var(n) for n in ring.names}
    t = ext.var("t")
    for name, c in zip(W.span_vars, w_coords):
        mapping[name] = ext.var(name) + t * c
    expanded = f.substitute(mapping)
    return expanded.coeff_of_power("t", r, ring)


def test_order_zero_is_identity():
    ring = xyz_ring(Q)
    f = parse_polynomial("x^2*y + z", ring)
    W = DirectionSubspace(ring, ("x",))
    assert hasse_derivative(f, W.direction([1]), 0, W) == f


def test_monomial_rule_frozen_value():
    ring = GradedRing(Q, ["x"])
    f = parse_polynomial("x^6", ring)
    W = DirectionSubspace(ring, ("x",))
    d2 = hasse_derivative(f, W.direction([1]), 2, W)
    # oracle: coefficient of t^2 in (x+t)^6 is binomial(6,2) x^4 = 15 x^4
    assert d2 == taylor_coefficient_oracle(f, [1], 2, W)
    assert d2 == parse_polynomial("15*x^4", ring)


def test_characteristic_five_example():
    ring = xyz_ring(F5)
    f = parse_polynomial("y^25*z^2 + x^10*y^25*z", ring)
    W = DirectionSubspace(ring, ("x", "y"))
    for a, b in ((1, 1), (2, 3), (4, 0)):
        w = W.direction([a, b])
        for r in range(1, 5):
            assert hasse_derivative(f, w, r, W).is_zero()
        d5 = hasse_derivative(f, w, 5, W)
        expected = ring.var("x") ** 5 * ring.var("y") ** 25 * ring.var("z") * (
            2 * a ** 5
        )
        assert d5 == expected
        assert d5 == taylor_coefficient_oracle(f, [a, b], 5, W)


def test_zero_direction_convention():
    ring = xyz_ring(Q)
    f = parse_polynomial("x^2", ring)
    W = DirectionSubspace(ring, ("x",))
    assert hasse_derivative(f, W.direction([0]), 3, W).is_zero()


def test_direction_outside_subspace_rejected():
    ring = xyz_ring(Q)
    W = DirectionSubspace(ring, ("x", "y"))
    f = parse_polynomial("x", ring)
    from polyfunctor import Vector

    with pytest.raises(DirectionError):
        hasse_derivative(f, Vector(("z",), (1,)), 1, W)


@pytest.mark.parametrize("basis", [("y", "x"), ("x",), ("y",)])
def test_a_direction_off_the_span_variables_in_ring_order_is_refused(basis):
    ring = xyz_ring(Q)
    W = DirectionSubspace(ring, ("y", "x"))
    f = parse_polynomial("x^2*y", ring)
    from polyfunctor import Vector

    w = Vector(basis, (1,) * len(basis))
    with pytest.raises(DirectionError, match="designated subspace"):
        hasse_derivative(f, w, 1, W)
    with pytest.raises(DirectionError, match="designated subspace"):
        specialise_joint(directional_data(f, W), w, W)


@pytest.mark.parametrize("r", [0, 1])
def test_order_zero_checks_the_direction_and_ring_too(r):
    ring = xyz_ring(Q)
    f = parse_polynomial("x*y", ring)
    W = DirectionSubspace(ring, ("x", "y"))
    from polyfunctor import Vector

    with pytest.raises(DirectionError, match="designated subspace"):
        hasse_derivative(f, Vector(("x", "z"), (1, 1)), r, W)
    other = DirectionSubspace(GradedRing(Q, ["x", "y"]), ("x", "y"))
    with pytest.raises(AlgebraError, match="different ring"):
        hasse_derivative(f, other.direction([1, 1]), r, other)


@pytest.mark.parametrize("compute", [taylor_expand, directional_data])
def test_a_direction_subspace_of_another_ring_is_refused(compute):
    f = parse_polynomial("x*y", xyz_ring(Q))
    with pytest.raises(AlgebraError) as info:
        compute(f, DirectionSubspace(GradedRing(Q, ["x", "y"]), ("x",)))
    assert type(info.value) is AlgebraError and str(info.value) == "direction subspace belongs to a different ring"


def test_scaling_law():
    rng = random.Random(8)
    for field in (Q, F3):
        ring = xyz_ring(field)
        W = DirectionSubspace(ring, ("x", "y"))
        for _ in range(15):
            f = random_poly(rng, ring, max_degree=4, max_terms=4)
            coords = [random_scalar(rng, field) for _ in range(2)]
            c = random_scalar(rng, field)
            scaled = W.direction([c * x for x in coords])
            base = W.direction(coords)
            for r in (1, 2, 3):
                assert hasse_derivative(f, scaled, r, W) == hasse_derivative(f, base, r, W) * c ** r


def test_composition_law_against_taylor_oracle():
    # iterated derivatives compose with a binomial factor
    rng = random.Random(9)
    for field in (Q, F2, F5):
        ring = GradedRing(field, ["x", "y"])
        W = DirectionSubspace(ring, ("x",))
        w = W.direction([1])
        for _ in range(10):
            f = random_poly(rng, ring, max_degree=6, max_terms=4)
            for r in (1, 2):
                for s in (1, 2):
                    lhs = hasse_derivative(hasse_derivative(f, w, s, W), w, r, W)
                    rhs = hasse_derivative(f, w, r + s, W) * lucas_binomial(r + s, r, field)
                    assert lhs == rhs


def test_taylor_constant():
    ring = xyz_ring(Q)
    f = ring.const(5)
    W = DirectionSubspace(ring, ("x",))
    expanded = taylor_expand(f, W)
    assert expanded.is_constant()
    assert expanded.constant_value() == Q.scalar(5)


def test_taylor_matches_direct_substitution():
    ring = GradedRing(Q, [(n, "main", 2) for n in ("x_1_1", "x_1_2", "x_2_1", "x_2_2")])
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", ring)
    W = DirectionSubspace(ring, ring.names)
    expanded = taylor_expand(f, W)
    ext = expanded.ring
    mapping = {n: ext.var(n) + ext.var("t") * ext.var(n + "_w") for n in ring.names}
    assert expanded == f.substitute(mapping)


def test_taylor_lowest_power_characteristic_five():
    ring = xyz_ring(F5)
    f = parse_polynomial("y^25*z^2 + x^10*y^25*z", ring)
    W = DirectionSubspace(ring, ("x", "y"))
    expanded = taylor_expand(f, W)
    powers = [p for p in expanded.powers_of("t") if p > 0]
    assert min(powers) == 5
    coeff = expanded.coeff_of_power("t", 5)
    data = directional_data(f, W)
    assert data.level == 1
    assert coeff == data.joint.convert(coeff.ring)


def test_directional_data_running_example():
    names = ["y_1_1", "y_1_2", "y_2_2", "z_1_2"]
    ring = GradedRing(Q, [(n, "q" if n.startswith("y") else "r", 2) for n in names])
    f = parse_polynomial("y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", ring)
    W = DirectionSubspace(ring, ("z_1_2",))
    data = directional_data(f, W)
    assert data.dependent and data.level == 0
    joint = data.joint
    copy = data.copies[0][1]
    expected = joint.ring.var("z_1_2") * joint.ring.var(copy) * 2
    assert joint == expected
    # specialisation at the skew basis direction
    d = specialise_joint(directional_data(f, W), W.direction([1]), W)
    assert d == parse_polynomial("2*z_1_2", ring)


def test_directional_data_independent():
    names = ["y_1_1", "y_2_2", "z_1_2"]
    ring = GradedRing(Q, names)
    f = parse_polynomial("y_1_1*y_2_2", ring)
    W = DirectionSubspace(ring, ("z_1_2",))
    data = directional_data(f, W)
    assert data.status == "independent"
    assert specialise_joint(data, W.direction([1]), W).is_zero()


def test_directional_derivative_of_constant_is_zero():
    ring = xyz_ring(Q)
    W = DirectionSubspace(ring, ("x",))
    f = ring.const(3)
    assert specialise_joint(directional_data(f, W), W.direction([1]), W).is_zero()


def test_directional_derivative_char_three_brute_force():
    p = 3
    ring = GradedRing(F3, ["x", "y", "z"])
    f = parse_polynomial(f"y^{p * p}*z^2 + x^{2 * p}*y^{p * p}*z", ring)
    W = DirectionSubspace(ring, ("x", "y"))
    data = directional_data(f, W)
    assert data.level == 1
    for a, b in ((1, 1), (2, 1), (1, 0)):
        w = W.direction([a, b])
        value = specialise_joint(data, w, W)
        oracle = taylor_coefficient_oracle(f, [a, b], p, W)
        assert value == oracle
        expected = ring.var("x") ** p * ring.var("y") ** (p * p) * ring.var("z") * (
            2 * a ** p
        )
        assert value == expected


def test_taylor_reassembly_fuzz():
    rng = random.Random(10)
    for field in ALL_FIELDS:
        ring = GradedRing(field, ["x", "y", "z", "w"])
        W = DirectionSubspace(ring, ("x", "y"))
        for _ in range(20):
            f = random_poly(rng, ring, max_degree=6, max_terms=5)
            expanded = taylor_expand(f, W)
            coords = [random_scalar(rng, field) for _ in range(2)]
            total = ring.zero()
            for k in expanded.powers_of("t"):
                joint = expanded.coeff_of_power("t", k)
                # specialise the symbolic copies at the concrete direction
                mapping = {n: ring.var(n) for n in ring.names}
                for name, c in zip(W.span_vars, coords):
                    mapping[name + "_w"] = ring.const(c)
                direct = joint.substitute(mapping) if not joint.is_zero() else ring.zero()
                hd = hasse_derivative(f, W.direction(coords), k, W)
                assert direct == hd
                total = total + direct  # reassembly at t = 1
            coord_map = dict(zip(W.span_vars, coords))
            mapping = {
                n: ring.var(n) + ring.const(coord_map[n]) if n in coord_map else ring.var(n)
                for n in ring.names
            }
            shifted = f.substitute(mapping) if not f.is_zero() else ring.zero()
            assert total == shifted


def test_lowest_power_is_characteristic_power():
    rng = random.Random(11)
    for field in ALL_FIELDS:
        p = field.char_exponent
        ring = GradedRing(field, ["x", "y", "z"])
        W = DirectionSubspace(ring, ("x", "y"))
        for _ in range(40):
            f = random_poly(rng, ring, max_degree=6, max_terms=5)
            data = directional_data(f, W)
            if data.dependent:
                assert p ** data.level >= 1  # construction already validated the power


def test_joint_laws_on_random_dependent_instances():
    rng = random.Random(12)
    for field in ALL_FIELDS:
        ring = GradedRing(field, ["x", "y", "z"])
        W = DirectionSubspace(ring, ("x", "y"))
        found = 0
        while found < 12:
            f = random_poly(rng, ring, max_degree=5, max_terms=5)
            data = directional_data(f, W)
            if not data.dependent:
                continue
            found += 1
            assert joint_additivity_holds(data)
            assert joint_scaling_holds(data)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_joint_laws_agree_with_their_formal_identities(field):
    """Both answers of each law, on hand-built joints in x, y, z plus copies
    x_w, y_w of the direction x, y: one or two terms, each a w'-part times a
    w-part that is w-free, a copy's p^k-th power for k = 0, 1, 2, its
    (2p)-th power (its square in characteristic 0), x_w*y_w or
    x_w^p*y_w^p.  Coefficients come reduced into the field through
    monomial, as a non-canonical zero coefficient would read as a term."""
    ring = GradedRing(field, ["x", "y", "z"])
    joint_ring, copies = doubled_ring(ring, ("x", "y"))
    p = field.char_exponent
    w_parts = [(0, 0), (1, 1), (p, p), (2 * p, 0)]
    w_parts += [part for k in range(3) for part in ((p ** k, 0), (0, p ** k))]
    w_parts = list(dict.fromkeys(w_parts))
    monomials = [joint_ring.monomial(g + a) for g in ((0, 0, 0), (1, 0, 2)) for a in w_parts]
    joints = monomials + [a - b for i, a in enumerate(monomials) for b in monomials[i + 1:]]
    for level in range(3):
        answers = set()
        for joint in joints:
            data = DirectionalData("dependent", level, joint, copies)
            additive, scaling = joint_additivity_holds(data), joint_scaling_holds(data)
            assert additive == joint_additivity_by_identity(data)
            assert scaling == joint_scaling_by_identity(data)
            answers |= {("additivity", additive), ("scaling", scaling)}
        assert len(answers) == 4


def test_degree_drop_for_homogeneous_witness():
    # weight-homogeneous polynomial over weighted variables
    ring = GradedRing(F5, [("x", "r", 2), ("y", "q", 2)])
    f = parse_polynomial("x^5*y^5 + y^10", ring)
    W = DirectionSubspace(ring, ("x",))
    data = directional_data(f, W)
    assert data.level == 1
    d = specialise_joint(data, W.direction([1]), W)
    assert d.weighted_degree() == f.weighted_degree() - 2 * 5 ** data.level


# -- goldens: sha256 of printed results, captured before the Hasse calculus
# moved to raw coefficients --------------------------------------------------

GOLDEN_FIELDS = ("q", "fp:3", "fp:5", "fp:101")
GOLDEN_SPANS = (("x",), ("x", "y"), ("x", "y", "z"))


def _golden_ring(field_text):
    field = FieldDescriptor.parse(field_text)
    return GradedRing(field, [("x", "main", 1), ("y", "main", 2), ("z", "main", 1)])


def _golden_polys(ring):
    """Two fixed polynomials with exponents above 3 and 5 (the second of
    positive level over F_3 and F_5), and seeded ones; over q some
    coefficients are non-integral."""
    field = ring.field
    rng = random.Random(f"hasse golden {field}")
    p = field.characteristic if field.characteristic in (3, 5) else 2
    polys = [
        parse_polynomial("x^9*y^3*z + 2*x^4*y^5 - z^2 + x*y + 1", ring),
        parse_polynomial(f"x^{p * p}*z + 2*y^{2 * p}*z^2 + x^{p}*y^{p}", ring),
    ]
    for _ in range(3):
        f = ring.zero()
        for _ in range(rng.randint(3, 6)):
            exps = [0, 0, 0]
            for _ in range(rng.randint(0, 7)):
                exps[rng.randrange(3)] += 1
            den = rng.choice((1, 1, 2, 3)) if field.characteristic == 0 else 1
            f = f + ring.monomial(exps, Fraction(rng.randint(-9, 9), den))
        polys.append(f)
    return polys


def _golden_directions(W, rng):
    """A seeded direction, and one with a zero first coordinate (the zero
    direction when W is a line)."""
    field = W.ring.field
    k = len(W.span_vars)
    dens = (1, 2) if field.characteristic == 0 else (1,)
    coords = [Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.choice(dens)) for _ in range(k)]
    return [W.direction(coords), W.direction([0] + coords[1:])]


def _coords_text(coords):
    """The text of a tuple of coordinates, each printed as str prints it:
    (1/2, 3) and (5,), as the records were captured."""
    return "(" + ", ".join(map(str, coords)) + ("," if len(coords) == 1 else "") + ")"


@functools.cache
def _golden_records(field_text):
    ring = _golden_ring(field_text)
    field = ring.field
    rng = random.Random(f"hasse golden directions {field_text}")
    out = {"taylor": [], "derivatives": [], "directional": []}
    for f in _golden_polys(ring):
        for span in GOLDEN_SPANS:
            W = DirectionSubspace(ring, span)
            head = f"{f} | {span}"
            out["taylor"].append(f"{head} | {taylor_expand(f, W)}")
            directions = _golden_directions(W, rng)
            for w in directions:
                for r in range((f.total_degree() or 0) + 2):
                    out["derivatives"].append(
                        f"{head} | {_coords_text(w.coords)} | {r} | {hasse_derivative(f, w, r, W)}"
                    )
            data = directional_data(f, W)
            joint = None if data.joint is None else data.joint.to_text()
            specialised = [specialise_joint(data, w, W).to_text() for w in directions]
            out["directional"].append(
                f"{head} | {data.status} | {data.level} | {joint} | {specialised}"
                f" | {joint_scaling_holds(data)}"
            )
    return out


def _golden_digest(field_text, part):
    text = "\n".join(_golden_records(field_text)[part])
    return hashlib.sha256(text.encode()).hexdigest()


HASSE_GOLDEN = {
    ("q", "taylor"): "0348942a6674933461c5cbe703a7842695396fdbbffa0da50680d882b9dd4405",
    ("q", "derivatives"): "a706e6cf309a3eb184c81f2a683b2a6c81d28d91ea68d9cc754df54a9d6babbe",
    ("q", "directional"): "e28c356bf49a5d91030d208941849a3bf8fe2e4d26a5b8bf2f8d46a496bf3874",
    ("fp:3", "taylor"): "c6455150ce1e6acc18697a3c95b9e0b9e3c7be78fc8b8a8d2c293ac264a85029",
    ("fp:3", "derivatives"): "e16a7d6530391f393d60033e566cf8479a1894ec59be199f6ee29f9763f55655",
    ("fp:3", "directional"): "d7d1c0df59d5cd88557adaacaaa2065e28a3d1bbfc69e371758ecf63b9bfc337",
    ("fp:5", "taylor"): "9e707fa8ce9eda3956ade5249ddc5462bb22a26e96efa825bb0e1b2e263a7e41",
    ("fp:5", "derivatives"): "ced1c685015ab366eafde18ed90d45548b77040440aa5777c2ee786809ec785c",
    ("fp:5", "directional"): "30ffb96be7794f25b382e0c6e00d410202ecd9c5600e44015c9060535e52d9c5",
    ("fp:101", "taylor"): "890a5be1732a0f91141ff91c685365ac52995842a1a0be07519997ef0aa7c0fe",
    ("fp:101", "derivatives"): "9c1ed26b480ec292e5f75e3198686d0cce68bfbb86adad3cf2e1d90652c0eeac",
    ("fp:101", "directional"): "02aeea724887f33f1c1a844f451be54663c8d4aaa42964cff8aa2a607144f3be",
}


@pytest.mark.parametrize("part", ("taylor", "derivatives", "directional"))
@pytest.mark.parametrize("field_text", GOLDEN_FIELDS)
def test_hasse_golden(field_text, part):
    assert _golden_digest(field_text, part) == HASSE_GOLDEN[(field_text, part)]


# -- the binomial rule against the substitution definition -------------------


def _substitution_mapping(W):
    """x -> x + t*x_w on W, over the ring of the original variables, t of
    weight 0, then one copy x_w per W-variable with x's weight."""
    ring = W.ring
    ext = ring.extended(
        [("t", "aux", 0)] + [(n + "_w", "aux", ring.variables[ring.position(n)].weight) for n in W.span_vars]
    )
    mapping = {n: ext.var(n) for n in ring.names}
    for n in W.span_vars:
        mapping[n] = ext.var(n) + ext.var("t") * ext.var(n + "_w")
    return mapping


def _substitution_expansion(f, W):
    """f(x + t*x_w) by substitution: the definition taylor_expand computes."""
    return f.substitute(_substitution_mapping(W))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_expansion_and_directional_data_match_substitution(field):
    rng = random.Random(f"substitution oracle {field}")
    ring = GradedRing(field, [("x", "main", 1), ("y", "main", 2), ("z", "main", 1)])
    p = field.characteristic or 3
    polys = [
        parse_polynomial(text, ring)
        for text in (f"x^{p * p}*y", f"x^{p}*y^{p} + z", f"x^{p * p}*z + 2*y^{2 * p}*z^2 + x^{p}*y^{p}", "z^3")
    ]
    polys += [random_poly(rng, ring, max_degree=7, max_terms=6) for _ in range(12)]
    levels = set()
    for f in polys:
        for span in GOLDEN_SPANS:
            W = DirectionSubspace(ring, span)
            oracle = _substitution_expansion(f, W)
            assert taylor_expand(f, W) == oracle
            data = directional_data(f, W)
            powers = [k for k in oracle.powers_of("t") if k > 0]
            if not powers:
                assert data.status == "independent" and data.joint is None
                continue
            lowest = min(powers)
            assert field.char_exponent ** data.level == lowest
            assert data.joint == oracle.coeff_of_power("t", lowest)
            assert data.copies == tuple((n, n + "_w") for n in span)
            levels.add(data.level)
    assert levels == ({0} if field.characteristic == 0 else {0, 1, 2})


def test_lowest_power_not_a_characteristic_power_is_an_internal_error(monkeypatch):
    from polyfunctor import InternalCheckError, hasse

    # a binomial rule that kills every first-order slice leaves t^2 lowest
    monkeypatch.setattr(hasse, "lucas_binomial", lambda a, b, field: int(b != 1))
    ring = GradedRing(F3, ["x", "y"])
    with pytest.raises(InternalCheckError, match="lowest t-power 2 is not a power"):
        directional_data(parse_polynomial("x^2*y", ring), DirectionSubspace(ring, ("x",)))


# -- structural guard: the Hasse kernels never use boxed arithmetic ----------


@pytest.mark.parametrize("field", [Q, F3, FieldDescriptor.prime_field(101)])
def test_hasse_kernels_make_no_boxed_arithmetic(field, boxed_calls):
    ring = xyz_ring(field)
    text = "x^9*y^3*z + 2*x^4*y^5 - z^2 + x*y + 1"
    W = DirectionSubspace(ring, ("x", "y"))
    w = W.direction([2, 1])
    mapping = _substitution_mapping(W)
    boxed_calls.clear()
    f = parse_polynomial(text, ring)
    expanded = taylor_expand(f, W)
    data = directional_data(f, W)
    derivatives = [hasse_derivative(f, w, r, W) for r in range(16)]
    assert boxed_calls == {}
    # substitution with polynomial images runs on raw terms too
    substituted = f.substitute(mapping)
    assert boxed_calls == {"GradedPoly.substitute": 1}
    assert expanded == substituted
    assert expanded.powers_of("t")[-1] == 12 and derivatives[12] and not derivatives[13]
    assert data.level == 0 and data.joint == expanded.coeff_of_power("t", 1)
    # the counters see boxed arithmetic
    boxed_calls.clear()
    ring.one() * ring.one()
    assert boxed_calls == {"GradedPoly.__mul__": 1}


# -- every order of the binomial rule against substitution, on its edges -----

EDGE_FIELDS = (Q, F2, F3, FieldDescriptor.prime_field(101))
# ("x", "y") leads the ring, so its classes need no placement; the others do
EDGE_SPANS = (("y",), ("x", "y"), ("x", "z"), ("x", "y", "u"))


def _edge_poly(rng, ring, span):
    """A few terms whose exponents sit at, just below and above multiples of
    p, so Lucas' theorem gives zero binomials; at most about 3000 terms of
    f(x + t*w) per term keep the substitution oracle small."""
    p = ring.field.characteristic
    choices = (0, 1, 2, 3, 5, 7) if not p else (0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 3 * p + 1)
    positions = [ring.position(n) for n in span]
    f = ring.zero()
    while len(f.terms) < 3:
        exps = [rng.choice(choices) for _ in ring.names]
        if functools.reduce(lambda n, i: n * (exps[i] + 1), positions, 1) <= 3000:
            f = f + ring.monomial(exps, rng.choice((1, 2, -1, Fraction(1, 2)) if not p else range(1, p)))
    return f


def _edge_direction(rng, W, zero_coordinate):
    field = W.ring.field
    coords = []
    for _ in W.span_vars:
        c = field.zero()
        while not c:
            c = field.scalar(rng.choice((1, -2, 3, Fraction(-1, 3))) if not field.characteristic else rng.randrange(field.characteristic))
        coords.append(c)
    if zero_coordinate:
        coords[rng.randrange(len(coords))] = field.zero()
    return W.direction(coords)


@pytest.mark.parametrize("span", EDGE_SPANS, ids="-".join)
@pytest.mark.parametrize("field", EDGE_FIELDS, ids=str)
def test_every_order_matches_substitution_on_kernel_edges(field, span):
    rng = random.Random(f"kernel edges {field} {span}")
    ring = GradedRing(field, ["x", "y", "z", "u"])
    W = DirectionSubspace(ring, span)
    ext = ring.extended([("t", "aux", 0)])
    zeros_seen = False
    for trial in range(4):
        f = _edge_poly(rng, ring, span)
        w = _edge_direction(rng, W, zero_coordinate=len(span) > 1 and trial % 2)
        mapping = {n: ext.var(n) for n in ring.names}
        for name, c in zip(W.span_vars, w.coords):
            mapping[name] = ext.var(name) + ext.var("t") * c
        moved = f.substitute(mapping)
        for r in range(f.total_degree() + 2):
            assert hasse_derivative(f, w, r, W) == moved.coeff_of_power("t", r, ring), (f, w.coords, r)
        oracle = _substitution_expansion(f, W)
        assert taylor_expand(f, W) == oracle
        data = directional_data(f, W)
        powers = [k for k in oracle.powers_of("t") if k > 0]
        if not powers:
            assert data.status == "independent"
            continue
        assert field.char_exponent ** data.level == min(powers)
        assert data.joint == oracle.coeff_of_power("t", min(powers))
        # some binomial C(a, b) with 0 < b <= a vanished in the field
        zeros_seen |= any(
            not lucas_binomial(e[i], b, field)
            for e in f.terms for i in map(ring.position, span) for b in range(1, e[i] + 1)
        )
    assert zeros_seen == bool(field.characteristic)


# -- exponent classes are grouped once per direction and kept with f ----------

STORED_FIELDS = (Q, F3, FieldDescriptor.prime_field(101))


def _never_grouped(f):
    """A copy of f that holds no exponent classes."""
    return GradedPoly(f.ring, dict(f.terms), _canonical=True)


@pytest.mark.parametrize("field", STORED_FIELDS, ids=str)
def test_stored_classes_give_the_results_of_a_fresh_grouping(field):
    rng = random.Random(f"stored classes {field}")
    ring = GradedRing(field, ["x", "y", "z", "u"])
    for span in EDGE_SPANS:
        W = DirectionSubspace(ring, span)
        for _ in range(3):
            f = random_poly(rng, ring, max_degree=6, max_terms=6)
            # two full directions share one key; a zero coordinate groups on fewer axes
            directions = [_edge_direction(rng, W, zero_coordinate=False) for _ in range(2)]
            if len(span) > 1:
                directions.append(_edge_direction(rng, W, zero_coordinate=True))
            for w in directions:
                for r in range((f.total_degree() or 0) + 2):
                    assert hasse_derivative(f, w, r, W) == hasse_derivative(_never_grouped(f), w, r, W), (f, w, r)
            # the Taylor expansion and the directional data of an f whose
            # derivative classes are stored, each twice, against substitution
            oracle = _substitution_expansion(f, W)
            powers = [k for k in oracle.powers_of("t") if k > 0]
            for _ in range(2):
                assert taylor_expand(f, W) == oracle
                data = directional_data(f, W)
                if not powers:
                    assert data.status == "independent"
                    continue
                assert field.char_exponent ** data.level == min(powers)
                assert data.joint == oracle.coeff_of_power("t", min(powers))


def test_one_grouping_per_positions():
    # every order, the Taylor expansion and the directional data of one f
    # read the one grouping of f on the direction's positions
    ring = xyz_ring(F3)
    W = DirectionSubspace(ring, ("x", "y"))
    text = "x^9*y^3*z + 2*x^4*y^5 - z^2 + x*y + 1"

    def job(f, coords):
        derivatives = [hasse_derivative(f, W.direction(coords), r, W) for r in range(f.total_degree() + 2)]
        return derivatives, taylor_expand(f, W), directional_data(f, W)

    def grouped_once(f, coords):
        # the grouping the first derivative stores is the one the rest read
        hasse_derivative(f, W.direction(coords), 1, W)
        grouping = f._classes[0, 1]
        result = job(f, coords)
        assert f._classes[0, 1] is grouping
        return result

    f = parse_polynomial(text, ring)
    first = grouped_once(f, [2, 1])
    assert list(f._classes) == [(0, 1)]
    # the axes lead the ring, so no placement
    assert f._classes[0, 1][1] is None
    # another full direction, and the same job again, group nothing
    grouped_once(f, [1, 1])
    assert grouped_once(f, [2, 1]) == first
    assert list(f._classes) == [(0, 1)]
    # a zero coordinate adds one grouping, on the other axis alone
    job(f, [0, 1])
    job(f, [0, 2])
    assert list(f._classes) == [(0, 1), (1,)] and f._classes[1,][1] == (1, 0, 2)
    # a polynomial that was never grouped is grouped again
    g = parse_polynomial(text, ring)
    assert job(g, [2, 1]) == first and list(g._classes) == [(0, 1)]
