import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from polyfunctor import (
    BadDirectionChoiceError,
    CertificateNotFoundError,
    DirectionSubspace,
    FieldDescriptor,
    GradedPoly,
    GradedRing,
    InternalCheckError,
    PresentationError,
    VarietyPresentation,
    Vector,
    coordinate_model,
    delta_degree,
    derivative_step,
    directional_data,
    eliminate,
    extract_additive_element,
    parse_polynomial,
    projection_coefficients,
    run_rank_one_example,
    usable_directions,
)
from polyfunctor.functors import IdF, SumF, SymF, TenAltF, TenSymF, TensorF
from polyfunctor.groebner import divide_exact
from polyfunctor.matrices import scalar_entry_ring, space_matrix
from polyfunctor.proofstep import (
    AffineAdditiveElement,
    pullback_t_coefficients,
    rank_one_minors_plain,
    sample_rank_one_split,
    split_to_plain_map,
)

from conftest import F3, F5, Q

SPLIT = SumF((TenSymF(), TenAltF()))


def split_presentation(field=Q, dim=2):
    model = coordinate_model(SPLIT, field, dim)
    ring = model.ring
    f = (
        ring.var("y_1_1") * ring.var("y_2_2")
        - ring.var("y_1_2") ** 2
        + ring.var("z_1_2") ** 2
    )
    X = VarietyPresentation.make(SPLIT, field, dim, [f], [], "p1")
    return model, f, X


def pair_projection(field, n, i, j):
    rows = [[0] * n for _ in range(2)]
    rows[0][i - 1] = 1
    rows[1][j - 1] = 1
    return space_matrix(field, rows, scalar_entry_ring(field))


# -- delta ------------------------------------------------------------------------


def test_delta_running_example():
    model, f, X = split_presentation()
    report = delta_degree(X.generators, X.q_generators)
    assert report.status == "finite"
    assert report.delta == 4
    assert report.witness == f


def test_delta_infinite_when_generators_reduce_away():
    model, f, X = split_presentation()
    g = model.ring.var("y_1_1")
    X2 = VarietyPresentation.make(SPLIT, Q, 2, [g], [g], "p1")
    assert delta_degree(X2.generators, X2.q_generators).status == "infinite"


def test_delta_weighted_degree_of_square():
    model = coordinate_model(SPLIT, Q, 2)
    g = model.ring.var("z_1_2") ** 2
    X = VarietyPresentation.make(SPLIT, Q, 2, [g], [], "p1")
    report = delta_degree(X.generators, X.q_generators)
    assert report.delta == 4  # weight 2 per variable


# -- derivative step -----------------------------------------------------------------


def test_derivative_step_running_example():
    model, f, X = split_presentation()
    step = derivative_step(f, X, Vector("r", ("z_1_2",), (Q.one(),)))
    assert step.level == 0
    assert step.derivative == model.ring.var("z_1_2") * 2


def test_derivative_step_rejects_independent_witness():
    model, f, X = split_presentation()
    g = model.ring.var("y_1_1") * model.ring.var("y_2_2")
    X2 = VarietyPresentation.make(SPLIT, Q, 2, [g], [], "p1")
    with pytest.raises(PresentationError):
        derivative_step(g, X2, Vector("r", ("z_1_2",), (Q.one(),)))


def test_derivative_step_rejects_bad_direction():
    model, f, X = split_presentation()
    with pytest.raises(BadDirectionChoiceError):
        derivative_step(f, X, Vector("r", ("z_1_2",), (Q.zero(),)))


def test_derivative_step_level_one_in_characteristic_five():
    model = coordinate_model(SPLIT, F5, 2)
    ring = model.ring
    f = parse_polynomial("y_1_1^5*y_2_2^5 + z_1_2^5*y_1_1^5", ring)
    X = VarietyPresentation.make(SPLIT, F5, 2, [f], [], "p1")
    step = derivative_step(f, X, Vector("r", ("z_1_2",), (F5.one(),)))
    assert step.level == 1
    assert step.derivative == ring.var("y_1_1") ** 5
    # degree ledger: deg h = deg f - d * p^e0 = 20 - 2*5
    assert step.derivative.weighted_degree() == 10


def test_usable_directions_scan():
    model, f, X = split_presentation()
    scan = usable_directions(f, X)
    assert scan == [("z_1_2", True)]


# -- projection coefficients ----------------------------------------------------------


def test_projection_coefficients_block_formula():
    # plain tensor square: the three coefficient matrices act blockwise
    P = TensorF((IdF(), IdF()))
    field = Q
    model_u = coordinate_model(P, field, 2)
    n = 3
    phi = pair_projection(field, n, 1, 2)
    coeffs = projection_coefficients(model_u, n, phi)
    assert set(coeffs.by_degree.keys()) == {2}
    mats = coeffs.by_degree[2]
    assert len(mats) == 3
    model_big = coordinate_model(P, field, 5)
    # t^0: upper-left block; entries select x_a_b with a, b <= 2
    m0 = mats[0]
    for rl in m0.row_labels:
        for j, cl in enumerate(m0.col_labels):
            name = model_big.name_of[cl]
            entry = m0.entry_by_label(rl, cl)
            if entry:
                a, b = (int(s) for s in name.split("_")[1:])
                assert a <= 2 and b <= 2
    # t^2: image only involves the moving block (both indices beyond 2)
    m2 = mats[2]
    for rl in m2.row_labels:
        for cl in m2.col_labels:
            if m2.entry_by_label(rl, cl):
                a, b = (int(s) for s in model_big.name_of[cl].split("_")[1:])
                assert a > 2 and b > 2


def test_projection_coefficients_vanishing_pattern_symmetric_square():
    # construction verifies the vanishing pattern internally; a run means pass
    P = SymF(2, IdF())
    model_u = coordinate_model(P, Q, 2)
    phi = space_matrix(Q, [[1, 0], [0, 1]], scalar_entry_ring(Q))
    coeffs = projection_coefficients(model_u, 2, phi)
    assert len(coeffs.by_degree[2]) == 3


def test_projection_requires_surjective_matrix():
    model_u = coordinate_model(SPLIT, Q, 2)
    flat = space_matrix(Q, [[1, 0, 0], [0, 0, 0]], scalar_entry_ring(Q))
    with pytest.raises(PresentationError):
        projection_coefficients(model_u, 3, flat)


# -- extraction -------------------------------------------------------------------------


def test_extract_running_example_split_form():
    field = Q
    model_u, f, X = split_presentation(field)
    n = 3
    model_big = coordinate_model(SPLIT, field, 5)
    for (i, j) in itertools.combinations(range(1, n + 1), 2):
        phi = pair_projection(field, n, i, j)
        el = extract_additive_element(f, model_u, model_big, phi, 0, "p1")
        moving = f"z_{2 + i}_{2 + j}"
        # the coefficient of the moving coordinate is exactly h = 2 z_1_2
        assert set(el.additive_part.keys()) == {moving}
        assert el.additive_part[moving] == model_big.ring.var("z_1_2") * 2
        # and the constant part avoids all moving coordinates
        elim = set(model_big.moving_vars("p1", 2))
        assert not (set(el.constant_part.support_vars()) & elim)


def test_extract_plain_coordinates_match_block_determinant():
    field = Q
    P = TensorF((IdF(), IdF()))
    model_u = coordinate_model(P, field, 2)
    model_big = coordinate_model(P, field, 5)
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", model_u.ring)
    i, j = 1, 2
    phi = pair_projection(field, 3, i, j)
    el = extract_additive_element(f, model_u, model_big, phi, 0, "p0")
    k = el.poly
    ring = model_big.ring

    def coeff_of(m1, m2):
        prod = ring.var(m1) * ring.var(m2)
        ((exps, _),) = tuple(prod.terms.items())
        value = k.terms.get(exps)
        return value if value is not None else 0

    F = lambda a, b: f"x_{2 + a}_{2 + b}"
    C = lambda a, b: f"x_{a}_{b}"
    assert coeff_of(F(i, i), C(2, 2)) == 1
    assert coeff_of(F(j, j), C(1, 1)) == 1
    assert coeff_of(F(i, j), C(2, 1)) == -1
    assert coeff_of(F(j, i), C(1, 2)) == -1
    # all remaining monomials avoid the moving block
    moving = set(model_big.moving_vars("p0", 2))
    seen = {F(i, i), F(j, j), F(i, j), F(j, i)}
    for exps, _ in k.terms.items():
        support = {ring.names[t] for t, e in enumerate(exps) if e}
        assert support & moving <= seen


def test_extract_vanishes_on_rank_one_samples():
    field = Q
    model_u, f, X = split_presentation(field)
    model_big = coordinate_model(SPLIT, field, 5)
    phi = pair_projection(field, 3, 1, 2)
    el = extract_additive_element(f, model_u, model_big, phi, 0, "p1")
    rng = random.Random(3)
    for _ in range(100):
        point = sample_rank_one_split(rng, model_big)
        assert not el.poly.evaluate(point)


def test_extract_joint_laws():
    field = F3
    model_u, f, X = split_presentation(field)
    model_big = coordinate_model(SPLIT, field, 5)
    phi = pair_projection(field, 3, 1, 3)
    el = extract_additive_element(f, model_u, model_big, phi, 0, "p1")
    from polyfunctor import joint_additivity_holds, joint_scaling_holds

    W = DirectionSubspace(model_big.ring, el.eliminated)
    data = directional_data(el.poly, W)
    assert data.level == 0
    assert joint_additivity_holds(data)
    assert joint_scaling_holds(data)


# -- elimination ---------------------------------------------------------------------


def test_eliminate_single_affine_element():
    ring = GradedRing(Q, [("z", "r", 1), ("c", "b", 1)])
    element = AffineAdditiveElement(
        poly=ring.var("z") + ring.var("c"),
        level=0,
        additive_part={"z": ring.one()},
        constant_part=ring.var("c"),
        eliminated=("z",),
        pullback=ring.zero(),
    )
    cert = eliminate([element], ring.one(), ["z"])
    (entry,) = cert.entries
    assert entry.variable == "z"
    assert entry.h_power == 0
    assert entry.numerator == ring.var("c")
    # recovered value on the zero locus: z = -c
    assert cert.cleared_elements()[0] == ring.var("z") + ring.var("c")


def test_eliminate_needs_enough_elements():
    ring = GradedRing(Q, [("z1", "r", 1), ("z2", "r", 1), ("c", "b", 1)])
    element = AffineAdditiveElement(
        poly=ring.var("z1") + ring.var("c"),
        level=0,
        additive_part={"z1": ring.one()},
        constant_part=ring.var("c"),
        eliminated=("z1", "z2"),
        pullback=ring.zero(),
    )
    with pytest.raises(CertificateNotFoundError):
        eliminate([element], ring.one(), ["z1", "z2"])


def test_eliminate_no_unit_minor():
    ring = GradedRing(Q, [("z", "r", 1), ("c", "b", 1), ("h", "b", 1)])
    element = AffineAdditiveElement(
        poly=ring.var("z") * ring.var("c"),
        level=0,
        additive_part={"z": ring.var("c")},
        constant_part=ring.zero(),
        eliminated=("z",),
        pullback=ring.zero(),
    )
    with pytest.raises(CertificateNotFoundError):
        eliminate([element], ring.var("h"), ["z"])


def test_eliminate_takes_the_first_unit_minor():
    # rows (0, 1) are singular, rows (0, 2) give the minor 3*c*h^2, which is
    # no scalar times a power of h, and rows (1, 2) give 6*h^3
    ring = GradedRing(Q, [("z1", "r", 1), ("z2", "r", 1), ("c", "b", 1), ("h", "b", 1)])
    z1, z2, c, h = (ring.var(name) for name in ("z1", "z2", "c", "h"))

    def element(additive, constant):
        poly = constant + sum((coeff * ring.var(v) for v, coeff in additive.items()), ring.zero())
        return AffineAdditiveElement(poly, 0, additive, constant, ("z1", "z2"), ring.zero())

    elements = [
        element({"z1": c}, ring.one()),
        element({"z1": h * 2}, h * c),
        element({"z2": h**2 * 3}, c),
    ]
    cert = eliminate(elements, h, ["z1", "z2"])
    assert cert.minor_rows == (1, 2)
    assert cert.minor_det == h**3 * 6
    # 2h*z1 + h*c = 0 gives z1 = -c/2 with no h left; 3h^2*z2 + c = 0 gives
    # z2 = -(c/3)/h^2
    assert [(e.variable, e.numerator, e.h_power) for e in cert.entries] == [
        ("z1", c * Fraction(1, 2), 0),
        ("z2", c * Fraction(1, 3), 2),
    ]
    assert cert.cleared_elements() == [z1 + c * Fraction(1, 2), h**2 * z2 + c * Fraction(1, 3)]
    with pytest.raises(CertificateNotFoundError):
        eliminate(elements, h, ["z1", "z2"], max_minor_candidates=2)


def test_cramer_solve_refuses_an_inexact_division(monkeypatch):
    from polyfunctor import matrices

    ring = GradedRing(Q, ["s", "t"])
    s, t = ring.var("s"), ring.var("t")
    rows = [[s, t, ring.one()], [t, s + 1, ring.zero()]]
    assert matrices.cramer_solve(rows, ring) == (s**2 + s - t**2, [s + 1, -t])
    monkeypatch.setattr(matrices, "divide_exact", lambda f, g: None)
    with pytest.raises(InternalCheckError):
        matrices.cramer_solve(rows, ring)


def test_eliminate_running_example_structure():
    field = Q
    model_u, f, X = split_presentation(field)
    n = 3
    model_big = coordinate_model(SPLIT, field, 5)
    elements = []
    for (i, j) in itertools.combinations(range(1, n + 1), 2):
        phi = pair_projection(field, n, i, j)
        elements.append(extract_additive_element(f, model_u, model_big, phi, 0, "p1"))
    h_big = (model_big.ring.var("z_1_2")) * 2
    eliminated = model_big.moving_vars("p1", 2)
    cert = eliminate(elements, h_big, eliminated)
    assert len(cert.entries) == 3
    assert all(e.h_power == 1 for e in cert.entries)
    assert set(e.variable for e in cert.entries) == {"z_3_4", "z_3_5", "z_4_5"}
    for e in cert.entries:
        assert not (set(e.numerator.support_vars()) & set(eliminated))


def test_certificate_recovers_samples_exactly():
    field = Q
    report = run_rank_one_example(3, field, seed=7, sample_count=30)
    assert report.certificate is not None
    rng = random.Random(99)
    model_big = coordinate_model(SPLIT, field, 5)
    h_big = report.h.convert(model_big.ring)
    for _ in range(100):
        point = sample_rank_one_split(rng, model_big, require_unit=h_big)
        h_val = h_big.evaluate(point)
        for entry in report.certificate.entries:
            recovered = -(entry.numerator.evaluate(point) / h_val ** entry.h_power)
            assert recovered == point[entry.variable]


@pytest.mark.parametrize("n", (3, 4))
def test_q_certificate_reduced_mod_p_is_the_fp_certificate(n):
    # The Cramer solution for a fixed row subset is unique, so wherever both
    # runs take the same minor rows and the minor's scalar c = det / h^P is a
    # p-unit, the q certificate reduced mod p is the fp:p one, entry for entry.
    cert_q = run_rank_one_example(n, Q, sample_count=1).certificate
    c = cert_q.minor_det
    while (quotient := divide_exact(c, cert_q.unit)) is not None:
        c = quotient
    assert c.is_constant()
    c = c.constant_value().value
    compared = []
    for p in (3, 5, 101):
        field = FieldDescriptor.prime_field(p)
        cert_p = run_rank_one_example(n, field, sample_count=1).certificate
        if cert_p.minor_rows != cert_q.minor_rows or not (c.numerator % p and c.denominator % p):
            continue
        compared.append(p)
        assert [(e.variable, e.h_power) for e in cert_q.entries] == [
            (e.variable, e.h_power) for e in cert_p.entries]
        for e_q, e_p in zip(cert_q.entries, cert_p.entries):
            assert e_q.numerator.ring.names == e_p.numerator.ring.names
            reduced = {exps: r for exps, k in e_q.numerator.terms.items()
                       if (r := field.scalar(k).value)}
            assert reduced == e_p.numerator.terms
    assert 101 in compared


# -- full runs ----------------------------------------------------------------------


def test_run_rank_one_n3_rationals():
    report = run_rank_one_example(3, Q, seed=0)
    assert report.all_passed()
    assert report.h.to_text() == "2*z_1_2"
    assert len(report.certificate.entries) == 3
    assert report.delta.delta == 4


def test_run_rank_one_n2_rationals():
    report = run_rank_one_example(2, Q, seed=0)
    assert report.all_passed()
    assert len(report.certificate.entries) == 1
    assert report.certificate.entries[0].variable == "z_3_4"


def test_run_rank_one_n3_characteristic_three():
    report = run_rank_one_example(3, F3, seed=0)
    assert report.all_passed()
    assert report.h.to_text() == "2*z_1_2"
    assert len(report.certificate.entries) == 3


def test_run_rank_one_refuses_characteristic_two():
    from polyfunctor import CharacteristicError, FieldDescriptor

    with pytest.raises(CharacteristicError):
        run_rank_one_example(3, FieldDescriptor.prime_field(2))


def test_report_is_deterministic():
    a = run_rank_one_example(2, Q, seed=5, sample_count=20)
    b = run_rank_one_example(2, Q, seed=5, sample_count=20)
    assert a.to_text() == b.to_text()
    assert a.to_json_dict() == b.to_json_dict()


def test_membership_of_cleared_elements_by_division():
    from polyfunctor import membership_by_division

    field = Q
    report = run_rank_one_example(2, field, seed=0, sample_count=10)
    model_big = coordinate_model(SPLIT, field, 4)
    plain = coordinate_model(TensorF((IdF(), IdF())), field, 4)
    to_plain = split_to_plain_map(model_big, plain)
    minors = rank_one_minors_plain(plain)
    for cleared in report.certificate.cleared_elements():
        assert membership_by_division(cleared.substitute(to_plain), minors)


def test_membership_of_extracted_element_by_groebner():
    # full Buchberger run on the 4x4 minors certifies membership of k
    from polyfunctor import Budget, normal_form

    field = Q
    P = TensorF((IdF(), IdF()))
    model_u = coordinate_model(P, field, 2)
    model_big = coordinate_model(P, field, 4)
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", model_u.ring)
    phi = pair_projection(field, 2, 1, 2)
    el = extract_additive_element(f, model_u, model_big, phi, 0, "p0")
    minors = rank_one_minors_plain(model_big)
    assert normal_form(el.poly, minors, Budget(500_000)).is_zero()
    rng = random.Random(17)
    for _ in range(100):
        v = [field.scalar(rng.randint(-10, 10)) for _ in range(4)]
        w = [field.scalar(rng.randint(-10, 10)) for _ in range(4)]
        point = {
            f"x_{a + 1}_{b + 1}": v[a] * w[b] for a in range(4) for b in range(4)
        }
        assert not el.poly.evaluate(point)


# -- sampling checks ------------------------------------------------------------------


def _pullback_vanishes_by_substitution(pullback, point):
    """Reference check: substitute the point, keep t, test the result for 0."""
    ring = pullback.ring
    images = {
        name: ring.const(point[name]) if name in point else ring.var(name)
        for name in ring.names
    }
    return pullback.substitute(images).is_zero()


@pytest.mark.parametrize("field", [Q, F3])
def test_t_coefficient_check_agrees_with_substitution(field):
    model_u, f, X = split_presentation(field)
    model_big = coordinate_model(SPLIT, field, 5)
    rng = random.Random(11)
    for i, j in ((1, 2), (2, 3)):
        el = extract_additive_element(
            f, model_u, model_big, pair_projection(field, 3, i, j), 0, "p1"
        )
        ext = el.pullback.ring
        t_name = ext.names[-1]
        perturbed = el.pullback + ext.var(t_name) * ext.var("y_1_1")
        coeffs = pullback_t_coefficients(el.pullback, model_big.ring)
        perturbed_coeffs = pullback_t_coefficients(perturbed, model_big.ring)
        assert all(c.ring == model_big.ring for c in coeffs)
        caught = 0
        for _ in range(30):
            point = sample_rank_one_split(rng, model_big)
            vanishes = not any(c.evaluate(point) for c in coeffs)
            assert vanishes
            assert vanishes == _pullback_vanishes_by_substitution(el.pullback, point)
            perturbed_vanishes = not any(c.evaluate(point) for c in perturbed_coeffs)
            assert perturbed_vanishes == _pullback_vanishes_by_substitution(perturbed, point)
            assert perturbed_vanishes == (not point["y_1_1"])
            caught += not perturbed_vanishes
        assert caught > 0


# sha256 of 80 seeded sample_rank_one_split points (seed 31, sorted
# name=value text per point) followed by one rng.random() drawn afterwards,
# captured from the boxed sampler: a rewrite must return the same points and
# leave the generator in the same state.
SAMPLER_GOLDEN = {
    ("q", 2, False): "fcc2fee7903c015301bf3c60bec733af6d1e64a39df2584d15dfd030423c9773",
    ("q", 2, True): "53e4666006b3cdb56a4077035c8db16a6d35cb9a4fdf21bb07df64786f71c275",
    ("q", 4, False): "cf5a34c1f465e11413ea8372e464e58a06cc58407e7c23669d7d627ebaf618b3",
    ("q", 4, True): "abe9f1be0af3106e851a9f6d796a2a798d743d879a22023282b6b284f7e47c86",
    ("fp:3", 2, False): "b509db798be2e84a2a87848ead0f305867b12b9de39c42e94583ebbc28b5e45d",
    ("fp:3", 2, True): "3003c0f1e60343f7bf746e609b96bc7fdd2ee4cf2597ebc42fc0edb72ddb1dec",
    ("fp:3", 4, False): "cc509c838c869fa8fd1a65246c61be08bc4e885427250689de3bad62c5d453bb",
    ("fp:3", 4, True): "a550eecebf508269e35fd43ffb3a6c7a752d9d73b184950de62aba5813602793",
    ("fp:101", 2, False): "e52ccf9479c4a97389abf801d1dd6351cd9c28d6bd63a7818e2b9f1c5d476b33",
    ("fp:101", 2, True): "faf853431f25203cc1a8dfe96c1d296224a8d1555b5d7bd94dd37710f041c8d7",
    ("fp:101", 4, False): "6f1a9a35744a827c05e23824844efb341aa4cd93a8d624f0c25e580e7833885e",
    ("fp:101", 4, True): "6f1a9a35744a827c05e23824844efb341aa4cd93a8d624f0c25e580e7833885e",
}


@pytest.mark.parametrize("key", sorted(SAMPLER_GOLDEN))
def test_sampler_golden(key):
    selector, n, unit = key
    model = coordinate_model(SPLIT, FieldDescriptor.parse(selector), n)
    h_big = model.ring.var("z_1_2") * 2
    rng = random.Random(31)
    lines = []
    for _ in range(80):
        point = sample_rank_one_split(rng, model, require_unit=h_big if unit else None)
        lines.append(" ".join(sorted(f"{name}={value}" for name, value in point.items())))
    lines.append(repr(rng.random()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SAMPLER_GOLDEN[key]


def test_rank_one_sampling_loops_do_not_substitute(monkeypatch):
    calls = []
    substitute = GradedPoly.substitute

    def counted(self, mapping):
        calls.append(1)
        return substitute(self, mapping)

    monkeypatch.setattr(GradedPoly, "substitute", counted)
    field = FieldDescriptor.prime_field(101)
    counts = []
    for samples in (100, 1):
        calls.clear()
        assert run_rank_one_example(3, field, sample_count=samples).all_passed()
        counts.append(len(calls))
    # the pipeline itself substitutes a fixed number of times; a sample adds none
    assert counts[0] == counts[1] <= 40


def test_rank_one_elimination_divides_few_times(monkeypatch):
    from polyfunctor import groebner, matrices, proofstep

    calls = []
    inside = []
    eliminate = proofstep.eliminate

    def counted(f, g):
        calls.extend(inside)
        return groebner.divide_exact(f, g)

    def tracked(*args, **kwargs):
        inside.append(1)
        try:
            return eliminate(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(proofstep, "divide_exact", counted)
    monkeypatch.setattr(matrices, "divide_exact", counted)
    monkeypatch.setattr(proofstep, "eliminate", tracked)
    report = run_rank_one_example(4, FieldDescriptor.prime_field(101), sample_count=1)
    assert report.all_passed()
    # At n = 4 the 6 elements give a 6x6 system with one entry 2*z_1_2 per
    # row.  The Gauss-Jordan pass divides the two nonzero entries of each
    # other row once per step after the first (2 * 5 * 5 = 50), the minor
    # h^6 takes 7 divisions to find its h-power, and each of the 6 numerators,
    # h^5 times an entry of k0, cancels 5 powers and fails the sixth (36): 93.
    # A Bareiss determinant per minor and per coordinate took 289.
    assert len(calls) <= 100


def test_rank_one_sampling_evaluates_each_point_in_few_calls(monkeypatch):
    from polyfunctor import proofstep, rings

    calls = []
    kernel = rings.evaluate_all

    def counted(polys, point):
        calls.append(1)
        return kernel(polys, point)

    monkeypatch.setattr(rings, "evaluate_all", counted)
    monkeypatch.setattr(proofstep, "evaluate_all", counted)
    field = FieldDescriptor.prime_field(101)
    counts = []
    for samples in (100, 1):
        calls.clear()
        assert run_rank_one_example(3, field, sample_count=samples).all_passed()
        counts.append(len(calls))
    # per sample: the t-coefficients, the k's, the unit test of the
    # certificate sampler, and h with every certificate numerator
    assert counts[0] - counts[1] <= 4 * 99
