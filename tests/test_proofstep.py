import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from polyfunctor import (
    AlgebraError,
    BadDirectionChoiceError,
    Budget,
    CertificateNotFoundError,
    CoordinateModel,
    DirectionSubspace,
    FieldDescriptor,
    GradedPoly,
    GradedRing,
    InternalCheckError,
    PresentationError,
    RingVariable,
    VarietyPresentation,
    Vector,
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
from polyfunctor.functors import IdF, ShiftF, SumF, SymF, TenAltF, TenSymF, TensorF, induced_map, parse_functor
from polyfunctor.groebner import divide_exact
from polyfunctor.hasse import joint_additivity_holds, joint_scaling_holds, specialise_joint
from polyfunctor import proofstep
from polyfunctor.matrices import LinearMapMatrix, row_forms, space_matrix
from polyfunctor.proofstep import (
    AffineAdditiveElement,
    CertificateEntry,
    DeltaReport,
    _segre_map,
    _sample_statuses,
    _segre_points,
    _vanish_on_samples,
)

from conftest import (
    F3, F5, Q, joint_additivity_by_identity, joint_scaling_by_identity, normal_form, rank_one_minors_plain,
    rank_one_points, segre_map_by_arithmetic, split_to_plain_map, substitute_by_powers, witness_data,
)

SPLIT = SumF((TenSymF(), TenAltF()))


def split_presentation(field=Q, dim=2):
    model = CoordinateModel(SPLIT, field, dim)
    ring = model.ring
    f = (
        ring.var("y_1_1") * ring.var("y_2_2")
        - ring.var("y_1_2") ** 2
        + ring.var("z_1_2") ** 2
    )
    X = VarietyPresentation.make(model, [f], [], "p1")
    return model, f, X


def pair_projection(field, n, i, j):
    rows = [[0] * n for _ in range(2)]
    rows[0][i - 1] = 1
    rows[1][j - 1] = 1
    return space_matrix(field, rows)


def test_a_presentation_needs_a_generator():
    model, f, X = split_presentation()
    assert X.model is model
    with pytest.raises(PresentationError, match="needs at least one generator"):
        VarietyPresentation.make(model, [], [f], "p1")


@pytest.mark.parametrize("text, names", [
    ("sum(tsym,tsym)", "p0_1 p0_2 p0_3 p1_1 p1_2 p1_3"),
    ("sum(tensor(id,id),tensor(id,id))", "p0_1 p0_2 p0_3 p0_4 p1_1 p1_2 p1_3 p1_4"),
    ("sum(tsym,talt,tsym)", "p0_1 p0_2 p0_3 z_1_2 p2_1 p2_2 p2_3"),
    ("sum(tsym,talt)", "y_1_1 y_1_2 y_2_2 z_1_2"),
])
def test_a_kind_that_would_name_two_summands_names_neither(text, names):
    assert CoordinateModel(parse_functor(text), Q, 2).ring.names == tuple(names.split())


def _refused(error, message, call, *args):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error and str(info.value) == message


def test_presentation_refusals():
    zero = parse_functor("quot(sum(id),0)")
    _refused(PresentationError, "the zero functor has no coordinates", CoordinateModel, zero, Q, 2)
    model, f, _ = split_presentation()
    foreign = CoordinateModel(SPLIT, Q, 3).ring.var("y_1_1")
    for generators, q_generators in (([f, foreign], []), ([f], [foreign])):
        _refused(PresentationError, "generator lives in a foreign ring",
                 VarietyPresentation.make, model, generators, q_generators, "p1")
    g = model.ring.var("y_1_1") + model.ring.var("z_1_2") ** 2
    _refused(PresentationError, "generator z_1_2^2 + y_1_1 is not weight-homogeneous",
             VarietyPresentation.make, model, [f, g], [], "p1")
    low = CoordinateModel(parse_functor("sum(id,talt)"), Q, 2)
    _refused(PresentationError, "designated summand 'p0' has degree 1, top degree is 2",
             VarietyPresentation.make, low, [low.ring.var("z_1_2")], [], "p0")


def test_a_witness_in_a_foreign_ring_is_refused():
    model_u, f, X = split_presentation()
    model_big = CoordinateModel(SPLIT, Q, 5)
    foreign = f.substitute({name: model_big.ring.var(name) for name in model_u.ring.names})
    message = "witness polynomial lives in a foreign ring"
    _refused(PresentationError, message, derivative_step, foreign, X, Vector("r", ("z_1_2",), (1,)))
    data = witness_data(f, model_u, "p1")
    _refused(PresentationError, message, extract_additive_element, foreign, data, model_u, model_big,
             pair_projection(Q, 3, 1, 2), "p1")


def test_projection_of_the_wrong_shape_is_refused():
    model_u = CoordinateModel(SPLIT, Q, 2)
    for rows in ([[1, 0], [0, 1]], [[1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        _refused(PresentationError, "projection matrix has the wrong shape", projection_coefficients, model_u, 3,
                 space_matrix(Q, rows))


def test_elimination_refusals():
    ring = GradedRing(Q, [("z", "r", 1), ("c", "b", 1)])
    z, c = ring.var("z"), ring.var("c")
    one = AffineAdditiveElement(z + c, 0, {"z": ring.one()}, c, ("z",))
    cubed = AffineAdditiveElement(z ** 3 + c, 1, {"z": ring.one()}, c, ("z",))
    _refused(PresentationError, "elements disagree in ring or level", eliminate, [one, cubed], ring.one(), ["z"])
    foreign = GradedRing(Q, [("z", "r", 1), ("c", "b", 1), ("h", "b", 1)]).var("h")
    _refused(PresentationError, "unit polynomial lives in a foreign ring", eliminate, [one], foreign, ["z"])
    _refused(PresentationError, "unit polynomial must avoid the moving coordinates", eliminate, [one], z + c, ["z"])
    # the same element with a unit free of z is eliminated
    assert eliminate([one], ring.one(), ["z"]).entries == (CertificateEntry("z", c, 0),)


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
    X2 = VarietyPresentation.make(model, [g], [g], "p1")
    assert delta_degree(X2.generators, X2.q_generators).status == "infinite"


def test_delta_weighted_degree_of_square():
    model = CoordinateModel(SPLIT, Q, 2)
    g = model.ring.var("z_1_2") ** 2
    X = VarietyPresentation.make(model, [g], [], "p1")
    report = delta_degree(X.generators, X.q_generators)
    assert report.delta == 4  # weight 2 per variable


def test_delta_honours_a_budget_of_zero_steps():
    ring = GradedRing(Q, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    # each normal form takes one division step: zero steps cannot decide it
    assert delta_degree([x * y, y], [x], budget_steps=0) == DeltaReport("inconclusive", None, None)
    assert delta_degree([x * y, y], [x], budget_steps=1) == DeltaReport("finite", 1, y)
    assert delta_degree([x * y, y], [x]) == DeltaReport("finite", 1, y)


def _delta_per_generator(generators, q_generators, steps):
    """delta_degree as one normal form per generator, each on a fresh budget."""
    from polyfunctor import BudgetExceededError

    best = witness = None
    try:
        for g in generators:
            if g and normal_form(g, q_generators, Budget(steps)):
                if best is None or g.weighted_degree() < best:
                    best, witness = g.weighted_degree(), g
    except BudgetExceededError:
        return DeltaReport("inconclusive", None, None)
    return DeltaReport("infinite", None, None) if best is None else DeltaReport("finite", best, witness)


@pytest.mark.parametrize("field", ("q", "fp:101"))
def test_delta_runs_buchberger_once_with_the_per_generator_budget(field, monkeypatch):
    from conftest import katsura_ideal
    from polyfunctor import proofstep

    q_gens = katsura_ideal(FieldDescriptor.parse(field), 3)
    ring = q_gens[0].ring
    u0, u1, u2 = (ring.var(f"u{i}") for i in range(3))
    # members and non-members; two non-members of degree 2, so the first is the witness
    generators = [q_gens[1] * u2 + q_gens[0] * u1, ring.zero(), u0 * u1 * u2 + u1, u1 * u2 - 1 + u0,
                  u0 * u1 + u2 * u2 + 5, q_gens[2] * u0 * u0]
    costs = []  # steps of each generator's normal form: Buchberger plus its reduction
    for g in filter(None, generators):
        budget = Budget()
        normal_form(g, q_gens, budget)
        costs.append(50_000 - budget.remaining)
    budget = Budget()
    proofstep.buchberger(q_gens, budget)
    basis, boundary = 50_000 - budget.remaining, max(costs)  # Buchberger alone; the dearest normal form
    runs = []
    buchberger = proofstep.buchberger
    monkeypatch.setattr(proofstep, "buchberger", lambda *args: runs.append(args) or buchberger(*args))
    for steps in (0, basis - 1, basis, basis + 1, boundary - 1, boundary, boundary + 1):
        runs.clear()
        assert delta_degree(generators, q_gens, budget_steps=steps) == _delta_per_generator(
            generators, q_gens, steps)
        assert len(runs) == 1
    assert delta_degree(generators, q_gens, budget_steps=boundary - 1).status == "inconclusive"
    assert delta_degree(generators, q_gens, budget_steps=boundary) == DeltaReport("finite", 2, generators[3])


# -- derivative step -----------------------------------------------------------------


def test_derivative_step_running_example():
    model, f, X = split_presentation()
    h, data = derivative_step(f, X, Vector("r", ("z_1_2",), (1,)))
    assert data.level == 0
    assert h == model.ring.var("z_1_2") * 2


def test_derivative_step_rejects_independent_witness():
    model, f, X = split_presentation()
    g = model.ring.var("y_1_1") * model.ring.var("y_2_2")
    X2 = VarietyPresentation.make(model, [g], [], "p1")
    with pytest.raises(PresentationError):
        derivative_step(g, X2, Vector("r", ("z_1_2",), (1,)))


def test_derivative_step_rejects_bad_direction():
    model, f, X = split_presentation()
    with pytest.raises(BadDirectionChoiceError):
        derivative_step(f, X, Vector("r", ("z_1_2",), (0,)))


def test_derivative_step_level_one_in_characteristic_five():
    model = CoordinateModel(SPLIT, F5, 2)
    ring = model.ring
    f = parse_polynomial("y_1_1^5*y_2_2^5 + z_1_2^5*y_1_1^5", ring)
    X = VarietyPresentation.make(model, [f], [], "p1")
    h, data = derivative_step(f, X, Vector("r", ("z_1_2",), (1,)))
    assert data.level == 1
    assert h == ring.var("y_1_1") ** 5
    # degree ledger: deg h = deg f - d * p^e0 = 20 - 2*5
    assert h.weighted_degree() == 10


def test_usable_directions_scan():
    model, f, X = split_presentation()
    scan = usable_directions(witness_data(f, X.model, X.designated_r), X)
    assert scan == [("z_1_2", True)]


@pytest.mark.parametrize("field", (Q, F3))
def test_usable_directions_runs_buchberger_once(field, monkeypatch):
    from polyfunctor import groebner, proofstep

    # the y summand at u = 2 has three directions; the derivative along
    # y_1_2 is -2*y_1_2, which dies modulo the q-generators
    model, f, _ = split_presentation(field)
    ring = model.ring
    q_gens = [parse_polynomial(text, ring) for text in (
        "y_1_1*y_2_2 - y_1_2^2 + y_1_1^2", "y_1_1*y_1_2 - y_2_2^2", "y_1_2")]
    X = VarietyPresentation.make(model, [f], q_gens, "p0")
    W = DirectionSubspace(ring, X.r_vars())
    data = directional_data(f, W)
    expected = []
    for name in X.r_vars():
        h = specialise_joint(data, W.direction([int(v == name) for v in W.span_vars]), W)
        expected.append((name, bool(h) and not normal_form(h, q_gens).is_zero()))
    runs = []
    buchberger = groebner.buchberger
    for module in (groebner, proofstep):  # normal_form calls it too
        monkeypatch.setattr(module, "buchberger", lambda *args: runs.append(args) or buchberger(*args))
    assert usable_directions(data, X) == expected
    assert len(runs) == 1
    assert [ok for _, ok in expected] == [True, False, True]


def _homogeneous_on_y(ideal, ring):
    """The generators of a conftest.random_ideal moved onto y_1_1, y_1_2,
    y_2_2 of ring, each cut to its top-degree part: a presentation takes
    weight-homogeneous generators only."""
    images = [ring.var(name) for name in ("y_1_1", "y_1_2", "y_2_2")]
    out = []
    for g in filter(None, ideal):
        moved = g.substitute(dict(zip(g.ring.names, images)))
        top = max(map(sum, moved.terms), default=0)
        out.append(GradedPoly(ring, {e: c for e, c in moved.terms.items() if sum(e) == top}))
    return out


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_reductions_modulo_the_q_generators_agree_with_normal_form(field):
    from conftest import random_ideal, random_poly, random_scalar

    field = FieldDescriptor.parse(field)
    rng = random.Random(7)
    model, f, _ = split_presentation(field)
    statuses, survives = set(), set()
    for _ in range(12):
        q_gens = random_ideal(rng, field)
        generators = [random_poly(rng, q_gens[0].ring) for _ in range(4)]
        report = delta_degree(generators, q_gens)
        assert report == _delta_per_generator(generators, q_gens, 50_000)
        statuses.add(report.status)
        if any(generators) and any(q_gens):
            assert delta_degree(generators, q_gens, budget_steps=0).status == "inconclusive"

        X = VarietyPresentation.make(model, [f], _homogeneous_on_y(q_gens, model.ring), "p0")
        W = DirectionSubspace(model.ring, X.r_vars())
        data = directional_data(f, W)
        # the coordinate directions, which usable_directions scans, then a random one
        directions = [[int(v == name) for v in W.span_vars] for name in W.span_vars]
        directions.append([random_scalar(rng, field) for _ in W.span_vars])
        expected = []
        for coords in directions:
            r0 = W.direction(coords)
            h = specialise_joint(data, r0, W)
            ok = bool(h) and not normal_form(h, X.q_generators).is_zero()
            expected.append(ok)
            if ok:
                assert derivative_step(f, X, r0)[0] == h
            else:
                with pytest.raises(BadDirectionChoiceError):
                    derivative_step(f, X, r0)
        assert usable_directions(data, X) == list(zip(W.span_vars, expected))
        survives.update(expected)
    assert statuses == {"finite", "infinite"} and survives == {True, False}


def test_extraction_refuses_an_independent_witness():
    # the level is read off the witness along the designated summand, so a
    # witness free of it has none, as derivative_step refuses it too
    model_u, _, _ = split_presentation()
    g = model_u.ring.var("y_1_1") * model_u.ring.var("y_2_2")
    model_big = CoordinateModel(SPLIT, Q, 5)
    with pytest.raises(PresentationError, match="does not involve the designated"):
        phi = pair_projection(Q, 3, 1, 2)
        extract_additive_element(g, witness_data(g, model_u, "p1"), model_u, model_big, phi, "p1")


# -- projection coefficients ----------------------------------------------------------


def _t_powers(full):
    return {power for (power,) in full.slices}


def test_projection_coefficients_block_formula():
    # plain tensor square: the t^i slices of the parametrised map act blockwise
    P = TensorF((IdF(), IdF()))
    field = Q
    model_u = CoordinateModel(P, field, 2)
    n = 3
    phi = pair_projection(field, n, 1, 2)
    full, _, _ = projection_coefficients(model_u, n, phi)
    assert set(model_u.decomposition.parts) == {2}
    assert _t_powers(full) == {0, 1, 2}
    model_big = CoordinateModel(P, field, 5)

    def indices(power):
        # the coordinate indices a, b of each column x_a_b with an entry at t^power
        _, cols, _ = full.slices[(power,)]
        return [tuple(int(s) for s in model_big.name_of[full.col_labels[j]].split("_")[1:]) for j in cols]

    # t^0: upper-left block; entries select x_a_b with a, b <= 2
    assert all(a <= 2 and b <= 2 for a, b in indices(0))
    # t^2: image only involves the moving block (both indices beyond 2)
    assert all(a > 2 and b > 2 for a, b in indices(2))


def test_projection_coefficients_vanishing_pattern_symmetric_square():
    # construction verifies the vanishing pattern internally; a run means pass
    P = SymF(2, IdF())
    model_u = CoordinateModel(P, Q, 2)
    phi = space_matrix(Q, [[1, 0], [0, 1]])
    full, _, _ = projection_coefficients(model_u, 2, phi)
    assert _t_powers(full) == {0, 1, 2}


def _doubled(m, exps):
    """m with the first entry of its x^exps slice doubled."""
    rows, cols, block = m.slices[exps]
    block = [list(row) for row in block]
    block[0][0] *= 2
    out = LinearMapMatrix.__new__(LinearMapMatrix)
    out._set(m.row_labels, m.col_labels, m.ring, {**m.slices, exps: (rows, cols, block)})
    return out


@pytest.mark.parametrize(
    "target, exps",
    [("parametrised", (0,)), ("parametrised", (2,)), ("zero-phi", ())],
)
def test_projection_coefficients_catch_a_changed_end(monkeypatch, target, exps):
    # one entry of the t^0 or t^e slice of [1_U | t*phi]'s map, or of [0 | phi]'s, changed
    u = 2
    model_u = CoordinateModel(SymF(2, IdF()), Q, u)
    real = proofstep.induced_map

    def picked(m):
        if target == "parametrised":
            return m.ring.names == ("t",)
        return not m.ring.names and any(j >= u for _, cols, _ in m.slices.values() for j in cols)

    def changed(expr, m):
        out = real(expr, m)
        return _doubled(out, exps) if picked(m) else out

    monkeypatch.setattr(proofstep, "induced_map", changed)
    with pytest.raises(InternalCheckError, match="coefficient matrix mismatch at the ends"):
        projection_coefficients(model_u, 2, space_matrix(Q, [[1, 0], [0, 1]]))


def test_projection_coefficients_catch_a_changed_moving_degree(monkeypatch):
    # one column label of the symmetric square read one moving degree higher
    model_u = CoordinateModel(SymF(2, IdF()), Q, 2)
    phi = space_matrix(Q, [[1, 0], [0, 1]])
    full, _, _ = projection_coefficients(model_u, 2, phi)
    _, cols, _ = full.slices[(1,)]
    label = full.col_labels[cols[0]]
    real = proofstep.label_vdeg
    monkeypatch.setattr(proofstep, "label_vdeg", lambda expr, lab, split: real(expr, lab, split) + (lab == label))
    with pytest.raises(InternalCheckError, match="coefficient matrix misses the vanishing pattern"):
        projection_coefficients(model_u, 2, phi)


def test_projection_requires_surjective_matrix():
    model_u = CoordinateModel(SPLIT, Q, 2)
    flat = space_matrix(Q, [[1, 0, 0], [0, 0, 0]])
    with pytest.raises(PresentationError):
        projection_coefficients(model_u, 3, flat)


# -- extraction -------------------------------------------------------------------------


def test_extract_running_example_split_form():
    field = Q
    model_u, f, X = split_presentation(field)
    n = 3
    model_big = CoordinateModel(SPLIT, field, 5)
    for (i, j) in itertools.combinations(range(1, n + 1), 2):
        phi = pair_projection(field, n, i, j)
        el = extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")
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
    model_u = CoordinateModel(P, field, 2)
    model_big = CoordinateModel(P, field, 5)
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", model_u.ring)
    i, j = 1, 2
    phi = pair_projection(field, 3, i, j)
    el = extract_additive_element(f, witness_data(f, model_u, "p0"), model_u, model_big, phi, "p0")
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
    model_big = CoordinateModel(SPLIT, field, 5)
    phi = pair_projection(field, 3, 1, 2)
    el = extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")
    for point in rank_one_points(random.Random(3), model_big, 100):
        assert not el.poly.evaluate(point)


def test_extract_joint_laws():
    field = F3
    model_u, f, X = split_presentation(field)
    model_big = CoordinateModel(SPLIT, field, 5)
    phi = pair_projection(field, 3, 1, 3)
    el = extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")
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


def test_eliminate_takes_the_first_unit_minor(monkeypatch):
    from polyfunctor import proofstep

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
    monkeypatch.setattr(proofstep, "MAX_MINOR_CANDIDATES", 2)
    with pytest.raises(CertificateNotFoundError):
        eliminate(elements, h, ["z1", "z2"])


def test_eliminate_with_the_factors_of_h_in_different_blocks():
    # h = u*v; the system is diagonal with blocks u, 2v and 3h, so the minor
    # 6h^2 is a scalar times a power of h although the blocks u and 2v are
    # not: z1 and z2 take their h-power from the minor and the full Cramer
    # numerator, z3 from its own block 3h
    ring = GradedRing(Q, [("z1", "r", 1), ("z2", "r", 1), ("z3", "r", 1),
                          ("u", "b", 1), ("v", "b", 1), ("w", "b", 1)])
    u, v, w = (ring.var(name) for name in ("u", "v", "w"))
    h = u * v

    def element(additive, constant):
        poly = constant + sum((coeff * ring.var(z) for z, coeff in additive.items()), ring.zero())
        return AffineAdditiveElement(poly, 0, additive, constant, ("z1", "z2", "z3"), ring.zero())

    elements = [element({"z1": u}, w), element({"z2": v * 2}, w), element({"z3": h * 3}, w * u)]
    cert = eliminate(elements, h, ["z1", "z2", "z3"])
    assert cert.minor_rows == (0, 1, 2)
    assert cert.minor_det == h**2 * 6
    # u*z1 + w = 0 gives h*z1 + w*v = 0, 2v*z2 + w = 0 gives h*z2 + w*u/2 = 0
    # and 3h*z3 + w*u = 0 gives h*z3 + w*u/3 = 0
    assert [(e.variable, e.numerator, e.h_power) for e in cert.entries] == [
        ("z1", w * v, 1),
        ("z2", w * u * Fraction(1, 2), 1),
        ("z3", w * u * Fraction(1, 3), 1),
    ]


def test_cramer_solve_refuses_an_inexact_division(monkeypatch):
    from polyfunctor import matrices

    ring = GradedRing(Q, ["s", "t"])
    s, t = ring.var("s"), ring.var("t")
    rows = [[s, t, ring.one()], [t, s + 1, ring.zero()]]
    solved = matrices.cramer_solve(rows, ring)  # one 2x2 block
    assert len(solved.block_dets) == 1
    assert solved.det == s**2 + s - t**2
    assert [solved.cramer_numerator(j) for j in range(2)] == [s + 1, -t]
    monkeypatch.setattr(matrices, "divide_exact", lambda f, g: None)
    with pytest.raises(InternalCheckError):
        matrices.cramer_solve(rows, ring)


def test_eliminate_running_example_structure():
    field = Q
    model_u, f, X = split_presentation(field)
    n = 3
    model_big = CoordinateModel(SPLIT, field, 5)
    elements = []
    for (i, j) in itertools.combinations(range(1, n + 1), 2):
        phi = pair_projection(field, n, i, j)
        elements.append(extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1"))
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
    model_big = CoordinateModel(SPLIT, field, 5)
    h_big = report.h.convert(model_big.ring)
    for point in rank_one_points(random.Random(99), model_big, 100, h_big):
        h_val = h_big.evaluate(point)
        assert h_val
        for entry in report.certificate.entries:
            recovered = -(entry.numerator.evaluate(point) / h_val ** entry.h_power)
            assert recovered == point[entry.variable]


def _tampered_eliminate(monkeypatch):
    """Make run_rank_one_example's first certificate numerator off by h^e:
    x^q + (numerator + h^e)/h^e recovers every coordinate off by one."""
    from polyfunctor import proofstep

    eliminate = proofstep.eliminate

    def tampered(*args, **kwargs):
        cert = eliminate(*args, **kwargs)
        first, *rest = cert.entries
        wrong = CertificateEntry(first.variable, first.numerator + cert.unit ** first.h_power, first.h_power)
        cert.entries = (wrong, *rest)
        return cert

    monkeypatch.setattr(proofstep, "eliminate", tampered)


def _tampered_pullbacks(monkeypatch):
    """Add t*y_1_1 to every element's pullback in run_rank_one_example: its
    t-coefficient y_1_1 vanishes at no rank-one tensor with v_1 w_1 != 0."""
    from polyfunctor import proofstep

    extract = proofstep.extract_additive_element

    def tampered(*args, **kwargs):
        el = extract(*args, **kwargs)
        ring = el.pullback.ring
        el.pullback = el.pullback + ring.var(ring.names[-1]) * ring.var("y_1_1")
        return el

    monkeypatch.setattr(proofstep, "extract_additive_element", tampered)


@pytest.mark.parametrize("selector", ["q", "fp:3", "fp:101"])
def test_certificate_samples_catch_a_wrong_numerator(selector, monkeypatch):
    _tampered_eliminate(monkeypatch)
    report = run_rank_one_example(3, FieldDescriptor.parse(selector), sample_count=3)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["certificate-found"] == "pass"
    assert statuses["certificate-samples"] == "fail"


# sha256 of the text and the JSON stdout of example-rank1 with the first
# certificate numerator off by h^e, and its exit code; captured before the
# sampled checks evaluated Segre images, it pins the failing statuses and
# witnesses
TAMPERED_GOLDEN = {
    (2, "q", 0): ("29b8b12c60747c116f950c857836917bc8deb9b3479e7f136d055708b3a8a0db", "9eca9ffe2ed42806555c47e057279150aeafa9e32fcdd3463b86decfcd1f8c0d", 4),
    (2, "q", 3): ("6c9633d3da74190ac73ad2f7b329972f6c0ab755510d7572988f7aa5d7f5e51d", "176808659c48047805dfb9a1c970291d131d12843b3861ac1475f90fdbe61aa2", 4),
    (2, "fp:3", 0): ("75c5ade526ec5bea8e4ffde3e4ab59842def24c31bda757769ff0e2e137c2e44", "12f10c99e21eb95da0c99db2548ec908aba696e41395db594e80f7f0d99c7889", 4),
    (2, "fp:3", 3): ("f59cf42739292148b555ef247f13e712471b920b3be71e88ea0260d617e9d621", "ca5931f26cb2f1567b7795d80a5a88d4c571445bf2a45ea530803eb4e3e303c2", 4),
    (2, "fp:101", 0): ("061c1a3d1774f5b3bff8dd33cfe843dbbedac5992c3293a2b122dcf38a181fdd", "7932443e048ce243a95576f6bc6b23c2c8b8cf3f6131891ef8403c6a952fde49", 4),
    (2, "fp:101", 3): ("dbb360211d9b587ca3dd3b81c78ed8dc72fe263bb0f76acb14e7c96077fe639d", "5d60b22cf778adbdfa273258c5ffe4ebe10e47d920f66e3cf5b207078e7f7707", 4),
    (3, "q", 0): ("dcdc04898a0c4cc6b35d8f10f7548923b965789a913df89c7b17f811dbeccded", "ba27f13e0b24fc22575dd2c86890e1b21b9d7bc3d565699d84f8e504ff80f9ce", 4),
    (3, "q", 3): ("9ceff7c6aa93f07a51b3182f4cce813c090b60841ec0e4eaa5026734fe73c2f1", "7e93dcca8d6f71725143573f0b264f020060f5aa41d1c592da03367b54993475", 4),
    (3, "fp:3", 0): ("2f51aee322c4ae1886f65ec6d9ba63815f0e4ad5bdbc306b49fd57215ab2e8c9", "437c727d5a202c930fc8eddcd1a39170c1549342c0e150915d931b43803d694b", 4),
    (3, "fp:3", 3): ("047ec27297efb7afde4e1a96cafb3675bb5a8cef69208bb64e987026019fdc80", "c5e987abd705c0273331930dd839a6482a2d2b8f81eda0652b90f2ffab1746da", 4),
    (3, "fp:101", 0): ("0c83e10c3e8824e5e866641b846b78526ca918a1fe4c8716bd23cb8311db64b2", "9d464bb92ecf8d5b899df9c57780b67c2faf0e0d8789ae95e50d32a3f80e9568", 4),
    (3, "fp:101", 3): ("c4e687267d9e41524838c3f5b6a8858d0ff96977095be584a81cfa108ca5f29a", "40bada28b013c6bc53b627b13a1f4f7666592317735c2d7e33b385009406326c", 4),
    (4, "q", 0): ("a701d8453c1a02ffed300756beb95d43668ef1e631df362e02fca7adc9d13cec", "eb5847525132e91ffaaa760766ca1035b829897bb4533b3f251a9c6ab638fff3", 4),
    (4, "q", 3): ("45589f5d76b560097ede20dbdf538e88862c9c3ea4bf71cf827b427371c57ca5", "c41d5f4f9f63cf75f80e0fa78f0dd727e454c8688d31fff3c81a0fd7c1ae5c79", 4),
    (4, "fp:3", 0): ("1a72dbbde4495b4ce8370983e4885e8b4f94966ed6ad1f72a28b899d8f1667b5", "3d2ca8b296f4ebcc7e61140e4b36ebfe08ff653bfb21d62fe63e8618ceece542", 4),
    (4, "fp:3", 3): ("117455bf094962545ca8ccb113ad4dec23ce35b8f474d7e33938c7ff22fad0f0", "d9e3c30d3cffd0a0ab22bb3a183786fda6d5e1af17c8ae26030b252f2d3aca81", 4),
    (4, "fp:101", 0): ("ea80958896287e7e4079cb7eaec3fa1e00aa3f0b700d243775032f2764b0b566", "0c5ec4c9924f2618f573acaeb14320c82a67d5b12ad978342bea9510e3c7e7d9", 4),
    (4, "fp:101", 3): ("d0b26ef9414b32a04f6dd7809a57903660a9d1ad865f6b4eca7e28fd7a1c8209", "a65e759b088658778c434646955f9cf72846a67dcb8ca8b911d62642f52a937c", 4),
    (5, "q", 0): ("caebd2b7cfaec66cfedd0302d47659ef57e51106f34cc374a3213641b1a71ccf", "969a6de6ca197a3084d7f72af002472d4ede56d99086093583161383c5c55e1b", 4),
    (5, "q", 3): ("ec4065d8460493c231ce7e783d5fb30d6a482481ffabe7d90099ec171f4b6e0e", "3feb9e24edcef4335d0ee57485b5d881d290a16d8a8d789fa5da055070fdc50c", 4),
    (5, "fp:3", 0): ("b9b800d3219ddb8eec71afe3541d9d5b187541dae006d7d3795c6b71feaab9ef", "d0a10b30798fd70261dc42dbfd4dc0f79c482ab7ca2ba518188956b6992490e0", 4),
    (5, "fp:3", 3): ("bebc036540d6d95298fba5509691239e50d9281fa9b75658b621200cda9970cd", "884a787368a5c426231dae8e1651063737766e947bca70e2d1be351f72d01c7c", 4),
    (5, "fp:101", 0): ("752112836bd82cbb3a92b0a048ef82776f4c850be18254a1ddedcd3cec3fce5e", "8fe02fcaebb0db4e85e6571cfff9a6e92999adb078dcd30adefb3d076fe44402", 4),
    (5, "fp:101", 3): ("25aaad900ac16368aaefc722403a8d9b893a0fbb7830e1c91b0c386a2543226a", "1cfdb495e57c48f5bf6a4c2625e90350af88b6c1489ecedd3fcabcfb846e4690", 4),
}


@pytest.mark.parametrize("key", sorted(TAMPERED_GOLDEN))
def test_tampered_rank_one_golden(key, monkeypatch, capsys):
    from polyfunctor.cli import main

    _tampered_eliminate(monkeypatch)
    n, selector, seed = key
    digests, codes = [], set()
    for fmt in ("text", "json"):
        codes.add(main(["example-rank1", "--n", str(n), "--field", selector, "--seed", str(seed), "--format", fmt]))
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert (*digests, *codes) == TAMPERED_GOLDEN[key]


# sha256 of the text and the JSON stdout of example-rank1 with every
# element's pullback off by t*y_1_1, alone or with the first certificate
# numerator off by h^e too, and the exit code, captured while every sampled
# check drew its points: failing runs with a live check before the
# zero-image coefficient-vanishes-on-samples check, and in the second mode
# one after it (test_sample_statuses_draw_up_to_the_last_live_check pins
# the draws themselves, which these statuses do not depend on)
PULLBACK_GOLDEN = {
    ('pullback', 2, 'q', 0): ('a0785eda597f48f39ef80127a4babf25b066b28f5185c17b18d07a4ac1abf47d', '46c86f12345caf846baf422ad57d662fe27f056b72ec7a335a1758b116263180', 4),
    ('pullback', 2, 'q', 3): ('7e9465ff7b92cf6577abc28a11af7e0f0b884208efefc3b815888a4dd3cc5660', 'fcce6ad06d2480517e492630e71fb6c31568404d7ae7676bdaf80856c36ebd36', 4),
    ('pullback', 2, 'fp:3', 0): ('21a0256f3667119bbe4e4e1b97e836a0e54567ea51c46415a3714240d99cb496', 'bd107d6c5699a68c25fd66639e199d21ccff6bff714f3ddf7e26d32a2685c18d', 4),
    ('pullback', 2, 'fp:3', 3): ('693df1719ac5e32583c31b111b354665dc8dab3bc76fe5dbe3282ea3f02e8967', 'dcf5bd2d30f1de4be8c1b3eb5fe1c51b8b977c000b0d9858d2cf93b166c9cbfd', 4),
    ('pullback', 2, 'fp:101', 0): ('dc05c34f803f70c6dadb7dc6b1c79cde602bf152451082a8f23a1253655737c5', '809b9500f16c7aa8016262cea0902dcb14251dc2d461d798735bcd8dfd69b156', 4),
    ('pullback', 2, 'fp:101', 3): ('8226df69a46778873f8d50e86d129c8ba3664553e86bb62153ef123b0928a647', '4a88de254740345b0dbfdadb9232caec3afe8e2b536cfe09e1a0215ae4b143f3', 4),
    ('pullback', 3, 'q', 0): ('41c8c4b8ee13db89d9988fa820f8857fde8a69fd8aab5ecb76947fc9a65ffedc', '92b54e48b1333e7ab86bfc77f0cf96fee43ac844a6084c3cfdbc5582d6f54e7b', 4),
    ('pullback', 3, 'q', 3): ('a3860f03fd5fb56e2e582170be3ecd319c20d22813539c07fd7bc7d5b6a74882', '5f99b938da034e879f092cf4ea195d64828c4e9a37c77a9502594ca506d06785', 4),
    ('pullback', 3, 'fp:3', 0): ('2871716811a1b68e551d1309489ffd399b4daa2c5aaff9194e085f92e38b4cc5', 'b16f4ccbfb49818ba65a19c012faa45f3304b93c1306918fe45cac44c1c3eaec', 4),
    ('pullback', 3, 'fp:3', 3): ('66e4a4dfce1015a456bf2dca195cb0820b8a2f725992bf9a5f54cea86b5c7f00', '7f3a2c3db5867ef9c50f6af68bb4e5e4626347072d8cb1de7231772082d9dbb3', 4),
    ('pullback', 3, 'fp:101', 0): ('af4b281de5d617d3e14c6e0035b8fa1b4e64d4161d545dfff2e03b4d2c01ed5a', '30af2c2254a1e6604162884c0fe6e715f94b74c2d75dfd85cf4fca6f1a730d5a', 4),
    ('pullback', 3, 'fp:101', 3): ('6cd6a2b30fe6526be55eefad41a6bafcfe07ce8380620bfb349cacd6b1cba629', '0f1c77fed81995b425975e699126371e5ec1c3d9f3ee345754dfefe27c828f80', 4),
    ('pullback', 4, 'q', 0): ('70c758cb92358220a4c35cbcbdf353bc9ebace5fd60c6d5ee1dc41bb76965943', 'c1d99e32792b0dc85075ddbd994fed0eb371d0dd4fee68c73fbf56509dbe3463', 4),
    ('pullback', 4, 'q', 3): ('9ee5391f6a1cdb9d5250b26630f7f561dced21406b49cf49f54104254d7b6887', 'd3f4fbdb75d7b705b41ca6841e094dd2f04ae28e1c1a53cddd853d150cfaad39', 4),
    ('pullback', 4, 'fp:3', 0): ('0ea4b266e0f02c6cb7a69668fec3f39470d07440de6ce6e4a58371c64f72283f', 'c5afe95430c54758b9be58c0a5af68e6f12c2ce1f3266506462d6af3adf89f2b', 4),
    ('pullback', 4, 'fp:3', 3): ('f3f8bfbac0c0093f8c0c837c6c6b333a245e52584c4261135f16d34cd89fb11c', '9522d24a6a890adf886c328ce26cd87f052f3cf979cc5d897dda3f0399d5de70', 4),
    ('pullback', 4, 'fp:101', 0): ('a845800cc1b4e635d9f291afe940b4a1981046ea169fa72d9a3b621efab25c8e', '62ea0d8003688e613af0d42401d94f1ff92a962dfc5bd82c10873e6f81c6d906', 4),
    ('pullback', 4, 'fp:101', 3): ('689af90ca9183bb5c3580c2d929a78777c06b685584f877d56cc615d4a5f6bc5', '80446aea8a3f54c7f4f5b46f9fd50ecfe10b13eff71eded6b2ea28ecbd4d72ce', 4),
    ('pullback+numerator', 2, 'q', 0): ('12a2985b5b96b481f94b2db02c3f5f10f5ad2da0b0eb3268126ecbbefd7addb3', 'db5220982291e6945ed2f18da66b2e73c2fd790c5db284e193cd4cbe62078585', 4),
    ('pullback+numerator', 2, 'q', 3): ('9176c5551fa199df415072387d368a6f0c1f78fd1b706aa8fee1f836553b71b5', 'f703b16a64d345a6a9bb0efcdf340b4fb74a2f8d3607ab76623a3f60ab1cfc2d', 4),
    ('pullback+numerator', 2, 'fp:3', 0): ('848c222abbbd223d8e12d4a96c059329c7175977dbb989533305b1e8217258ba', 'bdecdda5e55a8438c29cfc68233fbadebe3d4f2af4e679cba4ae96822650b3bd', 4),
    ('pullback+numerator', 2, 'fp:3', 3): ('634895993ea291b895b59b38b49199afb501117ab91611b3a12fc970b097c84c', 'bf3878c80ab9784c3abfd5345d5a5e6574cde676d46855f8426ef4ef8f7feed2', 4),
    ('pullback+numerator', 2, 'fp:101', 0): ('02dc9c6b53d2652feb2e9642cf94afb74850409aee0d9c60d9fbda80fcefea1f', '7d6df6855bacebe07d79726a0e3ceade898704660ac5fe75011c58b915ad41af', 4),
    ('pullback+numerator', 2, 'fp:101', 3): ('2d73351b4d21f22066332577b0422a8f12550aff36b2debf1fab419358b0dc35', 'fc358345f1005ad867512c0b43cca520d5b0fdd3190c0bc797b033abacc86201', 4),
    ('pullback+numerator', 3, 'q', 0): ('6e7fe02545ea3861476060d4649381cc111c9e5f5bb78361320bd3168067e4f9', 'ea001e4655ea636e93a82c85db5c35e6f51b8e00869b91e9eecc2aef545121f1', 4),
    ('pullback+numerator', 3, 'q', 3): ('d80b3e6b6e17adc2cbd96970493dd2ff6526871669da623b569646ce59a32ad7', '32b727bdfae0f03865df614f4766d08720552c5e4ccec306a56ba50b237e2192', 4),
    ('pullback+numerator', 3, 'fp:3', 0): ('22c019603463300a5240738df5db897a1e05ce02bec94d4715496513649fba20', '98fd84fdeac9c7d6d17bbc55a41d020f04d6782b0eef8ba0fcbbee332201f2a5', 4),
    ('pullback+numerator', 3, 'fp:3', 3): ('90a9c2e65d71558ee055820f88d4f7f5647c56b907517181c42483bf2cf55fcf', '78680995471b707de634d1b4d28d3396b0862adb8c0a99b0727f9171702b8178', 4),
    ('pullback+numerator', 3, 'fp:101', 0): ('07dc5644a1670a27bd544ae613de032b42e9e2865bc44effb46a68874174f8ff', 'ffba4a06edf7fc23b9c5b178e111a598fe3b959889cb1a49ea5c75b3db3250bc', 4),
    ('pullback+numerator', 3, 'fp:101', 3): ('2c7f5691e848cbd1a2769ddb600e2e19cd055fe2ae0cacb22b4dc1b2293fb723', 'bb837d4e7151214939c370d9703a6438d4be391bfaf70e7515fe8c70226496d0', 4),
    ('pullback+numerator', 4, 'q', 0): ('01b014c05b2eaa7eeb9081be6a7c0912666543e85687b0f2301f39e7b6d48e86', '21d0fca546ac3fd9217268c1efcee5530cf519131fd15ede0cacd9603296dd7c', 4),
    ('pullback+numerator', 4, 'q', 3): ('e8ca9922f98cccc25dbd47a256ad1354490b399d2f4614e954f42d48682e6116', '43b3118dc83e9f3644cce379c4bea804ddfa19d5028d54e53d349e05eb130bae', 4),
    ('pullback+numerator', 4, 'fp:3', 0): ('e2046529ed1d25dfd6c8710344036638b2cecdb9dc56843d1f3a03266b543cdf', '57381d014e7036bfc5c49a22c9217c0d6563ae012f517eef69aceac964b23c17', 4),
    ('pullback+numerator', 4, 'fp:3', 3): ('083eb4d94762aa3f0d498e99d275255a01dd9c4335dafe1480e49c1402d9761c', 'f7d925e03933b9654c1c76aee4bfce49f1d651257da82ee486c8f6353dc1b1cd', 4),
    ('pullback+numerator', 4, 'fp:101', 0): ('7432b69b0fc28adf122de3bc0bad9838d616399cdb58f3c6ec2f3a3353f64234', '6f1880a0e424a4c908455704a48e2f1075396da625a6cb8a214b4b7f5b4cd56c', 4),
    ('pullback+numerator', 4, 'fp:101', 3): ('2672f4cfcace093ba34fa4dc2609e59da0a0933d240683cbd906e678b3fc3df7', '7a6f1d397085aa1f48da39f1742868ee117f7f60e6ecf730054daf36b96fefa4', 4),
}


@pytest.mark.parametrize("key", sorted(PULLBACK_GOLDEN))
def test_tampered_pullback_rank_one_golden(key, monkeypatch, capsys):
    from polyfunctor.cli import main

    mode, n, selector, seed = key
    _tampered_pullbacks(monkeypatch)
    if mode == "pullback+numerator":
        _tampered_eliminate(monkeypatch)
    digests, codes = [], set()
    for fmt in ("text", "json"):
        codes.add(main(["example-rank1", "--n", str(n), "--field", selector, "--seed", str(seed), "--format", fmt]))
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert (*digests, *codes) == PULLBACK_GOLDEN[key]


@pytest.mark.parametrize("field", [Q, F3, FieldDescriptor.prime_field(101)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_rank_one_example_builds_no_scalar(n, field, scalar_calls):
    # r0, the direction scan, the elimination, the rank checks and the Hasse
    # binomials all compute on raw coefficients
    assert run_rank_one_example(n, field).all_passed()
    assert scalar_calls == []


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
    c = c.constant_value()
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
                       if (r := field.raw(k))}
            assert reduced == e_p.numerator.terms
    assert 101 in compared


# -- each internal check fires on a perturbed input ----------------------------------

MOVING_RING = GradedRing(Q, [("z1", "r", 1), ("z2", "r", 1), ("c", "b", 1)])


@pytest.mark.parametrize("k", ["z1^2 + c", "z1*z2 + c", "c*z1^2*z2"])
def test_affine_element_refuses_a_term_that_is_not_additive(k):
    ring = MOVING_RING
    with pytest.raises(InternalCheckError, match="^element is not affine-additive in the moving coordinates$"):
        proofstep._affine_element(parse_polynomial(k, ring), 0, ("z1", "z2"))


def test_affine_element_checks_its_reconstruction(monkeypatch):
    ring = MOVING_RING
    k = parse_polynomial("c*z1 + 2*z2 + c^2", ring)
    assert proofstep._affine_element(k, 0, ("z1", "z2")).additive_part == {"z1": ring.var("c"), "z2": ring.const(2)}
    real = GradedPoly.__pow__
    # the moving coordinate's power in the reconstruction comes out doubled
    monkeypatch.setattr(GradedPoly, "__pow__", lambda self, e: real(self, e) * 2)
    with pytest.raises(InternalCheckError, match="^affine-additive reconstruction failed$"):
        proofstep._affine_element(k, 0, ("z1", "z2"))


def _split_extraction(field=Q):
    model_u, f, X = split_presentation(field)
    model_big = CoordinateModel(SPLIT, field, 5)
    return model_u, f, X, model_big, pair_projection(field, 3, 1, 2)


def test_pull_backs_check_the_moving_degree(monkeypatch):
    model_u, f, X, model_big, phi = _split_extraction()
    data = witness_data(f, model_u, "p1")
    assert len(proofstep._pull_backs(X, f, data, model_big, [phi])[1]) == 1
    real = proofstep.induced_map

    def reversed_rows(expr, m):
        # the induced map of 1_U + phi with its row labels in reverse order
        out = real(expr, m)
        if not isinstance(expr, ShiftF):
            return out
        wrong = LinearMapMatrix.__new__(LinearMapMatrix)
        wrong._set(out.row_labels[::-1], out.col_labels, out.ring, out.slices)
        return wrong

    monkeypatch.setattr(proofstep, "induced_map", reversed_rows)
    with pytest.raises(InternalCheckError, match="^1_U \\+ phi does not keep the moving degree$"):
        proofstep._pull_backs(X, f, data, model_big, [phi])


def test_extraction_checks_the_derivative_formula(monkeypatch):
    model_u, f, _, model_big, phi = _split_extraction()
    real = proofstep._affine_element

    def doubled(*args):
        # the element's additive part doubled, its polynomial kept
        el = real(*args)
        return AffineAdditiveElement(
            poly=el.poly, level=el.level, additive_part={v: 2 * c for v, c in el.additive_part.items()},
            constant_part=el.constant_part, eliminated=el.eliminated, pullback=el.pullback,
        )

    monkeypatch.setattr(proofstep, "_affine_element", doubled)
    with pytest.raises(InternalCheckError, match="^derivative-compatibility identity failed$"):
        extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")


F101 = FieldDescriptor.prime_field(101)


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_extraction_checks_the_direction_map(field, monkeypatch):
    # [0 | phi]'s map, off whose rows the direction is read, with every
    # entry doubled: the right side of the identity changes, the left does not
    model_u, f, _, model_big, phi = _split_extraction(field)
    real = proofstep.projection_coefficients

    def doubled_top(*args):
        full, base, top = real(*args)
        slices = {e: (rows, cols, [[field.raw(2 * v) for v in row] for row in block])
                  for e, (rows, cols, block) in top.slices.items()}
        wrong = LinearMapMatrix.__new__(LinearMapMatrix)
        wrong._set(top.row_labels, top.col_labels, top.ring, slices)
        return full, base, wrong

    monkeypatch.setattr(proofstep, "projection_coefficients", doubled_top)
    with pytest.raises(InternalCheckError, match="^derivative-compatibility identity failed$"):
        extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")


PHI_ROWS = ([[1, 2, 0], [0, 1, -1]], [[1, 0, 3], [2, 1, 1]], [[0, 1, 1], [1, 0, 5]])

# (functor, witness at u = 2, designated summand): one per kind of label of
# the designated summand, v, t, sym, ext, y, z and a tensor factor's k
DESIGNATED_KINDS = [
    ("id", "p0_1^2 + p0_1*p0_2", "p0"),
    ("tensor(id,id)", "x_1_1*x_2_2 - x_1_2*x_2_1", "p0"),
    ("sum(id,sym(2,id))", "p1_1*p1_3 - p1_2^2 + p0_1^2*p1_2", "p1"),
    ("sum(id,ext(2,id))", "p1_1^2 + p0_1*p0_2*p1_1", "p1"),
    ("sum(id,sym(3,id))", "p1_1*p1_4 - p1_2*p1_3 + p0_1^3*p1_2", "p1"),
    ("sum(tsym,talt)", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", "p0"),
    ("sum(tsym,talt)", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", "p1"),
    ("sum(id,tensor(const(2),sym(2,id)))", "p1_1*p1_6 - p1_3*p1_4 + p0_1*p0_2*p1_1", "p1"),
]


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
@pytest.mark.parametrize("text, witness, part", DESIGNATED_KINDS)
def test_extraction_passes_the_derivative_check_on_every_kind_of_summand(field, text, witness, part, monkeypatch):
    # at three general phis the identity is checked, and is not 0 = 0
    functor = parse_functor(text)
    model_u, model_big = CoordinateModel(functor, field, 2), CoordinateModel(functor, field, 5)
    f = parse_polynomial(witness, model_u.ring)
    checked = []
    real = proofstep._check_derivative_formula
    monkeypatch.setattr(proofstep, "_check_derivative_formula", lambda *args: checked.append(args) or real(*args))
    for rows in PHI_ROWS:
        el = extract_additive_element(f, witness_data(f, model_u, part), model_u, model_big, space_matrix(field, rows), part)
        assert el.additive_part and set(el.additive_part) <= set(el.eliminated)
    assert len(checked) == 3


def _label_pull_back(h, model_u, model_big):
    """h in model_big's ring, each exponent moved to the variable of the same
    basis label: the pull-back along the base projection."""
    at = [model_big.ring.position(model_big.name_of[model_u.label_of[name]]) for name in model_u.ring.names]
    terms = {}
    for exps, c in h.terms.items():
        out = [0] * len(model_big.ring.names)
        for i, e in zip(at, exps):
            out[i] = e
        terms[tuple(out)] = c
    return GradedPoly(model_big.ring, terms, _canonical=True)


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_h_big_is_the_label_pull_back_of_h(field):
    # a generic name p{i}_{pos} names a different basis vector at u than at
    # u + n, so h is carried to the big model by label, not by name
    moved = []
    kinds = DESIGNATED_KINDS + [("tensor(const(3),id)", "p0_1*p0_4 - p0_2^2 + p0_6*p0_3", "p0")]
    for text, witness, part in kinds:
        model_u = CoordinateModel(parse_functor(text), field, 2)
        f = parse_polynomial(witness, model_u.ring)
        X = VarietyPresentation.make(model_u, [f], [], part)
        r_vars = X.r_vars()
        r0 = Vector("r", r_vars, tuple(field.scalar(i + 1) for i in range(len(r_vars))))
        stages = proofstep._run_stages(X, f, 3, r0, [space_matrix(field, rows) for rows in PHI_ROWS])
        h = stages.h
        assert stages.h_big == _label_pull_back(h, model_u, stages.model_big), (text, part)
        moved += [text for name in h.support_vars() if stages.model_big.name_of[model_u.label_of[name]] != name]
    # the check is not vacuous: on generic names h's variables are renamed
    assert {"sum(id,sym(3,id))", "tensor(const(3),id)"} <= set(moved)


def test_a_proof_step_on_generic_names_reaches_elimination(capsys):
    # tensor(const(3),id) names its coordinates p0_1..p0_6 at u = 2, and
    # p0_4 is another basis vector at u + n = 5: h = p0_4, pulled back by
    # label, avoids the moving coordinates, so elimination runs and finds too
    # few elements
    from polyfunctor.cli import main

    code = main(["proofstep", "--field", "q", "--functor", "tensor(const(3),id)", "--u", "2", "--n", "3",
                 "--f", "p0_1*p0_4 - p0_2^2 + p0_6*p0_3", "--r0", "1,0,0,0,0,0", "--r-part", "p0"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert captured.out == PINNED_GENERIC_NAMES


PINNED_GENERIC_NAMES = """\
field: q
u: 2
n: 3
f: p0_1*p0_4 - p0_2^2 + p0_3*p0_6
r0: p0_1=1, p0_2=0, p0_3=0, p0_4=0, p0_5=0, p0_6=0
delta: 2
e0: 0
h: p0_4
k[0]: p0_1*p0_9 - 2*p0_2*p0_4 + p0_3*p0_7 + p0_6*p0_14 + p0_8*p0_12
k[1]: p0_1*p0_10 - 2*p0_2*p0_5 + p0_3*p0_7 + p0_6*p0_15 + p0_8*p0_12
k[2]: p0_1*p0_10 - 2*p0_2*p0_5 + p0_4*p0_7 + p0_6*p0_15 + p0_9*p0_12
checks:
  PASS   delta-degree  [2]
  PASS   derivative  [p0_4]
  PASS   affine-additive-form 0
  PASS   affine-additive-form 1
  PASS   affine-additive-form 2
  INCONCLUSIVE certificate-found  [3 elements cannot eliminate 9 coordinates]
all passed: false
"""


@pytest.mark.parametrize("field", ["q", "fp:3"])
def test_a_minor_that_loses_its_h_power_exits_5(field, monkeypatch, capsys):
    from polyfunctor.cli import main

    real = proofstep._h_power

    def doubled(d, h):
        # the scalar of d = c * h^k read as 2c
        c, k = real(d, h)
        return (None if c is None else c * 2), k

    monkeypatch.setattr(proofstep, "_h_power", doubled)
    code = main(["proofstep", "--field", field, "--functor", "sum(tsym,talt)", "--u", "2", "--n", "3",
                 "--f", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2", "--r0", "1", "--r-part", "p1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        5, "", "internal check failed: unit minor lost its h-power structure\n")


def test_eliminate_checks_that_numerators_avoid_the_moving_coordinates():
    # a constant part that carries the moving coordinate it solves for
    ring = MOVING_RING
    element = AffineAdditiveElement(
        poly=ring.var("z1") * ring.var("c") + ring.var("z1"),
        level=0,
        additive_part={"z1": ring.var("c")},
        constant_part=ring.var("z1"),
        eliminated=("z1",),
        pullback=ring.zero(),
    )
    with pytest.raises(InternalCheckError, match="^certificate numerator touches a moving coordinate$"):
        eliminate([element], ring.var("c"), ["z1"])


# -- full runs ----------------------------------------------------------------------


def test_run_rank_one_n3_rationals():
    report = run_rank_one_example(3, Q, seed=0)
    assert report.all_passed()
    assert report.h.to_text() == "2*z_1_2"
    assert len(report.certificate.entries) == 3
    assert report.delta.delta == 4


def test_rank_one_membership_substitutes_once_per_entry(monkeypatch):
    from polyfunctor import groebner, proofstep

    groebner_calls, segre_maps, substituted, with_t, stages = [], [], [], [], []
    for module, name in ((groebner, "buchberger"), (proofstep, "buchberger"), (groebner, "membership_by_division")):
        monkeypatch.setattr(module, name, lambda *args: groebner_calls.append(args))
    segre_map = proofstep._segre_map
    monkeypatch.setattr(proofstep, "_segre_map", lambda *args: segre_maps.append(segre_map(*args)) or segre_maps[-1])
    run_stages = proofstep._run_stages
    monkeypatch.setattr(proofstep, "_run_stages", lambda *args: stages.append(run_stages(*args)) or stages[-1])
    substitute = GradedPoly.substitute

    def counted(self, mapping):
        substituted.extend(self for m in segre_maps if m is mapping)
        with_t.extend([self] if "t" in self.ring.names else [])
        return substitute(self, mapping)

    monkeypatch.setattr(GradedPoly, "substitute", counted)
    report = run_rank_one_example(3, Q, seed=0, sample_count=3)
    assert {c.name: c.status for c in report.checks}["certificate-membership"] == "pass"
    assert groebner_calls == []
    # one map at the base dimension, then one at n + 2 and one at 2u that
    # keep the pullbacks' t
    assert [m["y_1_1"].ring.names[-2:] for m in segre_maps] == [("w_1", "w_2"), ("w_5", "t"), ("w_4", "t")]
    # once each: the witness, the universal pullback, every k and every
    # cleared element (membership and certificate-samples); every image is
    # zero, so certificate-samples draws nothing and h, its unit, is not
    # substituted
    elements = list(report.elements)
    cleared = report.certificate.cleared_elements()
    assert len(elements) == len(cleared) == 3
    universal = stages[-1].universal.pullback
    expected = [report.f, universal] + [el.poly for el in elements]
    assert substituted == expected + cleared
    # no polynomial of a pair with a t is substituted: only the universal
    # pullback, through the Segre map, and its image, once per pair through
    # the linear map of 1_U (+) phi
    image = substitute(universal, segre_maps[2])
    assert with_t == [universal] + [image] * 3 and all(p.ring == image.ring for p in with_t[1:])
    # a nonzero cleared image makes certificate-samples draw off h = 0, so h
    # is substituted once, last
    _tampered_eliminate(monkeypatch)
    segre_maps.clear()
    substituted.clear()
    report = run_rank_one_example(3, Q, seed=0, sample_count=3)
    assert {c.name: c.status for c in report.checks}["certificate-samples"] == "fail"
    h_big = report.h.convert(elements[0].poly.ring)
    assert substituted == [report.f, stages[-1].universal.pullback] + [el.poly for el in elements] + (
        report.certificate.cleared_elements() + [h_big])


@pytest.mark.parametrize("selector", ["q", "fp:3", "fp:101"])
def test_rank_one_membership_refutes_a_wrong_numerator_quickly(selector, monkeypatch):
    _tampered_eliminate(monkeypatch)
    start = time.perf_counter()
    report = run_rank_one_example(6, FieldDescriptor.parse(selector), sample_count=1)
    elapsed = time.perf_counter() - start
    membership = next(c for c in report.checks if c.name == "certificate-membership")
    assert membership.status == "fail"
    assert membership.witness.startswith("z_3_4: ")
    assert elapsed < 1.0


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
    model_big = CoordinateModel(SPLIT, field, 4)
    plain = CoordinateModel(TensorF((IdF(), IdF())), field, 4)
    to_plain = split_to_plain_map(model_big, plain)
    minors = rank_one_minors_plain(plain)
    for cleared in report.certificate.cleared_elements():
        assert membership_by_division(cleared.substitute(to_plain), minors)


def test_membership_of_extracted_element_by_groebner():
    # full Buchberger run on the 4x4 minors certifies membership of k
    field = Q
    P = TensorF((IdF(), IdF()))
    model_u = CoordinateModel(P, field, 2)
    model_big = CoordinateModel(P, field, 4)
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", model_u.ring)
    phi = pair_projection(field, 2, 1, 2)
    el = extract_additive_element(f, witness_data(f, model_u, "p0"), model_u, model_big, phi, "p0")
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


FIELDS = ("q", "fp:3", "fp:101")


@pytest.mark.parametrize("selector", FIELDS)
@pytest.mark.parametrize("n", (2, 3))
def test_segre_map_agrees_with_the_minors_normal_form(n, selector):
    # a split polynomial maps to 0 exactly when its normal form modulo the
    # 2x2 minors, after the change to plain coordinates, is 0
    field = FieldDescriptor.parse(selector)
    report = run_rank_one_example(n, field, sample_count=1)
    model_big = CoordinateModel(SPLIT, field, n + 2)
    plain = CoordinateModel(TensorF((IdF(), IdF())), field, n + 2)
    to_plain = split_to_plain_map(model_big, plain)
    minors = rank_one_minors_plain(plain)
    segre = _segre_map(model_big)
    ring = model_big.ring
    h = report.h.convert(ring)
    ks = [el.poly for el in report.elements]
    cleared = report.certificate.cleared_elements()
    members = ks + cleared
    perturbed = [k + ring.var("y_1_1") * ring.var("z_1_2") for k in ks] + [c + h for c in cleared]
    for poly, member in [(g, True) for g in members] + [(g, False) for g in perturbed]:
        by_segre = poly.substitute(segre).is_zero()
        by_minors = normal_form(poly.substitute(to_plain), minors, Budget(500_000)).is_zero()
        assert by_segre == by_minors == member


@pytest.mark.parametrize("selector", FIELDS + ("fp:5",))
def test_segre_map_terms_agree_with_its_arithmetic(selector):
    # each image built straight as its one or two terms equals the one that
    # ring arithmetic builds, with and without a kept t
    field = FieldDescriptor.parse(selector)
    for m in range(2, 9):
        model = CoordinateModel(SPLIT, field, m)
        for kept in ((), (RingVariable("t", "aux", 0),)):
            got, want = _segre_map(model, kept), segre_map_by_arithmetic(model, kept)
            assert list(got) == list(want) and got == want
            assert all(image.ring == want[name].ring for name, image in got.items())


@pytest.mark.parametrize("selector", FIELDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_rank_one_elements_map_to_zero_exactly(n, selector):
    # exact where the sampled checks are not: over fp:3, d/|F| >= 1
    field = FieldDescriptor.parse(selector)
    report = run_rank_one_example(n, field, sample_count=1)
    model = CoordinateModel(SPLIT, field, n + 2)
    segre = _segre_map(model)
    for el in report.elements:
        assert not el.poly.substitute(segre)
    # the whole pullbacks, along every pair and along the universal projection
    model_u, f, _ = split_presentation(field)
    directs = [(model, pair_projection(field, n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]
    universal = (CoordinateModel(SPLIT, field, 4), pair_projection(field, 2, 1, 2))
    data = witness_data(f, model_u, "p1")
    for target, phi in directs + [universal]:
        pullback = extract_additive_element(f, data, model_u, target, phi, "p1").pullback
        assert not pullback.substitute(_segre_map(target, pullback.ring.variables[-1:]))
    cleared = report.certificate.cleared_elements()
    assert len(cleared) == n * (n - 1) // 2
    assert not any(c.substitute(segre) for c in cleared)


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
    model_big = CoordinateModel(SPLIT, field, 5)
    points = rank_one_points(random.Random(11), model_big, 60)
    for i, j in ((1, 2), (2, 3)):
        phi = pair_projection(field, 3, i, j)
        el = extract_additive_element(f, witness_data(f, model_u, "p1"), model_u, model_big, phi, "p1")
        ext = el.pullback.ring
        t_name = ext.names[-1]
        perturbed = el.pullback + ext.var(t_name) * ext.var("y_1_1")
        coeffs, perturbed_coeffs = (
            [pullback.coeff_of_power(t_name, k, model_big.ring) for k in pullback.powers_of(t_name)]
            for pullback in (el.pullback, perturbed)
        )
        assert all(c.ring == model_big.ring for c in coeffs)
        caught = 0
        for point in itertools.islice(points, 30):
            vanishes = not any(c.evaluate(point) for c in coeffs)
            assert vanishes
            assert vanishes == _pullback_vanishes_by_substitution(el.pullback, point)
            perturbed_vanishes = not any(c.evaluate(point) for c in perturbed_coeffs)
            assert perturbed_vanishes == _pullback_vanishes_by_substitution(perturbed, point)
            assert perturbed_vanishes == (not point["y_1_1"])
            caught += not perturbed_vanishes
        assert caught > 0


# sha256 of 80 seeded rank-one split points, or with a unit the points
# certificate-samples uses (seed 31, sorted name=value text per point),
# followed by one rng.random() drawn afterwards, captured from the boxed
# sampler before the points were drawn as (v, w) and read through the Segre
# images: a rewrite must return the same points and leave the generator in
# the same state.
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
    model = CoordinateModel(SPLIT, FieldDescriptor.parse(selector), n)
    h = model.ring.var("z_1_2") * 2 if unit else None
    rng = random.Random(31)
    lines = []
    for point in rank_one_points(rng, model, 80, h):
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


@pytest.mark.parametrize("command", ("example-rank1", "proofstep"))
def test_a_run_expands_the_witness_along_its_summand_once(command, monkeypatch, capsys):
    from polyfunctor import proofstep
    from polyfunctor.cli import main

    rings = []
    directional = proofstep.directional_data
    monkeypatch.setattr(proofstep, "directional_data", lambda f, W: rings.append(f.ring) or directional(f, W))
    argv = ["example-rank1", "--n", "3"] if command == "example-rank1" else [
        "proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--n", "3", "--f", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2",
        "--r0", "1", "--r-part", "p1"]
    assert main(argv + ["--field", "fp:101"]) == 0
    assert "all passed: true" in capsys.readouterr().out
    # derivative_step's data serves the direction scan and the extraction
    witness_ring = CoordinateModel(SPLIT, FieldDescriptor.prime_field(101), 2).ring
    assert rings.count(witness_ring) == 1


def _checked_against_the_power_kernel(monkeypatch):
    """Make every GradedPoly.substitute compare its result with
    substitute_by_powers, the kernel before the integer one, and, over q,
    check that an integral coefficient comes back as an int; returns the
    list of checked calls."""
    checked = []
    substitute = GradedPoly.substitute

    def compared(self, mapping):
        result = substitute(self, mapping)
        assert result == substitute_by_powers(self, mapping)
        assert all(type(c) is int for c in result.terms.values() if c.denominator == 1)
        checked.append(self)
        return result

    monkeypatch.setattr(GradedPoly, "substitute", compared)
    return checked


@pytest.mark.parametrize("selector", ["q", "fp:3", "fp:101"])
def test_rank_one_substitutions_agree_with_the_power_kernel(selector, monkeypatch):
    from polyfunctor import proofstep

    checked = _checked_against_the_power_kernel(monkeypatch)

    def agreeing(law, oracle):
        def checked_law(dd):
            holds = law(dd)
            assert holds == oracle(dd)
            return holds
        return checked_law

    # each joint law also runs its formal identity, whose doubled-ring
    # substitutions the compared kernel checks
    monkeypatch.setattr(proofstep, "joint_additivity_holds",
                        agreeing(proofstep.joint_additivity_holds, joint_additivity_by_identity))
    monkeypatch.setattr(proofstep, "joint_scaling_holds",
                        agreeing(proofstep.joint_scaling_holds, joint_scaling_by_identity))
    for n in range(2, 6):
        checked.clear()
        assert run_rank_one_example(n, FieldDescriptor.parse(selector)).all_passed()
        assert len(checked) > 10


@pytest.mark.parametrize("level", (1, 2))
def test_frobenius_substitutions_agree_with_the_power_kernel(level, monkeypatch, capsys):
    checked = _checked_against_the_power_kernel(monkeypatch)
    *_, code = _frobenius_proofstep_digests(capsys, 3, level, "3")
    assert code == 0 and len(checked) > 10


def test_segre_substitutions_of_a_passing_run_meet_no_fraction(monkeypatch, capsys):
    from polyfunctor import proofstep
    from polyfunctor.cli import main

    maps, inside, met, images = [], [], [], []
    segre_map = proofstep._segre_map
    monkeypatch.setattr(proofstep, "_segre_map", lambda *args: maps.append(segre_map(*args)) or maps[-1])
    substitute = GradedPoly.substitute

    def tracked(self, mapping):
        segre = any(mapping is m for m in maps)
        inside.append(segre)
        try:
            result = substitute(self, mapping)
        finally:
            inside.pop()
        if segre:
            images.append(result)
        return result

    def watched(name, method):
        def wrapper(*args, **kwargs):
            if inside and inside[-1]:
                met.append(name)
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GradedPoly, "substitute", tracked)
    for name in ("__new__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, watched(name, getattr(Fraction, name)))
    assert main(["example-rank1", "--n", "3", "--field", "q"]) == 0
    assert "all passed: true" in capsys.readouterr().out
    # the witness, the universal pullback, the three k's and the three cleared
    # certificate elements go through a Segre map, each to a zero image
    assert len(images) == 8 and not any(images)
    assert met == []


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("command", ("example-rank1", "proofstep"))
def test_a_run_builds_each_coordinate_model_once(command, n, monkeypatch, capsys):
    from collections import Counter

    from polyfunctor.cli import main

    built = Counter()
    init = CoordinateModel.__init__

    def counted(self, functor, field, dimension):
        built[dimension] += 1
        init(self, functor, field, dimension)

    monkeypatch.setattr(CoordinateModel, "__init__", counted)
    argv = ["example-rank1", "--samples", "1"] if command == "example-rank1" else [
        "proofstep", "--functor", "sum(tsym,talt)", "--u", "2", "--f", "y_1_1*y_2_2 - y_1_2^2 + z_1_2^2",
        "--r0", "1", "--r-part", "p1"]
    assert main(argv + ["--n", str(n), "--field", "fp:101"]) == 0
    assert "all passed: true" in capsys.readouterr().out
    # the base model at u = 2, the universal projection's at 2u and, when
    # n > u, the pair projections' at u + n
    assert built == Counter({2, 4, 2 + n})


def test_rank_one_decides_the_joint_laws_of_k_once(monkeypatch):
    from polyfunctor import proofstep

    data, stages = [], []
    directional = proofstep.directional_data
    monkeypatch.setattr(proofstep, "directional_data", lambda f, W: data.append(f) or directional(f, W))
    run_stages = proofstep._run_stages
    monkeypatch.setattr(proofstep, "_run_stages", lambda *args: stages.append(run_stages(*args)) or stages[-1])
    for n in (2, 3, 6):
        data.clear()
        stages.clear()
        report = run_rank_one_example(n, FieldDescriptor.prime_field(101), sample_count=1)
        assert report.all_passed()
        assert sum(c.name.startswith("joint-laws k ") for c in report.checks) == n * (n - 1) // 2
        # the witness's own expansions live in its ring; k is expanded once,
        # the universal k, whatever the number of pairs
        on_k = [g for g in data if g.ring != report.f.ring]
        assert len(on_k) == 1 and on_k[0] is stages[0].universal.poly


def test_joint_laws_of_k_print_the_universal_status(monkeypatch):
    from polyfunctor import proofstep

    scaling = proofstep.joint_scaling_holds
    # a scaling law that fails on the 2u-space, the universal k's, and not f's
    monkeypatch.setattr(proofstep, "joint_scaling_holds", lambda dd: scaling(dd) and "y_3_3" not in dd.joint.ring.names)
    statuses = {c.name: c.status for c in run_rank_one_example(3, Q, sample_count=1).checks}
    assert statuses["joint-scaling f"] == "pass"
    assert [s for name, s in statuses.items() if name.startswith("joint-laws k ")] == ["fail"] * 3


def test_rank_one_elimination_divides_few_times(monkeypatch):
    from polyfunctor import groebner, matrices, proofstep

    calls = {"matrices": [], "proofstep": []}
    inside = []
    eliminate = proofstep.eliminate

    def counted(where):
        def divide(f, g):
            calls[where].extend(inside)
            return groebner.divide_exact(f, g)

        return divide

    def tracked(*args, **kwargs):
        inside.append(1)
        try:
            return eliminate(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(proofstep, "divide_exact", counted("proofstep"))
    monkeypatch.setattr(matrices, "divide_exact", counted("matrices"))
    monkeypatch.setattr(proofstep, "eliminate", tracked)
    report = run_rank_one_example(4, FieldDescriptor.prime_field(101), sample_count=1)
    assert report.all_passed()
    # At n = 4 the 6 elements give a 6x6 system with one entry 2*z_1_2 = h
    # per row, so the solve splits it into six 1x1 blocks and divides
    # nothing.  Each block determinant h takes one division by h to leave
    # the scalar 1 (6), and each of the 6 coordinates, its constant part
    # over that scalar, an entry of k0 that h does not divide, fails one
    # division by h (6): 12.
    assert len(calls["matrices"]) == 0
    assert len(calls["proofstep"]) == 12


def test_rank_one_minors_plain_is_the_products_of_variables():
    # the binomials x_i_k*x_j_l - x_i_l*x_j_k as ring.var products make, in
    # the same order and each with its two terms in the same order
    for field in (Q, FieldDescriptor.prime_field(3), FieldDescriptor.prime_field(101)):
        for dimension in range(2, 9):
            model = CoordinateModel(TensorF((IdF(), IdF())), field, dimension)
            ring = model.ring
            x = {(a, b): ring.var(f"x_{a + 1}_{b + 1}") for a in range(dimension) for b in range(dimension)}
            want = [
                x[i, k] * x[j, l] - x[i, l] * x[j, k]
                for i, j in itertools.combinations(range(dimension), 2)
                for k, l in itertools.combinations(range(dimension), 2)
            ]
            got = rank_one_minors_plain(model)
            assert [list(f.terms.items()) for f in got] == [list(f.terms.items()) for f in want]
            assert all(f.ring is ring for f in got)


def test_sample_checks_draw_their_points_whatever_the_images():
    # later checks draw from the same rng, so a check draws all its points
    # when its images are zero, and stops at its first failing point
    ring = GradedRing(Q, ["x"])
    x = ring.var("x")
    points = iter({"x": k} for k in range(10))
    assert _vanish_on_samples([ring.zero()], points, 3)
    assert next(points) == {"x": 3}
    assert not _vanish_on_samples([ring.zero(), x], points, 5)
    assert next(points) == {"x": 5}
    assert _vanish_on_samples([x * (x - 6)], points, 1)
    assert next(points) == {"x": 7}


def test_sample_statuses_draw_up_to_the_last_live_check():
    # every check up to the last with a nonzero image, zero-image ones too,
    # draws as if each drew its points in turn; the checks after it pass
    # with no draw, and their unit is never asked for
    ring = GradedRing(F3, ["v_1", "w_1"])
    v, w, zero = ring.var("v_1"), ring.var("w_1"), ring.zero()
    units = []
    seen = set()
    for seed in range(40):
        checks = [([v + w], 1, 2, None), ([zero], 1, 3, None), ([v - w], 1, 1, lambda: w),
                  ([zero], 1, 5, lambda: units.append(w) or w)]
        rng, reference = random.Random(seed), random.Random(seed)
        want = [_vanish_on_samples(images, _segre_points(reference, F3, m, unit and unit()), count)
                for images, m, count, unit in checks[:3]]
        assert _sample_statuses(rng, F3, checks) == want + [True]
        assert rng.getstate() == reference.getstate()
        seen.add(tuple(want))
    assert units == []
    assert len(seen) > 2  # the statuses depend on the points
    rng = random.Random(0)
    assert _sample_statuses(rng, F3, [([zero], 1, 5, None)] * 2) == [True, True]
    assert rng.getstate() == random.Random(0).getstate()


def test_rank_one_passing_run_evaluates_no_zero_image(monkeypatch):
    from types import SimpleNamespace

    from polyfunctor import proofstep

    evaluated, draws = [], []
    evaluate = GradedPoly.evaluate
    monkeypatch.setattr(GradedPoly, "evaluate", lambda self, point: evaluated.append(self) or evaluate(self, point))

    class Counted(random.Random):
        # randrange and randint draw through getrandbits
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

        def random(self):
            draws.append(0)
            return super().random()

    monkeypatch.setattr(proofstep, "random", SimpleNamespace(Random=Counted))
    for selector in FIELDS:
        for n in (2, 3, 4):
            assert run_rank_one_example(n, FieldDescriptor.parse(selector), sample_count=100).all_passed()
            # every sampled image is zero, so no check draws a point or
            # evaluates a polynomial
            assert (evaluated, draws) == ([], [])
    # a failing run draws and evaluates through the same counters
    _tampered_eliminate(monkeypatch)
    assert not run_rank_one_example(2, Q, sample_count=100).all_passed()
    assert evaluated and draws


def test_zero_unit_fails_before_the_first_draw(monkeypatch):
    evaluated = []
    evaluate = GradedPoly.evaluate
    monkeypatch.setattr(GradedPoly, "evaluate", lambda self, point: evaluated.append(self) or evaluate(self, point))
    for field in (Q, F3):
        ring = GradedRing(field, ["v_1", "w_1"])
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(AlgebraError, match="failed to sample a point off the unit locus"):
            next(_segre_points(rng, field, 1, ring.zero()))
        assert rng.getstate() == state
        assert evaluated == []
        # a nonzero unit still draws off its zero locus
        points = _segre_points(random.Random(5), field, 1, ring.var("v_1"))
        assert all(point["v_1"] for point in itertools.islice(points, 20))
        evaluated.clear()


# -- one extraction per run: the pull-back path against direct extraction -----------


def _frobenius_presentation(field, level=1):
    """y_1_1^q*y_2_2^q - y_1_2^(2q) + z_1_2^(2q) with q = p^level, f(x^q) = f^q
    for the rank-one witness f over F_p: it vanishes on rank-one tensors and
    has the given level."""
    q = field.characteristic ** level
    model = CoordinateModel(SPLIT, field, 2)
    y = model.ring.var
    f = y("y_1_1") ** q * y("y_2_2") ** q - y("y_1_2") ** (2 * q) + y("z_1_2") ** (2 * q)
    return model, f, VarietyPresentation.make(model, [f], [], "p1")


def _assert_pulled_back_as_extracted(X, n, phis):
    """Every element of the run, pulled back from the universal projection,
    equals direct extraction along its phi, field by field; so do the
    universal pullback after the induced map of 1_U (+) phi and the Segre
    image pulled back from the universal one, also with the universal
    pullback perturbed by t*y_1_1, in the 1_U block, and t*y_3_4, in the phi
    block.  Returns the run's stages."""
    from polyfunctor import proofstep

    u, field = X.model.dimension, X.model.field
    r0 = Vector("r", ("z_1_2",), (1,))
    stages = proofstep._run_stages(X, X.generators[0], n, r0, phis)
    model_big = CoordinateModel(X.model.functor, field, u + n)
    model_2u = CoordinateModel(X.model.functor, field, 2 * u)
    identity = space_matrix(field, [[int(a == b) for b in range(u)] for a in range(u)])
    f, data = X.generators[0], witness_data(X.generators[0], X.model, X.designated_r)
    universal = extract_additive_element(f, data, X.model, model_2u, identity, X.designated_r)
    assert stages.universal == universal
    assert len(stages.elements) == len(phis)
    t = universal.pullback.ring.variables[-1]
    segre = _segre_map(model_big, [t])
    images = proofstep._segre_pullbacks(stages.model_2u, stages.universal, segre, phis)
    perturbation = parse_polynomial(f"{t.name}*y_1_1 + {t.name}*y_3_4", universal.pullback.ring)
    perturbed = AffineAdditiveElement(
        universal.poly, universal.level, universal.additive_part, universal.constant_part, universal.eliminated,
        universal.pullback + perturbation,
    )
    perturbed_images = proofstep._segre_pullbacks(stages.model_2u, perturbed, segre, phis)
    for phi, el, image, perturbed_image in zip(phis, stages.elements, images, perturbed_images, strict=True):
        direct = extract_additive_element(f, data, X.model, model_big, phi, X.designated_r)
        assert el.poly == direct.poly and el.poly.ring == direct.poly.ring
        assert el.level == direct.level
        assert el.additive_part == direct.additive_part
        assert list(el.additive_part) == list(direct.additive_part)
        assert el.constant_part == direct.constant_part
        assert el.eliminated == direct.eliminated
        assert el.pullback is None
        widened = induced_map(ShiftF(u, model_big.normalized), phi)
        forms = row_forms(widened, direct.pullback.ring, [model_big.name_of[lab] for lab in widened.col_labels])
        mapping = {model_2u.name_of[lab]: form for lab, form in zip(widened.row_labels, forms)}
        mapping[t.name] = direct.pullback.ring.var(t.name)
        pulled = universal.pullback.substitute(mapping)
        assert pulled == direct.pullback and pulled.ring == direct.pullback.ring
        assert image == direct.pullback.substitute(segre) and image.ring == segre[t.name].ring
        wrong = direct.pullback + perturbation.substitute(mapping)
        assert perturbed_image == wrong.substitute(segre) != image
    return stages


@pytest.mark.parametrize("selector", FIELDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_pair_elements_pulled_back_equal_direct_extraction(n, selector):
    field = FieldDescriptor.parse(selector)
    _, _, X = split_presentation(field)
    pairs = [pair_projection(field, n, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    _assert_pulled_back_as_extracted(X, n, pairs)


@pytest.mark.parametrize("selector", ("q", "fp:5", "fp:101"))
def test_general_elements_pulled_back_equal_direct_extraction(selector):
    field = FieldDescriptor.parse(selector)
    _, _, X = split_presentation(field)
    half = Fraction(1, 2) if field.characteristic == 0 else 3
    phis = [
        space_matrix(field, [[half, -3, 0, 1], [0, 1, 0, -2]]),  # a zero column
        space_matrix(field, [[1, 1, 1, 1], [0, 1, 2, 3]]),
        space_matrix(field, [[2, 0, -1, 1], [-half, -1, 1, 0]]),
        space_matrix(field, [[0, 0, 1, 0], [0, 0, 0, 1]]),
    ]
    stages = _assert_pulled_back_as_extracted(X, 4, phis)
    assert all(el.additive_part for el in stages.elements)


@pytest.mark.parametrize("p", (3, 5))
def test_level_one_elements_pulled_back_equal_direct_extraction(p):
    field = FieldDescriptor.prime_field(p)
    _, _, X = _frobenius_presentation(field)
    n = 3
    pairs = [pair_projection(field, n, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    stages = _assert_pulled_back_as_extracted(X, n, pairs + [space_matrix(field, [[1, 2, 0], [0, 1, 1]])])
    assert {el.level for el in stages.elements} == {stages.certificate.level} == {1}
    # every k and every cleared certificate element x^p * h^e + numerator
    # vanishes on the rank-one tensors
    segre = _segre_map(CoordinateModel(SPLIT, field, 2 + n))
    assert all(el.additive_part and not el.poly.substitute(segre) for el in stages.elements)
    cleared = stages.certificate.cleared_elements()
    assert len(cleared) == 3 and not any(c.substitute(segre) for c in cleared)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_level_two_elements_vanish_on_rank_one_tensors(n):
    from polyfunctor import proofstep

    field = FieldDescriptor.prime_field(3)
    _, f, X = _frobenius_presentation(field, 2)
    pairs = [pair_projection(field, n, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    stages = proofstep._run_stages(X, f, n, Vector("r", ("z_1_2",), (1,)), pairs)
    assert stages.data.level == stages.certificate.level == 2
    # every k has level 2 and a nonzero additive part, and its Segre image,
    # exact membership in the ideal of 2x2 minors, is zero
    segre = _segre_map(CoordinateModel(SPLIT, field, 2 + n))
    assert all(el.level == 2 and el.additive_part and not el.poly.substitute(segre) for el in stages.elements)
    assert not any(c.substitute(segre) for c in stages.certificate.cleared_elements())


def _assert_joint_laws_as_evaluated(report):
    """Each pair's printed joint-laws k status, decided once on the universal
    k, is that of the joint laws evaluated on the pair's own k; a pair whose
    k has no additive part prints none.  Returns the number of lines."""
    statuses = {c.name: c.status for c in report.checks}
    for keys, el in zip(report.element_keys, report.elements, strict=True):
        name = f"joint-laws k {keys['i']},{keys['j']}"
        if el.additive_part:
            dd = directional_data(el.poly, DirectionSubspace(el.poly.ring, el.eliminated))
            assert statuses[name] == ("pass" if joint_additivity_holds(dd) and joint_scaling_holds(dd) else "fail")
        else:
            assert name not in statuses
    return sum(name.startswith("joint-laws k ") for name in statuses)


@pytest.mark.parametrize("selector", FIELDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_joint_laws_of_each_pair_as_evaluated(n, selector):
    report = run_rank_one_example(n, FieldDescriptor.parse(selector), sample_count=1)
    assert report.all_passed()
    assert _assert_joint_laws_as_evaluated(report) == n * (n - 1) // 2


GENERAL_PHIS = {
    "q": ([[1, 2, 0], [0, 1, -1]], [[1, 0, 3], [2, 1, 1]], [[0, 1, 1], [1, 0, 5]]),
    "fp:3": ([[1, 2, 0], [0, 1, 1]], [[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [2, 0, 1]]),
    "fp:101": ([[1, 2, 0], [0, 1, -1]], [[1, 0, 3], [2, 1, 1]], [[0, 1, 1], [1, 0, 5]]),
}


@pytest.mark.parametrize("case", ["level-1"] + sorted(GENERAL_PHIS))
def test_joint_laws_as_evaluated_on_swapped_stages(case, monkeypatch):
    """The rank-one report at n = 3 on the stages of the level-1 Frobenius
    twist over F_3, or of three general projections in place of the three
    pair projections; only its joint-laws k lines are read."""
    from polyfunctor import proofstep

    field = FieldDescriptor.parse("fp:3" if case == "level-1" else case)
    run_stages = proofstep._run_stages

    def swapped(X, f, n, r0, phis):
        if case == "level-1":
            _, g, X1 = _frobenius_presentation(field)
            return run_stages(X1, g, n, r0, phis)
        return run_stages(X, f, n, r0, [space_matrix(field, rows) for rows in GENERAL_PHIS[case]])

    monkeypatch.setattr(proofstep, "_run_stages", swapped)
    report = run_rank_one_example(3, field, sample_count=1)
    assert {el.level for el in report.elements} == {int(case == "level-1")}
    assert _assert_joint_laws_as_evaluated(report) == 3


def test_no_projection_extracts_nothing(monkeypatch):
    from polyfunctor import proofstep

    _, f, X = split_presentation(Q)
    monkeypatch.setattr(proofstep, "extract_additive_element", lambda *args: pytest.fail("extracted"))
    with pytest.raises(PresentationError, match="elimination needs elements and coordinates"):
        proofstep._run_stages(X, f, 3, Vector("r", ("z_1_2",), (1,)), [])


def test_one_extraction_per_run(monkeypatch):
    from polyfunctor import proofstep

    calls = []
    extract = proofstep.extract_additive_element
    monkeypatch.setattr(proofstep, "extract_additive_element", lambda *args: calls.append(args) or extract(*args))
    for n in (2, 4):
        calls.clear()
        assert run_rank_one_example(n, F3, sample_count=1).all_passed()
        (f, data, model_u, model_2u, phi, r_label), = calls
        assert model_2u.dimension == 4 and phi.shape == (2, 2)


# sha256 of the text and the JSON stdout of proofstep, and its exit code, on the
# level-1 Frobenius twist over F_p, at n = 2..4 with the default pair
# projections and at n = 3 with three general projections; captured before
# the elements were pulled back from the universal projection
LEVEL_ONE_GOLDEN = {
    (3, '2'): ('3a86012e314d9428a2f2a16cde68acc1225014061f2ace0203b554ee67413dbc', 'c61599ad8b809b63af453adcb34b714787b40891a6fbbc5b1e02872823ce9201', 0),
    (3, '3'): ('9ba7503a91c3a79a9f17cbc3082612385ae118181781a0e498723b258ccef49c', '2845f5db555e47ffaf1633059773541b2ebb9302fc8159bda31855ab8547ffdd', 0),
    (3, '4'): ('69448e7f63b1caadefc50e51c28de303d44754951503689755b020f5deafd66f', 'b17c179c1a96d3a0edcc706530f4f4974064a55d86dec20f6ccc7ee06683970d', 0),
    (3, 'phi'): ('e4f4d9c0c6172981913fca95cb2b077dfb8ab8658edff8c938f2d9d5ed45bcf8', 'a864646a9811cbb06afa9c0ebec9333b36e07b7ab39a1594c3aa89490228f24d', 0),
    (5, '2'): ('7c389248cbef31cb3c705d1c83ba6e4df435397461bdb584c421d6cd96b38eae', '7880f531238540094c72940883719f19b0a947cbfd8a32284718b19968f65c3b', 0),
    (5, '3'): ('71fc3ddfd7a14f5ca2843be1cda4ccf93eb5615a338b7c6d9268ef74cf4d8ba1', '43931a743e19f1c9f488e4f8480765e07324c26c06be43f520c246887b31128e', 0),
    (5, '4'): ('1ef0dc93ef1477bd00c1d0c2b8e42caa4049f1875e60e212706e35facd92dd84', '2756252af9e01c866bcce794bb95c590ea82defd7a775754de746b6a9a01186c', 0),
    (5, 'phi'): ('1fd4307d74befe455a27c6c8cb7791ea5c220d92ce4fa35037ed493a88666506', 'd0fa085c16a137389f9242155f555320584c5f2c646ef3ce6115eae10f02bc56', 0),
    (7, '2'): ('61a0298d18deddfb2052eeb69ffe698dba876cc5efda1c3bcffa5da17d0ab47a', '1bf6233e275f105201967eb0b1bbc4b51adacd643b0ead45c4745764fa959bfd', 0),
    (7, '3'): ('34809b1b4982bfd497c2d8b23224499d80616bd9ca32d55fabcacc02b8739fd8', 'dde9bdeff753813efd6760c93b19137c8e70030f6d9b1add458c429d8f8397a4', 0),
    (7, '4'): ('575cba6f660829268bca6a7a0cf58993c28b3ac8b13765c114f6389b997ecb3f', 'b3393e7a6a7ae79f964cea51d0ba52f5066b26f55a3a4fd5ece894d78dc71383', 0),
    (7, 'phi'): ('719b3a5921f8bc433f99c8569c164dd100f34c50467e609d3b8471172445aaeb', '3c7ed8641d89aa2288600fc46306458fe2b41945736ea5435b6de481c863df02', 0),
}


def _frobenius_proofstep_digests(capsys, p, level, n):
    """sha256 of the text and the JSON stdout of proofstep on the Frobenius
    twist at this level over F_p, and its exit codes; n is the dimension of
    the default pair projections, or "phi" for three general ones at n = 3."""
    from polyfunctor.cli import main

    q = p**level
    argv = ["proofstep", "--field", f"fp:{p}", "--functor", "sum(tsym,talt)", "--u", "2",
            "--f", f"y_1_1^{q}*y_2_2^{q} - y_1_2^{2 * q} + z_1_2^{2 * q}", "--r0", "1", "--r-part", "p1"]
    if n == "phi":
        last = {3: "0,1,0;2,0,1", 5: "0,1,0;3,0,1", 7: "0,1,0;5,0,1"}[p]
        argv += ["--n", "3", "--phi", "1,2,0;0,1,1", "--phi", "1,0,0;0,0,1", "--phi", last]
    else:
        argv += ["--n", n]
    digests, codes = [], set()
    for fmt in ("text", "json"):
        codes.add(main(argv + ["--format", fmt]))
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert fmt == "json" or f"e0: {level}\n" in out
    return (*digests, *codes)


@pytest.mark.parametrize("key", sorted(LEVEL_ONE_GOLDEN))
def test_level_one_proofstep_golden(key, capsys):
    p, n = key
    assert _frobenius_proofstep_digests(capsys, p, 1, n) == LEVEL_ONE_GOLDEN[key]


# the same digests at level 2, on y_1_1^9*y_2_2^9 - y_1_2^18 + z_1_2^18 over
# F_3 and its F_5 counterpart with exponents 25 and 50 at n = 3; captured
# before the joint laws of k were decided once, on the universal k
LEVEL_TWO_GOLDEN = {
    (3, '2'): ('15b491ac306522a153d8044199861920b1927766936ebb7a69e3e3809f2b5198', '047243658595b9d8ef745357ecf032a06887ff8a11c5f2ceba80cda58377b2d0', 0),
    (3, '3'): ('cd3bfcf463b80c7a621d5e11baa3f42bee3b260fc705a033cfad15047cf0be0b', '545c6b776477cf8f705286a0d3cbf2e99a3077179365c6f7d661024a6a4eebd8', 0),
    (3, '4'): ('9ecebf228b9833ed67529a330b16a5ee676c01b157e543ef8ae20d1cfa78b364', '5edd0a482b058f28727fba3aabbaaa09d441e583cbfe02f5f31034cc36df1473', 0),
    (3, 'phi'): ('f26d115e78735b27bebfd23110ad96e8a716bcd385fd89df5f9059cc4f21c953', 'afe5b0d37627745cc1956d4ddccfa983a4e6e0a09d2208773c0a6d709389d154', 0),
    (5, '3'): ('886c67ec56d44b018f7cf606cd0e3a2fdd077ae8cfabf80b3a78a329f28fe202', 'ed3cf97f622b610988f7c5a9d3ecfbad07692669a6ef63f190f99fb85a01c9bf', 0),
}


@pytest.mark.parametrize("key", sorted(LEVEL_TWO_GOLDEN))
def test_level_two_proofstep_golden(key, capsys):
    p, n = key
    assert _frobenius_proofstep_digests(capsys, p, 2, n) == LEVEL_TWO_GOLDEN[key]


# sha256 of the text and the JSON stdout of example-rank1 with y_1_1*z_1_2
# added to the last element's k, its exit code and the status of
# coefficient-vanishes-on-samples; captured while the zero-image pullback
# check before it drew its points, so a change to where any check draws
# moves the statuses at these few samples
DRAWS_GOLDEN = {
    ('fp:3', 2, 0, 1): ('a6c8f0842f7edb7145f82dd39fe85801fc9cb1e1712c0680cd0aaa494f4ab6f6', '69bec00173f4bdf4b81f5220c0e1344d0b5a01b5aa178779b86b8c45db57da2d', 0, 'pass'),
    ('fp:3', 2, 0, 5): ('5a61003cc3c753f8a78444a8079de48f59b4cc2f030fcc65d3cd96476aa02968', '588f0fdbd423599efab29576ecbf855dc994ce1d2cdfa71ce8685e53f0d1dbf2', 4, 'fail'),
    ('fp:3', 2, 1, 1): ('c38a748dc266d48bae8da496efd974ac3ff7d507931dc3d8fa12e47050cfc0ef', '1d5e382ea9f23a4d04ff0471e4cf0b8e324e8a73e8037857e3a415cf11df1f31', 4, 'fail'),
    ('fp:3', 2, 1, 5): ('c38a748dc266d48bae8da496efd974ac3ff7d507931dc3d8fa12e47050cfc0ef', '1d5e382ea9f23a4d04ff0471e4cf0b8e324e8a73e8037857e3a415cf11df1f31', 4, 'fail'),
    ('fp:3', 2, 2, 1): ('078efb703baae46f17d019fdd99e4b3fbfddc8041431989ea79e7f1a4c7bfe66', 'ea28eefadf256a25f2accb8f6ccfda3477a516d353417e2d3f6fc76901b9b562', 0, 'pass'),
    ('fp:3', 2, 2, 5): ('078efb703baae46f17d019fdd99e4b3fbfddc8041431989ea79e7f1a4c7bfe66', 'ea28eefadf256a25f2accb8f6ccfda3477a516d353417e2d3f6fc76901b9b562', 0, 'pass'),
    ('fp:3', 2, 3, 1): ('ae006ac7017537b6dc8fee46645371448f628f9398d6abe97ef8685f072a3d3b', '48ae751669c86b068586932b3dc73a890b459ec76f2d2972ff11532dbee2def4', 0, 'pass'),
    ('fp:3', 2, 3, 5): ('e402e28374f08cf30242c1b4fab61eb5e68180896e2b927c7582e3fa0e466459', '1a799380aa4e19610b6ecc8d64f03e97f26f7734748a6d0fdc0a6dde33d3b511', 4, 'fail'),
    ('fp:3', 3, 0, 1): ('28a1f4ea0fdb2c272fe40f5fbbca8ba26ba241ca886b3f06a3c9c97506124db5', '6246c39d097f4b7fea788e50fc73e3af96e9bfb45e2946283978fbb9a8d7b1f8', 0, 'pass'),
    ('fp:3', 3, 0, 5): ('26915a1d6dac635d0b372cf79bc0a752e96f4bcfd5098840d5a5ba7171195245', 'ced9f734b82c49d14d5921f5548891e6a5a206ce46c04fad1edc183d5967621d', 4, 'fail'),
    ('fp:3', 3, 1, 1): ('b5817853dffb57d6b98bb1b0a3585176b2e38db07c87a9e559106bd31dc14af8', '1401a33e9258fe0f8908044544d4e6a3048bf09aa7dcf25f22d71ce04d583018', 0, 'pass'),
    ('fp:3', 3, 1, 5): ('b5817853dffb57d6b98bb1b0a3585176b2e38db07c87a9e559106bd31dc14af8', '1401a33e9258fe0f8908044544d4e6a3048bf09aa7dcf25f22d71ce04d583018', 0, 'pass'),
    ('fp:3', 3, 2, 1): ('4403dcab4a470717a76ab4be2ff863893d10bf6298a5120ae170950753fd1148', '1f3ea62d2957bb073d1ea22aeabc26dbe02d876261202cadbc8443cf064c55d2', 0, 'pass'),
    ('fp:3', 3, 2, 5): ('4403dcab4a470717a76ab4be2ff863893d10bf6298a5120ae170950753fd1148', '1f3ea62d2957bb073d1ea22aeabc26dbe02d876261202cadbc8443cf064c55d2', 0, 'pass'),
    ('fp:3', 3, 3, 1): ('bc97c72473730199efce3b49eaf828840d56675dbce76903cab527ba39936a37', 'a85ed852a2567f65832d6b49d27d5071e1c9f81fa63d5f2d77cf51620ac24ac5', 0, 'pass'),
    ('fp:3', 3, 3, 5): ('bc97c72473730199efce3b49eaf828840d56675dbce76903cab527ba39936a37', 'a85ed852a2567f65832d6b49d27d5071e1c9f81fa63d5f2d77cf51620ac24ac5', 0, 'pass'),
    ('fp:3', 4, 0, 1): ('e6cdd6845893ba83cb4da5d37e11c591761cf62471a11351cfd8d5a30555c8e0', '7b899e6917a51dbe611fda2be15c6bd5c9d44c03fa982223ed9a5fa05fb0ce45', 0, 'pass'),
    ('fp:3', 4, 0, 5): ('e6cdd6845893ba83cb4da5d37e11c591761cf62471a11351cfd8d5a30555c8e0', '7b899e6917a51dbe611fda2be15c6bd5c9d44c03fa982223ed9a5fa05fb0ce45', 0, 'pass'),
    ('fp:3', 4, 1, 1): ('6b9c312445e407ca11d8a543ba851d31219ee7e0dc390669dee188b2c0a33973', 'ad65619d5cd1c644ad058ef9f4e6804930ac16c7c852223fc5961d924f14054c', 0, 'pass'),
    ('fp:3', 4, 1, 5): ('6b9c312445e407ca11d8a543ba851d31219ee7e0dc390669dee188b2c0a33973', 'ad65619d5cd1c644ad058ef9f4e6804930ac16c7c852223fc5961d924f14054c', 0, 'pass'),
    ('fp:3', 4, 2, 1): ('4fc3e6a56b6ef53d03b706186d9d01d93f0e226fecabe96add49d2dd8c439c4b', '8ed1bdd6974aa1a7082bcad54b3a0e5319f78589c9413b38bfc85ca95991e20b', 0, 'pass'),
    ('fp:3', 4, 2, 5): ('4fc3e6a56b6ef53d03b706186d9d01d93f0e226fecabe96add49d2dd8c439c4b', '8ed1bdd6974aa1a7082bcad54b3a0e5319f78589c9413b38bfc85ca95991e20b', 0, 'pass'),
    ('fp:3', 4, 3, 1): ('3fad3745430856a536c1eeb6a542e75244dc87ebf82c1cceb8197ad2a0f8dd98', '9390d0e5523cff4d26d78501a55b8c8a736519b94487252e5779bbb27c7ad503', 0, 'pass'),
    ('fp:3', 4, 3, 5): ('5ba007a9a448262a4d516ba8e76bcda4cdb305a27ed04248dbb41c33e6779b8f', '3f10f411b07aa9b1b7f614fff69f71af32be75aa97e028ab2cef9c18ffe41fed', 4, 'fail'),
    ('fp:5', 2, 0, 1): ('5744474474fc6429a8c844c8c268f5d9e47e48681cf16482fad0adf27d765557', '7618e118309a535affe3e67bbf1b23d8b1993a9ff1618d8a5e3cbbeef71df342', 0, 'pass'),
    ('fp:5', 2, 0, 5): ('5744474474fc6429a8c844c8c268f5d9e47e48681cf16482fad0adf27d765557', '7618e118309a535affe3e67bbf1b23d8b1993a9ff1618d8a5e3cbbeef71df342', 0, 'pass'),
    ('fp:5', 2, 1, 1): ('4e4703aaef21ec169a2f2df1d7f70ec9e97972c28ec5bae5b43ebef3ca9b168c', '36567aca2c074b65003f3951db35a5d3d52d7bb40581b8b8b978c7bdf5ab07cd', 0, 'pass'),
    ('fp:5', 2, 1, 5): ('c71dee24f79e209d4dd54e75929bdb028beca101ef64a5fe3cb701fbc83310db', 'ce88ba437c499a7cc971047a27250b728c6f4142c3c2c77c9716cabc09bc314b', 4, 'fail'),
    ('fp:5', 2, 2, 1): ('471a3847073514b18d289f466dd1baa807020102eae0a47c265c7a2fc44b4464', '5dcde0540672d79e826c9c894c8967ca83d3fbc8a50a4f6ad2db7a6fedf7110c', 0, 'pass'),
    ('fp:5', 2, 2, 5): ('4fca062c1b1bb0bf45a0cdf0147239a411ca165c2aed77568b1f7c88f5a2df4d', '68e7ed64b381c86ca8c60ce674a7c973f7a96a680777616059d919ffbdf88f56', 4, 'fail'),
    ('fp:5', 2, 3, 1): ('2837ec8725f3f87aef61bd49f8dedbcb976989ccf74da7e5a5d3f76b5cb73a10', 'eb643fd67abacf80f56fbd8f58132da49d1c6e288fc5cea6bd8c92f57f7d5221', 0, 'pass'),
    ('fp:5', 2, 3, 5): ('61572656286bb87e0eaf65ba6f1179b7b4a35a8aa9f85d1b7311390cf989f9be', '6791bcd797928f6a7f82aa4eedbf164170aa654c19f064f497d1574279e059d7', 4, 'fail'),
    ('fp:5', 3, 0, 1): ('5080a029f319efd20f605a3ae75a347ed21d62d5c2894352018e135cc7acb925', '2db6ab3132d706d7278d4a9eb09cb8825d31fadde0de8d73c66a44d5561b468d', 0, 'pass'),
    ('fp:5', 3, 0, 5): ('07fc5dfcf276f37037c1d44ea831386d2118f28f36b5c08f550cac6fc9aacf04', 'a386123b62723c097029adfe9a9898b6b03105541171ca38ca6f3d354a6b8d4c', 4, 'fail'),
    ('fp:5', 3, 1, 1): ('df7e4a7fb596ce13520c4be844be075d0ab42c830b484e9f1074b20b9febda90', '6aa2256cfd382e4dc7aa17a9aa6ce8dbc033b6a4d1f115247c42fe10d7aecbbe', 0, 'pass'),
    ('fp:5', 3, 1, 5): ('7b1d39753ee510a52d98c65e0ad1e7729cb6568c667dadaab133c8fd85efe00a', '59bc2ac94c97258cf0e4313045f1d4408e0579620de5f4e979a90cf62cc0849e', 4, 'fail'),
    ('fp:5', 3, 2, 1): ('6244cb4c52e1de8a2b2744bf6f613036d12492dfe0fe504b0ba70f2d5d9771fe', '36e84cd977e32fc5b2f288c672e95f8f1c8bbf3fa896e69d440843c156486ed5', 4, 'fail'),
    ('fp:5', 3, 2, 5): ('6244cb4c52e1de8a2b2744bf6f613036d12492dfe0fe504b0ba70f2d5d9771fe', '36e84cd977e32fc5b2f288c672e95f8f1c8bbf3fa896e69d440843c156486ed5', 4, 'fail'),
    ('fp:5', 3, 3, 1): ('e0840cdcc719363261d11a8b9bdfd9772c5388bb22cb4604d00658e08287c18b', 'd6ba9ab6afd661125b0c1b794f07ffb6ffed881d324a51c0b0c503fed660f9c7', 4, 'fail'),
    ('fp:5', 3, 3, 5): ('e0840cdcc719363261d11a8b9bdfd9772c5388bb22cb4604d00658e08287c18b', 'd6ba9ab6afd661125b0c1b794f07ffb6ffed881d324a51c0b0c503fed660f9c7', 4, 'fail'),
    ('fp:5', 4, 0, 1): ('5599b4e30dd1a81e278f570cafba532ade305c4c1b9860aacfc25d09510b958a', 'df7c82c2a2fb03aea03f6612c71fd4f03f4c03bfc0772b2364de7acc2d1ca925', 0, 'pass'),
    ('fp:5', 4, 0, 5): ('97096fa09335b697ce4f976be17b5d80ff02e48674b214ffc0c959cfb4cca116', 'e4c3dd01724eae3ae50c8b4b17a61140028bc4c1bb4e80c7518607b55a3dff4f', 4, 'fail'),
    ('fp:5', 4, 1, 1): ('0b7c811a719ff140ddcadbb95c262fde6600d37e03ce359118a8acb0e9849823', '12bd777198963c857cb0d8f64d90a8073bcbae266298695758f638b36e90166c', 0, 'pass'),
    ('fp:5', 4, 1, 5): ('0b7c811a719ff140ddcadbb95c262fde6600d37e03ce359118a8acb0e9849823', '12bd777198963c857cb0d8f64d90a8073bcbae266298695758f638b36e90166c', 0, 'pass'),
    ('fp:5', 4, 2, 1): ('e7609feeee805a4f5ab6c869fa79b1c7f3a10bad298c582a991a15e221085253', 'eaa609410a5f44fc4982a62c4a588d7a96af20383018f473fbab84d81bfc40c3', 0, 'pass'),
    ('fp:5', 4, 2, 5): ('4050b13731c320dd662c618e8df5a27f3ba24062d5495baa4636c699314bcb5d', '5dc372e91b99bdd53f6a008ae7a88a801cb04c59417c216c27796f04b84bf718', 4, 'fail'),
    ('fp:5', 4, 3, 1): ('0d77a4bc95f82b415316a5ec07fcdc11c3aef1c3f38eeccb4710aaf1391be5b0', '61f247b92ccbfb98ba05d0f2645eab13cd972ddb6f3511722d99fefb80aa41bf', 0, 'pass'),
    ('fp:5', 4, 3, 5): ('23ff7342a8a772d6310339a95f3c8693af185469677a8515cd4a0c63d21d5c78', '20325a42ab2574cfef7f7fd209acb443b42c12105f7ea4b66d177c2fa6546757', 4, 'fail'),
}


def test_draws_golden_reads_both_statuses():
    assert {status for *_, status in DRAWS_GOLDEN.values()} == {"pass", "fail"}


@pytest.mark.parametrize("key", sorted(DRAWS_GOLDEN))
def test_draws_golden(key, monkeypatch, capsys):
    from polyfunctor import proofstep
    from polyfunctor.cli import main

    stages = proofstep._run_stages

    def perturbed(*args):
        out = stages(*args)
        last = out.elements[-1]
        ring = last.poly.ring
        last.poly = last.poly + ring.var("y_1_1") * ring.var("z_1_2")
        return out

    monkeypatch.setattr(proofstep, "_run_stages", perturbed)
    selector, n, seed, samples = key
    digests, codes = [], set()
    for fmt in ("text", "json"):
        argv = ["example-rank1", "--n", str(n), "--field", selector, "--seed", str(seed), "--samples", str(samples)]
        codes.add(main(argv + ["--format", fmt]))
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}["coefficient-vanishes-on-samples"]
    assert (*digests, *codes, status) == DRAWS_GOLDEN[key]
