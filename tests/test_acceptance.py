"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact; run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import itertools
import random
import time

from polyfunctor import (
    CoordinateModel,
    DirectionSubspace,
    GradedRing,
    compare_order,
    decompose,
    dim,
    directional_data,
    extract_additive_element,
    hasse_derivative,
    induced_map,
    joint_additivity_holds,
    joint_scaling_holds,
    parse_polynomial,
    run_rank_one_example,
    shift_maps,
    space_matrix,
    specialise_joint,
    taylor_expand,
)
from polyfunctor.functors import ExtF, IdF, QuotF, ShiftF, SumF, SymF, TenAltF, TenSymF, TensorF, split_tensor_square
from polyfunctor.matrices import identity_matrix, space_labels

from conftest import (
    ALL_FIELDS, F3, F5, Q, random_functor, random_matrix, random_poly, random_scalar, scaled, witness_data,
)

SPLIT = SumF((TenSymF(), TenAltF()))


def _report(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_running_example_end_to_end():
    start = time.monotonic()
    report = run_rank_one_example(3, Q, seed=0, sample_count=100)
    elapsed = time.monotonic() - start
    assert report.h.to_text() == "2*z_1_2"
    assert report.certificate is not None
    assert len(report.certificate.entries) == 3
    assert all(e.h_power == 1 for e in report.certificate.entries)
    assert report.f.weighted_degree() == 4
    assert report.h.weighted_degree() == 2
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["certificate-samples"] == "pass"
    assert by_name["certificate-membership"] == "pass"
    assert report.all_passed()
    assert elapsed < 10.0
    _report(
        "criterion-1 running example end-to-end",
        f"h=2*z_1_2, 3 certificates with denominator h, 100 exact samples, {elapsed:.2f}s",
    )


def test_criterion_2_coefficient_formula():
    field = Q
    P = TensorF((IdF(), IdF()))
    model_u = CoordinateModel(P, field, 2)
    model_big = CoordinateModel(P, field, 5)
    f = parse_polynomial("x_1_1*x_2_2 - x_1_2*x_2_1", model_u.ring)
    for (i, j) in itertools.combinations(range(1, 4), 2):
        rows = [[0] * 3 for _ in range(2)]
        rows[0][i - 1] = 1
        rows[1][j - 1] = 1
        phi = space_matrix(field, rows)
        k = extract_additive_element(f, witness_data(f, model_u, "p0"), model_u, model_big, phi, "p0").poly
        ring = model_big.ring

        def coeff_of(m1, m2):
            prod = ring.var(m1) * ring.var(m2)
            ((exps, _),) = tuple(prod.terms.items())
            value = k.terms.get(exps)
            return value if value is not None else 0

        assert coeff_of(f"x_{2 + i}_{2 + i}", "x_2_2") == 1
        assert coeff_of(f"x_{2 + j}_{2 + j}", "x_1_1") == 1
        assert coeff_of(f"x_{2 + i}_{2 + j}", "x_2_1") == -1
        assert coeff_of(f"x_{2 + j}_{2 + i}", "x_1_2") == -1
        # the remaining moving-block coordinates never appear
        moving = set(model_big.moving_vars("p0", 2))
        allowed = {
            f"x_{2 + i}_{2 + i}",
            f"x_{2 + j}_{2 + j}",
            f"x_{2 + i}_{2 + j}",
            f"x_{2 + j}_{2 + i}",
        }
        for exps, _ in k.terms.items():
            support = {ring.names[t] for t, e in enumerate(exps) if e}
            assert support & moving <= allowed
    _report("criterion-2 coefficient formula", "t^2 coefficient matches on the moving block")


def test_criterion_3_characteristic_p_derivative():
    # p = 5: the quoted example, exact
    ring5 = GradedRing(F5, ["x", "y", "z"])
    f5 = parse_polynomial("y^25*z^2 + x^10*y^25*z", ring5)
    W5 = DirectionSubspace(ring5, ("x", "y"))
    data5 = directional_data(f5, W5)
    assert data5.level == 1
    for a, b in ((1, 1), (2, 3), (3, 0), (4, 2)):
        value = specialise_joint(data5, W5.direction([a, b]), W5)
        expected = ring5.var("x") ** 5 * ring5.var("y") ** 25 * ring5.var("z") * (
            2 * a ** 5
        )
        assert value == expected
    # p = 3 analogue against a brute-force expansion oracle
    ring3 = GradedRing(F3, ["x", "y", "z"])
    f3 = parse_polynomial("y^9*z^2 + x^6*y^9*z", ring3)
    W3 = DirectionSubspace(ring3, ("x", "y"))
    data3 = directional_data(f3, W3)
    assert data3.level == 1
    for a, b in ((1, 1), (2, 1), (1, 2), (2, 2)):
        ext = ring3.extended([("t", "aux", 0)])
        t = ext.var("t")
        mapping = {
            "x": ext.var("x") + t * a,
            "y": ext.var("y") + t * b,
            "z": ext.var("z"),
        }
        expanded = f3.substitute(mapping)
        lowest = min(p for p in expanded.powers_of("t") if p > 0)
        assert lowest == 3
        oracle = expanded.coeff_of_power("t", 3, ring3)
        assert specialise_joint(data3, W3.direction([a, b]), W3) == oracle
    _report("criterion-3 characteristic-p derivative", "p=5 exact, p=3 matches brute force")


def test_criterion_4_taylor_identity_fuzz():
    start = time.monotonic()
    rng = random.Random(2024)
    per_field = 125
    for field in ALL_FIELDS:
        ring = GradedRing(field, ["x1", "x2", "x3", "x4"])
        W = DirectionSubspace(ring, ("x1", "x2"))
        for _ in range(per_field):
            f = random_poly(rng, ring, max_degree=6, max_terms=5)
            # reassembly at a concrete direction: f(x + t*w) = sum_r D^r f * t^r
            coords = [random_scalar(rng, field) for _ in range(2)]
            ext = ring.extended([("t", "aux", 0)])
            t = ext.var("t")
            mapping = {n: ext.var(n) for n in ring.names}
            for name, c in zip(W.span_vars, coords):
                mapping[name] = ext.var(name) + t * c
            direct = f.substitute(mapping) if not f.is_zero() else ext.zero()
            rebuilt = ext.zero()
            w = W.direction(coords)
            for r in range(0, (f.total_degree() or 0) + 1):
                d = hasse_derivative(f, w, r, W)
                if not d.is_zero():
                    rebuilt = rebuilt + d.convert(ext) * t ** r
            assert rebuilt == direct
            # lowest symbolic power is a power of the characteristic exponent
            data = directional_data(f, W)  # raises internally otherwise
            if data.dependent:
                expanded = taylor_expand(f, W)
                lowest = min(p for p in expanded.powers_of("t") if p > 0)
                assert lowest == field.char_exponent ** data.level
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion-4 taylor identity fuzz", f"500 polynomials over 4 fields, {elapsed:.2f}s")


def test_criterion_5_shift_lemma_suite():
    golden = (
        SymF(3, IdF()),
        ExtF(2, IdF()),
        TensorF((IdF(), IdF())),
        SumF((SymF(2, IdF()), IdF())),
    )
    for P in golden:
        d = P.degree()
        for u in (1, 2):
            for n in range(1, 6):
                result = shift_maps(P, Q, u, n)
                assert result.composite_is_identity
                assert result.top_iso_check
                assert result.top_dim_shift == result.top_dim_base == decompose(P).part_dim(d, n)
    _report("criterion-5 shift lemma suite", "4 functors x u in {1,2} x n in 1..5")


def test_criterion_6_functoriality_fuzz():
    rng = random.Random(4096)
    ring_t = GradedRing(Q, [("t", "aux", 0)])
    t = ring_t.var("t")
    pairs = 0
    while pairs < 200:
        expr = random_functor(rng)
        if expr.degree() > 4:
            continue
        field = Q if pairs % 2 == 0 else F3
        if field.characteristic == 2:
            continue
        n, m, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        phi = space_matrix(field, random_matrix(rng, field, m, n))
        psi = space_matrix(field, random_matrix(rng, field, l, m))
        assert induced_map(expr, psi.compose(phi)) == induced_map(expr, psi).compose(
            induced_map(expr, phi)
        )
        pairs += 1
        # homogeneity: each summand scales by t^degree under t * identity
        dec = decompose(expr)
        t_identity = scaled(identity_matrix(space_labels(2), ring_t), t)
        for s in dec.summands:
            mat = induced_map(s.expr, t_identity)
            assert mat == scaled(identity_matrix(mat.row_labels, ring_t), t ** s.degree)
    _report("criterion-6 functoriality fuzz", "200 composition pairs, homogeneity formal in t")


def test_criterion_7_order_comparator():
    quotient = QuotF(ShiftF(2, split_tensor_square()), 5)
    tensor_square = TensorF((IdF(), IdF()))
    assert compare_order(quotient, tensor_square) == "lex-smaller"
    rng = random.Random(31)
    exprs = [random_functor(rng) for _ in range(10)]
    for a in exprs:
        assert compare_order(a, a) == "dims-equal"
        for b in exprs:
            if compare_order(a, b) == "lex-smaller":
                assert compare_order(b, a) == "lex-greater"
                for c in exprs:
                    if compare_order(b, c) == "lex-smaller":
                        assert compare_order(a, c) == "lex-smaller"
    _report("criterion-7 order comparator", "shifted quotient precedes the tensor square")


def test_criterion_8_dimension_identity():
    P = ShiftF(2, TensorF((IdF(), IdF())))
    dec = decompose(P)
    for n in range(1, 7):
        parts = {e: dec.part_dim(e, n) for e in dec.degrees()}
        assert parts[0] == 4
        assert parts[1] == 4 * n
        assert parts[2] == n * n
        assert dim(P, n) == 4 + 4 * n + n * (n + 1) // 2 + n * (n - 1) // 2
    # summand-wise with the split relabelling
    S = ShiftF(2, split_tensor_square())
    dec_s = decompose(S)
    for n in range(1, 7):
        dims = sorted(dim(s.expr, n) for s in dec_s.summands)
        assert dims == sorted([3, 1, 2 * n, 2 * n, n * (n + 1) // 2, n * (n - 1) // 2])
    _report("criterion-8 dimension identity", "4 + 4n + n(n+1)/2 + n(n-1)/2 for n = 1..6")


def test_criterion_9_additivity_laws():
    # golden runs
    for field in (Q, F3):
        report = run_rank_one_example(2, field, seed=1, sample_count=10)
        names = {c.name for c in report.checks if c.status == "pass"}
        assert "joint-additivity f" in names
        assert "joint-scaling f" in names
    # random dependent instances
    rng = random.Random(67)
    found = 0
    while found < 100:
        field = ALL_FIELDS[found % 4]
        ring = GradedRing(field, ["x", "y", "z"])
        W = DirectionSubspace(ring, ("x", "y"))
        f = random_poly(rng, ring, max_degree=5, max_terms=5)
        data = directional_data(f, W)
        if not data.dependent:
            continue
        found += 1
        assert joint_additivity_holds(data)
        assert joint_scaling_holds(data)
    _report("criterion-9 additivity laws", "golden runs and 100 dependent instances")
