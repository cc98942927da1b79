"""Differential tests of the Groebner kernels, the induced maps, the
determinants and the Hasse derivatives against sympy as an oracle.

Our term order is sympy's ``grlex`` when every variable has weight 1, with
the ring's variables in order.  The normal form modulo an ideal does not
depend on the basis it is computed with, and an exact quotient is unique, so
both are compared term by term.  The entries of an exterior power are minors,
and the block-triangular solve returns a determinant, its Cramer numerators
and each unknown over the determinants of its blocks, so all are compared
with sympy's ``det`` (and the unknowns with its ``lu_solve``).  The entries of
a symmetric power are coefficients of products of linear forms, which sympy
multiplies out, and those of a tensor square are entries of sympy's
Kronecker product, symmetrised or antisymmetrised for its two halves.  The
elimination certificate of the rank-one example is sympy's solution of the
same linear system over the rational function field, cleared by the least
power of h.  The r-th Hasse derivative of f in the direction w is
the t^r coefficient of f(x + t*w), which sympy expands independently.
Skipped where sympy is not installed.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb, prod
from operator import le

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from polyfunctor import (  # noqa: E402
    DirectionSubspace,
    ExtF,
    FieldDescriptor,
    GradedRing,
    IdF,
    SymF,
    TenAltF,
    TenSymF,
    TensorF,
    hasse_derivative,
    induced_map,
    run_rank_one_example,
    space_matrix,
)
from polyfunctor.groebner import buchberger, divide_exact, reduce_poly  # noqa: E402
from polyfunctor.matrices import cramer_solve  # noqa: E402

from conftest import IDEALS, LARGE_IDEALS, boxed_rows, leading_item, normal_form, random_ideal, random_poly  # noqa: E402

FIELDS = ("q", "fp:32003")
ALL_IDEALS = {**IDEALS, **LARGE_IDEALS}


def _symbols(ring):
    return sympy.symbols(ring.names)


def _to_sympy(f, syms):
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        v = Fraction(c)
        term = sympy.Rational(v.numerator, v.denominator)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return expr


def _domain(field):
    """sympy options for the same ground field."""
    return {"modulus": field.characteristic} if field.characteristic else {"domain": "QQ"}


def _sympy_terms(expr, syms, field):
    """{exponents: raw value} of a sympy expression, as in GradedPoly.terms."""
    p = field.characteristic
    poly = sympy.Poly(expr, *syms, **_domain(field))
    if p:
        return {e: int(c) % p for e, c in poly.terms() if int(c) % p}
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}


def _our_terms(f):
    return dict(f.terms)


def _sympy_basis(gens, syms, field):
    exprs = [_to_sympy(g, syms) for g in gens]
    return sympy.groebner(exprs, *syms, order="grlex", **_domain(field))


@pytest.mark.parametrize("field_text", FIELDS)
@pytest.mark.parametrize("ideal", sorted(IDEALS))
def test_normal_form_matches_sympy_reduced(ideal, field_text):
    field = FieldDescriptor.parse(field_text)
    gens = IDEALS[ideal](field)
    ring = gens[0].ring
    syms = _symbols(ring)
    basis = _sympy_basis(gens, syms, field)
    rng = random.Random(f"oracle {ideal} {field_text}")
    zero_seen = False
    for trial in range(6):
        f = random_poly(rng, ring, max_degree=4, max_terms=5) if trial % 3 else ring.zero()
        for g in gens[:3]:
            f = f + g * random_poly(rng, ring, max_degree=2, max_terms=3)
        ours = normal_form(f, gens)
        _, remainder = basis.reduce(_to_sympy(f, syms))
        assert _our_terms(ours) == _sympy_terms(remainder, syms, field)
        zero_seen |= ours.is_zero()
    assert zero_seen


def _reduced_basis(basis):
    """The reduced Groebner basis of a Groebner basis, as term dicts: drop
    each element whose leading monomial another's divides (the earlier one of
    equal leading monomials stays), reduce the rest by each other, make them
    monic."""
    leads = [leading_item(g)[0] for g in basis]

    def redundant(i):
        return any(all(map(le, leads[j], leads[i])) and (leads[j] != leads[i] or j < i)
                   for j in range(len(basis)) if j != i)

    minimal = [g for i, g in enumerate(basis) if not redundant(i)]
    out = []
    for g in minimal:
        r = reduce_poly(g, [h for h in minimal if h is not g])
        out.append(_our_terms(r.mul_term((0,) * len(leads[0]), Fraction(1) / leading_item(r)[1])))
    return sorted(out, key=sorted)


def _is_one(terms):
    return terms.keys() == {(0,) * len(next(iter(terms)))}


def _sympy_reduced_basis(gens, field):
    syms = _symbols(gens[0].ring)
    basis = _sympy_basis(gens, syms, field)
    return sorted((_sympy_terms(p.as_expr() / p.LC(order="grlex"), syms, field) for p in basis.polys), key=sorted)


@pytest.mark.parametrize("field_text", FIELDS)
@pytest.mark.parametrize("ideal", sorted(ALL_IDEALS))
def test_golden_reduced_bases_match_sympy(ideal, field_text):
    field = FieldDescriptor.parse(field_text)
    gens = ALL_IDEALS[ideal](field)
    assert _reduced_basis(buchberger(gens)) == _sympy_reduced_basis(gens, field)


@pytest.mark.parametrize("field_text", FIELDS)
def test_random_reduced_bases_match_sympy(field_text):
    field = FieldDescriptor.parse(field_text)
    rng = random.Random(f"reduced basis {field_text}")
    proper = 0
    for _ in range(150):
        gens = [g for g in random_ideal(rng, field) if g]
        if gens:
            reduced = _reduced_basis(buchberger(gens))
            assert reduced == _sympy_reduced_basis(gens, field)
            proper += not any(map(_is_one, reduced))
    assert proper >= 50  # most seeded ideals are not the unit ideal


@pytest.mark.parametrize("field_text", FIELDS)
def test_divide_exact_matches_sympy_div(field_text):
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["x", "y", "z", "w"])
    syms = _symbols(ring)
    domain = _domain(field)
    rng = random.Random(f"divide {field_text}")
    exact = inexact = 0
    while exact < 10 or inexact < 10:
        g = random_poly(rng, ring, max_degree=3, max_terms=4)
        if g.is_constant():
            continue
        f = g * random_poly(rng, ring, max_degree=3, max_terms=5)
        if rng.random() < 0.5:
            f = f + random_poly(rng, ring, max_degree=4, max_terms=2)
        ours = divide_exact(f, g)
        q, r = sympy.div(
            sympy.Poly(_to_sympy(f, syms), *syms, **domain),
            sympy.Poly(_to_sympy(g, syms), *syms, **domain),
        )
        if r.is_zero:
            exact += 1
            assert ours is not None
            assert _our_terms(ours) == _sympy_terms(q.as_expr(), syms, field)
        else:
            inexact += 1
            assert ours is None


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_exterior_power_entries_are_sympy_minors(k, field_text):
    field = FieldDescriptor.parse(field_text)
    rng = random.Random(f"minors {k} {field_text}")
    # a map from the 5-space to the 4-space; non-integral entries over q
    denominators = (1, 1, 2, 3) if field.characteristic == 0 else (1,)
    entries = [[Fraction(rng.randint(-6, 6), rng.choice(denominators)) for _ in range(5)]
               for _ in range(4)]
    wedge = induced_map(ExtF(k, IdF()), space_matrix(field, entries))
    a = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in entries])
    assert boxed_rows(wedge)
    for row_label, row in zip(wedge.row_labels, boxed_rows(wedge)):
        rows = [leaf[1] for leaf in row_label[1]]
        for col_label, entry in zip(wedge.col_labels, row):
            det = a.extract(rows, [leaf[1] for leaf in col_label[1]]).det()
            # over GF(p) the integer determinant is reduced mod p
            assert entry == wedge.ring.const(Fraction(int(det.p), int(det.q)))


def _oracle_map(field, tag):
    """A seeded map from the 4-space to the 3-space (non-integral entries over
    q) and its entries as sympy Rationals."""
    rng = random.Random(f"{tag} {field}")
    denominators = (1, 1, 2, 3) if field.characteristic == 0 else (1,)
    entries = [[Fraction(rng.randint(-6, 6), rng.choice(denominators)) for _ in range(4)]
               for _ in range(3)]
    return entries, [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in entries]


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_symmetric_power_entries_are_coefficients_of_linear_forms(k, field_text):
    # the column of e_c1...e_ck is the product of the linear forms A e_ci, and
    # the entry in row e_r1...e_rk the coefficient of y_r1...y_rk in it
    field = FieldDescriptor.parse(field_text)
    entries, a = _oracle_map(field, f"sym {k}")
    power = induced_map(SymF(k, IdF()), space_matrix(field, entries))
    ys = sympy.symbols("y0:3")
    forms = [sympy.Poly(sum(a[r][c] * ys[r] for r in range(3)), *ys, domain="QQ") for c in range(4)]
    assert len(boxed_rows(power)) == comb(k + 2, k) and len(power.col_labels) == comb(k + 3, k)
    for j, col_label in enumerate(power.col_labels):
        product = sympy.Poly(1, *ys, domain="QQ")
        for leaf in col_label[1]:
            product *= forms[leaf[1]]
        for row_label, row in zip(power.row_labels, boxed_rows(power)):
            exps = [0, 0, 0]
            for leaf in row_label[1]:
                exps[leaf[1]] += 1
            coeff = product.coeff_monomial(tuple(exps))
            assert row[j] == power.ring.const(Fraction(int(coeff.p), int(coeff.q)))


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
def test_tensor_square_entries_are_kronecker_product_entries(field_text):
    field = FieldDescriptor.parse(field_text)
    entries, a = _oracle_map(field, "tensor")
    square = induced_map(TensorF((IdF(), IdF())), space_matrix(field, entries))
    kron = sympy.kronecker_product(sympy.Matrix(a), sympy.Matrix(a))
    assert len(boxed_rows(square)) == 9 and len(square.col_labels) == 16
    for row_label, row in zip(square.row_labels, boxed_rows(square)):
        r1, r2 = (leaf[1] for leaf in row_label[1])
        for col_label, entry in zip(square.col_labels, row):
            c1, c2 = (leaf[1] for leaf in col_label[1])
            value = kron[3 * r1 + r2, 4 * c1 + c2]
            assert entry == square.ring.const(Fraction(int(value.p), int(value.q)))


def _square_half(n, sign):
    """The (i, j) pairs, i <= j for sign 1 and i < j for sign -1, and the
    n^2 x pairs sympy matrix whose columns are e_i (x) e_j + sign * e_j (x) e_i,
    with e_i (x) e_i once on the diagonal."""
    pairs = [(i, j) for i in range(n) for j in range(i + (sign < 0), n)]
    half = sympy.zeros(n * n, len(pairs))
    for c, (i, j) in enumerate(pairs):
        half[n * i + j, c] += 1
        if i != j:
            half[n * j + i, c] += sign
    return pairs, half


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
@pytest.mark.parametrize("name", ("tsym", "talt"))
def test_split_square_entries_are_symmetrised_kronecker_entries(name, field_text):
    # the y (z) basis vectors are the symmetrised (antisymmetrised) e_i (x) e_j,
    # so the induced map M of A satisfies (A (x) A) S_4 = S_3 M, and M's row
    # (k, l) is the e_k (x) e_l row of (A (x) A) S_4
    functor, sign, tag = {"tsym": (TenSymF(), 1, "y"), "talt": (TenAltF(), -1, "z")}[name]
    field = FieldDescriptor.parse(field_text)
    entries, a = _oracle_map(field, name)
    half_map = induced_map(functor, space_matrix(field, entries))
    col_pairs, s_in = _square_half(4, sign)
    row_pairs, s_out = _square_half(3, sign)
    image = sympy.kronecker_product(sympy.Matrix(a), sympy.Matrix(a)) * s_in
    want = image.extract([3 * k + l for k, l in row_pairs], list(range(len(col_pairs))))
    assert s_out * want == image
    assert half_map.row_labels == tuple((tag,) + pair for pair in row_pairs)
    assert half_map.col_labels == tuple((tag,) + pair for pair in col_pairs)
    for r, row in enumerate(boxed_rows(half_map)):
        for c, entry in enumerate(row):
            value = want[r, c]
            assert entry == half_map.ring.const(Fraction(int(value.p), int(value.q)))


def _sympy_det(rows, syms, field):
    """sympy's determinant over the polynomial ring QQ[syms] or GF(p)[syms]."""
    p = field.characteristic
    domain = (sympy.GF(p) if p else sympy.QQ).poly_ring(*syms)
    entries = [[domain.from_sympy(_to_sympy(e, syms)) for e in row] for row in rows]
    return domain.to_sympy(DomainMatrix(entries, (len(rows), len(rows)), domain).det())


def _check_block_solution(solved, rows, ring, field):
    """det A, every Cramer numerator det A_j(b), and every x_j, given as a
    numerator N_j over the product D_j of the determinants of the blocks it
    depends on, against sympy's det: N_j * det A == det A_j(b) * D_j."""
    n = len(rows)
    syms = _symbols(ring)
    det = _sympy_det([row[:n] for row in rows], syms, field)
    assert not solved.det.is_zero()
    assert _our_terms(solved.det) == _sympy_terms(det, syms, field)
    assert len(solved.numerators) == len(solved.depends) == n
    for j in range(n):
        replaced = [row[:j] + [row[n]] + row[j + 1:n] for row in rows]
        det_j = _sympy_det(replaced, syms, field)
        assert _our_terms(solved.cramer_numerator(j)) == _sympy_terms(det_j, syms, field)
        blocks = prod((solved.block_dets[t] for t in solved.depends[j]), start=ring.one())
        N_j, D_j, det_A, det_Aj = (sympy.Poly(e, *syms, **_domain(field)) for e in (
            _to_sympy(solved.numerators[j], syms), _to_sympy(blocks, syms), det, det_j))
        assert (N_j * det_A - det_Aj * D_j).is_zero


def _block_sizes(solved):
    """Columns per block: a column's own block is the last of those it
    depends on, since the blocks it reaches are solved first."""
    return sorted(Counter(max(d) for d in solved.depends).values())


def _nonzero_poly(rng, ring):
    while not (f := random_poly(rng, ring, max_degree=1, max_terms=2)):
        pass
    return f


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_cramer_solve_matches_sympy(n, field_text):
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["s", "t"])
    syms = _symbols(ring)
    rng = random.Random(f"cramer {n} {field_text}")
    while True:
        rows = [[random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(n + 1)]
                for _ in range(n)]
        rows[0][0] = ring.zero()  # the first pivot needs a row swap
        if _sympy_det([row[:n] for row in rows], syms, field) != 0:
            break
    _check_block_solution(cramer_solve(rows, ring), rows, ring, field)


@pytest.mark.parametrize("field_text", ("q", "fp:101"))
def test_cramer_solve_refuses_a_singular_matrix(field_text):
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["s", "t"])
    rng = random.Random(f"singular {field_text}")
    rows = [[random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(4)] for _ in range(2)]
    rows[0][0] = ring.zero()
    combo = random_poly(rng, ring, max_degree=1, max_terms=2) + ring.var("s")
    rows.append([a * combo - b for a, b in zip(rows[0], rows[1])])  # a combination of the others
    assert _sympy_det([row[:3] for row in rows], _symbols(ring), field) == 0
    assert cramer_solve(rows, ring) is None


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
def test_cramer_solve_on_a_permuted_block_triangular_system(field_text):
    # columns {0}, {1, 2, 3}, {4}, {5}: a dense 3x3 block among 1x1 blocks,
    # every entry above the diagonal blocks filled in, the rows shuffled
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["s", "t"])
    syms = _symbols(ring)
    rng = random.Random(f"blocks {field_text}")
    block_of = (0, 1, 1, 1, 2, 3)
    while True:
        rows = [[_nonzero_poly(rng, ring) if block_of[k] >= block_of[i] else ring.zero()
                 for k in range(6)] + [random_poly(rng, ring, max_degree=1, max_terms=2)]
                for i in range(6)]
        rng.shuffle(rows)
        if _sympy_det([row[:6] for row in rows], syms, field) != 0:
            break
    solved = cramer_solve(rows, ring)
    assert _block_sizes(solved) == [1, 1, 1, 3]
    assert len(solved.depends[5]) == 1 and len(solved.depends[0]) == 4
    _check_block_solution(solved, rows, ring, field)
    # and x_j = N_j / D_j against sympy's solve over the rational function field
    K = (sympy.GF(field.characteristic) if field.characteristic else sympy.QQ).frac_field(*syms)

    def lift(f):
        return K.from_sympy(_to_sympy(f, syms))

    A = DomainMatrix([[lift(e) for e in row[:6]] for row in rows], (6, 6), K)
    x = A.lu_solve(DomainMatrix([[lift(row[6])] for row in rows], (6, 1), K))
    for j, (x_j,) in enumerate(x.rep.to_ddm()):
        blocks = prod((solved.block_dets[t] for t in solved.depends[j]), start=ring.one())
        assert not x_j * lift(blocks) - lift(solved.numerators[j])


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
def test_cramer_solve_refuses_a_structurally_singular_matrix(field_text):
    # rows 0 and 1 meet column 0 only, so no matching covers all three rows
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["s", "t"])
    rng = random.Random(f"structurally singular {field_text}")
    rows = [[_nonzero_poly(rng, ring) if i == 2 or k in (0, 3) else ring.zero() for k in range(4)]
            for i in range(3)]
    assert _sympy_det([row[:3] for row in rows], _symbols(ring), field) == 0
    assert cramer_solve(rows, ring) is None


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:101"))
def test_cramer_solve_refuses_a_singular_block(field_text):
    # columns {0, 1} form a dense 2x2 block whose second row is c times its
    # first; column 2 is a 1x1 block, solved first
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["s", "t"])
    rng = random.Random(f"singular block {field_text}")
    a, b, c = (_nonzero_poly(rng, ring) for _ in range(3))
    rows = [
        [a, b, _nonzero_poly(rng, ring), random_poly(rng, ring)],
        [c * a, c * b, _nonzero_poly(rng, ring), random_poly(rng, ring)],
        [ring.zero(), ring.zero(), _nonzero_poly(rng, ring), random_poly(rng, ring)],
    ]
    rng.shuffle(rows)
    assert _sympy_det([row[:3] for row in rows], _symbols(ring), field) == 0
    assert cramer_solve(rows, ring) is None


@pytest.mark.parametrize("field_text", ("q", "fp:101"))
def test_elimination_certificate_matches_sympy_solve(field_text, monkeypatch):
    from polyfunctor import proofstep

    field = FieldDescriptor.parse(field_text)
    eliminate, calls = proofstep.eliminate, []

    def recorded(elements, h, **kwargs):
        calls.append((elements, h, eliminate(elements, h, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(proofstep, "eliminate", recorded)
    assert run_rank_one_example(3, field, sample_count=1).all_passed()
    (elements, h, cert), = calls
    eliminated = elements[0].eliminated
    # eliminate's own rows [A | b] at the minor it took, over K(vars)
    ring, n = h.ring, len(eliminated)
    syms = _symbols(ring)
    K = (sympy.GF(field.characteristic) if field.characteristic else sympy.QQ).frac_field(*syms)

    def lift(f):
        return K.from_sympy(_to_sympy(f, syms))

    rows = [[lift(elements[i].additive_part.get(v, ring.zero())) for v in eliminated]
            + [lift(elements[i].constant_part)] for i in cert.minor_rows]
    x = DomainMatrix([row[:n] for row in rows], (n, n), K).lu_solve(
        DomainMatrix([row[n:] for row in rows], (n, 1), K))
    h = lift(h)
    assert [e.variable for e in cert.entries] == list(eliminated)
    for (x_j,), entry in zip(x.rep.to_ddm(), cert.entries):
        # numerator / h^power = x_j, for the least power that clears x_j
        assert (x_j * h**entry.h_power).denom.is_ground
        assert entry.h_power == 0 or not (x_j * h ** (entry.h_power - 1)).denom.is_ground
        numerator = K.to_sympy(x_j * h**entry.h_power)
        assert _our_terms(entry.numerator) == _sympy_terms(numerator, syms, field)


@pytest.mark.parametrize("field_text", ("q", "fp:3", "fp:5", "fp:101"))
@pytest.mark.parametrize("span", (("y",), ("x", "z"), ("x", "y", "z")))
def test_hasse_derivative_is_sympy_taylor_coefficient(span, field_text):
    field = FieldDescriptor.parse(field_text)
    ring = GradedRing(field, ["x", "y", "z"])
    W = DirectionSubspace(ring, span)
    syms = _symbols(ring)
    t = sympy.Symbol("t")
    rng = random.Random(f"hasse {span} {field_text}")
    p = field.characteristic
    above_p = 0
    for trial in range(4):
        f = random_poly(rng, ring, max_degree=7, max_terms=6)
        if not p:
            f = f * Fraction(1, 6) + random_poly(rng, ring, max_degree=3, max_terms=2)
        elif p < 7:
            f = f + ring.var(span[-1]) ** (2 * p + 1)  # orders above p survive Lucas
        coords = [Fraction(rng.choice((1, -1)) * rng.randint(1, 5), 1 if p else rng.randint(1, 3))
                  for _ in span]
        if trial == 0:
            coords[0] = Fraction(0)  # a zero coordinate; the zero direction on a line
        w = W.direction(coords)
        by_name = dict(zip(W.span_vars, w.coords))
        shift = {sym: sym + t * _to_sympy(ring.const(by_name[name]), syms)
                 for sym, name in zip(syms, ring.names) if name in by_name}
        expanded = sympy.expand(_to_sympy(f, syms).subs(shift, simultaneous=True))
        for r in range((f.total_degree() or 0) + 2):
            ours = hasse_derivative(f, w, r, W)
            assert _our_terms(ours) == _sympy_terms(expanded.coeff(t, r), syms, field)
            above_p += bool(p) and r > p and not ours.is_zero()
    if p and p < 7:
        assert above_p  # some nonzero derivative of an order above p
