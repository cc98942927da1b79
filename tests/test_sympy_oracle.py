"""Differential tests of the Groebner kernels, the induced maps, the
determinants and the Hasse derivatives against sympy as an oracle.

Our term order is sympy's ``grlex`` when every variable has weight 1, with
the ring's variables in order.  The normal form modulo an ideal does not
depend on the basis it is computed with, and an exact quotient is unique, so
both are compared term by term.  The entries of an exterior power are minors,
and the fraction-free Gauss-Jordan solve returns a determinant and its
Cramer numerators, so all are compared with sympy's ``det``.  The entries of
a symmetric power are coefficients of products of linear forms, which sympy
multiplies out, and those of a tensor square are entries of sympy's
Kronecker product.  The r-th Hasse derivative of f in the direction w is
the t^r coefficient of f(x + t*w), which sympy expands independently.
Skipped where sympy is not installed.
"""

import random
from fractions import Fraction
from math import comb

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
    TensorF,
    hasse_derivative,
    induced_map,
    normal_form,
    space_matrix,
)
from polyfunctor.groebner import divide_exact  # noqa: E402
from polyfunctor.matrices import cramer_solve  # noqa: E402

from conftest import IDEALS, random_poly  # noqa: E402

FIELDS = ("q", "fp:32003")


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
@pytest.mark.parametrize("k", (2, 3))
def test_exterior_power_entries_are_sympy_minors(k, field_text):
    field = FieldDescriptor.parse(field_text)
    rng = random.Random(f"minors {k} {field_text}")
    # a map from the 5-space to the 4-space; non-integral entries over q
    denominators = (1, 1, 2, 3) if field.characteristic == 0 else (1,)
    entries = [[Fraction(rng.randint(-6, 6), rng.choice(denominators)) for _ in range(5)]
               for _ in range(4)]
    wedge = induced_map(ExtF(k, IdF()), space_matrix(field, entries))
    a = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in entries])
    assert wedge.rows
    for row_label, row in zip(wedge.row_labels, wedge.rows):
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
@pytest.mark.parametrize("k", (2, 3))
def test_symmetric_power_entries_are_coefficients_of_linear_forms(k, field_text):
    # the column of e_c1...e_ck is the product of the linear forms A e_ci, and
    # the entry in row e_r1...e_rk the coefficient of y_r1...y_rk in it
    field = FieldDescriptor.parse(field_text)
    entries, a = _oracle_map(field, f"sym {k}")
    power = induced_map(SymF(k, IdF()), space_matrix(field, entries))
    ys = sympy.symbols("y0:3")
    forms = [sympy.Poly(sum(a[r][c] * ys[r] for r in range(3)), *ys, domain="QQ") for c in range(4)]
    assert len(power.rows) == comb(k + 2, k) and len(power.col_labels) == comb(k + 3, k)
    for j, col_label in enumerate(power.col_labels):
        product = sympy.Poly(1, *ys, domain="QQ")
        for leaf in col_label[1]:
            product *= forms[leaf[1]]
        for row_label, row in zip(power.row_labels, power.rows):
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
    assert len(square.rows) == 9 and len(square.col_labels) == 16
    for row_label, row in zip(square.row_labels, square.rows):
        r1, r2 = (leaf[1] for leaf in row_label[1])
        for col_label, entry in zip(square.col_labels, row):
            c1, c2 = (leaf[1] for leaf in col_label[1])
            value = kron[3 * r1 + r2, 4 * c1 + c2]
            assert entry == square.ring.const(Fraction(int(value.p), int(value.q)))


def _sympy_det(rows, syms, field):
    """sympy's determinant over the polynomial ring QQ[syms] or GF(p)[syms]."""
    p = field.characteristic
    domain = (sympy.GF(p) if p else sympy.QQ).poly_ring(*syms)
    entries = [[domain.from_sympy(_to_sympy(e, syms)) for e in row] for row in rows]
    return domain.to_sympy(DomainMatrix(entries, (len(rows), len(rows)), domain).det())


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
    det, numerators = cramer_solve(rows, ring)
    assert not det.is_zero()
    assert _our_terms(det) == _sympy_terms(_sympy_det([row[:n] for row in rows], syms, field), syms, field)
    assert len(numerators) == n
    for j, ours in enumerate(numerators):
        replaced = [row[:j] + [row[n]] + row[j + 1:n] for row in rows]
        assert _our_terms(ours) == _sympy_terms(_sympy_det(replaced, syms, field), syms, field)


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
