"""Induced maps and composition on scalar and polynomial entries.

The goldens are sha256 digests of printed matrices, captured before the
matrix kernels moved to raw coefficients; they pin every entry of every
induced map below byte for byte.  The remaining tests cover edge cases of
the power kernel, functoriality over a ring with variables, composition
against a direct polynomial product and against dense dot products (the
packed-row kernel's reference, with entries at its slot-width bound),
matrices of distinct coordinate variables, whose monomial slices have one
term each, the count of int products composition makes, and a guard that
induced maps and their composition never fall back to boxed arithmetic or
per-entry polynomial products, and print without boxing an entry (tests
read entries as polynomials through conftest.boxed_rows).  The golden and functoriality tests also check that
each matrix they build holds canonical slices, the ones its boxed entries
give.  The symmetric and exterior power kernel, which packs column blocks
into ints, is checked against the column-at-a-time expansion it replaced,
with entries at its slot-width bound, and on its count of int products;
over q the packed kernels leave no integral Fraction.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from polyfunctor import (
    ExtF,
    FieldDescriptor,
    GradedRing,
    IdF,
    ShiftF,
    SumF,
    SymF,
    TenAltF,
    TenSymF,
    induced_map,
    parse_functor,
    shift_maps,
    space_matrix,
)
from polyfunctor.cli import main
from polyfunctor.errors import AlgebraError
from polyfunctor.matrices import (
    LinearMapMatrix,
    base_projection,
    scalar_entry_ring,
    shift_embedding,
    shift_projection,
    space_labels,
)
from polyfunctor import functors, matrices, proofstep, rings
from polyfunctor.rings import GradedPoly, RingVariable

from conftest import (
    Q, block_diag_by_accumulation, boxed_rows, compose_by_dot_products, dense_split_square_matrix,
    induced_by_accumulation, power_matrix_by_columns, random_poly, scaled,
)

# the expressions of the benchmark's functors mix
MIX = (
    "sym(2,id)", "sym(3,id)", "sym(4,id)", "ext(2,id)", "ext(3,id)", "ext(4,id)",
    "tensor(id,id)", "tensor(id,sym(2,id))", "shift(1,sym(2,id))", "shift(2,ext(2,id))",
    "tsym", "talt", "sum(tsym,talt)", "quot(shift(2,sum(tsym,talt)),1)", "sym(2,ext(2,id))",
)
FIELDS = ("q", "fp:3", "fp:101")


def _digest(mats) -> str:
    text = "\n\n".join(str(m) for m in mats)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _scalar_phi(field, rows, cols, seed):
    """Seeded scalar matrix with zero and negative entries, and over q
    non-integral ones."""
    rng = random.Random(seed)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if field.characteristic == 0 and rng.random() < 0.3:
                row.append(Fraction(rng.randint(-5, 5), rng.randint(2, 4)))
            else:
                row.append(rng.randint(-4, 4))
        entries.append(row)
    return space_matrix(field, entries)


def _t_ring(field):
    return GradedRing(field, (RingVariable("t", "aux", 0),))


def _t_parametrised(field, u, n, seed):
    """[1_U | t*phi] over the ring in t, written out row by row."""
    ring_t = _t_ring(field)
    t = ring_t.var("t")
    phi = _scalar_phi(field, u, n, seed)
    rows = [
        [int(a == b) for b in range(u)] + [e.convert(ring_t) * t for e in row]
        for a, row in enumerate(boxed_rows(phi))
    ]
    return LinearMapMatrix(space_labels(u), space_labels(u + n), ring_t, rows)


def _affine_t(field, n, seed):
    """n x n matrix over field[t] with entries a + b*t."""
    ring_t = _t_ring(field)
    t = ring_t.var("t")
    a = _scalar_phi(field, n, n, seed)
    b = _scalar_phi(field, n, n, seed + 1)
    rows = [
        [x.convert(ring_t) + y.convert(ring_t) * t for x, y in zip(ra, rb)]
        for ra, rb in zip(boxed_rows(a), boxed_rows(b))
    ]
    return LinearMapMatrix(space_labels(n), space_labels(n), ring_t, rows)


def _golden_mats(expr_text, field_text):
    expr = parse_functor(expr_text)
    field = FieldDescriptor.parse(field_text)
    a = _scalar_phi(field, 3, 3, 1)
    b = _scalar_phi(field, 3, 3, 2)
    fa = induced_map(expr, a)
    psi = _t_parametrised(field, 2, 2, 3)
    return [
        fa,
        induced_map(expr, _scalar_phi(field, 4, 4, 4)),
        induced_map(expr, shift_embedding(field, 1, 3)),
        induced_map(expr, shift_projection(field, 2, 2)),
        induced_map(expr, psi),
        fa.compose(induced_map(expr, b)),
        induced_map(expr, psi).compose(induced_map(expr, _affine_t(field, 4, 5))),
    ]


# captured before the raw-coefficient kernels replaced the boxed ones
INDUCED_GOLDEN = {
    ('sym(2,id)', 'q'): '964df00fab7aab82b988',
    ('sym(2,id)', 'fp:3'): '1aa3f6d17aa447fcfffc',
    ('sym(2,id)', 'fp:101'): '4e7435fbcbfc40a74716',
    ('sym(3,id)', 'q'): 'af2c28cf3b3c8f8c14ae',
    ('sym(3,id)', 'fp:3'): 'bbdd4b5a4a04221f6b05',
    ('sym(3,id)', 'fp:101'): '60c4a74cca8f9eb65ea1',
    ('sym(4,id)', 'q'): 'e4cd4db41f4bf6ff8799',
    ('sym(4,id)', 'fp:3'): 'be0b396ccebf665e4fae',
    ('sym(4,id)', 'fp:101'): 'aa22ab180c05cfc6b08f',
    ('ext(2,id)', 'q'): '65bb89037b4540d49c64',
    ('ext(2,id)', 'fp:3'): '22a9aa8f2a27bf78ba59',
    ('ext(2,id)', 'fp:101'): 'e7dec78ac9f3cd42c25e',
    ('ext(3,id)', 'q'): 'c057b558b7a64e7c48fa',
    ('ext(3,id)', 'fp:3'): '24533192cb07974dc02a',
    ('ext(3,id)', 'fp:101'): '1b1e3555d1d6d4f61aec',
    ('ext(4,id)', 'q'): 'fa04503c03bd6436a38f',
    ('ext(4,id)', 'fp:3'): '1ff0e538f1c949ce28cd',
    ('ext(4,id)', 'fp:101'): '2db653c39781b8446ea7',
    ('tensor(id,id)', 'q'): '322afa7c5fe1816eb3e4',
    ('tensor(id,id)', 'fp:3'): 'ad331022c78db3f78eea',
    ('tensor(id,id)', 'fp:101'): '1cfe2d8903a501e4e286',
    ('tensor(id,sym(2,id))', 'q'): 'a5d64186d85fa1d06907',
    ('tensor(id,sym(2,id))', 'fp:3'): 'd5e2777ff7057e5011df',
    ('tensor(id,sym(2,id))', 'fp:101'): 'c5993543d16b4c3035f3',
    ('shift(1,sym(2,id))', 'q'): 'b48d7940c7bb921032cc',
    ('shift(1,sym(2,id))', 'fp:3'): 'e797cd4199ce832c3158',
    ('shift(1,sym(2,id))', 'fp:101'): 'c6b4183bb1d92fdfbdbb',
    ('shift(2,ext(2,id))', 'q'): '058e2af6ec4c6d447029',
    ('shift(2,ext(2,id))', 'fp:3'): 'c3b617f45597493249e5',
    ('shift(2,ext(2,id))', 'fp:101'): 'e4efaa0b0910061c6af8',
    ('tsym', 'q'): 'd6e2ca56c11a65b35cf5',
    ('tsym', 'fp:3'): 'b697c8a6966013c1d5f8',
    ('tsym', 'fp:101'): '2a6849c3fbc08607ca06',
    ('talt', 'q'): '416af7e08b351f5bc226',
    ('talt', 'fp:3'): 'b527e680797bfff3f7a2',
    ('talt', 'fp:101'): 'da3fd2258df3a0b5e64f',
    ('sum(tsym,talt)', 'q'): '308b825f55c551ff3d04',
    ('sum(tsym,talt)', 'fp:3'): '32f8b00417f69b39dc9c',
    ('sum(tsym,talt)', 'fp:101'): '79768c0a6116fd87cb0c',
    ('quot(shift(2,sum(tsym,talt)),1)', 'q'): '572b4c083f7fc2e2e3cf',
    ('quot(shift(2,sum(tsym,talt)),1)', 'fp:3'): 'f66db0ba0bb3009bfd21',
    ('quot(shift(2,sum(tsym,talt)),1)', 'fp:101'): '05029b6996eef0b0299c',
    ('sym(2,ext(2,id))', 'q'): '78c5874234bdb46d403c',
    ('sym(2,ext(2,id))', 'fp:3'): '5ae1df5c47bf7c369309',
    ('sym(2,ext(2,id))', 'fp:101'): '062e2c13c4a6f0561a33',
}


def _assert_canonical_slices(m):
    """Every slice of m has strictly ascending rows and columns inside m, no
    all-zero row or column and only canonical raw coefficients: over F_p
    int residues in [0, p), over q ints and non-integral Fractions; and it
    equals the slice that the public constructor makes of m's boxed
    entries."""
    p = m.ring.field.characteristic
    rebuilt = LinearMapMatrix(m.row_labels, m.col_labels, m.ring, boxed_rows(m))
    for exps, (rows, cols, block) in m.slices.items():
        assert rows and cols and rows[0] >= 0 and cols[0] >= 0
        assert rows[-1] < len(m.row_labels) and cols[-1] < len(m.col_labels)
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert len(block) == len(rows) and all(len(row) == len(cols) for row in block)
        assert all(any(row) for row in block) and all(any(col) for col in zip(*block))
        raw = [v for row in block for v in row]
        if p:
            assert all(type(v) is int and 0 <= v < p for v in raw)
        else:
            assert all(type(v) is int or type(v) is Fraction and v.denominator > 1 for v in raw)
        assert rebuilt.slices.get(exps) == (rows, cols, block)
    assert rebuilt.slices.keys() == m.slices.keys()


@pytest.mark.parametrize("field_text", FIELDS)
@pytest.mark.parametrize("expr_text", MIX)
def test_induced_map_golden(expr_text, field_text):
    mats = _golden_mats(expr_text, field_text)
    assert _digest(mats) == INDUCED_GOLDEN[(expr_text, field_text)]
    # 3 vanishes over fp:3; 1 + t makes the slices of t^k and t^(k+1) meet
    one_plus_t = 1 + _t_ring(mats[0].ring.field).var("t")
    multiples = [scaled(mats[0], 2), scaled(mats[0], 3), scaled(mats[4], one_plus_t), scaled(mats[6], one_plus_t)]
    for m in mats + multiples:
        _assert_canonical_slices(m)


# -- edge cases of the power kernel -------------------------------------------


F3 = FieldDescriptor.prime_field(3)
F101 = FieldDescriptor.prime_field(101)


def _xy_matrix(field, rows, cols, seed):
    ring = GradedRing(field, ["x", "y"])
    rng = random.Random(seed)
    entries = [[random_poly(rng, ring, max_degree=2, max_terms=2) + rng.randint(1, 4)
                for _ in range(cols)] for _ in range(rows)]
    return LinearMapMatrix(space_labels(rows), space_labels(cols), ring, entries)


def test_ext_above_dimension_has_no_rows():
    assert induced_map(ExtF(4, IdF()), _scalar_phi(Q, 3, 3, 7)).shape == (0, 0)
    wide = induced_map(ExtF(3, IdF()), _scalar_phi(Q, 2, 4, 7))  # 4-space -> 2-space
    assert wide.shape == (0, 4)
    assert wide.col_labels[0] == ("ext", (("v", 0), ("v", 1), ("v", 2)))


@pytest.mark.parametrize("phi", [_scalar_phi(Q, 3, 4, 8), _scalar_phi(F101, 4, 3, 8),
                                 _xy_matrix(Q, 3, 3, 8), _t_parametrised(F101, 2, 2, 8)])
@pytest.mark.parametrize("power_of", [SymF, ExtF])
def test_power_one_is_the_map_itself(phi, power_of):
    m = induced_map(power_of(1, IdF()), phi)
    tag = "sym" if power_of is SymF else "ext"
    assert m.row_labels == tuple((tag, (lab,)) for lab in phi.row_labels)
    assert m.col_labels == tuple((tag, (lab,)) for lab in phi.col_labels)
    assert boxed_rows(m) == boxed_rows(phi)


@pytest.mark.parametrize("field", [Q, F101])
def test_powers_of_a_one_by_one_matrix(field):
    ring = GradedRing(field, ["x", "y"])
    for c in (ring.const(Fraction(-3, 2) if field is Q else 7), ring.var("x") - 2 * ring.var("y")):
        phi = LinearMapMatrix(space_labels(1), space_labels(1), ring, [[c]])
        # k = 7 and 15 fill a count field of k.bit_length() bits to the top,
        # 8 and 16 are the smallest counts of a wider field
        for k in (*range(5), 7, 8, 15, 16):
            assert boxed_rows(induced_map(SymF(k, IdF()), phi)) == ((c ** k,),)
        assert boxed_rows(induced_map(ExtF(0, IdF()), phi)) == ((ring.one(),),)
        assert boxed_rows(induced_map(ExtF(1, IdF()), phi)) == ((c,),)
        assert induced_map(ExtF(2, IdF()), phi).shape == (0, 0)


@pytest.mark.parametrize("field", [Q, F101])
def test_powers_of_a_zero_matrix(field):
    zero = space_matrix(field, [[0] * 4 for _ in range(3)])  # 4-space -> 3-space
    for expr, shape in ((SymF(2, IdF()), (6, 10)), (SymF(3, IdF()), (10, 20)),
                        (ExtF(2, IdF()), (3, 6)), (ExtF(3, IdF()), (1, 4))):
        m = induced_map(expr, zero)
        assert m.shape == shape and m.is_zero()
    assert boxed_rows(induced_map(SymF(0, IdF()), zero)) == ((zero.ring.one(),),)


# -- functoriality over a ring with variables ---------------------------------


def _product(a, b):
    """a*b by direct polynomial arithmetic, independent of compose."""
    ring, left, right = a.ring, boxed_rows(a), boxed_rows(b)
    rows = [[sum((left[i][k] * right[k][j] for k in range(len(right))), ring.zero())
             for j in range(len(b.col_labels))] for i in range(len(left))]
    return LinearMapMatrix(a.row_labels, b.col_labels, ring, rows)


@pytest.mark.parametrize("field", [Q, FieldDescriptor.prime_field(5)])
@pytest.mark.parametrize("expr_text", ["sym(2,id)", "sym(3,id)", "ext(2,id)", "ext(3,id)",
                                       "tensor(id,sym(2,id))", "tsym", "talt",
                                       "shift(1,ext(2,id))", "sym(2,ext(2,id))",
                                       "sum(id,shift(1,id))", "quot(sum(sym(2,id),id),1)"])
def test_functoriality_with_polynomial_entries(expr_text, field):
    expr = parse_functor(expr_text)
    a = _xy_matrix(field, 3, 3, 20)
    b = _xy_matrix(field, 3, 3, 21)
    fa, fb = induced_map(expr, a), induced_map(expr, b)
    lhs, composed = induced_map(expr, _product(a, b)), fa.compose(fb)
    assert lhs == composed
    assert not lhs.is_zero()
    for m in (fa, fb, lhs, composed, scaled(fa, a.ring.var("x") - 1)):
        _assert_canonical_slices(m)


# -- composition against the direct product ------------------------------------


def _mixed_matrix(field, rows, cols, seed, zero_rows=(), zero_cols=()):
    """rows x cols over field[x, y] with entries of up to four monomials, over
    q with non-integral coefficients, and the given rows and columns zero."""
    ring = GradedRing(field, ["x", "y"])
    rng = random.Random(seed)

    def entry():
        poly = ring.zero()
        for _ in range(rng.randint(1, 4)):
            if field.characteristic:
                c = rng.randrange(1, field.characteristic)
            else:
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 3))
            poly = poly + ring.monomial((rng.randint(0, 2), rng.randint(0, 2)), c)
        return poly

    entries = [[ring.zero() if i in zero_rows or j in zero_cols else entry()
                for j in range(cols)] for i in range(rows)]
    return LinearMapMatrix(space_labels(rows), space_labels(cols), ring, entries)


@pytest.mark.parametrize("field", [Q, F3, F101])
def test_compose_matches_the_direct_product(field):
    a = _mixed_matrix(field, 2, 3, 40, zero_cols=(1,))
    b = _mixed_matrix(field, 3, 4, 41, zero_rows=(0,), zero_cols=(2,))
    composed = a.compose(b)
    assert composed == _product(a, b)
    assert composed.shape == (2, 4) and composed.row_labels == a.row_labels
    assert composed.col_labels == b.col_labels
    assert not any(row[2] for row in boxed_rows(composed))
    # several monomials survive in one entry
    assert max(len(e.terms) for row in boxed_rows(composed) for e in row) > 2
    zero_row = _mixed_matrix(field, 3, 3, 42, zero_rows=(1,))
    c = zero_row.compose(_mixed_matrix(field, 3, 2, 43))
    assert c == _product(zero_row, _mixed_matrix(field, 3, 2, 43))
    assert not any(boxed_rows(c)[1]) and any(boxed_rows(c)[0])


@pytest.mark.parametrize("field", [Q, F3, F101])
def test_compose_with_matrices_without_rows_or_columns(field):
    ext3 = ExtF(3, IdF())
    assert induced_map(ExtF(4, IdF()), _mixed_matrix(field, 3, 3, 44)).shape == (0, 0)
    no_rows = induced_map(ext3, _mixed_matrix(field, 2, 4, 45))  # 0 x 4
    square = induced_map(ext3, _mixed_matrix(field, 4, 4, 46))  # 4 x 4
    no_cols = induced_map(ext3, _mixed_matrix(field, 3, 2, 47))  # 1 x 0
    for left, right, shape in ((no_rows, square, (0, 4)), (no_cols, no_rows, (1, 4)),
                               (square, square, (4, 4))):
        composed = left.compose(right)
        assert composed.shape == shape
        assert composed == _product(left, right)
    assert no_cols.compose(no_rows).is_zero()


def test_caller_input_is_still_coerced_and_checked():
    ring = GradedRing(Q, ["x", "y"])
    labels = space_labels(2)
    m = LinearMapMatrix(labels, labels, ring, [[1, Fraction(1, 2)], [3, ring.var("x")]])
    assert boxed_rows(m) == ((ring.one(), ring.const(Fraction(1, 2))), (ring.const(3), ring.var("x")))
    foreign = GradedRing(Q, ["x"]).var("x")
    for rows, message in (([[1, 0], [0, foreign]], "foreign ring"), ([[1, 0], [0, Q.scalar(3)]], "foreign ring"),
                          ([[1, 0]], "row count"), ([[1, 0], [0]], "column count")):
        with pytest.raises(AlgebraError, match=message):
            LinearMapMatrix(labels, labels, ring, rows)


# -- matrices of distinct coordinate variables ---------------------------------


def _generic_pair(field, k):
    """Two k x k matrices of distinct coordinate variables x_ij and y_ij."""
    ring = GradedRing(field, [f"{v}{i}{j}" for v in "xy" for i in range(k) for j in range(k)])
    return [
        LinearMapMatrix(space_labels(k), space_labels(k), ring,
                        [[ring.var(f"{v}{i}{j}") for j in range(k)] for i in range(k)])
        for v in "xy"
    ]


@pytest.mark.parametrize("field", [Q, F101])
def test_generic_compose_makes_one_product_per_term_product(field, monkeypatch):
    x, y = _generic_pair(field, 4)
    products = []
    monkeypatch.setattr(matrices, "mul", lambda a, b: products.append(1) or a * b)
    composed = x.compose(y)
    # only slices that meet on an inner index are multiplied, on that index
    assert len(products) == 4 ** 3
    assert composed == _product(x, y)


@pytest.mark.parametrize("field", [Q, F101])
@pytest.mark.parametrize("expr_text", ["sym(2,id)", "ext(2,id)", "tensor(id,id)", "tsym", "talt",
                                       "sym(2,ext(2,id))", "shift(1,tensor(id,ext(2,id)))"])
def test_functoriality_on_generic_matrices(expr_text, field):
    expr = parse_functor(expr_text)
    x, y = _generic_pair(field, 3)
    fx, fy = induced_map(expr, x), induced_map(expr, y)
    lhs, composed = induced_map(expr, _product(x, y)), fx.compose(fy)
    assert lhs == composed
    assert not lhs.is_zero()
    for m in (fx, lhs, composed):
        _assert_canonical_slices(m)


@pytest.mark.parametrize("field", [Q, F101])
@pytest.mark.parametrize("d", [6, 36])
def test_dense_compose_makes_one_product_per_left_entry_and_inner_index(field, d, monkeypatch):
    rng = random.Random(d)
    a, b = (space_matrix(field, [[rng.randint(1, 9) for _ in range(d)] for _ in range(d)]) for _ in "ab")
    products = []
    monkeypatch.setattr(matrices, "mul", lambda x, y: products.append(1) or x * y)
    composed = a.compose(b)
    # one product per left entry and inner index does that entry's products with a whole row
    assert len(products) == d ** 2
    assert composed == compose_by_dot_products(a, b)


# -- composition against dense dot products -----------------------------------


def _assert_composes_as_dot_products(a, b):
    composed = a.compose(b)
    expected = compose_by_dot_products(a, b)
    assert composed.slices == expected.slices
    assert boxed_rows(composed) == boxed_rows(expected)
    _assert_canonical_slices(composed)
    return composed


def _random_scalars(field, rows, cols, seed, top):
    """rows x cols over field, a third of the entries zero, the others signed
    ints up to top in size, over q a third of them with a denominator."""
    rng = random.Random(seed)

    def entry():
        v = rng.choice((0, rng.randint(-top, top), rng.randint(-top, top)))
        return Fraction(v, rng.randint(2, 9)) if field is Q and rng.random() < 0.3 else v

    return LinearMapMatrix(space_labels(rows), space_labels(cols), scalar_entry_ring(field),
                           [[entry() for _ in range(cols)] for _ in range(rows)])


SHAPES = ((1, 1, 1), (3, 4, 2), (5, 5, 5), (7, 2, 9), (0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0))


@pytest.mark.parametrize("field", [F3, F101, FieldDescriptor.prime_field(32003), Q])
@pytest.mark.parametrize("top", [1, 100, 2 ** 70])
def test_compose_matches_dot_products_on_scalars(field, top):
    for seed, (m, k, n) in enumerate(SHAPES):
        composed = _assert_composes_as_dot_products(
            _random_scalars(field, m, k, seed, top), _random_scalars(field, k, n, seed + 50, top)
        )
        assert composed.shape == (m, n)
    a, b = _scalar_phi(field, 5, 5, 60), _scalar_phi(field, 5, 5, 61)
    for expr in (SymF(2, IdF()), ExtF(2, IdF()), parse_functor("tensor(id,sym(2,id))")):
        _assert_composes_as_dot_products(induced_map(expr, a), induced_map(expr, b))


def test_compose_matches_dot_products_on_integral_fractions():
    halves = space_matrix(Q, [[Fraction(1, 2), Fraction(3, 2)], [Fraction(-1, 2), Fraction(5, 2)]])
    evens = space_matrix(Q, [[2, 4], [6, -2]])
    integral = compose_by_dot_products(halves, evens)
    # products of fractions that are integral, which both the oracle and the
    # kernel leave as ints
    raw = [v for _, _, block in integral.slices.values() for row in block for v in row]
    assert raw and all(type(v) is int for v in raw)
    assert _assert_composes_as_dot_products(halves, evens) == integral
    for a, b in ((integral, halves), (halves, integral), (integral, integral), (integral, evens)):
        _assert_composes_as_dot_products(a, b)


@pytest.mark.parametrize("field", [Q, F3, F101])
def test_compose_matches_dot_products_on_polynomial_entries(field):
    ring = _t_ring(field)
    rng = random.Random(70)

    def entry():
        poly = ring.zero()
        for _ in range(rng.randint(0, 3)):
            c = rng.choice((-1, 1)) * rng.randint(1, 2 ** 66)
            poly = poly + ring.monomial((rng.randint(0, 3),), Fraction(c, rng.randint(1, 4)) if field is Q else c)
        return poly

    slice_counts = []
    for m, k, n in SHAPES:
        a, b = (LinearMapMatrix(space_labels(r), space_labels(c), ring,
                                [[entry() for _ in range(c)] for _ in range(r)]) for r, c in ((m, k), (k, n)))
        _assert_composes_as_dot_products(a, b)
        slice_counts += [len(a.slices), len(b.slices)]
    # every power of t up to t^3 has its slice
    assert max(slice_counts) == 4
    x, y = _mixed_matrix(field, 3, 4, 71, zero_cols=(1,)), _mixed_matrix(field, 4, 3, 72, zero_rows=(2,))
    _assert_composes_as_dot_products(x, y)
    _assert_composes_as_dot_products(y, x)


@pytest.mark.parametrize("field", [F3, F101, FieldDescriptor.prime_field(32003), Q])
def test_compose_matches_dot_products_at_the_slot_bound(field):
    # every entry at the largest size its field allows, on every power of t
    # up to t^3, so each output entry sums the largest products of 4 pairs
    ring = _t_ring(field)
    t = ring.var("t")
    top = field.characteristic - 1 if field.characteristic else 2 ** 70
    for left, right in ((top, top), (top, -top), (-top, -top)):
        for k in (1, 5, 36):
            a, b = (LinearMapMatrix(space_labels(r), space_labels(c), ring,
                                    [[v * (1 + t + t ** 2 + t ** 3)] * c for _ in range(r)])
                    for v, (r, c) in ((left, (3, k)), (right, (k, 2))))
            _assert_composes_as_dot_products(a, b)


@pytest.mark.parametrize("field", [Q, F3])
@pytest.mark.parametrize("expr_text", ["id", "sym(2,id)", "ext(2,id)", "sum(tsym,talt)", "tensor(id,sym(2,id))"])
def test_compose_matches_dot_products_on_shift_maps(expr_text, field):
    expr = parse_functor(expr_text)
    for u, n in ((1, 0), (2, 0), (1, 2), (2, 3)):
        maps = shift_maps(expr, field, u, n)
        assert _assert_composes_as_dot_products(maps.beta, maps.alpha).is_identity()
        _assert_composes_as_dot_products(maps.alpha, maps.beta)


# -- structural guard: induced maps never use boxed products ------------------


def _count_products(monkeypatch):
    """Counters of boxed GradedPoly products and of the ring kernel's
    polynomial product, wherever the kernels would look it up."""
    calls = {GradedPoly: 0, "_raw_mul_into": 0}

    def counting(key, method):
        def wrapper(*args):
            calls[key] += 1
            return method(*args)
        return wrapper

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(GradedPoly, name, counting(GradedPoly, getattr(GradedPoly, name)))
    raw_mul = counting("_raw_mul_into", rings._raw_mul_into)
    for module in (rings, matrices, functors):
        monkeypatch.setattr(module, "_raw_mul_into", raw_mul, raising=False)
    return calls


@pytest.mark.parametrize("field", [Q, F101])
def test_scalar_compose_makes_no_boxed_products(field, monkeypatch, scalar_calls):
    a = _scalar_phi(field, 5, 5, 30)
    b = _scalar_phi(field, 5, 5, 31)
    calls = _count_products(monkeypatch)
    expr = SymF(3, IdF())
    composed = induced_map(expr, a).compose(induced_map(expr, b))
    assert calls == {GradedPoly: 0, "_raw_mul_into": 0} and scalar_calls == []
    assert composed.shape == (35, 35) and not composed.is_zero()
    # the counters see boxed products
    a.ring.one() * a.ring.one()
    assert calls == {GradedPoly: 1, "_raw_mul_into": 1}


@pytest.mark.parametrize("field", [Q, F101])
@pytest.mark.parametrize("expr_text", ["sym(3,id)", "ext(2,id)", "ext(3,id)", "tensor(id,id)",
                                       "tensor(id,sym(2,id))", "tsym", "talt"])
def test_induced_map_makes_no_boxed_products(expr_text, field, monkeypatch, scalar_calls):
    expr = parse_functor(expr_text)
    maps = (_scalar_phi(field, 4, 4, 32), _t_parametrised(field, 3, 2, 33))
    calls = _count_products(monkeypatch)
    for phi in maps:
        induced = induced_map(expr, phi)
        assert not induced.is_zero()
    assert calls == {GradedPoly: 0, "_raw_mul_into": 0} and scalar_calls == []


def _count_boxes(monkeypatch):
    """Counter of GradedPoly constructions, the boxing of matrix entries."""
    calls = {GradedPoly: 0}
    init = GradedPoly.__init__

    def counting(self, *args, **kwargs):
        calls[GradedPoly] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedPoly, "__init__", counting)
    return calls


@pytest.mark.parametrize("field", [Q, F101])
@pytest.mark.parametrize("expr_text", ["sym(2,id)", "ext(2,id)", "tensor(id,sym(2,id))", "tsym",
                                       "talt", "const(2)", "shift(1,sym(2,id))",
                                       "sum(id,shift(1,id))", "quot(sum(sym(2,id),id),1)"])
def test_matrices_box_entries_only_when_rows_are_read(expr_text, field, monkeypatch):
    expr = parse_functor(expr_text)
    pairs = ((_scalar_phi(field, 3, 3, 34), _scalar_phi(field, 3, 3, 35)),
             (_t_parametrised(field, 2, 1, 36), _affine_t(field, 3, 37)))
    calls = _count_boxes(monkeypatch)
    composed = []
    for a, b in pairs:
        fa, fb = induced_map(expr, a), induced_map(expr, b)
        composed.append(fa.compose(fb))
        assert composed[-1] == fa.compose(fb) and fa == induced_map(expr, a)
    assert calls == {GradedPoly: 0}


def _printed(m) -> str:
    """The text of m as its entries boxed as polynomials print it."""
    lines = [f"rows: {list(m.row_labels)}", f"cols: {list(m.col_labels)}"]
    return "\n".join(lines + ["[" + ", ".join(map(str, row)) + "]" for row in boxed_rows(m)])


@pytest.mark.parametrize("field", [Q, F101])
def test_matrices_print_their_entries_without_boxing_them(field, monkeypatch):
    # str and the induce JSON render each entry's raw terms from the slices,
    # as the boxed entries print, and build no GradedPoly
    ring = GradedRing(field, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    phi = LinearMapMatrix(space_labels(2), space_labels(3), ring,
                          [[x - 1, Fraction(1, 2), -y], [3 * x * y, 0, y**2 - x]])
    scalar = space_matrix(field, [[1, Fraction(-2, 3), 0], [4, -1, 5], [0, 2, Fraction(7, 2)]])
    maps = [induced_map(SymF(3, IdF()), phi), induced_map(parse_functor("sum(id,talt,sym(2,id))"), scalar)]
    want = [_printed(m) for m in maps]
    calls = _count_boxes(monkeypatch)
    assert [str(m) for m in maps] == want
    assert calls == {GradedPoly: 0}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for fmt in ("text", "json"):
            assert main(["induce", "--functor", "sym(4,id)", "--field", str(field),
                         "--phi", "1,2,3,4;5,6,7,8;1,0,1/2,0;2,3,4,5", "--format", fmt]) == 0
    text, _, doc = out.getvalue().partition("{")
    entries = json.loads("{" + doc)["entries"]
    assert len(entries) == 35 and ["[" + ", ".join(row) + "]" for row in entries] == text.splitlines()[2:]
    assert calls == {GradedPoly: 0}


# -- the split-square kernel against the dense oracle -------------------------


def _permutation(field, n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return space_matrix(field, [[int(j == order[i]) for j in range(n)] for i in range(n)])


def _with_zero_lines(field, seed):
    """4 x 5 scalar matrix whose row 1 and columns 0 and 3 are zero."""
    rows = [[0 if i == 1 or j in (0, 3) else e for j, e in enumerate(row)]
            for i, row in enumerate(boxed_rows(_scalar_phi(field, 4, 5, seed)))]
    return LinearMapMatrix(space_labels(4), space_labels(5), rows[0][1].ring, rows)


def _split_inputs(field):
    u, n = 2, 3
    phi = _scalar_phi(field, u, n, 6)
    widened = [[int(a == b) for b in range(u)] + [0] * n for a in range(u)]
    widened += [[0] * u + [e.constant_value() for e in row] for row in boxed_rows(phi)]
    return {
        "permutation": _permutation(field, 5, 1),
        "negated permutation": scaled(_permutation(field, 4, 2), -1),
        "pair projection": space_matrix(field, [[0, 1, 0, 0], [0, 0, 0, 1]]),
        "coordinate embedding": shift_embedding(field, 2, 3),
        "1_U + phi": space_matrix(field, widened),
        "zero rows and columns": _with_zero_lines(field, 7),
        "zero matrix": space_matrix(field, [[0] * 3] * 3),
        "no rows": LinearMapMatrix((), space_labels(3), _t_ring(field), ()),
        "[1_U | t*phi]": _t_parametrised(field, 2, 4, 8),
        "a + b*t": _affine_t(field, 4, 9),
        "polynomial entries": _xy_matrix(field, 3, 4, 10),
    }


@pytest.mark.parametrize("field", [Q, F3, F101])
@pytest.mark.parametrize("alternating", [False, True])
def test_split_square_kernel_matches_the_dense_oracle(field, alternating):
    for name, phi in _split_inputs(field).items():
        kernel = functors._split_square_matrix(phi, alternating)
        assert kernel == dense_split_square_matrix(phi, alternating), name
        _assert_canonical_slices(kernel)


# -- the power kernel against the column oracle --------------------------------


POWER_FIELDS = (Q, FieldDescriptor.prime_field(2), F3, F101, FieldDescriptor.prime_field(32003))
# with no rows, no columns, one row (every slot at its bound when the entries are), and m != n
POWER_SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 4), (4, 2), (3, 3), (4, 4))


def _assert_powers_as_the_oracle(phi, power, alternating):
    kernel = functors._power_matrix(phi, power, alternating)
    expected = power_matrix_by_columns(phi, power, alternating)
    assert kernel.row_labels == expected.row_labels
    assert kernel.col_labels == expected.col_labels
    assert kernel.slices == expected.slices
    _assert_canonical_slices(kernel)


def _power_inputs(field):
    """name -> seeded map: scalars of every shape up to three sizes (signed,
    over q a third of them fractions), entries in x and y, and the
    t-parametrised [1_U | t*phi] and a + b*t."""
    inputs = {}
    for seed, (m, n) in enumerate(POWER_SHAPES):
        for top in (1, 100, 2 ** 70):
            inputs[f"{m} x {n} scalars up to {top}"] = _random_scalars(field, m, n, seed, top)
    inputs["x, y entries"] = _xy_matrix(field, 3, 4, 80)
    inputs["x, y entries, a zero row and column"] = _mixed_matrix(field, 4, 3, 81, zero_rows=(1,), zero_cols=(2,))
    inputs["[1_U | t*phi]"] = _t_parametrised(field, 2, 3, 82)
    inputs["a + b*t"] = _affine_t(field, 3, 83)
    return inputs


@pytest.mark.parametrize("field", POWER_FIELDS, ids=str)
@pytest.mark.parametrize("alternating", [False, True])
def test_power_kernel_matches_the_column_oracle(field, alternating):
    for name, phi in _power_inputs(field).items():
        for power in range(6 if len(phi.row_labels) * len(phi.col_labels) <= 16 else 4):
            try:
                _assert_powers_as_the_oracle(phi, power, alternating)
            except AssertionError as exc:
                raise AssertionError(f"{name}, power {power}: {exc}") from None


@pytest.mark.parametrize("field", POWER_FIELDS, ids=str)
@pytest.mark.parametrize("alternating", [False, True])
def test_power_kernel_matches_the_column_oracle_at_the_slot_bound(field, alternating):
    # every entry at the largest size its field allows (p - 1, or +-2^70
    # over q, in one sign or a checkerboard of both), on one power of t up
    # to t^3 or on all four at once; a one-row map fills each slot to the
    # bound that sets its width
    ring = _t_ring(field)
    t = ring.var("t")
    top = field.characteristic - 1 if field.characteristic else 2 ** 70
    signs = (lambda i, j: 1,) if field.characteristic else (lambda i, j: 1, lambda i, j: -1,
                                                           lambda i, j: (-1) ** (i + j))
    for factor in (ring.one(), t, t ** 3, 1 + t + t ** 2 + t ** 3):
        for sign in signs:
            for m, n in ((1, 1), (1, 4), (2, 3), (3, 3)):
                phi = LinearMapMatrix(space_labels(m), space_labels(n), ring,
                                      [[sign(i, j) * top * factor for j in range(n)] for i in range(m)])
                for power in range(5):
                    _assert_powers_as_the_oracle(phi, power, alternating)


@pytest.mark.parametrize("field", [Q, F101])
# an exterior step skips the rows its key holds and the columns that extend no
# tuple or leave too few columns above them
@pytest.mark.parametrize("expr_text, n, products", [("sym(2,id)", 6, 252), ("sym(4,id)", 4, 560),
                                                     ("ext(2,id)", 6, 180), ("ext(3,id)", 6, 384),
                                                     ("ext(4,id)", 4, 32)])
def test_dense_power_makes_at_most_one_product_per_key_row_and_column(expr_text, n, products, field, monkeypatch):
    expr = parse_functor(expr_text)
    rng = random.Random(n)
    a = space_matrix(field, [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
    counted = []
    monkeypatch.setattr(functors, "mul", lambda x, y: counted.append(1) or x * y)
    induced = induced_map(expr, a)
    # the row keys below the top level: the multisets, or sets, of fewer than power rows
    below_top = sum(comb(n, d) if isinstance(expr, ExtF) else comb(n + d - 1, d) for d in range(expr.power))
    assert len(counted) == products <= below_top * n * n
    assert induced == power_matrix_by_columns(a, expr.power, isinstance(expr, ExtF))


def test_packed_kernels_leave_no_integral_fraction_over_q():
    a = space_matrix(Q, [[Fraction(1, 2), 3, Fraction(-3, 2)], [2, Fraction(1, 3), Fraction(3, 2)],
                         [Fraction(4, 3), 0, 1]])
    b = space_matrix(Q, [[Fraction(2, 3), 1, 0], [Fraction(-1, 2), 4, Fraction(1, 2)], [3, Fraction(3, 2), 1]])
    sym2, sym3 = SymF(2, IdF()), SymF(3, IdF())
    results = [a.compose(b), induced_map(sym2, a), induced_map(sym3, a),
               induced_map(sym2, a).compose(induced_map(sym2, b)), induced_map(ExtF(2, IdF()), a)]
    for m in results:
        raw = [v for _, _, block in m.slices.values() for row in block for v in row]
        # a fraction survives where the entry is one, and every integral entry is an int
        assert any(type(v) is Fraction for v in raw) and any(type(v) is int and v for v in raw)
        assert [v for v in raw if type(v) is Fraction and v.denominator == 1] == []
        assert all(type(c) is int or c.denominator > 1 for row in boxed_rows(m) for e in row for c in e.terms.values())



# -- sums, quotients and shifts placed from canonical blocks ------------------


# the mix, direct sums with an empty quotient (a 0 x 0 block) and constants,
# and shifts of sums, of quotients and of the identity itself
PLACED = MIX + (
    "sum(id,quot(id,0),talt)", "quot(id,0)", "shift(2,sum(tsym,talt))", "shift(3,quot(shift(2,sum(tsym,talt)),1))",
    "sum(const(2),id,tsym)", "shift(1,sum(id,const(1),sym(2,id)))", "sum(shift(1,id),tensor(id,talt))", "shift(2,id)",
)


def _placement_inputs(field):
    """The split-square inputs and the maps of shift-check at base dimension
    0: the embedding of the 0-space and the projection onto it, and the maps
    with no rows or no columns."""
    ring = scalar_entry_ring(field)
    inputs = _split_inputs(field)
    inputs.update({
        "0 x 0": LinearMapMatrix((), (), ring, ()),
        "2 x 0": LinearMapMatrix(space_labels(2), (), ring, [[], []]),
        "embedding of the 0-space": shift_embedding(field, 2, 0),
        "projection onto the 0-space": shift_projection(field, 2, 0),
    })
    return inputs


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_sums_quotients_and_shifts_place_as_the_accumulating_oracle(field):
    for name, phi in _placement_inputs(field).items():
        for text in PLACED:
            expr = parse_functor(text)
            placed = induced_map(expr, phi)
            assert placed == induced_by_accumulation(expr, phi), (name, text)
            _assert_canonical_slices(placed)


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_block_diag_of_blocks_with_different_monomials(field):
    # blocks with x, y^2 and 1, with no slice at all, with x*y and x, and with
    # no rows or no columns, summed in every order
    ring = GradedRing(field, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    blocks = [
        LinearMapMatrix(space_labels(2), space_labels(3), ring, [[x, 0, 1], [0, y**2, 0]]),
        LinearMapMatrix(space_labels(1), space_labels(1), ring, [[0]]),
        LinearMapMatrix(space_labels(2), space_labels(2), ring, [[x * y, Fraction(1, 2) * x], [3, -(y**2)]]),
        LinearMapMatrix((), space_labels(2), ring, ()),
        LinearMapMatrix(space_labels(1), (), ring, [[]]),
    ]
    for order in itertools.permutations(range(len(blocks))):
        chosen = [blocks[i] for i in order]
        expected = block_diag_by_accumulation(chosen, order)
        placed = matrices._block_diagonal([(b.slices, *b.shape) for b in chosen])
        assert placed == expected.slices, order
        _assert_canonical_slices(matrices._from_slices(expected.row_labels, expected.col_labels, ring, placed))


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_projection_coefficients_place_as_the_accumulating_oracle(field):
    # the t-entries of [1_U | t*phi], the base projection and [0 | phi], on
    # parts of degree 0, 1 and 2
    model_u = proofstep.CoordinateModel(parse_functor("sum(const(1),id,tsym,talt)"), field, 2)
    ring_t = _t_ring(field)
    t = ring_t.var("t")
    for entries in ([[1, 2, 0], [0, 1, -1]], [[0, 1, 0, 0], [0, 0, 0, 1]], [[3, 1, 2, 0], [1, 0, 1, 2]]):
        phi = space_matrix(field, entries)
        u, n = phi.shape[0], phi.shape[1]
        full, base, top = proofstep.projection_coefficients(model_u, n, phi)
        rows = [[int(a == b) for b in range(u)] + [e.convert(ring_t) * t for e in row]
                for a, row in enumerate(boxed_rows(phi))]
        parametrised = LinearMapMatrix(space_labels(u), space_labels(u + n), ring_t, rows)
        assert full == induced_by_accumulation(model_u.normalized, parametrised)
        assert base == induced_by_accumulation(model_u.normalized, base_projection(field, u, n))
        zero_phi = LinearMapMatrix(space_labels(u), space_labels(u + n), scalar_entry_ring(field),
                                   [[0] * u + list(row) for row in boxed_rows(phi)])
        assert top == induced_by_accumulation(model_u.normalized, zero_phi)
        _assert_canonical_slices(full)


def test_per_phi_shift_maps_reduce_only_the_tensor_square_halves(monkeypatch):
    # in the worked example at n = 8, each of the 28 per-phi maps of
    # shift(2, sum(tsym, talt)) reduces an accumulator only in its two halves
    # of the tensor square: the widening 1_U (+) phi and the direct sum are
    # placed from canonical blocks
    reduced = []  # per reduction, the function that asked for it
    slices = matrices._SliceSum.slices

    def recording_slices(self, *args):
        frame = sys._getframe(1)
        reduced.append((frame.f_back if frame.f_code.co_name == "matrix" else frame).f_code.co_name)
        return slices(self, *args)

    per_phi = []

    def recording_induced_map(expr, phi):
        start = len(reduced)
        m = induced_map(expr, phi)
        if isinstance(expr, ShiftF):
            assert expr == ShiftF(2, SumF((TenSymF(), TenAltF())))
            per_phi.append(reduced[start:])
        return m

    monkeypatch.setattr(matrices._SliceSum, "slices", recording_slices)
    monkeypatch.setattr(proofstep, "induced_map", recording_induced_map)
    assert proofstep.run_rank_one_example(8, F101).all_passed()
    assert per_phi == [["_split_square_matrix"] * 2] * 28


def test_matrices_render_one_row_at_a_time(monkeypatch):
    m = induced_map(SymF(3, IdF()), _xy_matrix(F101, 3, 3, 95))
    printed = _printed(m).splitlines()[2:]
    rendered = []
    render = GradedRing.render
    monkeypatch.setattr(GradedRing, "render", lambda self, terms: rendered.append(terms) or render(self, terms))
    rows = m.entry_texts()
    first = next(rows)
    assert len(rendered) == len(first) == len(m.col_labels) == 10
    assert "[" + ", ".join(first) + "]" == printed[0]
    # a row's terms are read from the slices only when that row is rendered:
    # row 1, rewritten in place after row 0 is out, prints as rewritten
    for at, _, block in m.slices.values():
        if 1 in at:
            block[at.index(1)][:] = [1] * len(block[0])
    rewritten = _printed(m).splitlines()[2:]
    assert rewritten[1] != printed[1]
    assert ["[" + ", ".join(row) + "]" for row in rows] == rewritten[1:]


def test_tensor_square_bases_are_built_once_per_shape():
    functors._split_basis.cache_clear()
    for phi in (space_matrix(F101, [[0, 1, 0, 0], [0, 0, 0, 1]]), space_matrix(F101, [[1, 0, 0, 0], [0, 0, 1, 0]])):
        induced_map(parse_functor("sum(tsym,talt)"), phi)
    info = functors._split_basis.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 2, 64)


@pytest.mark.parametrize("field", [Q, F3, F101], ids=str)
def test_every_matrix_of_an_induced_map_holds_canonical_slices(field, monkeypatch):
    # every matrix that sum, quot, shift, tsym, talt, sym and ext build on
    # scalar and t-polynomial maps, down to the inner ones, as _set receives it
    phis = [_scalar_phi(field, 3, 4, 90), _scalar_phi(field, 2, 2, 91), space_matrix(field, [[0, 1, 0, 0], [0, 0, 0, 1]]),
            _t_parametrised(field, 2, 3, 92), _affine_t(field, 3, 93), scaled(_affine_t(field, 2, 94), 3)]
    built = []
    set_ = LinearMapMatrix._set

    def recording_set(self, *args):
        set_(self, *args)
        built.append(self)

    monkeypatch.setattr(LinearMapMatrix, "_set", recording_set)
    for text in ("sum(id,tsym,talt)", "quot(shift(2,sum(tsym,talt)),1)", "shift(2,sum(tsym,talt))",
                 "sum(const(1),quot(id,0),sym(2,id))", "shift(1,ext(3,id))", "sym(3,id)", "ext(2,id)"):
        for phi in phis:
            induced_map(parse_functor(text), phi)
    monkeypatch.undo()
    assert len(built) >= 7 * len(phis) * 3
    for m in built:
        _assert_canonical_slices(m)
