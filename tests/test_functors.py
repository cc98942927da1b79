import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyfunctor import (
    AlgebraError,
    CharacteristicError,
    ConstF,
    ExtF,
    GradedRing,
    IdF,
    ParseError,
    QuotF,
    RingVariable,
    ShiftF,
    SumF,
    SymF,
    TenAltF,
    TenSymF,
    TensorF,
    compare_order,
    decompose,
    dim,
    dim_polynomial,
    format_functor,
    induced_map,
    normalize,
    parse_functor,
    shift_maps,
    space_matrix,
    split_tensor_square,
)
from polyfunctor import functors
from polyfunctor.cli import main
from polyfunctor.functors import basis_labels, dimension_sequence, label_vdeg
from polyfunctor.matrices import LinearMapMatrix, identity_matrix, space_labels

from conftest import F2, F3, Q, boxed_rows, random_functor, random_matrix, scaled

GOLDEN = (
    SymF(3, IdF()),
    ExtF(2, IdF()),
    TensorF((IdF(), IdF())),
    SumF((SymF(2, IdF()), IdF())),
)


# -- dimensions --------------------------------------------------------------


def test_dim_examples():
    assert dim(SymF(2, IdF()), 3) == 6
    assert dim(ExtF(2, IdF()), 1) == 0
    P = ShiftF(2, TensorF((IdF(), IdF())))
    for n in range(7):
        assert dim(P, n) == (n + 2) ** 2


def test_shift_tensor_square_summand_dims():
    P = ShiftF(2, TensorF((IdF(), IdF())))
    dec = decompose(P)
    for n in range(1, 7):
        by_degree = {e: dec.part_dim(e, n) for e in dec.degrees()}
        assert by_degree[0] == 4
        assert by_degree[1] == 4 * n
        assert by_degree[2] == n * n
    # with the symmetric/alternating relabelling the degree-2 part splits
    S = ShiftF(2, split_tensor_square())
    dec_s = decompose(S)
    for n in range(1, 7):
        dims = sorted(dim(s.expr, n) for s in dec_s.parts[2])
        assert dims == sorted((n * (n + 1) // 2, n * (n - 1) // 2))


def test_dim_consistency_against_decomposition():
    rng = random.Random(21)
    for _ in range(25):
        expr = random_functor(rng)
        dec = decompose(expr)
        for n in range(7):
            assert dim(expr, n) == sum(dim(s.expr, n) for s in dec.summands)


def test_dim_polynomial_formula():
    assert dim_polynomial(ShiftF(2, TensorF((IdF(), IdF())))).to_text() == "n^2 + 4*n + 4"


# -- decomposition ------------------------------------------------------------


def test_decompose_shifted_symmetric_cube():
    from math import comb

    for u in (1, 2, 3):
        dec = decompose(ShiftF(u, SymF(3, IdF())))
        for e in range(4):
            part = dec.parts.get(e, ())
            expected = comb(u + (3 - e) - 1, 3 - e)  # dim of the constant factor
            for n in range(1, 5):
                assert sum(dim(s.expr, n) for s in part) == expected * comb(n + e - 1, e)


def test_decompose_split_tensor_square():
    dec = decompose(split_tensor_square())
    assert len(dec.summands) == 2
    kinds = {type(s.expr) for s in dec.summands}
    assert kinds == {TenSymF, TenAltF}
    for s in dec.summands:
        assert s.degree == 2
    for n in range(6):
        assert sum(dim(s.expr, n) for s in dec.summands) == n * n


def test_decompose_constant():
    dec = decompose(ConstF(5))
    assert len(dec.summands) == 1
    assert dec.summands[0].degree == 0
    assert dim(dec.summands[0].expr, 3) == 5


def test_homogeneity_of_summands():
    # induced map at t * identity scales each part by t^e
    rng = random.Random(22)
    ring_t = GradedRing(Q, [("t", "aux", 0)])
    t = ring_t.var("t")
    for _ in range(12):
        expr = random_functor(rng)
        dec = decompose(expr)
        n = 2
        for s in dec.summands:
            t_identity = scaled(identity_matrix(space_labels(n), ring_t), t)
            mat = induced_map(s.expr, t_identity)
            expected = scaled(identity_matrix(mat.row_labels, ring_t), t ** s.degree)
            assert mat == expected


# -- induced maps ---------------------------------------------------------------


def test_induced_identity_is_identity():
    rng = random.Random(23)
    for _ in range(10):
        expr = random_functor(rng)
        n = 2
        ident = space_matrix(Q, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert induced_map(expr, ident).is_identity()


def test_exterior_square_is_minor_matrix():
    rng = random.Random(24)
    phi_rows = random_matrix(rng, Q, 3, 3)
    phi = space_matrix(Q, phi_rows)
    mat = induced_map(ExtF(2, IdF()), phi)
    assert len(mat.row_labels) == 3
    for (a, row_lab) in enumerate(mat.row_labels):
        for (b, col_lab) in enumerate(mat.col_labels):
            (i, j) = (row_lab[1][0][1], row_lab[1][1][1])
            (k, l) = (col_lab[1][0][1], col_lab[1][1][1])
            minor = phi_rows[i][k] * phi_rows[j][l] - phi_rows[i][l] * phi_rows[j][k]
            assert boxed_rows(mat)[a][b].constant_value() == minor


def test_functoriality_random_pairs():
    rng = random.Random(25)
    for field in (Q, F3):
        count = 0
        while count < 100:
            expr = random_functor(rng)
            if expr.degree() > 4:
                continue
            count += 1
            n, m, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            if field.characteristic == 2 and _mentions_split(expr):
                continue
            phi = space_matrix(field, random_matrix(rng, field, m, n))
            psi = space_matrix(field, random_matrix(rng, field, l, m))
            lhs = induced_map(expr, psi.compose(phi))
            rhs = induced_map(expr, psi).compose(induced_map(expr, phi))
            assert lhs == rhs


def _mentions_split(expr):
    if isinstance(expr, (TenSymF, TenAltF)):
        return True
    for attr in ("parts", "factors"):
        if hasattr(expr, attr):
            return any(_mentions_split(c) for c in getattr(expr, attr))
    if hasattr(expr, "inner"):
        return _mentions_split(expr.inner)
    return False


def test_degree_bound_on_symbolic_entries():
    # entries of the induced matrix have degree at most deg(P) in the
    # entries of phi, with equality on the top part
    ring = GradedRing(Q, [(f"a_{i}_{j}", "aux", 1) for i in range(2) for j in range(2)])
    labels = space_labels(2)
    phi = LinearMapMatrix(labels, labels, ring, [[ring.var(f"a_{i}_{j}") for j in range(2)] for i in range(2)])
    for expr in GOLDEN:
        mat = induced_map(expr, phi)
        d = expr.degree()
        degrees = [e.total_degree() for row in boxed_rows(mat) for e in row if e]
        assert max(degrees) == d
        assert all(deg <= d for deg in degrees)


def test_split_tensor_refused_in_characteristic_two():
    phi = space_matrix(F2, [[1, 0], [0, 1]])
    with pytest.raises(CharacteristicError):
        induced_map(TenSymF(), phi)


def test_quotient_drops_block():
    expr = QuotF(ShiftF(2, split_tensor_square()), 5)
    phi = space_matrix(Q, [[1, 2], [3, 4]])
    mat = induced_map(expr, phi)
    labels = set(mat.row_labels)
    assert all(lab[1] != 5 for lab in labels)
    # dimensions drop by the alternating part
    assert dim(expr, 3) == dim(ShiftF(2, split_tensor_square()), 3) - dim(TenAltF(), 3)


def test_quotient_index_out_of_range():
    with pytest.raises(AlgebraError):
        QuotF(TensorF((IdF(), IdF())), 3)


# -- shift maps -------------------------------------------------------------------


# shifts inside the expression: their constant leaves must not count as moving
NESTED_SHIFTS = (
    ShiftF(1, SymF(2, IdF())),
    ShiftF(2, ExtF(2, IdF())),
    SumF((ShiftF(1, TenSymF()), TensorF((IdF(), ShiftF(1, IdF()))))),
)


def test_shift_maps_golden_suite():
    for P in GOLDEN + NESTED_SHIFTS:
        for u in (1, 2):
            for n in range(1, 6):
                result = shift_maps(P, Q, u, n)
                assert result.composite_is_identity
                assert result.top_iso_check
                d = P.degree()
                assert result.top_dim_base == decompose(P).part_dim(d, n)
                assert result.top_dim_shift == result.top_dim_base


def test_shift_maps_symmetric_cube_dims():
    result = shift_maps(SymF(3, IdF()), Q, 2, 3)
    assert result.top_iso_check
    assert result.top_dim_shift == 10  # binomial(5, 3)


def test_shift_maps_constant():
    result = shift_maps(ConstF(4), Q, 2, 3)
    assert result.alpha.is_identity()
    assert result.beta.is_identity()


@pytest.mark.parametrize("field", [Q, F3])
@pytest.mark.parametrize("P", (IdF(), SymF(2, IdF()), ExtF(2, IdF()), SumF((TenSymF(), TenAltF()))))
def test_shift_maps_at_base_dimension_zero(P, field):
    # the projection onto the last 0 coordinates is 0 x u, not 0 x 0
    for u in (1, 2, 3):
        result = shift_maps(P, field, u, 0)
        assert result.beta.shape == (0, dim(P, u)) == result.alpha.shape[::-1]
        assert result.composite_is_identity
        assert result.top_iso_check


@pytest.mark.parametrize("P", (SymF(2, IdF()), TenSymF(), SumF((TenSymF(), TenAltF()))))
def test_shift_maps_top_check_fails_on_a_rank_deficient_projection(monkeypatch, P):
    # both moving coordinates of the 3-space projected onto the first of the 2-space
    monkeypatch.setattr(functors, "shift_projection", lambda field, u, n: space_matrix(field, [[0, 1, 1], [0, 0, 0]]))
    result = shift_maps(P, Q, 1, 2)
    assert not result.top_iso_check
    assert not result.composite_is_identity
    assert result.top_dim_shift == result.top_dim_base == decompose(P).part_dim(2, 2)


def test_shift_tensor_square_degree_two_part():
    P = TensorF((IdF(), IdF()))
    for n in range(1, 5):
        dec = decompose(ShiftF(2, P))
        assert dec.part_dim(2, n) == n * n == decompose(P).part_dim(2, n)


# -- the dimension-sequence order ---------------------------------------------------


def test_compare_order_examples():
    Qp = QuotF(ShiftF(2, split_tensor_square()), 5)
    P = TensorF((IdF(), IdF()))
    assert compare_order(Qp, P) == "lex-smaller"
    assert compare_order(P, P) == "dims-equal"
    # exterior square precedes symmetric square: at n = 2 dims are 1 vs 3
    assert compare_order(ExtF(2, IdF()), SymF(2, IdF())) == "lex-smaller"
    assert dimension_sequence(ExtF(2, IdF()), 2, 2) == (0, 1)
    assert dimension_sequence(SymF(2, IdF()), 2, 2) == (0, 3)


def test_compare_order_transitive_irreflexive():
    rng = random.Random(26)
    exprs = [random_functor(rng) for _ in range(10)]
    for a in exprs:
        assert compare_order(a, a) == "dims-equal"
    for a in exprs:
        for b in exprs:
            ab = compare_order(a, b)
            for c in exprs:
                if ab == "lex-smaller" and compare_order(b, c) == "lex-smaller":
                    assert compare_order(a, c) == "lex-smaller"
            if ab == "lex-smaller":
                assert compare_order(b, a) == "lex-greater"


def test_compare_higher_degree_dominates():
    # a huge low-degree part loses to any nonzero higher degree part
    A = SumF((TensorF((ConstF(100), IdF())),))
    B = SymF(2, IdF())
    assert compare_order(A, B) == "lex-smaller"


# -- grammar ------------------------------------------------------------------------


def test_functor_grammar_round_trip():
    rng = random.Random(27)
    for _ in range(30):
        expr = random_functor(rng)
        assert parse_functor(format_functor(expr)) == expr


def test_functor_grammar_examples():
    assert parse_functor("shift(2,tensor(id,id))") == ShiftF(2, TensorF((IdF(), IdF())))
    assert parse_functor("quot(sum(id,const(2)),1)") == QuotF(SumF((IdF(), ConstF(2))), 1)
    with pytest.raises(Exception):
        parse_functor("sym(2")


@pytest.mark.parametrize(
    "text, expr",
    [
        ("const(3)", ConstF(3)),
        ("id", IdF()),
        ("tsym", TenSymF()),
        ("talt", TenAltF()),
        ("sum(id,const(0),tsym)", SumF((IdF(), ConstF(0), TenSymF()))),
        ("tensor(id,talt)", TensorF((IdF(), TenAltF()))),
        ("sum(id)", SumF((IdF(),))),
        ("sym(2,id)", SymF(2, IdF())),
        ("ext(3,sum(id,id))", ExtF(3, SumF((IdF(), IdF())))),
        ("shift(2,sym(0,id))", ShiftF(2, SymF(0, IdF()))),
        ("quot(shift(1,tsym),2)", QuotF(ShiftF(1, TenSymF()), 2)),
    ],
)
def test_functor_grammar_pins_every_constructor(text, expr):
    assert parse_functor(text) == expr
    assert format_functor(expr) == text
    spaced = text.replace(",", " , ").replace("(", " ( ")
    assert parse_functor(f"  {spaced}\t") == expr


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "expected a functor constructor", 0),
        ("sym(2", "expected ,", 5),
        ("sym(x,id)", "expected an integer", 4),
        ("Sym(2,id)", "unexpected character 'S'", 0),
        ("sum(id,)", "expected a functor constructor", 7),
        ("sym(2,id) x", "unexpected token 'x'", 10),
        ("id()", "unexpected token '('", 2),
        ("const(a)", "expected an integer", 6),
        ("bogus(", "unknown constructor 'bogus'", 0),
        ("tensor(id id)", "expected )", 10),
        ("sym 2", "expected (", 4),
        # a bad character is reported where the blanks before it begin
        ("sym(2, X)", "unexpected character 'X'", 6),
    ],
)
def test_functor_grammar_pins_parse_errors(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_functor(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_functor_grammar_refuses_a_missing_summand():
    with pytest.raises(AlgebraError, match="^summand index out of range of the normalised sum$") as info:
        parse_functor("quot(id,5)")
    assert type(info.value) is AlgebraError


# -- basis labelling -----------------------------------------------------------------


def test_basis_labels_deterministic_and_degree_aware():
    expr = SymF(2, IdF())
    labels = basis_labels(expr, 2)
    assert len(labels) == 3
    assert all(label_vdeg(expr, lab, 0) == 2 for lab in labels)
    # moving degree counts indices beyond the split point
    split_counts = sorted(label_vdeg(expr, lab, 1) for lab in labels)
    assert split_counts == [0, 1, 2]


@pytest.mark.parametrize(
    "text", ["shift(1,sym(2,id))", "quot(shift(2,sum(tsym,talt)),1)", "tensor(const(2),sym(2,id))"]
)
def test_label_vdeg_is_the_torus_weight(text):
    # 1_U (+) t*1_n scales each basis vector of expr at u + n by t to its
    # torus weight, the moving degree of its label: the exponent of t in
    # its diagonal entry, on a diagonal induced map
    expr, u, n = parse_functor(text), 1, 2
    ring_t = GradedRing(Q, (RingVariable("t", "aux", 0),))
    t = ring_t.var("t")
    torus = [[(1 if a < u else t) if a == b else 0 for b in range(u + n)] for a in range(u + n)]
    m = induced_map(expr, LinearMapMatrix(space_labels(u + n), space_labels(u + n), ring_t, torus))
    weight = {}
    for (power,), (rows, cols, block) in m.slices.items():
        for i, row in zip(rows, block):
            for j, v in zip(cols, row):
                if v:
                    assert (i, j, v) == (j, i, 1)
                    weight[i] = power
    labels = basis_labels(expr, u + n)
    assert m.row_labels == labels and sorted(weight) == list(range(len(labels)))
    assert [label_vdeg(expr, lab, u) for lab in labels] == [weight[i] for i in range(len(labels))]
    assert set(weight.values()) == set(range(expr.degree() + 1))


def test_normalize_merges_constants():
    expr = TensorF((ConstF(2), ConstF(3), IdF()))
    (summand,) = normalize(expr)
    assert summand == TensorF((ConstF(6), IdF()))
    assert normalize(ConstF(0)) == ()


# -- generated expressions ---------------------------------------------------------

_LEAVES = st.one_of(
    st.just(IdF()), st.builds(ConstF, st.integers(0, 2)), st.just(TenSymF()), st.just(TenAltF())
)


def _quotients(inner):
    """quot(inner, i) for each summand index i of inner, or inner itself when
    it has no summand."""
    count = len(normalize(inner))
    return st.integers(0, count - 1).map(lambda i: QuotF(inner, i)) if count else st.just(inner)


def _constructors(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda parts: SumF(tuple(parts))),
        st.lists(children, min_size=1, max_size=2).map(lambda factors: TensorF(tuple(factors))),
        st.builds(SymF, st.integers(0, 3), children),
        st.builds(ExtF, st.integers(0, 3), children),
        st.builds(ShiftF, st.integers(0, 2), children),
        children.flatmap(_quotients),
    )


# every constructor, quotients, shifts and degenerate arguments (const(0),
# zeroth powers, powers past the inner dimension, shift by 0), of dimension
# at most 40 at every n <= 2
FUNCTORS = st.recursive(_LEAVES, _constructors, max_leaves=4).filter(
    lambda expr: all(dim(expr, n) <= 40 for n in range(3))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FUNCTORS, st.integers(0, 2), st.sampled_from((Q, F3)))
def test_generated_functor_dimensions_agree(expr, n, field):
    size = dim(expr, n)
    assert len(basis_labels(expr, n)) == size
    identity = induced_map(expr, space_matrix(field, [[int(i == j) for j in range(n)] for i in range(n)]))
    assert identity.shape == (size, size) and identity.is_identity()
    polynomials = [dim_polynomial(s.expr) for s in decompose(expr).summands]
    assert sum(poly.evaluate({"n": n}) for poly in polynomials) == size
    for argv in (("dim", "--n", str(n)), ("decompose",)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--functor", format_functor(expr)])
        assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()
