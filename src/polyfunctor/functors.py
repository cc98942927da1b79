"""Finite-degree polynomial functors as syntax trees.

Expressions are built from a constant space, the identity, direct sums,
tensor products, symmetric and exterior powers, a shift by a constant space,
quotient by one summand of the normalised direct-sum form, and the two
halves of the symmetric/alternating splitting of the tensor square (a
built-in relabelling that is refused in characteristic 2).

Every expression normalises to a direct sum of homogeneous summands, where
summand multiplicities are carried as constant tensor factors so induced
maps stay uniform; one formula (_power_dim) gives the dimension of a power
to dim and to normalisation, and one rule (label_vdeg) the moving degree
of a basis label.  Bases are explicit and deterministic: symmetric powers
use sorted multisets, exterior powers strictly increasing index tuples,
tensor products row-major composite indices; matrices of induced maps carry
these labels so every entry is auditable.  Induced maps work on the monomial
slices of matrices.py: a tensor product is their Kronecker product, a half
of the tensor square their symmetrised product; sums, quotients and the
widening 1_U (+) phi of a shift place canonical blocks on the diagonal.
One kernel serves symmetric and exterior powers, so an exterior power's
minors need no determinant; it packs the column tuples of each row key
into one int (see _power_matrix), on bases built once per labels, power and
kind in a bounded cache.  The halves of the tensor square keep their own
kernel, which multiplies only nonzero entries (pair bases cached per
shape): the per-phi maps of a proof step are sparse, and the power kernel
decodes every row in full.  Over q
the kernels that multiply entries use the int blocks of matrices._integral.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import defaultdict
from math import comb, prod
from operator import add, mul

from .errors import AlgebraError, CharacteristicError, Record
from .fields import FieldDescriptor, _q_raw
from .matrices import (
    LinearMapMatrix,
    _block_diagonal,
    _from_slices,
    _integral,
    _SliceSum,
    _top,
    identity_matrix,
    matrix_rank,
    shift_embedding,
    shift_projection,
    space_labels,
    widening,
)
from .parsing import _Parser
from .rings import GradedPoly, GradedRing

# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class FunctorExpr(Record, frozen=True):
    """Base class; all concrete expressions are frozen records."""

    def degree(self) -> int:
        raise NotImplementedError

    def __str__(self):
        return format_functor(self)


class ConstF(FunctorExpr):
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise AlgebraError("constant space dimension must be nonnegative")

    def degree(self):
        return 0


class IdF(FunctorExpr):
    def degree(self):
        return 1


class SumF(FunctorExpr):
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise AlgebraError("empty direct sum")

    def degree(self):
        return max(p.degree() for p in self.parts)


class TensorF(FunctorExpr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise AlgebraError("empty tensor product")

    def degree(self):
        return sum(f.degree() for f in self.factors)


class SymF(FunctorExpr):
    power: int
    inner: FunctorExpr

    def __post_init__(self):
        if self.power < 0:
            raise AlgebraError("symmetric power must be nonnegative")

    def degree(self):
        return self.power * self.inner.degree()


class ExtF(FunctorExpr):
    power: int
    inner: FunctorExpr

    def __post_init__(self):
        if self.power < 0:
            raise AlgebraError("exterior power must be nonnegative")

    def degree(self):
        return self.power * self.inner.degree()


class ShiftF(FunctorExpr):
    by: int
    inner: FunctorExpr

    def __post_init__(self):
        if self.by < 0:
            raise AlgebraError("shift dimension must be nonnegative")

    def degree(self):
        return self.inner.degree()


class QuotF(FunctorExpr):
    inner: FunctorExpr
    drop_index: int

    def __post_init__(self):
        if self.drop_index < 0:
            raise AlgebraError("summand index must be nonnegative")
        if self.drop_index >= len(normalize(self.inner)):
            raise AlgebraError("summand index out of range of the normalised sum")

    def degree(self):
        kept = self.kept_summands()
        return max((s.degree() for s in kept), default=0)

    def kept(self) -> list:
        """(index, summand) pairs of the normalised inner sum but the dropped one."""
        return [(i, s) for i, s in enumerate(normalize(self.inner)) if i != self.drop_index]

    def kept_summands(self):
        return tuple(s for _, s in self.kept())


class TenSymF(FunctorExpr):
    """Symmetric half of the tensor square, coordinates y_i_j with i <= j."""

    def degree(self):
        return 2


class TenAltF(FunctorExpr):
    """Alternating half of the tensor square, coordinates z_i_j with i < j."""

    def degree(self):
        return 2


def split_tensor_square() -> FunctorExpr:
    """The tensor square presented as symmetric plus alternating part."""
    return SumF((TenSymF(), TenAltF()))


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------


def dim(expr: FunctorExpr, n: int) -> int:
    """Dimension of the value of the functor on an n-dimensional space."""
    if n < 0:
        raise AlgebraError("dimension must be nonnegative")
    if isinstance(expr, ConstF):
        return expr.size
    if isinstance(expr, IdF):
        return n
    if isinstance(expr, TenSymF):
        return n * (n + 1) // 2
    if isinstance(expr, TenAltF):
        return n * (n - 1) // 2
    if isinstance(expr, SumF):
        return sum(dim(p, n) for p in expr.parts)
    if isinstance(expr, TensorF):
        return prod(dim(f, n) for f in expr.factors)
    if isinstance(expr, (SymF, ExtF)):
        return _power_dim(dim(expr.inner, n), expr.power, isinstance(expr, ExtF))
    if isinstance(expr, ShiftF):
        return dim(expr.inner, n + expr.by)
    if isinstance(expr, QuotF):
        return sum(dim(s, n) for s in expr.kept_summands())
    raise AlgebraError(f"unknown expression {expr!r}")


def _power_dim(size: int, power: int, alternating: bool) -> int:
    """Dimension of the exterior (alternating) or symmetric power of a
    space of the given size; S^0 of a zero space is the line of constants."""
    return comb(size, power) if alternating else comb(max(size + power - 1, 0), power)


# ---------------------------------------------------------------------------
# normalisation into homogeneous summands
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    """All tuples of nonnegative integers of the given length summing to
    total, first coordinate descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _tensor_combine(factors) -> FunctorExpr | None:
    flat = []
    const = 1
    for f in factors:
        if isinstance(f, TensorF):
            items = f.factors
        else:
            items = (f,)
        for item in items:
            if isinstance(item, ConstF):
                const *= item.size
            else:
                flat.append(item)
    if const == 0:
        return None
    if not flat:
        return ConstF(const)
    if const != 1:
        flat = [ConstF(const)] + flat
    if len(flat) == 1:
        return flat[0]
    return TensorF(tuple(flat))


def _power_atom(power: int, summand: FunctorExpr, alternating: bool) -> FunctorExpr:
    if power == 0:
        return ConstF(1)
    if isinstance(summand, ConstF):
        return ConstF(_power_dim(summand.size, power, alternating))
    if power == 1:
        return summand
    return (ExtF if alternating else SymF)(power, summand)


def _shift_inward(u: int, expr: FunctorExpr) -> FunctorExpr:
    if u == 0:
        return expr
    if isinstance(expr, ConstF):
        return expr
    if isinstance(expr, IdF):
        return SumF((ConstF(u), IdF()))
    if isinstance(expr, TenSymF):
        return SumF((ConstF(u * (u + 1) // 2), TensorF((ConstF(u), IdF())), TenSymF()))
    if isinstance(expr, TenAltF):
        parts = [TensorF((ConstF(u), IdF())), TenAltF()]
        if u >= 2:
            parts.insert(0, ConstF(u * (u - 1) // 2))
        return SumF(tuple(parts))
    if isinstance(expr, SumF):
        return SumF(tuple(_shift_inward(u, p) for p in expr.parts))
    if isinstance(expr, TensorF):
        return TensorF(tuple(_shift_inward(u, f) for f in expr.factors))
    if isinstance(expr, SymF):
        return SymF(expr.power, _shift_inward(u, expr.inner))
    if isinstance(expr, ExtF):
        return ExtF(expr.power, _shift_inward(u, expr.inner))
    if isinstance(expr, ShiftF):
        return _shift_inward(u + expr.by, expr.inner)
    if isinstance(expr, QuotF):
        kept = expr.kept_summands()
        if not kept:
            return ConstF(0)
        return _shift_inward(u, SumF(kept) if len(kept) > 1 else kept[0])
    raise AlgebraError(f"unknown expression {expr!r}")


def normalize(expr: FunctorExpr) -> tuple[FunctorExpr, ...]:
    """Direct-sum list of homogeneous shift-free summands, in a fixed order."""
    if isinstance(expr, ConstF):
        return (expr,) if expr.size else ()
    if isinstance(expr, (IdF, TenSymF, TenAltF)):
        return (expr,)
    if isinstance(expr, SumF):
        out = []
        for p in expr.parts:
            out.extend(normalize(p))
        return tuple(out)
    if isinstance(expr, TensorF):
        factor_lists = [normalize(f) for f in expr.factors]
        out = []
        for choice in itertools.product(*factor_lists):
            combined = _tensor_combine(choice)
            if combined is not None:
                out.append(combined)
        return tuple(out)
    if isinstance(expr, (SymF, ExtF)):
        inner = normalize(expr.inner)
        alternating = [isinstance(expr, ExtF)] * len(inner)
        out = []
        for comp in _compositions(expr.power, len(inner)):
            # a zero atom makes the product zero, which _tensor_combine drops
            combined = _tensor_combine(map(_power_atom, comp, inner, alternating))
            if combined is not None:
                out.append(combined)
        return tuple(out)
    if isinstance(expr, ShiftF):
        return normalize(_shift_inward(expr.by, expr.inner))
    if isinstance(expr, QuotF):
        return expr.kept_summands()
    raise AlgebraError(f"unknown expression {expr!r}")


class Summand(Record, frozen=True):
    label: str
    expr: FunctorExpr
    degree: int


class HomDecomposition:
    """Homogeneous decomposition: labelled summands grouped by degree."""

    def __init__(self, summands):
        self.summands = tuple(summands)
        parts: dict[int, list[Summand]] = {}
        for s in self.summands:
            parts.setdefault(s.degree, []).append(s)
        self.parts = {e: tuple(v) for e, v in sorted(parts.items())}

    def part_dim(self, e: int, n: int) -> int:
        return sum(dim(s.expr, n) for s in self.parts.get(e, ()))

    def degrees(self):
        return tuple(self.parts.keys())

    def summand(self, label: str) -> Summand:
        return self.summands[self.index_of(label)]

    def index_of(self, label: str) -> int:
        for i, s in enumerate(self.summands):
            if s.label == label:
                return i
        raise AlgebraError(f"no summand labelled {label!r}")


def decompose(expr: FunctorExpr) -> HomDecomposition:
    return HomDecomposition(Summand(f"p{i}", s, s.degree()) for i, s in enumerate(normalize(expr)))


# ---------------------------------------------------------------------------
# explicit bases
# ---------------------------------------------------------------------------


def basis_labels(expr: FunctorExpr, n: int) -> tuple:
    if isinstance(expr, ConstF):
        return tuple(("k", i) for i in range(expr.size))
    if isinstance(expr, IdF):
        return space_labels(n)
    if isinstance(expr, TenSymF):
        return tuple(("y", i, j) for i in range(n) for j in range(i, n))
    if isinstance(expr, TenAltF):
        return tuple(("z", i, j) for i in range(n) for j in range(i + 1, n))
    if isinstance(expr, SumF):
        out = []
        for idx, p in enumerate(expr.parts):
            out.extend(("s", idx, sub) for sub in basis_labels(p, n))
        return tuple(out)
    if isinstance(expr, TensorF):
        lists = [basis_labels(f, n) for f in expr.factors]
        return tuple(("t", combo) for combo in itertools.product(*lists))
    if isinstance(expr, SymF):
        inner = basis_labels(expr.inner, n)
        return tuple(
            ("sym", tuple(inner[i] for i in idx))
            for idx in itertools.combinations_with_replacement(range(len(inner)), expr.power)
        )
    if isinstance(expr, ExtF):
        inner = basis_labels(expr.inner, n)
        return tuple(
            ("ext", tuple(inner[i] for i in idx))
            for idx in itertools.combinations(range(len(inner)), expr.power)
        )
    if isinstance(expr, ShiftF):
        return basis_labels(expr.inner, n + expr.by)
    if isinstance(expr, QuotF):
        return tuple(("s", idx, sub) for idx, s in expr.kept() for sub in basis_labels(s, n))
    raise AlgebraError(f"unknown expression {expr!r}")


def leaf_indices(label) -> list[int]:
    """The indices of basis vectors of the underlying space in a basis
    label, left to right."""
    tag = label[0]
    if tag == "v":
        return [label[1]]
    if tag in ("y", "z"):
        return [label[1], label[2]]
    if tag == "s":
        return leaf_indices(label[2])
    if tag in ("t", "sym", "ext"):
        return [i for sub in label[1] for i in leaf_indices(sub)]
    if tag == "k":
        return []
    raise AlgebraError(f"unknown basis label {label!r}")


def label_vdeg(expr: FunctorExpr, label, split: int) -> int:
    """Moving degree of a basis label of expr: the number of its leaf
    indices at or beyond the split point, the split raised by b under every
    shift(b, .), whose first b leaf indices are constant.  Scaling the
    coordinates from the split point on by t scales the basis element by t
    to this power (its torus weight): its degree over the moving part."""
    if isinstance(expr, ShiftF):
        return label_vdeg(expr.inner, label, split + expr.by)
    if isinstance(expr, SumF):
        return label_vdeg(expr.parts[label[1]], label[2], split)
    if isinstance(expr, TensorF):
        return sum(label_vdeg(f, sub, split) for f, sub in zip(expr.factors, label[1]))
    if isinstance(expr, (SymF, ExtF)):
        return sum(label_vdeg(expr.inner, sub, split) for sub in label[1])
    # the remaining labels hold no shift: quotient labels index shift-free
    # normalised summands
    return len([i for i in leaf_indices(label) if i >= split])


# ---------------------------------------------------------------------------
# induced linear maps
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _power_basis(row_labels: tuple, col_labels: tuple, power: int, alternating: bool):
    """The bases of _power_matrix, which depend on the labels, the power and
    the kind alone: the int key of each row tuple with its row index, the
    bits of a key's count field, per level d < power the (column, prefix
    size, block offset) of each column that extends a size-d column tuple,
    the colex slot of each column tuple, and the labels."""
    choose = itertools.combinations if alternating else itertools.combinations_with_replacement
    row_tuples = list(choose(range(len(row_labels)), power))
    col_tuples = list(choose(range(len(col_labels)), power))
    field_bits = 1 if alternating else power.bit_length()
    row_at = {sum(1 << i * field_bits for i in idx): r for r, idx in enumerate(row_tuples)}
    n = len(col_labels)
    steps = []
    for d in range(power):
        # a size-d tuple extended by c is the block of tuples ending in c;
        # its prefix is the size-d tuples below c (at most c for sym); an
        # exterior tuple reaches size power only when c <= n - power + d
        sizes = [comb(c, d) if alternating else comb(c + d, d)
                 for c in range(n - power + d + 1 if alternating else n)]
        offsets = itertools.accumulate(sizes, initial=0)
        steps.append([(c, size, offset) for c, (size, offset) in enumerate(zip(sizes, offsets)) if size])
    colex = {idx: s for s, idx in enumerate(sorted(col_tuples, key=lambda idx: idx[::-1]))}
    tag = "ext" if alternating else "sym"
    return (
        row_at, field_bits, steps, [colex[idx] for idx in col_tuples],
        tuple((tag, tuple(row_labels[i] for i in idx)) for idx in row_tuples),
        tuple((tag, tuple(col_labels[i] for i in idx)) for idx in col_tuples),
    )


def _power_matrix(a: LinearMapMatrix, power: int, alternating: bool) -> LinearMapMatrix:
    """Matrix of the symmetric power of a, or of the exterior power when
    alternating, by packed integer column blocks.

    The column of e_c1...e_ck (c1 <= ... <= ck) is (A e_c1)...(A e_ck).
    Level d holds, per monomial and int key K of a size-d row multiset, one
    int whose slots are the coefficients of e_K for the size-d column tuples
    in colex order, so the tuples that column c extends are a prefix: a step
    moves the prefix of c to the block of the tuples ending in c and adds one
    dot product of row i of a with the blocks into key K + e_i.  A symmetric
    key counts each index in a fixed-width bit field, so keys add; an
    exterior key is the bitmask S of its rows: e_S ^ e_i is 0 when S holds i,
    else its sign is the parity of S's indices above i.  A slot gets one bit
    more than (rows * slices * top)^power needs, top from _top; a
    prefix is cut as ((v + bias) & mask) - bias, bias half of its top slot,
    which is exact for signed slots.  The top level is decoded one row per
    key, in lexicographic column order; over q divided by scale^power.
    """
    basis = _power_basis(a.row_labels, a.col_labels, power, alternating)
    row_at, field_bits, steps, slot_of, row_labels, col_labels = basis
    slices, scale = _integral(a)
    bits = ((len(a.row_labels) * len(slices) * _top(slices, a.ring.field.characteristic)) ** power).bit_length() + 1
    level = {(0,) * len(a.ring.names): {0: 1}}
    for step in steps:
        cut_of = {c: (1 << bits * size - 1, (1 << bits * size) - 1, bits * offset) for c, size, offset in step}
        # per slice: the cut of each column that extends a tuple, and per row i the key
        # of {i}, the mask of the indices above i and the row on those columns
        moves = [(f, [cut_of[c] for c in cols if c in cut_of],
                  [(1 << i * field_bits, -2 << i, [x for x, c in zip(row, cols) if c in cut_of])
                   for i, row in zip(rows, block)]) for f, (rows, cols, block) in slices.items()]
        new = defaultdict(lambda: defaultdict(int))
        for e, keyed in level.items():
            targets = [(new[tuple(map(add, e, f))], cuts, rows) for f, cuts, rows in moves]
            for key, v in keyed.items():
                for target, cuts, rows in targets:
                    blocks = [(((v + bias) & mask) - bias) << shift for bias, mask, shift in cuts]
                    for bit, above, row in rows:
                        if not (alternating and key & bit):
                            s = sum(map(mul, row, blocks))
                            target[key + bit] += -s if alternating and (key & above).bit_count() & 1 else s
        level = new
    half, mask, shifts = 1 << bits - 1, (1 << bits) - 1, [bits * s for s in slot_of]
    offset = sum(half << s for s in shifts)
    acc = _SliceSum(len(col_labels))
    for e, keyed in level.items():
        target = acc.by_exps[e]
        for key, v in keyed.items():
            v += offset
            target[row_at[key]] = [(v >> s & mask) - half for s in shifts]
    return acc.matrix(row_labels, col_labels, a.ring, scale ** power)


def _tensor_matrix(maps) -> LinearMapMatrix:
    # Kronecker products of monomial slices' int blocks, row-major composite indices
    first, scale = _integral(maps[0])
    blocks = [(e, *s) for e, s in first.items()]
    for m in maps[1:]:
        height, width = len(m.row_labels), len(m.col_labels)
        slices, factor = _integral(m)
        slices, scale = slices.items(), scale * factor
        blocks = [
            (
                tuple(map(add, e, f)),
                [i * height + k for i in rows_a for k in rows_b],
                [j * width + l for j in cols_a for l in cols_b],
                [[x * y for x in ra for y in rb] for ra in a for rb in b],
            )
            for e, rows_a, cols_a, a in blocks
            for f, (rows_b, cols_b, b) in slices
        ]
    row_labels = tuple(("t", combo) for combo in itertools.product(*[m.row_labels for m in maps]))
    col_labels = tuple(("t", combo) for combo in itertools.product(*[m.col_labels for m in maps]))
    acc = _SliceSum(len(col_labels))
    for block in blocks:
        acc.add(*block)
    return acc.matrix(row_labels, col_labels, maps[0].ring, scale)


def _refuse_char2(field: FieldDescriptor):
    if field.characteristic == 2:
        raise CharacteristicError(
            "the symmetric/alternating tensor-square splitting is refused in characteristic 2"
        )


@functools.lru_cache(maxsize=64)
def _split_basis(m: int, n: int, alternating: bool):
    """The bases of _split_square_matrix, which depend on phi's shape and
    the half alone: the row of each row pair (k, l), the column of each
    column pair (i, j) in either order, and the labels."""
    gap, tag = (1, "z") if alternating else (0, "y")
    row_pairs = [(k, l) for k in range(m) for l in range(k + gap, m)]
    col_pairs = [(i, j) for i in range(n) for j in range(i + gap, n)]
    row_at = {pair: r for r, pair in enumerate(row_pairs)}
    col_at = {pair: c for c, (i, j) in enumerate(col_pairs) for pair in ((i, j), (j, i))}
    return row_at, col_at, *[tuple((tag,) + pair for pair in pairs) for pairs in (row_pairs, col_pairs)]


def _split_square_matrix(phi: LinearMapMatrix, alternating: bool) -> LinearMapMatrix:
    """Matrix on the symmetric half (y, i <= j) or the alternating half
    (z, i < j) of the tensor square: phi[k][i]*phi[l][j] +- phi[k][j]*phi[l][i],
    one product on the diagonal, taken over the nonzero int entries of each
    row of phi's _integral blocks, over scale^2."""
    _refuse_char2(phi.ring.field)
    gap, sign = (1, -1) if alternating else (0, 1)
    row_at, col_at, row_labels, col_labels = _split_basis(len(phi.row_labels), len(phi.col_labels), alternating)
    # per slice, per row k, the (column, int) of its nonzero entries
    integral, scale = _integral(phi)
    slices = [(e, [(k, [(i, x) for i, x in zip(cols, row) if x]) for k, row in zip(rows, block)])
              for e, (rows, cols, block) in integral.items()]
    acc = _SliceSum(len(col_labels))
    for (e, a), (f, b) in itertools.product(slices, repeat=2):
        target = acc.by_exps[tuple(map(add, e, f))]
        # a's term at (k, i) times b's at (l, j) adds into row pair (k, l)
        # at column pair {i, j}, with the sign when i > j
        for (k, row_a), (l, row_b) in itertools.product(a, b):
            if l - k >= gap:
                out = target[row_at[k, l]]
                for i, x in row_a:
                    for j, y in row_b:
                        if (c := col_at.get((i, j))) is not None:
                            out[c] += sign * x * y if i > j else x * y
    return acc.matrix(row_labels, col_labels, phi.ring, scale * scale)


def induced_map(expr: FunctorExpr, phi: LinearMapMatrix) -> LinearMapMatrix:
    """Matrix of the functor applied to a linear map, on the explicit bases.

    phi maps an n-space to an m-space; entries may be scalars or polynomials
    (for instance in an auxiliary parameter).
    """
    ring = phi.ring
    if isinstance(expr, ConstF):
        return identity_matrix((("k", i) for i in range(expr.size)), ring)
    if isinstance(expr, IdF):
        return phi
    if isinstance(expr, TensorF):
        return _tensor_matrix([induced_map(f, phi) for f in expr.factors])
    if isinstance(expr, SymF):
        return _power_matrix(induced_map(expr.inner, phi), expr.power, False)
    if isinstance(expr, ExtF):
        return _power_matrix(induced_map(expr.inner, phi), expr.power, True)
    if isinstance(expr, ShiftF):
        return induced_map(expr.inner, widening(expr.by, phi))
    if isinstance(expr, (SumF, QuotF)):
        # the kept summands' maps placed on the diagonal, on labels ("s", summand index, label)
        kept = [(i, induced_map(s, phi)) for i, s in (expr.kept() if isinstance(expr, QuotF) else enumerate(expr.parts))]
        row_labels = [("s", i, lab) for i, b in kept for lab in b.row_labels]
        col_labels = [("s", i, lab) for i, b in kept for lab in b.col_labels]
        return _from_slices(row_labels, col_labels, ring, _block_diagonal([(b.slices, *b.shape) for _, b in kept]))
    if isinstance(expr, TenSymF):
        return _split_square_matrix(phi, False)
    if isinstance(expr, TenAltF):
        return _split_square_matrix(phi, True)
    raise AlgebraError(f"unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# shift maps and the dimension-sequence order
# ---------------------------------------------------------------------------


class ShiftMaps(Record, frozen=True):
    """Embedding/projection pair between a functor and its shift."""

    alpha: LinearMapMatrix  # value at n -> value at u+n
    beta: LinearMapMatrix  # value at u+n -> value at n
    composite_is_identity: bool
    top_iso_check: bool
    top_dim_shift: int
    top_dim_base: int


def shift_maps(P: FunctorExpr, field: FieldDescriptor, u: int, n: int) -> ShiftMaps:
    """Maps induced by the coordinate embedding and projection, with the
    checks that the composite is the identity and that the projection is an
    isomorphism on the top-degree part of the shifted functor."""
    if u < 0 or n < 0:
        raise AlgebraError("shift and base dimensions must be nonnegative")
    alpha = induced_map(P, shift_embedding(field, u, n))
    beta = induced_map(P, shift_projection(field, u, n))
    composite = beta.compose(alpha)
    composite_ok = composite.is_identity()
    d = P.degree()
    big_labels = alpha.row_labels  # basis at u+n
    small_labels = alpha.col_labels  # basis at n
    top_cols = [i for i, lab in enumerate(big_labels) if label_vdeg(P, lab, u) == d]
    top_rows = [i for i, lab in enumerate(small_labels) if label_vdeg(P, lab, 0) == d]
    iso = len(top_cols) == len(top_rows)
    if iso and top_rows:
        # the top block, read off beta's constant slice, has the rank of its nonzero rows and columns
        rows, cols, block = beta.slices.get((), ((), (), []))
        wanted_rows, wanted_cols = set(top_rows), set(top_cols)
        keep = [a for a, j in enumerate(cols) if j in wanted_cols]
        top = [[row[a] for a in keep] for i, row in zip(rows, block) if i in wanted_rows]
        iso = matrix_rank(top, field) == len(top_rows)
    return ShiftMaps(alpha, beta, composite_ok, iso, len(top_cols), len(top_rows))


def dimension_sequence(P: FunctorExpr, top: int, n: int) -> tuple[int, ...]:
    """Dimensions of the homogeneous parts of degrees 1..top on an n-space."""
    dec = decompose(P)
    return tuple(dec.part_dim(e, n) for e in range(1, top + 1))


def compare_order(P: FunctorExpr, Q: FunctorExpr) -> str:
    """Compare dimension sequences of homogeneous parts, most significant at
    the highest degree: 'lex-smaller' means P precedes Q.

    This is the sound proxy for the well-founded order on functors: on
    spaces of dimension at least the degree, a strictly smaller functor has
    a lexicographically smaller dimension sequence.
    """
    d = max(P.degree(), Q.degree())
    N = max(d, 1)
    seq_p = dimension_sequence(P, d, N)
    seq_q = dimension_sequence(Q, d, N)
    for dp, dq in zip(reversed(seq_p), reversed(seq_q)):
        if dp != dq:
            return "lex-smaller" if dp < dq else "lex-greater"
    return "dims-equal"


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------


def dim_polynomial(expr: FunctorExpr) -> GradedPoly:
    """dim(expr, n) as a polynomial in n over q, by exact interpolation at
    n = 0..degree; verified on one extra sample."""
    d = expr.degree()
    ring = GradedRing(FieldDescriptor.rationals(), ("n",))
    n = ring.var("n")
    poly = ring.zero()
    for i in range(d + 1):
        basis = ring.one()  # Lagrange basis polynomial for node i
        for j in range(d + 1):
            if j != i:
                basis = basis * (n - j) * _q_raw(1, i - j)
        poly = poly + basis * dim(expr, i)
    if poly.evaluate({"n": d + 1}) != dim(expr, d + 1):
        raise AlgebraError("dimension is not polynomial of the expected degree")
    return poly


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

# a token is the group; a match without it is a character no token starts
# with, reported where the blanks before it begin
_FUNCTOR_TOKEN = re.compile(r"\s*(?:([a-z]+|\d+|[(),])|\S)")

# constructor name -> (class, kinds of its arguments in field order): "i" an
# integer, "e" an expression, "E" one or more expressions
_CONSTRUCTORS = {
    "const": (ConstF, "i"),
    "id": (IdF, ""),
    "tsym": (TenSymF, ""),
    "talt": (TenAltF, ""),
    "sum": (SumF, "E"),
    "tensor": (TensorF, "E"),
    "sym": (SymF, "ie"),
    "ext": (ExtF, "ie"),
    "shift": (ShiftF, "ie"),
    "quot": (QuotF, "ei"),
}
_SPELLING = {cls: (name, kinds) for name, (cls, kinds) in _CONSTRUCTORS.items()}


class _FunctorParser(_Parser):
    pattern = _FUNCTOR_TOKEN

    def expect(self, wanted: str) -> str:
        """Read the next token, which must be the operator wanted or, for
        "int", an integer."""
        value = self.tokens[self.i]
        if not (value.isdigit() if wanted == "int" else value == wanted):
            raise self.error("expected an integer" if wanted == "int" else f"expected {wanted}", self.i)
        self.i += 1
        return value

    def parse(self) -> FunctorExpr:
        expr = self.expression()
        if self.tokens[self.i]:
            raise self.error(f"unexpected token {self.tokens[self.i]!r}", self.i)
        return expr

    def expression(self) -> FunctorExpr:
        value = self.tokens[self.i]
        if not value.isalpha():
            raise self.error("expected a functor constructor", self.i)
        if value not in _CONSTRUCTORS:
            raise self.error(f"unknown constructor {value!r}", self.i)
        self.i += 1
        cls, kinds = _CONSTRUCTORS[value]
        if not kinds:
            return cls()
        args = []
        for i, arg in enumerate(kinds):
            self.expect("," if i else "(")
            if arg == "i":
                args.append(int(self.expect("int")))
            elif arg == "e":
                args.append(self.expression())
            else:
                parts = [self.expression()]
                while self.tokens[self.i] == ",":
                    self.i += 1
                    parts.append(self.expression())
                args.append(tuple(parts))
        self.expect(")")
        return cls(*args)


def parse_functor(text: str) -> FunctorExpr:
    return _FunctorParser(text).parse()


def format_functor(expr: FunctorExpr) -> str:
    if type(expr) not in _SPELLING:
        raise AlgebraError(f"unknown expression {expr!r}")
    name, kinds = _SPELLING[type(expr)]
    if not kinds:
        return name
    args = [
        str(value) if arg == "i" else format_functor(value) if arg == "e" else ",".join(map(format_functor, value))
        for arg, value in zip(kinds, vars(expr).values())
    ]
    return f"{name}({','.join(args)})"
