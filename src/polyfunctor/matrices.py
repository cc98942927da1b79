"""Basis-labelled matrices with exact scalar or polynomial entries.

A LinearMapMatrix stores explicit row and column labels so induced maps of
functors stay auditable, and its entries, polynomials over a declared entry
ring (a ring with no variables represents plain scalars), as monomial slices
only: per exponent vector the rows and columns where it has terms and one
dense block of its raw coefficients there (a single slice for scalars).
Every builder that sums products adds raw blocks into one slice
accumulator, full-width rows per exponent vector, and one function reduces
it to canonical slices, so equal matrices have equal slices; identities and
block-diagonal matrices place canonical slices as they are (_block_diagonal).
The tensor kernels multiply slices by
plain products, composition (and, in functors.py, the symmetric and
exterior powers) by packed integers: a slot per column, wide enough for the
largest output entry (from p over F_p, over q from the entries once each
matrix is scaled to ints by the lcm of its denominators, a scale divided
back out by fields._q_raw, an int where it divides) and offset by half its
range so that signed sums carry nothing between slots.  No entry is boxed
as a polynomial: the printers render each entry's raw terms from the slices
(GradedRing.render), one row at a time.
Also home to the small exact linear algebra the package needs: Gaussian
rank over a field, and the solve of a square polynomial system [A | b] in
block upper-triangular form: rows matched to columns, the diagonal blocks
the strongly connected components of the matched pattern, each block
solved by one fraction-free Gauss-Jordan pass and the solution
back-substituted, so that every unknown comes out as a numerator over the
product of the determinants of the blocks it depends on.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations
from math import lcm, prod
from operator import add, lshift, mul

from .errors import AlgebraError, InternalCheckError, Record
from .fields import FieldDescriptor, _q_raw
from .groebner import divide_exact
from .rings import GradedPoly, GradedRing


def scalar_entry_ring(field: FieldDescriptor) -> GradedRing:
    """Variable-free ring whose polynomials are plain field constants."""
    return GradedRing(field, ())


class LinearMapMatrix:
    """Matrix of a linear map between spaces with labelled bases."""

    __slots__ = ("row_labels", "col_labels", "ring", "slices")

    def __init__(self, row_labels, col_labels, ring: GradedRing, rows):
        row_labels, col_labels = tuple(row_labels), tuple(col_labels)
        rows = [list(row) for row in rows]
        if len(rows) != len(row_labels):
            raise AlgebraError("row count does not match row labels")
        if any(len(row) != len(col_labels) for row in rows):
            raise AlgebraError("column count does not match column labels")
        acc, unit = _SliceSum(len(col_labels)), (0,) * len(ring.names)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if not isinstance(entry, GradedPoly):
                    acc.by_exps[unit][i][j] = ring.field.raw(entry)
                    continue
                if entry.ring is not ring and entry.ring != ring:
                    raise AlgebraError("matrix entry in a foreign ring")
                for exps, c in entry.terms.items():
                    acc.by_exps[exps][i][j] = c
        self._set(row_labels, col_labels, ring, acc.slices(ring.field.characteristic))

    def _set(self, row_labels, col_labels, ring, slices):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.ring = ring
        self.slices = slices

    def entry_texts(self):
        """Each entry as text, one row at a time: a row's raw terms are gathered
        from the slices and rendered before the next row's, with no entry boxed."""
        at = [(e, cols, dict(zip(rows, block))) for e, (rows, cols, block) in self.slices.items()]
        for i in range(len(self.row_labels)):
            terms = [{} for _ in self.col_labels]
            for e, cols, row_of in at:
                for j, v in zip(cols, row_of.get(i, ())):
                    if v:
                        terms[j][e] = v
            yield [self.ring.render(t) for t in terms]

    @property
    def shape(self):
        return (len(self.row_labels), len(self.col_labels))

    def compose(self, other: "LinearMapMatrix") -> "LinearMapMatrix":
        """Matrix of self after other by packed integer rows (Kronecker
        substitution; Dumas, Fousse & Salvy, J. Symb. Comp. 46, 2011).

        Row k of other is packed once into one int, column j in slot j of
        bits bits, so for each pair of slices that meets on k one int product
        per left entry does that entry's products with the whole row; they
        are summed as ints per output monomial and row.  An output entry is
        at most (left slices) * inner * top_left * top_right in size, top
        p - 1 over F_p and over q the largest entry once each matrix is scaled
        to ints by the lcm of its denominators; bits is one more than that
        bound's bit length, and half = 2^(bits - 1) in every slot keeps signed
        sums from carrying between slots.  Slot j reads back as
        (total >> bits * j & mask) - half, over q over the two scales
        (see _SliceSum.slices).
        """
        if self.ring != other.ring:
            raise AlgebraError("composition across entry rings")
        if self.col_labels != other.row_labels:
            raise AlgebraError("inner labels do not match in composition")
        p = self.ring.field.characteristic
        left, scale_left = _integral(self)
        right, scale_right = _integral(other)
        bits = (len(left) * len(self.col_labels) * _top(left, p) * _top(right, p)).bit_length() + 1
        half, mask, scale = 1 << bits - 1, (1 << bits) - 1, scale_left * scale_right
        packed = {}  # per right slice: inner index -> its row packed into one int
        meets = defaultdict(list)  # inner index -> right slices with a term in that row
        for f, (rows, cols, block) in right.items():
            slots = [bits * j for j in cols]
            packed[f] = {k: sum(map(lshift, row, slots)) for k, row in zip(rows, block)}
            for k in rows:
                meets[k].append(f)
        totals = defaultdict(lambda: defaultdict(int))  # exponents -> row -> packed sum
        for e, (rows, inner, block) in left.items():
            for f in dict.fromkeys(f for k in inner for f in meets[k]):
                at = packed[f]
                picked = [at.get(k, 0) for k in inner]
                target = totals[tuple(map(add, e, f))]
                for i, row in zip(rows, block):
                    target[i] += sum(map(mul, row, picked))
        width = len(other.col_labels)
        shifts = range(0, bits * width, bits)
        offset = sum(half << s for s in shifts)
        acc = _SliceSum(width)
        for g, sums in totals.items():
            for i, t in sums.items():
                t += offset
                acc.by_exps[g][i] = [(t >> s & mask) - half for s in shifts]
        return acc.matrix(self.row_labels, other.col_labels, self.ring, scale)

    def is_identity(self) -> bool:
        return self == identity_matrix(self.row_labels, self.ring)

    def is_zero(self) -> bool:
        return not self.slices

    def __eq__(self, other):
        return (
            isinstance(other, LinearMapMatrix)
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.ring == other.ring
            and self.slices == other.slices
        )

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __str__(self):
        rows = ("[" + ", ".join(row) + "]" for row in self.entry_texts())
        return "\n".join([f"rows: {list(self.row_labels)}", f"cols: {list(self.col_labels)}", *rows])


class _SliceSum:
    """Sum of raw coefficient blocks on a matrix width columns wide, kept per
    exponent vector as a map from row index to a full-width row of unreduced
    raw coefficients.  slices() reduces it to monomial slices: exponents ->
    (rows, columns, block), the ascending row and column indices where that
    monomial has a nonzero coefficient and the dense block of its
    coefficients there, 0 where it is absent, the full rows when every
    column is live."""

    __slots__ = ("width", "by_exps")

    def __init__(self, width: int):
        self.width = width
        self.by_exps = defaultdict(lambda: defaultdict(lambda: [0] * width))

    def add(self, exps, rows, cols, block):
        """Add x^exps times a block of raw coefficients placed at the given
        row and column indices; a column index may repeat."""
        target = self.by_exps[exps]
        for i, values in zip(rows, block):
            row = target[i]
            for j, v in zip(cols, values):
                row[j] += v

    def slices(self, p: int, scale: int = 1) -> dict:
        """The canonical slices of the sum: reduced mod p over F_p; over q
        ints over scale, read by fields._q_raw, or raw coefficients at scale 1."""
        out = {}
        for exps, rows in self.by_exps.items():
            live = [(i, [v % p for v in rows[i]] if p else rows[i] if scale == 1 else [_q_raw(v, scale) for v in rows[i]])
                    for i in sorted(rows)]
            live = [(i, row) for i, row in live if any(row)]
            if live:
                full = [row for _, row in live]
                cols = [j for j, column in enumerate(zip(*full)) if any(column)]
                block = full if len(cols) == self.width else [[row[j] for j in cols] for row in full]
                out[exps] = ([i for i, _ in live], cols, block)
        return out

    def matrix(self, row_labels, col_labels, ring: GradedRing, scale: int = 1) -> LinearMapMatrix:
        """The sum over scale (see slices) as a matrix on the given labels, its entries over ring."""
        return _from_slices(row_labels, col_labels, ring, self.slices(ring.field.characteristic, scale))


def _from_slices(row_labels, col_labels, ring: GradedRing, slices: dict) -> LinearMapMatrix:
    """The matrix on the given labels with these canonical slices, taken as they are."""
    m = LinearMapMatrix.__new__(LinearMapMatrix)
    m._set(row_labels, col_labels, ring, slices)
    return m


def _integral(m: LinearMapMatrix):
    """m's slices with int blocks and the scale that made them ints: over
    F_p the residues and 1, with no pass over the entries; over q the blocks
    times the lcm of m's denominators, read in one pass (an int's is 1, so
    the slices as they are when every entry is an int)."""
    if m.ring.field.characteristic:
        return m.slices, 1
    scale = lcm(*{v.denominator for _, _, block in m.slices.values() for row in block for v in row})
    if scale == 1:
        return m.slices, 1
    cleared = {e: (r, c, [[v.numerator * (scale // v.denominator) for v in row] for row in block])
               for e, (r, c, block) in m.slices.items()}
    return cleared, scale


def _top(slices: dict, p: int) -> int:
    """The largest |entry| of _integral's int blocks: p - 1 over F_p, with no pass over the entries."""
    return p - 1 if p else max(map(abs, chain.from_iterable(row for _, _, b in slices.values() for row in b)), default=0)


def _diagonal(size: int, ring: GradedRing) -> dict:
    """The canonical slices of a 1 at (i, i) for every i < size and nothing elsewhere."""
    ones = [[int(i == j) for j in range(size)] for i in range(size)]
    return {(0,) * len(ring.names): (list(range(size)), list(range(size)), ones)} if size else {}


def _block_diagonal(parts) -> dict:
    """The slices of the block-diagonal matrix of parts, (slices, height, width) per block
    in order: per monomial, the blocks' canonical slices side by side at their offsets, each
    row zero-padded.  Blocks on disjoint rows and columns stay canonical: nothing is reduced."""
    placed = defaultdict(list)
    row0 = col0 = 0
    for slices, height, width in parts:
        for e, s in slices.items():
            placed[e].append((row0, col0, s))
        row0, col0 = row0 + height, col0 + width
    out = {}
    for e, found in placed.items():
        cols = [c0 + j for _, c0, (_, c, _) in found for j in c]
        block, before = [], 0
        for _, _, (_, c, b) in found:
            left, right = [0] * before, [0] * (len(cols) - before - len(c))
            block += [left + row + right for row in b]
            before += len(c)
        out[e] = ([r0 + i for r0, _, (r, _, _) in found for i in r], cols, block)
    return out


def widening(u: int, phi: LinearMapMatrix) -> LinearMapMatrix:
    """1_U (+) phi: the identity of the u-space and phi placed on the diagonal."""
    (m, n), ring = phi.shape, phi.ring
    blocks = _block_diagonal([(_diagonal(u, ring), u, u), (phi.slices, m, n)])
    return _from_slices(space_labels(u + m), space_labels(u + n), ring, blocks)


def row_forms(m: LinearMapMatrix, ring: GradedRing, col_names, entry_names=()) -> list:
    """Each row i of m as the polynomial sum_j m[i][j] * col_names[j] over
    ring, the variables of m's entries renamed to entry_names."""
    at = [ring.position(name) for name in col_names]
    entry_at = [ring.position(name) for name in entry_names]
    forms = [{} for _ in m.row_labels]
    for e, (rows, cols, block) in m.slices.items():
        for i, values in zip(rows, block):
            for j, v in zip(cols, values):
                if v:
                    exps = [0] * len(ring.names)
                    for k, x in zip(entry_at, e):
                        exps[k] = x
                    exps[at[j]] += 1
                    forms[i][tuple(exps)] = v
    return [GradedPoly(ring, f, _canonical=True) for f in forms]


def space_labels(n: int):
    return tuple(("v", i) for i in range(n))


def identity_matrix(labels, ring: GradedRing) -> LinearMapMatrix:
    labels = tuple(labels)
    return _from_slices(labels, labels, ring, _diagonal(len(labels), ring))


def space_matrix(field: FieldDescriptor, entries) -> LinearMapMatrix:
    """Matrix of a linear map between standard spaces, rows of scalars."""
    rows = [list(row) for row in entries]
    ring, n = scalar_entry_ring(field), len(rows[0]) if rows else 0
    return LinearMapMatrix(space_labels(len(rows)), space_labels(n), ring, rows)


def shift_embedding(field: FieldDescriptor, u: int, n: int) -> LinearMapMatrix:
    """Embedding of the n-space as the last n coordinates of the (u+n)-space."""
    rows = [[1 if a == u + b else 0 for b in range(n)] for a in range(u + n)]
    return space_matrix(field, rows)


def shift_projection(field: FieldDescriptor, u: int, n: int) -> LinearMapMatrix:
    """Projection of the (u+n)-space onto its last n coordinates."""
    rows = [[1 if a == u + b else 0 for a in range(u + n)] for b in range(n)]
    return LinearMapMatrix(space_labels(n), space_labels(u + n), scalar_entry_ring(field), rows)


def base_projection(field: FieldDescriptor, u: int, n: int) -> LinearMapMatrix:
    """Projection of the (u+n)-space onto its first u coordinates."""
    ring = scalar_entry_ring(field)
    return _from_slices(space_labels(u), space_labels(u + n), ring, _diagonal(u, ring))


def matrix_rank(entries, field: FieldDescriptor) -> int:
    """Rank of a matrix of scalars, by exact Gaussian elimination on raw coefficients."""
    rows = [[field.raw(e) for e in row] for row in entries]
    if not rows:
        return 0
    m, n, p = len(rows), len(rows[0]), field.characteristic
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top, inv = rows[rank], field.raw(Fraction(1, rows[rank][col]))
        for i in range(rank + 1, m):
            if rows[i][col]:
                factor = rows[i][col] * inv
                rows[i] = [(a - factor * b) % p if p else a - factor * b for a, b in zip(rows[i], top)]
        rank += 1
        if rank == m:
            break
    return rank


class BlockSolution(Record, frozen=True):
    """A x = b solved in block upper-triangular form: det A is sign times the
    product of block_dets, and x_j = numerators[j] / D_j with D_j the
    product of block_dets[t] over the blocks t in depends[j], the block of
    column j and every block its equations reach."""

    ring: GradedRing
    sign: int
    block_dets: tuple
    numerators: tuple
    depends: tuple

    @property
    def det(self) -> GradedPoly:
        det = prod(self.block_dets, start=self.ring.one())
        return -det if self.sign < 0 else det

    def cramer_numerator(self, j: int) -> GradedPoly:
        """det A_j(b), A with column j replaced by b, which is det A * x_j."""
        others = (d for t, d in enumerate(self.block_dets) if t not in self.depends[j])
        numerator = prod(others, start=self.numerators[j])
        return -numerator if self.sign < 0 else numerator


def cramer_solve(rows, ring: GradedRing) -> BlockSolution | None:
    """The square polynomial system whose rows are [A | b], solved block by
    block; None when A is singular.

    Rows are matched to columns on the nonzero pattern of A by augmenting
    paths; without a perfect matching A is structurally singular.  With row
    match[j] put in place j, the diagonal blocks are the strongly connected
    components of the graph j -> k for A[match[j]][k] != 0 (Tarjan, SIAM J.
    Comput. 1, 1972; Duff, Erisman & Reid, Direct Methods for Sparse
    Matrices, ch. 6), read off a bitmask transitive closure: two columns
    share a block when they reach the same columns.  The blocks are solved
    sinks first.  A block's right-hand side is scaled by the determinants
    of the blocks it reaches, its solved columns are moved across, and one
    fraction-free Gauss-Jordan pass (_gauss_jordan) solves it; a 1x1 block
    is read off with no division.
    """
    n = len(rows)
    if any(len(row) != n + 1 for row in rows):
        raise AlgebraError("a Cramer solve needs the n rows of a square [A | b]")
    pattern = [[k for k in range(n) if row[k]] for row in rows]
    owner = {}  # column -> the row matched to it

    def claim(i, seen):
        for j in pattern[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or claim(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    if not all(claim(i, set()) for i in range(n)):
        return None
    match = [owner[j] for j in range(n)]
    reach = [sum(1 << k for k in pattern[i]) for i in match]
    for k in range(n):
        for j in range(n):
            if reach[j] >> k & 1:
                reach[j] |= reach[k]
    blocks = defaultdict(list)
    for j in range(n):
        blocks[reach[j]].append(j)
    dets, masks, numerators, depends = [], [], [None] * n, [None] * n
    # a block reaches strictly fewer columns than any block that reaches it
    for t, key in enumerate(sorted(blocks, key=int.bit_count)):
        cols = blocks[key]
        reached = frozenset(s for s, mask in enumerate(masks) if mask & key)
        masks.append(sum(1 << j for j in cols))
        system = []
        for j in cols:
            row = rows[match[j]]
            rhs = prod((dets[s] for s in reached), start=row[n])
            for k in pattern[match[j]]:
                if not masks[t] >> k & 1:
                    scale = (dets[s] for s in reached - depends[k])
                    rhs = rhs - prod(scale, start=row[k] * numerators[k])
            system.append([row[k] for k in cols] + [rhs])
        solved = _gauss_jordan(system, ring)
        if solved is None:
            return None
        dets.append(solved[0])
        for j, x in zip(cols, solved[1]):
            numerators[j], depends[j] = x, reached | {t}
    sign = (-1) ** sum(a > b for a, b in combinations(match, 2))
    return BlockSolution(ring, sign, tuple(dets), tuple(numerators), tuple(depends))


def _gauss_jordan(M, ring: GradedRing):
    """(det A, [det A_j(b) for every column j]) of the square system whose
    rows are [A | b], by one fraction-free Gauss-Jordan pass on M in place;
    None when A is singular.

    Each step pivots on the remaining row with the fewest nonzero entries and
    replaces every entry of every other row by (pivot * a_ij - a_ik * a_kj) /
    (previous pivot).  Each entry stays a minor of the input (Bareiss, Math.
    Comp. 22, 1968), so every division is exact; the last pivot is det A up
    to the sign of the row swaps.
    """
    n, unit = len(M), (0,) * len(ring.names)
    sign, prev = 1, ring.one()
    for k in range(n):
        live = [i for i in range(k, n) if M[i][k]]
        if not live:
            return None
        best = min(live, key=lambda i: sum(map(bool, M[i])))
        if best != k:
            M[k], M[best], sign = M[best], M[k], -sign
        top = M[k]
        pivot = top[k]
        inverse = ring.field.raw(Fraction(1, prev.terms[unit])) if prev.is_constant() else None
        for row in M:
            if row is top:
                continue
            factor = row[k]
            for j in range(n + 1):
                if j != k and (row[j] or factor and top[j]):
                    num = pivot * row[j] - factor * top[j]
                    row[j] = num * inverse if inverse is not None else divide_exact(num, prev)
                    if row[j] is None:
                        raise InternalCheckError("fraction-free division failed")
            row[k] = ring.zero()
        prev = pivot
    if sign < 0:
        return -prev, [-row[n] for row in M]
    return prev, [row[n] for row in M]
