"""One inner step of the elimination pipeline on a concrete presentation.

Given a functor with a designated top-degree summand, a witness polynomial f
on the value at a base space, and a direction in the designated summand, the
pipeline produces: the minimal-degree report for the supplied generators,
the directional derivative h with its level, the induced map of the
parametrised projection with its projection identities checked on its
slices in the parameter and the derivative-compatibility identity, its
direction read off the induced map of [0 | phi], the affine-additive
coefficient k extracted from the pullback of f once, along the universal
projection, each supplied projection's k the universal k pulled back, and
finally a Cramer-rule certificate that expresses each moving top-summand
coordinate over the retained coordinates with denominators that are powers
of h.

One stage runner, _run_stages, does all of this and returns the one
ProofStepReport with every stage result; run_proofstep sets its formal
checks on it, and the worked rank-one tensor example runs the same stages
and adds its expected values, seeded sample validation and an
ideal-membership check of the certificate.  Both go through the Segre map
v, w -> v (x) w: the membership is decided exactly by one substitution per
cleared element, and the sampled checks evaluate the nonzero images of their
polynomials at seeded points (v, w), drawn up to the last check with one;
the pullback check's images are the universal pullback's, pulled back
linearly.  Both render that byte-stable report.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import (
    AlgebraError,
    BadDirectionChoiceError,
    BudgetExceededError,
    CertificateNotFoundError,
    CharacteristicError,
    InternalCheckError,
    PresentationError,
    Record,
)
from .fields import FieldDescriptor
from .functors import (
    FunctorExpr,
    IdF,
    ShiftF,
    SumF,
    TenAltF,
    TenSymF,
    TensorF,
    basis_labels,
    decompose,
    induced_map,
    label_vdeg,
    leaf_indices,
    split_tensor_square,
)
from .groebner import (
    Budget,
    _prepared,
    buchberger,
    divide_exact,
    reduce_poly,
)
from .hasse import (
    DirectionSubspace,
    directional_data,
    doubled_ring,
    fresh_name,
    joint_additivity_holds,
    joint_scaling_holds,
    specialise_joint,
)
from .matrices import (
    LinearMapMatrix,
    _diagonal,
    _from_slices,
    base_projection,
    cramer_solve,
    matrix_rank,
    row_forms,
    scalar_entry_ring,
    space_labels,
    space_matrix,
)
from .rings import GradedPoly, GradedRing, RingVariable, Vector

MAX_MINOR_CANDIDATES = 64  # row subsets eliminate tries before it gives up

# ---------------------------------------------------------------------------
# coordinate models
# ---------------------------------------------------------------------------


def _summand_prefix(expr: FunctorExpr) -> str | None:
    if isinstance(expr, TenSymF):
        return "y"
    if isinstance(expr, TenAltF):
        return "z"
    if isinstance(expr, TensorF) and all(isinstance(f, IdF) for f in expr.factors):
        return "x"
    return None


class CoordinateModel:
    """Coordinate ring of the value of a functor at a fixed dimension.

    Variables are grouped by normalised summand; each carries the summand
    label as its part and the summand degree as its weight.  Names follow
    the running conventions: x_i_j for tensor coordinates, y_i_j (i <= j)
    and z_i_j (i < j) for the symmetric/alternating split, and a generic
    label-positional scheme otherwise, also for every summand of a kind that
    two summands share.  Indices in names are 1-based.
    """

    def __init__(self, functor: FunctorExpr, field: FieldDescriptor, dimension: int):
        self.functor = functor
        self.field = field
        self.dimension = dimension
        self.decomposition = decompose(functor)
        summands = self.decomposition.summands
        if not summands:
            raise PresentationError("the zero functor has no coordinates")
        self.normalized = SumF(tuple(s.expr for s in summands))
        kinds = [_summand_prefix(s.expr) for s in summands]
        prefixes = [p if kinds.count(p) == 1 else None for p in kinds]  # a kind of two summands names neither
        variables = []
        full_labels = []
        names_by_label = {}
        for idx, s in enumerate(summands):
            labels = basis_labels(s.expr, dimension)
            for pos, sub in enumerate(labels):
                if prefixes[idx]:
                    name = prefixes[idx] + "".join(f"_{i + 1}" for i in leaf_indices(sub))
                else:
                    name = f"{s.label}_{pos + 1}"
                variables.append(RingVariable(name, s.label, s.degree))
                full = ("s", idx, sub)
                full_labels.append(full)
                names_by_label[full] = name
        self.ring = GradedRing(field, variables)
        self.full_labels = tuple(full_labels)
        self.name_of = names_by_label
        self.label_of = {name: lab for lab, name in names_by_label.items()}

    def names_in(self, bigger: "CoordinateModel") -> dict:
        """Each variable's name in the model of the same functor at a larger
        dimension, matched by label, not by name: the pull-back of coordinates
        along the base projection onto this model's space."""
        return {name: bigger.name_of[lab] for name, lab in self.label_of.items()}

    def moving_vars(self, label: str, split: int) -> tuple[str, ...]:
        """Variables of the summand whose basis elements are fully supported
        beyond the split point (top-degree block of the shifted picture)."""
        idx = self.decomposition.index_of(label)
        degree = self.decomposition.summands[idx].degree
        return tuple(
            self.name_of[full] for full in self.full_labels
            if full[1] == idx and label_vdeg(self.normalized, full, split) == degree
        )


# ---------------------------------------------------------------------------
# variety presentations
# ---------------------------------------------------------------------------


class VarietyPresentation(Record):
    """Equivariant variety presented by generators on the coordinate model of one base dimension."""

    model: CoordinateModel
    generators: tuple[GradedPoly, ...]
    q_generators: tuple[GradedPoly, ...]
    designated_r: str

    @staticmethod
    def make(model, generators, q_generators, designated_r) -> "VarietyPresentation":
        """The presentation on the caller's model, refusing an empty or ill-formed generator list."""
        generators = tuple(generators)
        q_generators = tuple(q_generators)
        if not generators:
            raise PresentationError("a presentation needs at least one generator")
        for g in generators + q_generators:
            if g.ring != model.ring:
                raise PresentationError("generator lives in a foreign ring")
            if not g.is_weight_homogeneous():
                raise PresentationError(f"generator {g} is not weight-homogeneous")
        dec = model.decomposition
        r = dec.summand(designated_r)
        top = max(s.degree for s in dec.summands)
        if r.degree != top:
            raise PresentationError(
                f"designated summand {designated_r!r} has degree {r.degree}, top degree is {top}"
            )
        return VarietyPresentation(model, generators, q_generators, designated_r)

    def r_vars(self) -> tuple[str, ...]:
        return self.model.ring.vars_of_part(self.designated_r)

    @cached_property
    def q_ideal(self) -> "_QIdeal":
        """The ideal of the q-generators, on whose one basis every stage of a
        run on this presentation decides membership."""
        return _QIdeal(self.q_generators)


class DeltaReport(Record, frozen=True):
    """Minimal weighted degree of a supplied generator that survives
    reduction modulo the base-projection generators.

    Computed over the supplied generating set, not the full ideal.  status is
    'finite', 'infinite' (everything reduces to zero) or 'inconclusive'
    (reduction budget exhausted).
    """

    status: str
    delta: int | None
    witness: GradedPoly | None


class _QIdeal:
    """Whether a polynomial vanishes modulo the q-generators, decided on one
    Groebner basis: buchberger runs once, when the first nonzero polynomial
    is asked about, from budget_steps (the default budget when None), and
    each reduction then runs on a copy of the budget it left.  A run that
    exhausted the budget is not kept; run again, it fails at its first pair."""

    def __init__(self, q_generators, budget_steps: int | None = None):
        self.q_generators, self.basis = tuple(q_generators), None
        self.budget = Budget() if budget_steps is None else Budget(budget_steps)

    def vanishes(self, g: GradedPoly) -> bool:
        if g and self.basis is None:
            self.basis = _prepared(g.ring, buchberger(self.q_generators, self.budget) if any(self.q_generators) else ())
        return not g or (bool(self.basis.polys) and reduce_poly(g, self.basis, Budget(self.budget.remaining)).is_zero())


def delta_degree(generators, q_generators, budget_steps: int | None = None) -> DeltaReport:
    """q_generators may be a presentation's _QIdeal, whose own budget holds."""
    ideal = q_generators if type(q_generators) is _QIdeal else _QIdeal(q_generators, budget_steps)
    best = witness = None
    try:
        for g in generators:
            if not ideal.vanishes(g) and (best is None or g.weighted_degree() < best):
                best, witness = g.weighted_degree(), g
    except BudgetExceededError:
        return DeltaReport("inconclusive", None, None)
    if best is None:
        return DeltaReport("infinite", None, None)
    return DeltaReport("finite", best, witness)


# ---------------------------------------------------------------------------
# directional derivative step
# ---------------------------------------------------------------------------


def derivative_step(f: GradedPoly, X: VarietyPresentation, r0: Vector):
    """(h, data): the directional derivative h of f along r0 inside the
    designated summand and f's directional data along that summand, with its
    level; refuses directions whose derivative dies modulo the
    base-projection generators."""
    if f.ring != X.model.ring:
        raise PresentationError("witness polynomial lives in a foreign ring")
    W = DirectionSubspace(X.model.ring, X.r_vars())
    data = directional_data(f, W)
    if not data.dependent:
        raise PresentationError(
            "the witness does not involve the designated top-degree coordinates"
        )
    h = specialise_joint(data, r0, W)
    if h.is_zero():
        raise BadDirectionChoiceError(
            "directional derivative vanishes for this direction; pick another one"
        )
    if X.q_ideal.vanishes(h):
        raise BadDirectionChoiceError(
            "directional derivative vanishes modulo the base projection; pick another direction"
        )
    if f.is_weight_homogeneous():
        d = X.model.decomposition.summand(X.designated_r).degree
        expected = f.weighted_degree() - d * X.model.field.char_exponent ** data.level
        if h.weighted_degree() != expected:
            raise InternalCheckError(
                f"derivative degree {h.weighted_degree()} differs from expected {expected}"
            )
    return h, data


def usable_directions(data, X: VarietyPresentation) -> list[tuple[str, bool]]:
    """Scan the coordinate directions of the designated summand, along which
    the witness has data (derivative_step's), and report which give a
    derivative that survives modulo the base projection."""
    W = DirectionSubspace(X.model.ring, X.r_vars())
    along = lambda name: specialise_joint(data, W.direction([int(v == name) for v in W.span_vars]), W)
    return [(name, not X.q_ideal.vanishes(along(name))) for name in W.span_vars]


# ---------------------------------------------------------------------------
# parametrised projection
# ---------------------------------------------------------------------------


def _check_projection(model_u: CoordinateModel, n: int, phi: LinearMapMatrix):
    """Refuse a phi that is not a surjection from the n-space onto the u-space; return its constant slice."""
    u = model_u.dimension
    if (len(phi.row_labels), len(phi.col_labels)) != (u, n):
        raise PresentationError("projection matrix has the wrong shape")
    rows, cols, block = phi.slices.get((0,) * len(phi.ring.names), ((), (), []))
    if matrix_rank(block, model_u.field) != u:
        raise PresentationError("projection matrix is not surjective")
    return rows, cols, block


def _nonzero_entries(slice_) -> dict:
    """(row, column) -> value of the nonzero entries of a monomial slice."""
    rows, cols, block = slice_
    return {(i, j): v for i, row in zip(rows, block) for j, v in zip(cols, row) if v}


def projection_coefficients(model_u: CoordinateModel, n: int, phi: LinearMapMatrix):
    """The induced maps (full, base, top) of the parametrised projection
    [1_U | t*phi], over the ring in t, of the plain projection onto the base
    block and of [0 | phi], with the projection identities checked on the
    t^i slices of full: the t^i coefficient acts only on basis vectors of
    moving degree i, the t^0 coefficient is base, and on each homogeneous
    part of degree e the t^e coefficient is top.  A run builds them once,
    for the universal projection phi = 1_U from the 2u-space."""
    u = model_u.dimension
    fld = model_u.field
    rows, cols, block = _check_projection(model_u, n, phi)
    # phi is onto the u-space: for u > 0 its constant slice, moved past column u, is canonical
    moved = (rows, [u + j for j in cols], block)
    ring_t = GradedRing(fld, (RingVariable("t", "aux", 0),))
    labels = space_labels(u), space_labels(u + n)
    parametrised = {**_diagonal(u, ring_t), (1,): moved} if u else {}
    full = induced_map(model_u.normalized, _from_slices(*labels, ring_t, parametrised))
    base = induced_map(model_u.normalized, base_projection(fld, u, n))
    top = induced_map(model_u.normalized, _from_slices(*labels, scalar_entry_ring(fld), {(): moved} if u else {}))
    dec = model_u.decomposition
    part_degree = {dec.index_of(s.label): e for e, summands in dec.parts.items() for s in summands}
    col_degree = [part_degree[lab[1]] for lab in full.col_labels]
    ends = {}
    for (power,), slice_ in full.slices.items():
        # a basis label of a degree-e part has e leaf indices, so its moving
        # degree is at most e: this also bounds the t-degree on each part by e
        if any(label_vdeg(model_u.normalized, full.col_labels[j], u) != power for j in slice_[1]):
            raise InternalCheckError("coefficient matrix misses the vanishing pattern")
        ends.update((ij, v) for ij, v in _nonzero_entries(slice_).items() if col_degree[ij[1]] == power)
    empty = ((), (), [])
    constant = _nonzero_entries(full.slices.get((0,), empty))
    if constant != _nonzero_entries(base.slices.get((), empty)) or ends != _nonzero_entries(top.slices.get((), empty)):
        raise InternalCheckError("coefficient matrix mismatch at the ends")
    return full, base, top


# ---------------------------------------------------------------------------
# affine-additive coefficient extraction
# ---------------------------------------------------------------------------


class AffineAdditiveElement(Record):
    """Element k of the pullback ideal that is affine-additive in the moving
    top-summand coordinates: k(q + s*r) = k(q) + s^(p^e) * (additive part at r)."""

    poly: GradedPoly
    level: int
    additive_part: dict[str, GradedPoly]
    constant_part: GradedPoly
    eliminated: tuple[str, ...]
    pullback: GradedPoly | None = None  # whole pullback of the witness, extracted ones only


def extract_additive_element(
    f: GradedPoly,
    data,
    model_u: CoordinateModel,
    model_big: CoordinateModel,
    phi: LinearMapMatrix,
    r_label: str,
) -> AffineAdditiveElement:
    """Coefficient of t^(d*p^level) in the pullback of f along [1_U | t*phi],
    where level is that of data, f's directional data along the designated
    summand (derivative_step's), verified to be affine-additive in the moving
    coordinates of that summand, with the projection identities checked on
    the t-slices of the parametrised map (projection_coefficients') and the
    derivative-compatibility identity as a formal polynomial identity."""
    u = model_u.dimension
    if f.ring != model_u.ring:
        raise PresentationError("witness polynomial lives in a foreign ring")
    if not data.dependent:
        raise PresentationError("the witness does not involve the designated top-degree coordinates")

    full, _, top = projection_coefficients(model_u, model_big.dimension - u, phi)
    t_name = fresh_name("t", set(model_big.ring.names))
    ext = model_big.ring.extended((RingVariable(t_name, "aux", 0),))
    # pull back every base-side coordinate through the parametrised matrix
    big_names = [model_big.name_of[lab] for lab in full.col_labels]
    forms = row_forms(full, ext, big_names, (t_name,))
    mapping = {model_u.name_of[lab]: form for lab, form in zip(full.row_labels, forms)}
    pullback = f.substitute(mapping)
    power = model_big.normalized.degree() * model_big.field.char_exponent**data.level
    k = pullback.coeff_of_power(t_name, power, model_big.ring)
    element = _affine_element(k, data.level, model_big.moving_vars(r_label, u), pullback)
    _check_derivative_formula(data, model_u, model_big, top, element.additive_part, element.eliminated)
    return element


def _affine_element(
    k: GradedPoly, level: int, moving: tuple[str, ...], pullback: GradedPoly | None = None
) -> AffineAdditiveElement:
    """The element k, the coefficient of t^(d*p^level) in a pullback, split
    structurally as k = k0 + sum coeff_v * v^(p^level) with k0 and every
    coeff_v free of the moving coordinates, the caller's moving_vars of the
    designated summand in k's ring (one tuple for all of a run's pull-backs).
    This form is equivalent to affine additivity at the stated level because
    raising to a power of the characteristic exponent is additive."""
    ring = k.ring
    q_power = ring.field.char_exponent ** level
    moving_pos = {name: ring.position(name) for name in moving}
    additive_terms: dict[str, dict] = {name: {} for name in moving}
    const_terms = {}
    for exps, c in k.terms.items():
        carriers = [name for name, pos in moving_pos.items() if exps[pos]]
        if not carriers:
            const_terms[exps] = c
        elif len(carriers) == 1 and exps[moving_pos[carriers[0]]] == q_power:
            pos = moving_pos[carriers[0]]
            additive_terms[carriers[0]][exps[:pos] + (0,) + exps[pos + 1:]] = c
        else:
            raise InternalCheckError("element is not affine-additive in the moving coordinates")
    constant_part = GradedPoly(ring, const_terms, _canonical=True)
    parts = {name: GradedPoly(ring, terms, _canonical=True) for name, terms in additive_terms.items()}
    additive_part = {name: part for name, part in parts.items() if part}
    if sum((c * ring.var(name) ** q_power for name, c in additive_part.items()), constant_part) != k:
        raise InternalCheckError("affine-additive reconstruction failed")
    return AffineAdditiveElement(k, level, additive_part, constant_part, tuple(moving), pullback)


def _pull_backs(X: VarietyPresentation, f: GradedPoly, data, model_big: CoordinateModel, phis: list):
    """The element extracted, with data, f's directional data along the
    designated summand, along the universal projection [1_U | t*1_U] from
    the 2u-space, the one element with a pullback, per phi, in order, its
    element pulled back from that one, and the 2u-space's model.
    [1_U | t*phi] is [1_U | t*1_U] after 1_U (+) phi, whose induced map is
    that of shift(u, P) at phi, and induced maps compose: the pullback along
    phi is the universal pullback after that map, checked to keep the moving
    degree, the grading in which the universal identities hold.  The map is
    free of t, so phi's k is the universal k after it."""
    u, model_u, r_label = X.model.dimension, X.model, X.designated_r
    model_2u = model_big if model_big.dimension == 2 * u else CoordinateModel(model_u.functor, model_u.field, 2 * u)
    identity = space_matrix(model_u.field, [[int(a == b) for b in range(u)] for a in range(u)])
    universal = extract_additive_element(f, data, model_u, model_2u, identity, r_label)
    shifted = ShiftF(u, model_big.normalized)
    vdeg = {lab: label_vdeg(m.normalized, lab, u) for m in (model_2u, model_big) for lab in m.full_labels}
    moving = model_big.moving_vars(r_label, u)
    elements = []
    for phi in phis:
        _check_projection(model_u, model_big.dimension - u, phi)
        widened = induced_map(shifted, phi)
        row_vdeg = [vdeg[lab] for lab in widened.row_labels]
        col_vdeg = [vdeg[lab] for lab in widened.col_labels]
        for rows, cols, block in widened.slices.values():
            if any(row_vdeg[i] != col_vdeg[j] for i, row in zip(rows, block) for j, v in zip(cols, row) if v):
                raise InternalCheckError("1_U + phi does not keep the moving degree")
        forms = row_forms(widened, model_big.ring, [model_big.name_of[lab] for lab in widened.col_labels])
        k = universal.poly.substitute({model_2u.name_of[lab]: form for lab, form in zip(widened.row_labels, forms)})
        elements.append(_affine_element(k, universal.level, moving))
    return universal, elements, model_2u


def _check_derivative_formula(
    dd_f,
    model_u: CoordinateModel,
    model_big: CoordinateModel,
    top: LinearMapMatrix,
    additive_part: dict,
    moving,
):
    """(additive part of k at a symbolic direction r) = (derivative of f
    along R(phi)r) pulled back through the base projection, as one formal
    identity in the original variables plus one copy per moving coordinate;
    dd_f is the directional data of f along the designated summand R and top
    the induced map of [0 | phi] (projection_coefficients'), whose rows on R
    are R(phi) on R's moving coordinates: the direction is read off them, on
    the copies."""
    q_power = model_u.field.char_exponent ** dd_f.level
    joint_ring, copies = doubled_ring(model_big.ring, moving, "_w")
    copy_of_big = dict(copies)
    lhs = joint_ring.zero()
    for name, coeff in additive_part.items():
        lhs = lhs + coeff.convert(joint_ring) * joint_ring.var(copy_of_big[name]) ** q_power

    # base projection pullback of the base-side coordinates
    mapping = {name: joint_ring.var(big) for name, big in model_u.names_in(model_big).items()}
    names = [model_big.name_of[lab] for lab in top.col_labels]
    # substitute the symbolic direction through the rows of [0 | phi], on the copies
    forms = dict(zip(top.row_labels, row_forms(top, joint_ring, [copy_of_big.get(name, name) for name in names])))
    for orig, copy in dd_f.copies:
        mapping[copy] = forms[model_u.label_of[orig]]
    rhs = dd_f.joint.substitute(mapping)
    if rhs != lhs:
        raise InternalCheckError("derivative-compatibility identity failed")


# ---------------------------------------------------------------------------
# elimination certificates
# ---------------------------------------------------------------------------


class CertificateEntry(Record, frozen=True):
    variable: str
    numerator: GradedPoly
    h_power: int


class EliminationCertificate(Record):
    """Per moving coordinate x, an expression x^(p^e) + numerator/h^power
    lying in the module spanned by the supplied affine-additive elements."""

    unit: GradedPoly
    level: int
    entries: tuple[CertificateEntry, ...]
    minor_rows: tuple[int, ...]
    minor_det: GradedPoly

    def cleared_elements(self) -> list[GradedPoly]:
        ring = self.unit.ring
        q = ring.field.char_exponent ** self.level
        return [self.unit ** e.h_power * ring.var(e.variable) ** q + e.numerator for e in self.entries]


def eliminate(elements, h: GradedPoly, eliminated) -> EliminationCertificate:
    """Cramer-rule elimination of the moving coordinates.

    Tries the row subsets of the elements in lexicographic order, at most
    MAX_MINOR_CANDIDATES of them.  Each is one block-triangular solve
    (matrices.cramer_solve), which gives the minor as a product of block
    determinants and each coordinate as a numerator over the determinants
    of the blocks it depends on.  The first minor equal to a nonzero scalar
    c times a power h^P is taken, c kept as a raw coefficient.  Each
    coordinate takes its h-power and scalar from its own blocks, or from the
    minor when one of them is not a scalar times a power of h (then its
    numerator is the full Cramer one), times the scalar's inverse, converted
    once by field.raw, and cancels as many powers of h as it can: the result
    is the least power k with x * h^k a polynomial, whichever blocks it came
    from.
    Raises CertificateNotFoundError when no such minor shows up within the
    budget.
    """
    elements = list(elements)
    eliminated = list(eliminated)
    if not elements or not eliminated:
        raise PresentationError("elimination needs elements and coordinates")
    ring = elements[0].poly.ring
    level = elements[0].level
    for el in elements:
        if el.poly.ring != ring or el.level != level:
            raise PresentationError("elements disagree in ring or level")
    if h.ring != ring:
        raise PresentationError("unit polynomial lives in a foreign ring")
    elim_set = set(eliminated)
    if set(h.support_vars()) & elim_set:
        raise PresentationError("unit polynomial must avoid the moving coordinates")
    n_cols = len(eliminated)
    if len(elements) < n_cols:
        raise CertificateNotFoundError(
            f"{len(elements)} elements cannot eliminate {n_cols} coordinates"
        )
    zero = ring.zero()
    system = [
        [el.additive_part.get(v, zero) for v in eliminated] + [el.constant_part]
        for el in elements
    ]
    subsets = itertools.combinations(range(len(elements)), n_cols)
    for rows_sel in itertools.islice(subsets, MAX_MINOR_CANDIDATES):
        solved = cramer_solve([system[i] for i in rows_sel], ring)
        if solved is None:
            continue
        det = solved.det
        blocks = [_h_power(d, h) for d in solved.block_dets]
        if all(c is not None for c, _ in blocks):
            c = ring.field.raw(prod((c for c, _ in blocks), start=solved.sign))
            power = sum(k for _, k in blocks)
        else:  # the factors of h may be spread over the blocks
            c, power = _h_power(det, h)
        if c is not None:
            break
    else:
        raise CertificateNotFoundError("no unit minor found within the search budget")
    if h**power * c != det:
        raise InternalCheckError("unit minor lost its h-power structure")
    entries = []
    for j, var in enumerate(eliminated):
        own = [blocks[t] for t in solved.depends[j]]
        if all(c_t is not None for c_t, _ in own):
            numerator = solved.numerators[j] * ring.field.raw(Fraction(1, prod(c_t for c_t, _ in own)))
            left = sum(k for _, k in own)
        else:
            numerator, left = solved.cramer_numerator(j) * ring.field.raw(Fraction(1, c)), power
        while left and (q := divide_exact(numerator, h)) is not None:
            numerator, left = q, left - 1
        if set(numerator.support_vars()) & elim_set:
            raise InternalCheckError("certificate numerator touches a moving coordinate")
        entries.append(CertificateEntry(var, numerator, left))
    return EliminationCertificate(unit=h, level=level, entries=tuple(entries), minor_rows=rows_sel, minor_det=det)


def _h_power(d: GradedPoly, h: GradedPoly):
    """(c, k) with d = c * h^k for a raw coefficient c, h divided out of d
    while the cofactor is not constant; (None, k) when the cofactor stays
    nonconstant."""
    k = 0
    while not d.is_constant() and not h.is_constant() and (q := divide_exact(d, h)) is not None:
        d, k = q, k + 1
    return (d.terms.get((0,) * len(d.ring.names)) if d.is_constant() else None), k


# ---------------------------------------------------------------------------
# the proof step: stages, report and generic run
# ---------------------------------------------------------------------------


class Check(Record):
    name: str
    status: str  # pass | fail | inconclusive | skipped
    witness: str = ""


class ProofStepReport(Record):
    """Outcome of one proof step, rendered as text or JSON: _run_stages sets
    the stage results, its runner the fields after certificate_error.

    header holds the leading (key, value) pairs in print order.  Each element
    is printed with its keys, the JSON keys that identify it; the text layout
    prints their values as k[v1][v2]...  delta_witness, when set, is printed
    as its own text line.  e0 is the level of data.
    """

    f: GradedPoly
    r0: Vector
    delta: DeltaReport
    h: GradedPoly
    data: object  # DirectionalData of f along the designated summand, with its level
    model_big: CoordinateModel
    model_2u: CoordinateModel | None  # of the universal projection, model_big when n = u
    h_big: GradedPoly
    universal: AffineAdditiveElement | None  # extracted, so it has a pullback
    elements: list  # one AffineAdditiveElement per projection, in order, pulled back
    certificate: EliminationCertificate | None
    certificate_error: str  # why elimination failed, when certificate is None
    header: tuple = ()
    element_keys: tuple = ()
    delta_witness: GradedPoly | None = None
    checks: tuple = ()

    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            **dict(self.header),
            "f": self.f.to_text(),
            "r0": {b: str(c) for b, c in zip(self.r0.basis, self.r0.coords)},
            "delta": {
                "status": self.delta.status,
                "value": self.delta.delta,
                "witness": self.delta.witness.to_text() if self.delta.witness else None,
            },
            "e0": self.data.level,
            "h": self.h.to_text(),
            "k": [{**keys, "value": el.poly.to_text()} for keys, el in zip(self.element_keys, self.elements)],
            "certificate": [
                {"variable": e.variable, "numerator": e.numerator.to_text(), "h_power": e.h_power}
                for e in (self.certificate.entries if self.certificate else ())
            ],
            "checks": [{"name": c.name, "status": c.status, "witness": c.witness} for c in self.checks],
            "all_passed": self.all_passed(),
        }

    def to_text(self) -> str:
        lines = [f"{key}: {value}" for key, value in self.header]
        lines.append(f"f: {self.f.to_text()}")
        lines.append("r0: " + ", ".join(f"{b}={c}" for b, c in zip(self.r0.basis, self.r0.coords)))
        lines.append(f"delta: {self.delta.delta if self.delta.status == 'finite' else self.delta.status}")
        if self.delta_witness is not None:
            lines.append(f"delta witness: {self.delta_witness.to_text()}")
        lines.append(f"e0: {self.data.level}")
        lines.append(f"h: {self.h.to_text()}")
        for keys, el in zip(self.element_keys, self.elements):
            label = "".join(f"[{v}]" for v in keys.values())
            lines.append(f"k{label}: {el.poly.to_text()}")
        if self.certificate is not None:
            q_power = self.h.ring.field.char_exponent ** self.data.level
            for e in self.certificate.entries:
                lines.append(
                    f"certificate[{e.variable}]: {e.variable}^{q_power}"
                    f" + ({e.numerator.to_text()})/h^{e.h_power}"
                )
        lines.append("checks:")
        for c in self.checks:
            suffix = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"  {c.status.upper():<6} {c.name}{suffix}")
        lines.append(f"all passed: {str(self.all_passed()).lower()}")
        return "\n".join(lines) + "\n"


def _run_stages(X: VarietyPresentation, f: GradedPoly, n: int, r0: Vector, phis) -> ProofStepReport:
    """Minimal degree of X's generators, then on the witness f: derivative,
    one extraction along the universal projection with its coefficient
    matrices and identities, per projection its element pulled back from
    that one (_pull_backs), then elimination; without projections nothing
    is extracted and eliminate refuses.  The runner sets the rest."""
    model_big = CoordinateModel(X.model.functor, X.model.field, X.model.dimension + n)
    delta = delta_degree(X.generators, X.q_ideal)
    h, data = derivative_step(f, X, r0)
    phis = list(phis)
    universal, elements, model_2u = _pull_backs(X, f, data, model_big, phis) if phis else (None, [], None)
    # h pulled back along the base projection, as in the derivative check
    pulled = X.model.names_in(model_big)
    h_big = h.substitute({name: model_big.ring.var(big) for name, big in pulled.items()})
    certificate, error = None, ""
    try:
        certificate = eliminate(elements, h_big, elements[0].eliminated if elements else ())
    except CertificateNotFoundError as exc:
        error = str(exc)
    return ProofStepReport(f, r0, delta, h, data, model_big, model_2u, h_big, universal, elements, certificate, error)


def pair_projections(fld: FieldDescriptor, n: int) -> dict:
    """Coordinate projections of the n-space onto the plane, keyed by their
    1-based coordinate pair (i, j), i < j, in lexicographic order."""
    out = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        rows = [[0] * n for _ in range(2)]
        rows[0][i - 1] = 1
        rows[1][j - 1] = 1
        out[(i, j)] = space_matrix(fld, rows)
    return out


def run_proofstep(X: VarietyPresentation, f: GradedPoly, n: int, r0: Vector, phis) -> ProofStepReport:
    """Run the pipeline on an arbitrary presentation, with the witness f of
    its designated summand and the supplied projection matrices; X's
    generators feed only the minimal-degree report.  Performs the formal
    identity checks but no variety-specific sampling."""
    report = _run_stages(X, f, n, r0, phis)
    delta, certificate = report.delta, report.certificate
    indices = range(len(report.elements))
    report.checks = [
        Check("delta-degree", "pass" if delta.status != "inconclusive" else "inconclusive", str(delta.delta)),
        Check("derivative", "pass", report.h.to_text()),
        *(Check(f"affine-additive-form {idx}", "pass") for idx in indices),
        Check("certificate-found", "pass", f"{len(certificate.entries)} coordinates")
        if certificate is not None else Check("certificate-found", "inconclusive", report.certificate_error),
    ]
    report.header = (("field", str(X.model.field)), ("u", X.model.dimension), ("n", n))
    report.element_keys = [{"tag": str(idx)} for idx in indices]
    return report


# ---------------------------------------------------------------------------
# rank-one worked example
# ---------------------------------------------------------------------------


def _segre_map(model: CoordinateModel, kept=()) -> dict:
    """Substitution sending each split coordinate y_a_b, z_a_b of model.ring
    to that coordinate (v_a w_b +- v_b w_a)/2 of v (x) w, a polynomial in
    v_1..v_m, w_1..w_m built straight as its one or two terms, and each
    variable in kept (the universal pullback's t, whose image
    _segre_pullbacks pulls back per projection) to itself.  The kernel of
    x_i_j -> v_i w_j is the ideal of 2x2 minors over every field (Hochster
    and Eagon, 1971), and the split coordinates are an invertible linear
    change of the x_i_j away from characteristic 2, so a polynomial lies in
    the minors' ideal exactly when its image is zero, and at a point (v, w)
    the image takes the polynomial's value at the split coordinates of
    v (x) w."""
    m, fld = model.dimension, model.field
    ring = GradedRing(fld, [f"{c}_{a + 1}" for c in "vw" for a in range(m)] + list(kept))
    signs = {"y": fld.raw(Fraction(1, 2)), "z": fld.raw(Fraction(-1, 2))}
    unit = (0,) * len(ring.names)
    segre = {name: ring.var(name) for name in ring.names[2 * m:]}
    for (_, _, (s, a, b)), name in model.name_of.items():
        va_wb = unit[:a] + (1,) + unit[a + 1:m + b] + (1,) + unit[m + b + 1:]
        vb_wa = unit[:b] + (1,) + unit[b + 1:m + a] + (1,) + unit[m + a + 1:]
        terms = {va_wb: 1} if a == b else {va_wb: signs["y"], vb_wa: signs[s]}
        segre[name] = GradedPoly(ring, terms, _canonical=True)
    return segre


def _segre_pullbacks(model_2u: CoordinateModel, universal: AffineAdditiveElement, segre: dict, phis) -> list:
    """Per phi, the Segre image in segre's ring (t kept) of the pullback
    along [1_U | t*phi]: the induced map of A = 1_U (+) phi sends v (x) w to
    Av (x) Aw, so it is the universal pullback's image at v' = Av, w' = Aw,
    a linear substitution.  model_2u is the universal projection's model."""
    u, t = model_2u.dimension // 2, universal.pullback.ring.variables[-1]
    image = universal.pullback.substitute(_segre_map(model_2u, [t]))
    ring = segre[t.name].ring
    images = []
    for phi in phis:
        mapping = {t.name: ring.var(t.name)}
        for c in "vw":
            forms = [ring.var(f"{c}_{a + 1}") for a in range(u)]
            forms += row_forms(phi, ring, [f"{c}_{u + b + 1}" for b in range(len(phi.col_labels))])
            mapping.update((f"{c}_{a + 1}", form) for a, form in enumerate(forms))
        images.append(image.substitute(mapping))
    return images


def _segre_points(rng: random.Random, fld: FieldDescriptor, m: int, unit: GradedPoly | None = None):
    """Points (v, w) of _segre_map's v_1..v_m, w_1..w_m drawn from rng, v
    first, entries in [0, p) over F_p and in [-10, 10] over q; with a unit,
    each is drawn again until the unit does not vanish there, and a zero
    unit fails before the first draw."""
    p = fld.characteristic
    draw = (lambda: rng.randrange(p)) if p else (lambda: rng.randint(-10, 10))
    names = [f"{c}_{a + 1}" for c in "vw" for a in range(m)]
    while True:
        for _ in range(1000 if unit is None or unit else 0):
            point = {name: draw() for name in names}
            if unit is None or unit.evaluate(point):
                break
        else:
            raise AlgebraError("failed to sample a point off the unit locus")
        yield point


def _vanish_on_samples(images, points, count: int) -> bool:
    """Whether every image vanishes at the first count points; no point is
    drawn after the first where one does not, and a zero image, which
    vanishes everywhere, is not evaluated, but its points are still drawn."""
    live = [g for g in images if g]
    return not any(any(g.evaluate(point) for g in live) for point in itertools.islice(points, count))


def _sample_statuses(rng: random.Random, fld: FieldDescriptor, checks) -> list[bool]:
    """Per check (images, m, count, unit or a function giving it), whether
    its images vanish at count _segre_points drawn from rng after the earlier
    checks' points.  The checks after the last with a nonzero image pass, as
    zero images vanish everywhere, and draw nothing; no other point moves."""
    last = max((i for i, (images, *_) in enumerate(checks) if any(images)), default=-1)
    return [
        i > last or _vanish_on_samples(images, _segre_points(rng, fld, m, unit and unit()), count)
        for i, (images, m, count, unit) in enumerate(checks)
    ]


def run_rank_one_example(
    n: int,
    fld: FieldDescriptor,
    seed: int = 0,
    sample_count: int = 100,
) -> ProofStepReport:
    """The proof step on the variety of rank-one tensors with the
    symmetric/alternating splitting, at base dimension 2, over every pair
    projection, plus the expected values, the exact membership of the
    certificate in the ideal of 2x2 minors and seeded sampling checks, whose
    points are drawn only up to the last check with a nonzero Segre image.
    A pair's projection-identities and derivative-formula hold by
    functoriality, as its k is the universal k after a map that keeps the
    moving degree; so do its joint laws of k, decided once on the universal
    k, and so are the Segre images of its pullback, read by
    pullback-vanishes-on-samples."""
    if fld.characteristic == 2:
        raise CharacteristicError("the rank-one example needs characteristic different from 2")
    if n < 2:
        raise AlgebraError("the rank-one example needs n >= 2")
    if sample_count < 1:
        raise AlgebraError("the rank-one example needs at least one sample")
    u = 2
    model_u = CoordinateModel(split_tensor_square(), fld, u)
    r_label = next(
        s.label for s in model_u.decomposition.summands if isinstance(s.expr, TenAltF)
    )
    ring_u = model_u.ring
    f = (
        ring_u.var("y_1_1") * ring_u.var("y_2_2")
        - ring_u.var("y_1_2") ** 2
        + ring_u.var("z_1_2") ** 2
    )
    X = VarietyPresentation.make(model_u, [f], [], r_label)
    r0 = Vector("r", ("z_1_2",), (1,))
    pairs = pair_projections(fld, n)
    report = _run_stages(X, f, n, r0, list(pairs.values()))
    delta, data, h, model_big = report.delta, report.data, report.h, report.model_big
    checks = report.checks = []

    def check(name: str, ok: bool, witness: str = ""):
        checks.append(Check(name, "pass" if ok else "fail", witness))

    check("delta-degree", delta.status == "finite" and delta.delta == 4, f"delta={delta.delta}")
    scan = usable_directions(data, X)
    check("direction-scan", any(ok for _, ok in scan), "; ".join(f"{name}:{'ok' if ok else 'no'}" for name, ok in scan))
    check("derivative-level", data.level == 0, f"e0={data.level}")
    check("derivative-value", h == ring_u.var("z_1_2") * 2, h.to_text())
    degrees = f"deg f={f.weighted_degree()}, deg h={h.weighted_degree()}"
    check("degree-ledger", f.weighted_degree() == 4 and h.weighted_degree() == 2, degrees)
    check("joint-additivity f", joint_additivity_holds(data))
    check("joint-scaling f", joint_scaling_holds(data))

    # the sampled checks' Segre images: the witness at the base dimension,
    # the pullbacks' t-coefficients (a pullback vanishes identically in t at
    # a point exactly when all of them do), the k's and the cleared certificate
    sampled = [([f.substitute(_segre_map(model_u))], u, 20, None)]
    m, certificate, universal = model_big.dimension, report.certificate, report.universal
    t = universal.pullback.ring.variables[-1]
    segre = _segre_map(model_big, [t])
    vw = segre[t.name].ring.without([t.name])
    pulled = _segre_pullbacks(report.model_2u, universal, segre, pairs.values())
    t_coefficients = [image.coeff_of_power(t.name, k, vw) for image in pulled for k in image.powers_of(t.name)]
    sampled.append((t_coefficients, m, sample_count, None))
    sampled.append(([el.poly.substitute(segre) for el in report.elements], m, sample_count, None))
    if certificate is not None:
        # the certificate claims x^q = -numerator/h^e where h does not vanish
        cleared = [c.substitute(segre) for c in certificate.cleared_elements()]
        sampled.append((cleared, m, sample_count, lambda: report.h_big.substitute(segre)))
    spot_ok, pull_ok, k_ok, *samples_ok = _sample_statuses(random.Random(seed), fld, sampled)
    check("base-locus-spot-check", spot_ok)

    dd_k = directional_data(universal.poly, DirectionSubspace(universal.poly.ring, universal.eliminated))
    k_laws = joint_additivity_holds(dd_k) and joint_scaling_holds(dd_k)
    for (i, j), el in zip(pairs, report.elements):
        for name in ("projection-identities", "affine-additive-form", "derivative-formula"):
            check(f"{name} {i},{j}", True)
        if el.additive_part:
            check(f"joint-laws k {i},{j}", k_laws)

    check("pullback-vanishes-on-samples", pull_ok)
    check("coefficient-vanishes-on-samples", k_ok)

    if certificate is None:
        check("certificate-found", False, report.certificate_error)
    else:
        minor = f"{len(certificate.entries)} coordinates, minor rows {list(certificate.minor_rows)}"
        check("certificate-found", True, minor)
        denominators = "; ".join(f"{e.variable}: h^{e.h_power}" for e in certificate.entries)
        check("certificate-denominator", all(e.h_power == 1 for e in certificate.entries), denominators)
        images = zip(certificate.entries, cleared)
        witness = next((f"{e.variable}: {image.to_text()}" for e, image in images if image), "")
        check("certificate-membership", not witness, witness)
        check("certificate-samples", samples_ok[0])

    report.header = (("field", str(fld)), ("n", n), ("seed", seed), ("u", u))
    report.element_keys = [{"i": i, "j": j} for i, j in pairs]
    report.delta_witness = delta.witness
    return report
