"""Directional calculus in arbitrary characteristic.

One rule on the raw terms of f serves all three operations here: the
multi-index binomial rule D^(r)_w x^a = sum over |b| = r of
prod_i C(a_i, b_i) w_i^b_i x^(a - b), with every binomial reduced into the
field by Lucas' theorem, so it is well defined over every field and needs
no change of basis or substitution.  It runs on exponent classes: the terms
of f that share their exponents a on the direction axes, each kept with
its exponents off the axes, rest.  They are grouped once per set of axes
and kept with f: every Hasse order along one direction, the Taylor
expansion and the directional data read one grouping.  For each class and
each b the multiplier prod_i C(a_i, b_i) w_i^b_i and the head a - b are
formed once, and every term of the class then costs one concatenation,
head + rest (and the suffix of a symbolic w), and one addition.  With a
concrete w it gives the r-th Hasse derivative, the t^r Taylor coefficient
of f(x + t*w).  For a subspace W spanned by designated variables and a
symbolic w (one copy per W-variable) it gives the t^r slice of
f(w' + t*w): the slices sum to the Taylor expansion, and the first nonzero
one in increasing r is the joint coefficient h(w', w).  Its power is
always a power of the characteristic exponent, its exponent is the level
e, and h is additive of level e in w: each of its terms carries exactly
one copy, raised to the power p^e.  Specialising h at a concrete w gives
the directional derivative; it may vanish for special w even when f
depends on W, and the direction-specific lowest power is never recomputed.

Weighted-degree bookkeeping: the auxiliary expansion variable carries weight
0 and each symbolic copy carries the weight of its original, so expanding a
weight-homogeneous polynomial stays homogeneous, and for positive-weight W
the directional derivative drops the weighted degree by (weight of W) times
the lowest power.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter, sub

from .errors import AlgebraError, DirectionError, InternalCheckError, Record
from .fields import lucas_binomial
from .rings import GradedPoly, GradedRing, RingVariable, Vector, _from_raw


class DirectionSubspace(Record, frozen=True):
    """Subspace W of the ambient space spanned by designated variables."""

    ring: GradedRing
    span_vars: tuple[str, ...]

    def __post_init__(self):
        if not self.span_vars:
            raise AlgebraError("direction subspace needs at least one variable")
        seen = set()
        for name in self.span_vars:
            self.ring.position(name)
            if name in seen:
                raise AlgebraError(f"duplicate span variable {name!r}")
            seen.add(name)
        # canonical order: ring order
        ordered = tuple(n for n in self.ring.names if n in seen)
        object.__setattr__(self, "span_vars", ordered)

    def direction(self, coords) -> Vector:
        return Vector(self.span_vars, tuple(map(self.ring.field.raw, coords)))


class DirectionalData(Record, frozen=True):
    """Outcome of the symbolic direction expansion of f along W.

    status is "independent" when no W-variable occurs in f.  Otherwise level
    is the exponent e with lowest nonzero t-power p^e (p the characteristic
    exponent, level 0 in characteristic zero) and joint is the coefficient
    polynomial h(w', w) in the original variables plus one symbolic copy per
    W-variable.
    """

    status: str
    level: int | None
    joint: GradedPoly | None
    copies: tuple[tuple[str, str], ...]  # (original, copy) pairs

    @property
    def dependent(self) -> bool:
        return self.status == "dependent"


def fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def doubled_ring(ring: GradedRing, span_vars):
    """ring extended by one fresh copy of every span variable, named after it
    with the suffix _w and carrying its weight; returns the extended ring and
    the (original, copy) name pairs."""
    taken = set(ring.names)
    copies, extra = [], []
    for name in span_vars:
        copy = fresh_name(name + "_w", taken)
        taken.add(copy)
        copies.append((name, copy))
        extra.append(RingVariable(copy, "aux", ring.variables[ring.position(name)].weight))
    return ring.extended(extra), tuple(copies)


def taylor_expand(f: GradedPoly, W: DirectionSubspace, t: str = "t") -> GradedPoly:
    """f(w' + t*w) expanded jointly in the original variables, t, and one
    symbolic copy per W-variable; the t^r coefficient is the r-th Hasse
    derivative as a joint polynomial, the t^r slice of the binomial rule."""
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    joint, _ = doubled_ring(f.ring, W.span_vars)
    if t in joint.names:
        raise AlgebraError(f"auxiliary variable {t!r} is not fresh")
    n = len(f.ring.names)
    ext = f.ring.extended((RingVariable(t, "aux", 0),) + joint.variables[n:])
    powers, grouping, _ = _symbolic_axes(f, W)
    return _from_raw(ext, _binomial_rule(f.ring.field, grouping, powers, None, True))


def _check_direction(w: Vector, W: DirectionSubspace):
    if tuple(w.basis) != W.span_vars:
        raise DirectionError("direction is not given on the designated subspace's variables in ring order")


def _multi_indices(r: int, caps):
    """Tuples beta with sum r and 0 <= beta_i <= caps_i, for nonempty caps."""
    if len(caps) == 1:
        return ((r,),) if caps[0] >= r else ()
    rest = caps[1:]
    low, high = max(0, r - sum(rest)), min(caps[0], r)
    if len(rest) == 1:
        return zip(range(low, high + 1), range(r - low, r - high - 1, -1))
    return ((b, *tail) for b in range(low, high + 1) for tail in _multi_indices(r - b, rest))


def _exponent_classes(f: GradedPoly, positions) -> tuple:
    """(classes, place) of f on positions, in one pass: classes maps the
    exponents a (a tuple) on positions to the terms (rest, c) of f with them,
    rest the exponents off the axes; place (an index per ring position) puts
    a + rest in ring order, None when positions lead the ring in order.
    Grouped once per positions and kept with f, which no reader changes."""
    try:
        stored = f._classes
    except AttributeError:
        stored = f._classes = {}
    positions = tuple(positions)
    if positions in stored:
        return stored[positions]
    n, k = len(f.ring.names), len(positions)
    order = (*positions, *(i for i in range(n) if i not in positions))
    place = None if order == tuple(range(n)) else tuple(map(order.index, range(n)))
    arrange = itemgetter(*order) if place else tuple
    classes: dict = {}
    for exps, c in f.terms.items():
        exps = arrange(exps)
        classes.setdefault(exps[:k], []).append((exps[k:], c))
    stored[positions] = classes, place
    return classes, place


def _binomial_rule(field, grouping, powers, r, symbolic: bool) -> dict:
    """Slices of f(x + t*w), unreduced, by the rule above on the grouping
    (classes, place) of _exponent_classes, with the raw powers w_i^0, w_i^1,
    ... of each axis in the order of a.  b runs lazily over all
    multi-indices up to a for r None, else over those with |b| = r.  The
    multiplier prod_i C(a_i, b_i) w_i^b_i, from a per-call table of Lucas
    binomials, the head a - b and the suffix are formed once per (class, b);
    each term (rest, c) then adds c times the multiplier at head + rest +
    suffix.  A numeric w gives Hasse derivatives in f's ring, with no
    suffix; a symbolic w (all powers 1) gives x^(a - b) t^|b| w^b for r None
    and x^(a - b) w^b otherwise, the suffix holding the exponents of t and
    the copies.  A place puts each result term in ring order at the end."""
    classes, place = grouping
    binomials: dict = {}
    acc: dict = {}
    get = acc.get
    suffix = ()
    for a, terms in classes.items():
        if r is None:
            betas = product(*(range(ai + 1) for ai in a))
        elif sum(a) < r:
            continue
        else:
            betas = _multi_indices(r, a)
        for beta in betas:
            mult = 1
            for ws, ai, b in zip(powers, a, beta):
                if b:
                    if (ai, b) not in binomials:
                        binomials[ai, b] = lucas_binomial(ai, b, field)
                    mult *= binomials[ai, b] * ws[b]
            if not mult:
                continue
            head = tuple(map(sub, a, beta))
            suffix = () if not symbolic else (sum(beta), *beta) if r is None else beta
            for rest, c in terms:
                m = head + rest + suffix
                acc[m] = get(m, 0) + c * mult
    # every suffix of one call has the same length, and an empty acc reads none
    put = place and itemgetter(*place, *range(len(place), len(place) + len(suffix)))
    return {put(m): c for m, c in acc.items()} if put else acc


def _symbolic_axes(f: GradedPoly, W: DirectionSubspace):
    """Powers of _binomial_rule for the symbolic direction of W, the grouping
    of f on its axes and the top t-power of f(x + t*w), f's degree in W."""
    grouping = _exponent_classes(f, map(f.ring.position, W.span_vars))
    top = max(map(sum, grouping[0]), default=0)
    return [[1] * (top + 1)] * len(W.span_vars), grouping, top


def hasse_derivative(f: GradedPoly, w: Vector, r: int, W: DirectionSubspace) -> GradedPoly:
    """r-th Hasse derivative of f in the concrete direction w inside W: the
    binomial rule with beta running over the nonzero coordinates of w only.
    The zero direction with r > 0 gives the zero polynomial.
    """
    if r < 0:
        raise AlgebraError("derivative order must be nonnegative")
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    _check_direction(w, W)
    if r == 0:
        return f
    ring = f.ring
    field = ring.field
    p = field.characteristic
    positions, powers = [], []
    for name, c in zip(w.basis, w.coords):
        if v := field.raw(c):
            positions.append(ring.position(name))
            powers.append([pow(v, b, p) if p else v ** b for b in range(r + 1)])
    if not positions:
        return ring.zero()
    return _from_raw(ring, _binomial_rule(field, _exponent_classes(f, positions), powers, r, False))


def _level_of(power: int, p: int):
    """Exponent e with power == p^e for the characteristic exponent p, or
    None when power is no such power."""
    e, value = 0, 1
    while value < power and p > 1:
        value *= p
        e += 1
    return e if value == power else None


def directional_data(f: GradedPoly, W: DirectionSubspace) -> DirectionalData:
    """Symbolic-direction expansion data of f along W.

    Either f uses no W-variable (independent), or the lowest nonzero t-power
    in f(w' + t*w) is p^e for a unique level e, with joint coefficient
    h(w', w).  A lowest power that is not a p-power is an internal error.
    """
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    powers, grouping, top = _symbolic_axes(f, W)
    if not top:
        return DirectionalData("independent", None, None, ())
    joint_ring, copies = doubled_ring(f.ring, W.span_vars)
    field = f.ring.field
    # slices in increasing order over the same classes; the one at top is never zero
    for r in range(1, top + 1):
        if joint := _from_raw(joint_ring, _binomial_rule(field, grouping, powers, r, True)):
            break
    p = field.char_exponent
    level = _level_of(r, p)
    if level is None:
        raise InternalCheckError(f"lowest t-power {r} is not a power of the characteristic exponent {p}")
    return DirectionalData("dependent", level, joint, copies)


def specialise_joint(data: DirectionalData, w: Vector, W: DirectionSubspace) -> GradedPoly:
    if not data.dependent:
        return W.ring.zero()
    _check_direction(w, W)
    coords = w.as_dict()
    ring = W.ring
    mapping = {name: ring.var(name) for name in ring.names}
    for orig, copy in data.copies:
        mapping[copy] = ring.const(coords[orig])
    return data.joint.substitute(mapping)


# -- verification helpers used by tests and the proof-step reports -------------


def _copy_exponents(data: DirectionalData):
    """Each term's exponents a on the copies, the w-part of c*w'^g*w^a."""
    at = [data.joint.ring.position(copy) for _, copy in data.copies]
    return [[exps[i] for i in at] for exps in data.joint.terms]


def joint_additivity_holds(data: DirectionalData) -> bool:
    """h(w', v + w) = h(w', v) + h(w', w) as a formal identity.  The defect
    c*w'^g*((v + w)^a - v^a - w^a) of a term has monomials w'^g*v^b*w^(a-b),
    which recover g and a, so no two terms' defects cancel.  A term's defect
    vanishes exactly when a is m times a unit vector with every C(m, b),
    0 < b < m, zero in the field: by Lucas when m is a power of p (m = 1 in
    characteristic zero)."""
    if not data.dependent:
        return True
    p = data.joint.ring.field.char_exponent
    for a in _copy_exponents(data):
        powers = [m for m in a if m]
        if len(powers) != 1 or _level_of(powers[0], p) is None:
            return False
    return True


def joint_scaling_holds(data: DirectionalData) -> bool:
    """h(w', c*w) = c^(p^e) * h(w', w) as a formal identity in a fresh c:
    c*w scales a term c'*w'^g*w^a by c^|a|, so the law holds exactly when
    every term has degree p^e in the copies."""
    if not data.dependent:
        return True
    q = data.joint.ring.field.char_exponent ** data.level
    return all(sum(a) == q for a in _copy_exponents(data))
