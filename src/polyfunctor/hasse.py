"""Directional calculus in arbitrary characteristic.

One rule on the raw terms of f serves all three operations here: the
multi-index binomial rule D^(r)_w x^a = sum over |b| = r of
prod_i C(a_i, b_i) w_i^b_i x^(a - b), with every binomial reduced into the
field by Lucas' theorem, so it is well defined over every field and needs
no change of basis or substitution.  With a concrete w it gives the r-th
Hasse derivative, the t^r Taylor coefficient of f(x + t*w).  For a subspace
W spanned by designated variables and a symbolic w (one copy per
W-variable) it gives the t^r slice of f(w' + t*w): the slices sum to the
Taylor expansion, and the first nonzero one in increasing r is the joint
coefficient h(w', w).  Its power is always a power of the characteristic
exponent, its exponent is the level e, and h is additive of level e in w.
Specialising h at a concrete w gives the directional derivative; it may
vanish for special w even when f depends on W, and the direction-specific
lowest power is never recomputed.

Weighted-degree bookkeeping: the auxiliary expansion variable carries weight
0 and each symbolic copy carries the weight of its original, so expanding a
weight-homogeneous polynomial stays homogeneous, and for positive-weight W
the directional derivative drops the weighted degree by (weight of W) times
the lowest power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import (
    AlgebraError,
    CharacteristicError,
    DirectionError,
    InternalCheckError,
)
from .fields import lucas_binomial
from .rings import GradedPoly, GradedRing, RingVariable, Vector, _from_raw, _raw


@dataclass(frozen=True)
class DirectionSubspace:
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
        field = self.ring.field
        return Vector("direction", self.span_vars, tuple(field.scalar(c) for c in coords))


@dataclass(frozen=True)
class DirectionalData:
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


def doubled_ring(ring: GradedRing, span_vars, suffix: str):
    """ring extended by one fresh copy of every span variable, each copy
    carrying the weight of its original; returns the extended ring and the
    (original, copy) name pairs."""
    taken = set(ring.names)
    copies, extra = [], []
    for name in span_vars:
        copy = fresh_name(name + suffix, taken)
        taken.add(copy)
        copies.append((name, copy))
        extra.append(RingVariable(copy, "aux", ring.variables[ring.position(name)].weight))
    return ring.extended(extra), tuple(copies)


def _additivity_defect(f: GradedPoly, span_vars) -> GradedPoly:
    """f(v + w) - f(v) - f(w) in doubled variables v, w on span_vars."""
    ring = f.ring
    ext, copies = doubled_ring(ring, span_vars, "_b")
    sum_map = {name: ext.var(name) for name in ring.names}
    copy_map = dict(sum_map)
    for orig, copy in copies:
        sum_map[orig] = ext.var(orig) + ext.var(copy)
        copy_map[orig] = ext.var(copy)
    return f.substitute(sum_map) - f.convert(ext) - f.substitute(copy_map)


def taylor_expand(f: GradedPoly, W: DirectionSubspace, t: str = "t") -> GradedPoly:
    """f(w' + t*w) expanded jointly in the original variables, t, and one
    symbolic copy per W-variable; the t^r coefficient is the r-th Hasse
    derivative as a joint polynomial, the t^r slice of the binomial rule."""
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    joint, _ = doubled_ring(f.ring, W.span_vars, "_w")
    if t in joint.names:
        raise AlgebraError(f"auxiliary variable {t!r} is not fresh")
    n = len(f.ring.names)
    ext = f.ring.extended((RingVariable(t, "aux", 0),) + joint.variables[n:])
    axes, _ = _symbolic_axes(f, W)
    return _from_raw(ext, _binomial_rule(f, axes, _all_indices, True))


def _check_direction(w: Vector, W: DirectionSubspace):
    if tuple(w.basis) != W.span_vars:
        if set(w.basis) <= set(W.span_vars):
            # re-order onto the canonical basis, filling absent coordinates with 0
            d = w.as_dict()
            field = W.ring.field
            return Vector(
                w.space,
                W.span_vars,
                tuple(d.get(n, field.zero()) for n in W.span_vars),
            )
        raise DirectionError("direction does not lie in the designated subspace")
    return w


def _multi_indices(r: int, caps):
    """Tuples beta with sum r and 0 <= beta_i <= caps_i, for nonempty caps."""
    if len(caps) == 1:
        if caps[0] >= r:
            yield (r,)
        return
    rest = caps[1:]
    for b in range(max(0, r - sum(rest)), min(caps[0], r) + 1):
        for tail in _multi_indices(r - b, rest):
            yield (b,) + tail


def _all_indices(caps):
    """Every tuple beta with 0 <= beta_i <= caps_i: all slices at once."""
    return product(*(range(a + 1) for a in caps))


def _binomial_rule(f: GradedPoly, axes, betas, symbolic: bool) -> dict:
    """Slices of f(x + t*w), unreduced: the multi-index rule above on the raw
    terms c*x^a of f, summed over the multi-indices b that betas(caps) gives
    for the exponents caps of a on the axes (those with |b| = r for the t^r
    slice).  axes holds (position, raw powers w_i^0, w_i^1, ...) for each
    coordinate b runs over.  A numeric w gives Hasse derivatives in f's ring;
    a symbolic w (all powers 1) gives terms x^(a - b) t^|b| w^b, with
    exponents a - b, |b|, b in that order."""
    field = f.ring.field
    binomials: dict = {}
    acc: dict = {}
    for exps, c in f.terms.items():
        for beta in betas([exps[i] for i, _ in axes]):
            coeff = c
            new = list(exps)
            for (i, powers), b in zip(axes, beta):
                if b:
                    key = (exps[i], b)
                    if key not in binomials:
                        binomials[key] = _raw(field, lucas_binomial(exps[i], b, field))
                    coeff *= binomials[key] * powers[b]
                    new[i] -= b
            if coeff:
                m = (*new, sum(beta), *beta) if symbolic else tuple(new)
                acc[m] = acc.get(m, 0) + coeff
    return acc


def _symbolic_axes(f: GradedPoly, W: DirectionSubspace):
    """Axes of _binomial_rule for the symbolic direction of W, and the top
    t-power of f(x + t*w): the highest degree of a term of f in W."""
    positions = [f.ring.position(name) for name in W.span_vars]
    top = max((sum(exps[i] for i in positions) for exps in f.terms), default=0)
    ones = [1] * (top + 1)
    return [(i, ones) for i in positions], top


def hasse_derivative(f: GradedPoly, w: Vector, r: int, W: DirectionSubspace) -> GradedPoly:
    """r-th Hasse derivative of f in the concrete direction w inside W: the
    binomial rule with beta running over the nonzero coordinates of w only.
    The zero direction with r > 0 gives the zero polynomial.
    """
    if r < 0:
        raise AlgebraError("derivative order must be nonnegative")
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    w = _check_direction(w, W)
    if r == 0:
        return f
    ring = f.ring
    field = ring.field
    p = field.characteristic
    axes = []
    for name, c in zip(w.basis, w.coords):
        if v := _raw(field, c):
            axes.append((ring.position(name), [pow(v, b, p) if p else v ** b for b in range(r + 1)]))
    if not axes:
        return ring.zero()
    return _from_raw(ring, _binomial_rule(f, axes, partial(_multi_indices, r), False))


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
    axes, top = _symbolic_axes(f, W)
    if not top:
        return DirectionalData("independent", None, None, ())
    joint_ring, copies = doubled_ring(f.ring, W.span_vars, "_w")
    n = len(f.ring.names)
    # slices in increasing order, without the exponent of t; the one at top is never zero
    for r in range(1, top + 1):
        slice_r = _binomial_rule(f, axes, partial(_multi_indices, r), True)
        if joint := _from_raw(joint_ring, {m[:n] + m[n + 1:]: c for m, c in slice_r.items()}):
            break
    p = f.ring.field.char_exponent
    level = _level_of(r, p)
    if level is None:
        raise InternalCheckError(f"lowest t-power {r} is not a power of the characteristic exponent {p}")
    return DirectionalData("dependent", level, joint, copies)


def directional_derivative(f: GradedPoly, w: Vector, W: DirectionSubspace) -> GradedPoly:
    """Specialisation of the joint coefficient at the concrete direction w;
    zero in the independent case."""
    data = directional_data(f, W)
    return specialise_joint(data, w, W)


def specialise_joint(data: DirectionalData, w: Vector, W: DirectionSubspace) -> GradedPoly:
    if not data.dependent:
        return W.ring.zero()
    w = _check_direction(w, W)
    coords = w.as_dict()
    ring = W.ring
    mapping = {name: ring.var(name) for name in ring.names}
    for orig, copy in data.copies:
        mapping[copy] = ring.const(coords[orig])
    return data.joint.substitute(mapping)


def additive_basis(W: DirectionSubspace, e: int) -> list[GradedPoly]:
    """Monomial basis x_i^(p^e) of the level-e additive polynomials on W."""
    if e < 0:
        raise AlgebraError("level must be nonnegative")
    field = W.ring.field
    if field.char_exponent == 1 and e > 0:
        raise CharacteristicError("positive level requires positive characteristic")
    q = field.char_exponent ** e
    return [W.ring.var(name) ** q for name in W.span_vars]


def is_additive(f: GradedPoly, W: DirectionSubspace):
    """Whether f(v+w) = f(v) + f(w) as a formal identity in doubled variables.

    Requires f to involve only W-variables.  When additive and homogeneous of
    a p-power total degree, the second component reports the level e.
    """
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    outside = set(f.support_vars()) - set(W.span_vars)
    if outside:
        raise AlgebraError(f"polynomial involves non-subspace variables {sorted(outside)}")
    if f.is_zero():
        return True, None
    if not _additivity_defect(f, W.span_vars).is_zero():
        return False, None
    degrees = {sum(exps) for exps in f.terms}
    level = _level_of(degrees.pop(), f.ring.field.char_exponent) if len(degrees) == 1 else None
    return True, level


# -- verification helpers used by tests and the proof-step reports -------------


def joint_additivity_holds(data: DirectionalData) -> bool:
    """h(w', v + w) = h(w', v) + h(w', w) as a formal identity."""
    if not data.dependent:
        return True
    return _additivity_defect(data.joint, tuple(c for _, c in data.copies)).is_zero()


def joint_scaling_holds(data: DirectionalData) -> bool:
    """h(w', c*w) = c^(p^e) * h(w', w) as a formal identity in a fresh c."""
    if not data.dependent:
        return True
    joint = data.joint
    ring = joint.ring
    c_name = fresh_name("c", set(ring.names))
    ext = ring.extended([RingVariable(c_name, "aux", 0)])
    scale_map = {name: ext.var(name) for name in ring.names}
    c_var = ext.var(c_name)
    for _, copy in data.copies:
        scale_map[copy] = c_var * ext.var(copy)
    q = ring.field.char_exponent ** data.level
    return (joint.substitute(scale_map) - joint.convert(ext) * c_var ** q).is_zero()
