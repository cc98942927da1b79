"""Directional calculus in arbitrary characteristic.

The r-th Hasse derivative in a direction w is the t^r Taylor coefficient of
f(x + t*w); it is well defined over every field because the binomial
coefficients in the monomial rule are reduced into the field.  For a
subspace W spanned by designated variables, expanding f(w' + t*w) with a
symbolic direction w exposes the lowest t-power with a nonzero joint
coefficient.  That power is always a power of the characteristic exponent,
its exponent is the level e, and the joint coefficient h(w', w) is additive
of level e in w.  Specialising h at a concrete w gives the directional
derivative; by construction it may vanish for special w even when f depends
on W, and the direction-specific lowest power is never recomputed.

Weighted-degree bookkeeping: the auxiliary expansion variable carries weight
0 and each symbolic copy carries the weight of its original, so expanding a
weight-homogeneous polynomial stays homogeneous, and for positive-weight W
the directional derivative drops the weighted degree by (weight of W) times
the lowest power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlgebraError,
    CharacteristicError,
    DirectionError,
    InternalCheckError,
)
from .fields import lucas_binomial
from .rings import GradedPoly, GradedRing, RingVariable, Vector


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


def _copy_names(ring: GradedRing, span_vars, suffix: str = "_w"):
    taken = set(ring.names)
    out = []
    for name in span_vars:
        copy = fresh_name(name + suffix, taken)
        taken.add(copy)
        out.append((name, copy))
    return tuple(out)


def doubled_ring(ring: GradedRing, span_vars, suffix: str):
    """ring extended by one fresh copy of every span variable, each copy
    carrying the weight of its original; returns the extended ring and the
    (original, copy) name pairs."""
    copies = _copy_names(ring, span_vars, suffix)
    ext = ring.extended(
        RingVariable(copy, "aux", ring.variables[ring.position(orig)].weight)
        for orig, copy in copies
    )
    return ext, copies


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


def _expansion_setup(f: GradedPoly, W: DirectionSubspace, t: str | None):
    """Extended ring and substitution sending x to x + t*(copy of x) on W."""
    ring = f.ring
    copies = _copy_names(ring, W.span_vars)
    taken = set(ring.names) | {c for _, c in copies}
    t_name = fresh_name("t" if t is None else t, taken if t is None else set())
    if t is not None and (t in ring.names or any(t == c for _, c in copies)):
        raise AlgebraError(f"auxiliary variable {t!r} is not fresh")
    extra = [RingVariable(t_name, "aux", 0)]
    for orig, copy in copies:
        v = ring.variables[ring.position(orig)]
        extra.append(RingVariable(copy, "aux", v.weight))
    ext = ring.extended(extra)
    mapping = {name: ext.var(name) for name in ring.names}
    t_var = ext.var(t_name)
    for orig, copy in copies:
        mapping[orig] = ext.var(orig) + t_var * ext.var(copy)
    return ext, t_name, copies, mapping


def taylor_expand(f: GradedPoly, W: DirectionSubspace, t: str = "t") -> GradedPoly:
    """f(w' + t*w) expanded jointly in the original variables, t, and one
    symbolic copy per W-variable; the t^r coefficient is the r-th Hasse
    derivative as a joint polynomial."""
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    _, _, _, mapping = _expansion_setup(f, W, t)
    if f.is_zero():
        return next(iter(mapping.values())).ring.zero()
    return f.substitute(mapping)


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


def hasse_derivative(f: GradedPoly, w: Vector, r: int, W: DirectionSubspace, _pivot: str = "first") -> GradedPoly:
    """r-th Hasse derivative of f in the concrete direction w inside W.

    Computed through a linear change of basis adapted to w followed by the
    monomial rule with binomial coefficients reduced into the field; the
    result does not depend on the adapted basis chosen.  The zero direction
    with r > 0 gives the zero polynomial.
    """
    if r < 0:
        raise AlgebraError("derivative order must be nonnegative")
    if r == 0:
        return f
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    w = _check_direction(w, W)
    if w.is_zero():
        return f.ring.zero()
    ring = f.ring
    coords = list(zip(w.basis, w.coords))
    nonzero = [i for i, (_, c) in enumerate(coords) if c]
    pivot = nonzero[0] if _pivot == "first" else nonzero[-1]
    pivot_name, pivot_coeff = coords[pivot]
    # forward change of basis: pivot basis vector becomes w
    forward = {name: ring.var(name) for name in ring.names}
    forward[pivot_name] = ring.var(pivot_name) * pivot_coeff
    for i, (name, c) in enumerate(coords):
        if i != pivot and c:
            forward[name] = ring.var(name) + ring.var(pivot_name) * c
    g = f.substitute(forward)
    # monomial rule along the pivot variable
    pos = ring.position(pivot_name)
    field = ring.field
    derived = ring.zero()
    for exps, coeff in g.terms.items():
        a = exps[pos]
        if a < r:
            continue
        b = lucas_binomial(a, r, field)
        if not b:
            continue
        new = list(exps)
        new[pos] = a - r
        derived = derived + ring.monomial(tuple(new), coeff * b)
    if derived.is_zero():
        return derived
    # backward change of basis
    inv = pivot_coeff.inverse()
    backward = {name: ring.var(name) for name in ring.names}
    backward[pivot_name] = ring.var(pivot_name) * inv
    for i, (name, c) in enumerate(coords):
        if i != pivot and c:
            backward[name] = ring.var(name) - ring.var(pivot_name) * (c * inv)
    return derived.substitute(backward)


def _power_level(power: int, field) -> int:
    """Exponent e with power == p^e for the characteristic exponent p."""
    p = field.char_exponent
    if p == 1:
        if power != 1:
            raise InternalCheckError(
                f"lowest t-power {power} in characteristic 0 is not 1"
            )
        return 0
    e = 0
    value = 1
    while value < power:
        value *= p
        e += 1
    if value != power:
        raise InternalCheckError(
            f"lowest t-power {power} is not a power of the characteristic exponent {p}"
        )
    return e


def directional_data(f: GradedPoly, W: DirectionSubspace) -> DirectionalData:
    """Symbolic-direction expansion data of f along W.

    Either f uses no W-variable (independent), or the lowest nonzero t-power
    in f(w' + t*w) is p^e for a unique level e, with joint coefficient
    h(w', w).  A lowest power that is not a p-power is an internal error.
    """
    if W.ring != f.ring:
        raise AlgebraError("direction subspace belongs to a different ring")
    if not (set(f.support_vars()) & set(W.span_vars)):
        return DirectionalData("independent", None, None, ())
    ext, t_name, copies, mapping = _expansion_setup(f, W, None)
    expanded = f.substitute(mapping)
    powers = [p for p in expanded.powers_of(t_name) if p > 0]
    if not powers:
        raise InternalCheckError("dependent polynomial produced a t-free expansion")
    lowest = min(powers)
    level = _power_level(lowest, f.ring.field)
    joint = expanded.coeff_of_power(t_name, lowest)
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
    if data.joint.is_zero():
        return ring.zero()
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
    level = None
    degrees = {sum(exps) for exps in f.terms}
    if len(degrees) == 1:
        d = degrees.pop()
        p = f.ring.field.char_exponent
        if p == 1:
            level = 0 if d == 1 else None
        else:
            e = 0
            value = 1
            while value < d:
                value *= p
                e += 1
            level = e if value == d else None
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
