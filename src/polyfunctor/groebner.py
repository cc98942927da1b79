"""Budgeted Buchberger engine for desk-scale ideal membership.

This is a verification aid, not a performance claim: Buchberger with the
Gebauer-Moeller pair criteria (Gebauer & Moeller, J. Symb. Comp. 6 (1988);
Becker & Weispfenning, Groebner Bases, 5.5), run under an explicit step
budget.  When the budget runs out a BudgetExceededError is raised so a caller
can report "inconclusive" instead of guessing.

As each element h joins the basis (the generators in order, then each
nonzero S-pair remainder), criterion B drops each pending pair (i, j) whose
lcm the leading monomial of h divides, unless lcm(i, h) or lcm(j, h) equals
lcm(i, j); among the new pairs (k, h), M drops those whose lcm another's
properly divides, F keeps one of those with equal lcm (none if one is
coprime), and the coprime ones are dropped.  The basis's divisor set runs
this update on its packed leads (rings._Divisors.join), filtering new lcms
without their degree, which only a pushed pair gets back.  Pending pairs
sit in the set's heap keyed by the packed lcm, which orders as the term
order, then by index (the normal strategy); a pair B drops leaves it when
popped, and its packed lcm is the top of its S-pair dividend, whose
remainder joins with the associate its division read off the terms popped.

A division (reduce_poly, divide_exact) works on a mutable copy of the
dividend whose packed monomials, a format only rings knows, sit in a heap
(rings._Dividend), and one loop makes the steps of both: each cancels the
leading term by a monomial multiple of a divisor's associate (monic over
F_p, primitive integer over q: fraction-free), rescaling the work first
when need be.  At the first lead without a divisor reduce_poly moves it to
the remainder and loops again, divide_exact returns None; an exact division
reads its quotient off the steps.  The divisors form a set prepared once
(rings._Divisors); buchberger extends its own as remainders join and builds
each S-pair dividend from the packed associates of the pair.  A division
that meets too large an exponent widens its set and starts again, in
reduce_poly with the budget it started with.  The budget is spent once per
pair taken from the heap and, in the loop, once per leading term, whether a
divisor cancels it or not; a pair a criterion drops costs nothing.

A zero remainder from plain division by the generators already certifies
membership (the division identity is an explicit combination), so
membership_by_division is offered as a cheap sound fast path that avoids
computing a basis; only completeness needs the Buchberger run.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop

from .errors import AlgebraError, BudgetExceededError
from .fields import _q_raw
from .rings import GradedPoly, _Divisors, _from_raw

DEFAULT_BUDGET = 50_000


class Budget:
    """Shared countdown over reduction steps and pair processing."""

    __slots__ = ("remaining",)

    def __init__(self, steps: int = DEFAULT_BUDGET):
        self.remaining = steps

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("normal-form step budget exceeded")


def _monic(f: GradedPoly) -> GradedPoly:
    _, a, items, _ = assoc = f._associate()
    monic = GradedPoly(f.ring, {e: _q_raw(c, a) for e, c in items}, _canonical=True)
    monic._assoc = assoc  # f's associate is the monic one's too: same leads, a, items
    return monic


def _prepared(ring, gens) -> _Divisors:
    """gens as a divisor set of ring prepared for many divisions (RingMismatchError if foreign)."""
    if type(gens) is _Divisors and gens.ring == ring:
        return gens
    return _Divisors(ring, getattr(gens, "polys", gens))


def reduce_poly(f: GradedPoly, gens, budget: Budget | None = None) -> GradedPoly:
    """Full remainder of f under multivariate division by gens, in order.
    Inside the package gens may be _prepared, and f the S-pair (lcm, i, j) of two of them."""
    if type(f) is not tuple:
        gens = _prepared(f.ring, gens)
    budget = budget or Budget()
    start = budget.remaining

    def divide(work):
        budget.remaining = start  # a division started again spends afresh
        while work.reduce(budget.spend) is not None:
            work.pop_leading()
        return work.remainder(gens)

    return gens.divide(f, divide)


def buchberger(gens, budget: Budget | None = None) -> list[GradedPoly]:
    """Groebner basis of the given generators under the ring order: every
    generator, then every nonzero S-pair remainder, in the order they joined."""
    budget = budget or Budget()
    gens = [g for g in gens if g]
    if not gens:
        return []
    basis, dropped = _Divisors(gens[0].ring), set()
    for g in gens:
        dropped.update(basis.join(_monic(g)))
    while basis.pairs:
        m, i, j = heappop(basis.pairs)
        if (i, j) not in dropped:  # by criterion B
            budget.spend()
            if remainder := reduce_poly((m, i, j), basis, budget):
                dropped.update(basis.join(_monic(remainder)))
    return basis.polys


def membership_by_division(f: GradedPoly, generators, budget: Budget | None = None) -> bool:
    """True when plain division by the generators leaves remainder zero.

    A True answer certifies membership in the generated ideal; False is
    inconclusive on its own.
    """
    gens = _prepared(f.ring, generators)
    return reduce_poly(f, gens, budget).is_zero() if gens.polys else f.is_zero()


def divide_exact(f: GradedPoly, g: GradedPoly) -> GradedPoly | None:
    """Quotient f/g when the division is exact, else None."""
    divisors = _Divisors(f.ring, (g,))
    if not g:
        raise AlgebraError("division by the zero polynomial")
    eg, a, _, _ = g._associate()
    unit = f.ring.field.raw(Fraction(a) / g.terms[eg])  # associate / g

    def divide(work):
        steps = []
        if work.reduce(steps=steps) is not None:
            return None
        return _from_raw(f.ring, {work.exponents(shift): _q_raw(c, s) * unit for shift, c, s in steps})

    return divisors.divide(f, divide)
