import hashlib
import random
from fractions import Fraction

import pytest

from polyfunctor import (
    Budget,
    BudgetExceededError,
    FieldDescriptor,
    GradedRing,
    RingMismatchError,
    membership_by_division,
    normal_form,
    parse_polynomial,
    reduce_poly,
)
from polyfunctor.groebner import buchberger, divide_exact, s_polynomial

from conftest import F3, IDEALS, Q, random_poly


def test_normal_form_power_of_generator():
    ring = GradedRing(Q, ["x"])
    f = parse_polynomial("x^2", ring)
    assert normal_form(f, [ring.var("x")]).is_zero()


def test_normal_form_determinant_monomials():
    ring = GradedRing(Q, ["x11", "x12", "x21", "x22"])
    f = parse_polynomial("x11*x22 - x12*x21", ring)
    assert normal_form(f, [ring.var("x11"), ring.var("x12")]).is_zero()


def test_normal_form_nonmember():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("x + 1", ring)
    assert not normal_form(f, [ring.var("y")]).is_zero()


def test_buchberger_classic_example():
    # twisted cubic: ideal of (t, t^2, t^3)
    ring = GradedRing(Q, ["x", "y", "z"])
    g1 = parse_polynomial("x^2 - y", ring)
    g2 = parse_polynomial("x^3 - z", ring)
    member = parse_polynomial("x*y - z", ring)
    assert normal_form(member, [g1, g2]).is_zero()
    # evaluation cross-check on sampled common zeros (a, a^2, a^3)
    for a in range(-5, 6):
        point = {"x": a, "y": a * a, "z": a ** 3}
        assert not member.evaluate(point)


def test_normal_form_zero_implies_vanishing_on_zeros():
    ring = GradedRing(Q, ["x", "y"])
    g1 = parse_polynomial("x^2 - y", ring)
    rng = random.Random(5)
    for _ in range(10):
        q1 = random_poly(rng, ring, max_degree=2, max_terms=3)
        f = q1 * g1
        assert normal_form(f, [g1]).is_zero()
        for a in range(-4, 5):
            assert not f.evaluate({"x": a, "y": a * a})


def test_budget_exceeded_is_reported():
    ring = GradedRing(Q, ["x", "y", "z"])
    gens = [
        parse_polynomial("x^2*y - z^3 + x", ring),
        parse_polynomial("y^2*z - x^3 + y", ring),
        parse_polynomial("z^2*x - y^3 + z", ring),
    ]
    f = parse_polynomial("x*y*z - 1", ring)
    with pytest.raises(BudgetExceededError):
        normal_form(f, gens, Budget(10))


def test_membership_by_division_is_sound():
    ring = GradedRing(Q, ["x", "y"])
    g = parse_polynomial("x^2 - y", ring)
    f = parse_polynomial("x^4 - 2*x^2*y + y^2", ring)  # g^2
    assert membership_by_division(f, [g])
    # a zero answer never lies: verify with explicit combination
    assert f == g * g


def test_reduce_poly_remainder_not_divisible():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("x*y + y", ring)
    r = reduce_poly(f, [ring.var("x")])
    assert r == ring.var("y")


def test_s_polynomial_cancels_leading_terms():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("x^2 + y", ring)
    g = parse_polynomial("x*y + 1", ring)
    s = s_polynomial(f, g)
    assert s == parse_polynomial("y^2 - x", ring)


def test_divide_exact():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("x^2 - y^2", ring)
    g = parse_polynomial("x - y", ring)
    assert divide_exact(f, g) == parse_polynomial("x + y", ring)
    assert divide_exact(parse_polynomial("x^2 + 1", ring), g) is None


def test_buchberger_over_prime_field():
    ring = GradedRing(F3, ["x", "y"])
    g1 = parse_polynomial("x^2 + y", ring)
    g2 = parse_polynomial("x*y + 2", ring)
    basis = buchberger([g1, g2])
    member = g1 * parse_polynomial("y^2 + x", ring) + g2 * parse_polynomial("x + 1", ring)
    assert reduce_poly(member, basis).is_zero()


# -- goldens: basis text and budget left, as the plain-scan engine gave them;
# they pin the order in which pairs are taken and the budget spent.

BASIS_GOLDEN = {
    ("cyclic4", "fp:32003"): ("dbeba3d39db46f95948e838d73af42818cb0b3bbd7cfbb23bc6c8179db29ef9e", 49748),
    ("cyclic4", "q"): ("6bcfde6f09889f43b8c9a101f835463920bc1ab1709131f713ff464ea1aec622", 49748),
    ("katsura3", "fp:32003"): ("22006073f12aff2470495582e4d7cfce30e1c73a9ad3ea65563364442f12d7c3", 49565),
    ("katsura3", "q"): ("4e979f1ea90d701162f96ca2bb496fb152aaf9e8558d22943fa9e38dc57534e9", 49565),
    ("minors3x4", "fp:32003"): ("10e80356d6f4a5025c3fdac536920d9d41bef26245903e760d7747ae5ad82817", 49771),
    ("minors3x4", "q"): ("63f845ebc1ba97ad7c45353bbc5239bb5050107a00a5c8e6a02227bc703be056", 49771),
}


@pytest.mark.parametrize("ideal,field", sorted(BASIS_GOLDEN))
def test_buchberger_basis_and_budget_golden(ideal, field):
    gens = IDEALS[ideal](FieldDescriptor.parse(field))
    budget = Budget()
    basis = buchberger(gens, budget)
    digest = hashlib.sha256("|".join(p.to_text() for p in basis).encode()).hexdigest()
    assert (digest, budget.remaining) == BASIS_GOLDEN[(ideal, field)]


# Remainders of seeded random polynomials, by plain division and modulo the
# basis, with the budget left after each: pins the reduction steps taken.
REDUCE_GOLDEN = {
    ("cyclic4", "fp:32003"): "44d5415a8c81755fdbfc3f338ef4f37d4c38f1c4380e592e10df20692af3abc3",
    ("cyclic4", "q"): "80505395d1d2948b36956cda8c10a2616ab3a0df7326209def237cbfa5801979",
    ("katsura3", "fp:32003"): "0a8e931e6d64c0983e3673a79e2f2e2672ed1653846e7f9510711e05af5162a8",
    ("katsura3", "q"): "c41ef769ba955690f97826c7c5b555fdb0b183f35fdd9cf2a3531c115b19d604",
    ("minors3x4", "fp:32003"): "2ac5a737e9f61dac69401a086ad3b5a1549a387327543f13b5cce790ff939718",
    ("minors3x4", "q"): "c18d254eb96cd0f81ab931af3534d5fa50b46cd8eca815e94e81c1c7a787a1ae",
}


def _reduce_digest(ideal, field):
    gens = IDEALS[ideal](FieldDescriptor.parse(field))
    ring = gens[0].ring
    rng = random.Random(f"{ideal} {field}")
    basis = buchberger(gens)
    out = []
    for _ in range(4):
        f = random_poly(rng, ring, max_degree=3, max_terms=6)
        for g in gens[:2]:
            f = f + g * random_poly(rng, ring, max_degree=2, max_terms=4)
        for divisors in (gens, basis):
            budget = Budget()
            out.append(f"{reduce_poly(f, divisors, budget).to_text()} {budget.remaining}")
    return hashlib.sha256("|".join(out).encode()).hexdigest()


@pytest.mark.parametrize("ideal,field", sorted(REDUCE_GOLDEN))
def test_reduce_poly_remainder_and_budget_golden(ideal, field):
    assert _reduce_digest(ideal, field) == REDUCE_GOLDEN[(ideal, field)]


# -- generators from another ring are refused, not silently misread ----------

@pytest.fixture
def foreign_ring_case():
    f = parse_polynomial("y^2", GradedRing(Q, ["x", "y"]))
    g = parse_polynomial("x*z", GradedRing(Q, ["x", "y", "z"]))
    return f, g


def test_reduce_poly_refuses_foreign_ring_generator(foreign_ring_case):
    f, g = foreign_ring_case
    with pytest.raises(RingMismatchError):
        reduce_poly(f, [g])


def test_normal_form_refuses_foreign_ring_generator(foreign_ring_case):
    f, g = foreign_ring_case
    with pytest.raises(RingMismatchError):
        normal_form(f, [g])


def test_membership_by_division_refuses_foreign_ring_generator(foreign_ring_case):
    f, g = foreign_ring_case
    with pytest.raises(RingMismatchError):
        membership_by_division(f, [g])


def test_divide_exact_refuses_foreign_ring_divisor(foreign_ring_case):
    f, g = foreign_ring_case
    with pytest.raises(RingMismatchError):
        divide_exact(f, g)
    with pytest.raises(RingMismatchError):
        divide_exact(g, f)


# -- an independent reference: multivariate division on {exponents: Fraction}
# dicts with a plain leading-term scan, over q (p = 0) or F_p ----------------

def _reference_division(f, divisors, p):
    """(quotient per divisor, remainder) of f under division by the divisors,
    in order, for weight-1 variables; coefficients are Fractions reduced mod p."""
    def norm(c):
        return Fraction(c.numerator * pow(c.denominator, -1, p) % p) if p else c

    def lead(h):
        return max(h, key=lambda e: (sum(e), e))

    work, remainder, quotients = {e: Fraction(c) for e, c in f.items()}, {}, [{} for _ in divisors]
    while work:
        m = lead(work)
        for g, quotient in zip(divisors, quotients):
            lg = lead(g)
            if all(a <= b for a, b in zip(lg, m)):
                t, shift = norm(work[m] / Fraction(g[lg])), tuple(a - b for a, b in zip(m, lg))
                quotient[shift] = t
                for e, k in g.items():
                    e = tuple(a + b for a, b in zip(e, shift))
                    if v := norm(work.pop(e, 0) - t * k):
                        work[e] = v
                break
        else:
            remainder[m] = work.pop(m)
    return quotients, remainder


DIVISORS = ("2*x^2 + y - 1/2", "-3*x*y + 2*z", "6*y^2 + 4*z + x", "5/7*z^2 + 1/2*x")


def _random_fraction_poly(rng, ring):
    terms = {}
    for _ in range(rng.randint(3, 7)):
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(3)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 7)))
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


@pytest.fixture
def division_events(monkeypatch):
    """Per division, the string of its rescales ("r") and remainder splits
    ("s"), in order."""
    from polyfunctor.rings import _Dividend

    events = []

    def logged(method, mark):
        def wrapper(self, *args):
            if mark:
                events[-1] += mark
            else:
                events.append("")
            return method(self, *args)
        return wrapper

    for name, mark in (("__init__", ""), ("rescale", "r"), ("pop_leading", "s")):
        monkeypatch.setattr(_Dividend, name, logged(getattr(_Dividend, name), mark))
    return events


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_division_matches_fraction_reference(field, division_events):
    fld = FieldDescriptor.parse(field)
    ring = GradedRing(fld, ["x", "y", "z"])
    p = fld.characteristic
    divisors = [parse_polynomial(text, ring) for text in DIVISORS]
    if not p:
        assert [g.leading_item()[1] for g in divisors] == [2, -3, 6, Fraction(5, 7)]
    rng = random.Random(f"division {field}")
    exact = 0
    for _ in range(12):
        f = _random_fraction_poly(rng, ring)
        _, remainder = _reference_division(f.terms, [g.terms for g in divisors], p)
        assert reduce_poly(f, divisors).terms == remainder
        for g in divisors:
            h = f * g + (1 if rng.random() < 0.3 else 0)
            (quotient,), rest = _reference_division(h.terms, [g.terms], p)
            ours = divide_exact(h, g)
            assert (None if rest else quotient) == (None if ours is None else ours.terms)
            exact += not rest
    assert exact >= 24
    if not p:
        # some division rescales (a does not divide c) after splitting off a term
        assert any("s" in e and "r" in e[e.index("s"):] for e in division_events)
    else:
        assert not any("r" in e for e in division_events)
