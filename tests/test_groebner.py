import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from polyfunctor import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    FieldDescriptor,
    GradedRing,
    InternalCheckError,
    RingMismatchError,
    membership_by_division,
    parse_polynomial,
    reduce_poly,
)
from polyfunctor.groebner import DEFAULT_BUDGET, buchberger, divide_exact
from polyfunctor.rings import GradedPoly, _packing

from conftest import (
    F3, IDEALS, LARGE_IDEALS, Q, buchberger_by_tuples, leading_item, normal_form, random_ideal, random_poly, s_polynomial,
)

ALL_IDEALS = {**IDEALS, **LARGE_IDEALS}


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


# -- goldens: basis text, budget left and S-pairs reduced.  The digests are
# those the plain pair loop gave; the Gebauer-Moeller criteria skip only pairs
# that reduce to zero, so they spend less and reduce fewer pairs.

BASIS_GOLDEN = {
    ("cyclic4", "fp:32003"): ("dbeba3d39db46f95948e838d73af42818cb0b3bbd7cfbb23bc6c8179db29ef9e", 49936, 11),
    ("cyclic4", "q"): ("6bcfde6f09889f43b8c9a101f835463920bc1ab1709131f713ff464ea1aec622", 49936, 11),
    ("katsura3", "fp:32003"): ("22006073f12aff2470495582e4d7cfce30e1c73a9ad3ea65563364442f12d7c3", 49832, 13),
    ("katsura3", "q"): ("4e979f1ea90d701162f96ca2bb496fb152aaf9e8558d22943fa9e38dc57534e9", 49832, 13),
    ("katsura4", "fp:32003"): ("b15a1c97713568faeec0beb997d770112aa65864b5c26574e823bc7b6a8dea9b", 48956, 38),
    ("katsura4", "q"): ("e5ba257fcb85432a544a512d84a1143e0f3fdcd113a35aead4f100c6308eb59f", 48956, 38),
    ("minors3x4", "fp:32003"): ("10e80356d6f4a5025c3fdac536920d9d41bef26245903e760d7747ae5ad82817", 49880, 52),
    ("minors3x4", "q"): ("63f845ebc1ba97ad7c45353bbc5239bb5050107a00a5c8e6a02227bc703be056", 49880, 52),
    ("minors3x5", "fp:32003"): ("f30ad6fe14cce3ea21988142bd50b71aa4b5fcf4ac315507f58419a7dd746424", 49720, 120),
    ("minors3x5", "q"): ("e51cc76961e08834668baffd5ea3634a7e00a897bbe28315cc0979fc0493cd7d", 49720, 120),
    ("minors4x4", "fp:32003"): ("a465e02774b2cdcbf05b8b74400f3148a4c08d757eb7bed1aee28087b43b861b", 49616, 160),
    ("minors4x4", "q"): ("2d04cbdb8a5c141bace7bec08c773b30b5d872e7a513db4db74bba6c064a650c", 49616, 160),
}


@pytest.fixture
def reduced_pairs(monkeypatch):
    """The (i, j) of each S-pair buchberger reduces, in order."""
    from polyfunctor import groebner

    reduce, seen = groebner.reduce_poly, []

    def recorded(f, gens, budget=None):
        if type(f) is tuple:
            seen.append(f[1:])
        return reduce(f, gens, budget)

    monkeypatch.setattr(groebner, "reduce_poly", recorded)
    return seen


@pytest.mark.parametrize("ideal,field", sorted(BASIS_GOLDEN))
def test_buchberger_basis_and_budget_golden(ideal, field, reduced_pairs):
    gens = ALL_IDEALS[ideal](FieldDescriptor.parse(field))
    budget = Budget()
    basis = buchberger(gens, budget)
    digest = hashlib.sha256("|".join(p.to_text() for p in basis).encode()).hexdigest()
    assert (digest, budget.remaining, len(reduced_pairs)) == BASIS_GOLDEN[(ideal, field)]


# -- the pair criteria on monomial ideals, where every S-polynomial is 0 and
# the pairs reduced depend on the criteria alone.  Each generator joins in
# order; with h joining:
#   B drops a pending (i, j) with lead(h) | lcm(i, j), unless lcm(i, h) or
#     lcm(j, h) is lcm(i, j);
#   M drops a new (k, h) whose lcm another new pair's lcm properly divides;
#   F keeps one new pair of those with one lcm, none if one of them is coprime;
#   coprime new pairs are dropped last.
# The pairs left are taken smallest lcm first (yz < xy, xyz < x^2y).

CRITERIA_CASES = {
    # B: y divides lcm(xy, yz) = xyz, and (0, 2), (1, 2) have lcms xy, yz
    "B": (("x*y", "y*z", "y"), [(1, 2), (0, 2)]),
    # B's guard keeps (0, 1): lcm(xy, xz) = xyz = lcm(xy, yz); F keeps
    # (0, 2) of the two new pairs with lcm xyz
    "B guard, F": (("x*y", "y*z", "x*z"), [(0, 1), (0, 2)]),
    # M: lcm(xy, xz) = xyz properly divides lcm(x^2y, xz) = x^2yz
    "M": (("x^2*y", "x*y", "x*z"), [(1, 2), (0, 1)]),
    # F with a coprime pair: (0, 2) and (1, 2) share the lcm xy and (x, y) is
    # coprime, so neither is reduced; B's guard keeps (0, 1)
    "F coprime": (("x*y", "x", "y"), [(0, 1)]),
    # coprime pairs are never reduced
    "coprime": (("x^2", "y^3", "z"), []),
}


@pytest.mark.parametrize("case", sorted(CRITERIA_CASES))
def test_pair_criteria_skip_the_expected_pairs(case, reduced_pairs):
    texts, expected = CRITERIA_CASES[case]
    ring = GradedRing(Q, ["x", "y", "z"])
    gens = [parse_polynomial(text, ring) for text in texts]
    budget = Budget()
    assert buchberger(gens, budget) == gens
    assert reduced_pairs == expected
    assert budget.remaining == DEFAULT_BUDGET - len(expected)  # one step per pair, the S-polynomials are 0


def _assert_groebner_basis(gens, basis):
    """Buchberger's test: every S-pair of the basis reduces to 0 by it, and
    so does every generator."""
    for f, g in itertools.combinations(basis, 2):
        assert not reduce_poly(s_polynomial(f, g), basis)
    for g in gens:
        assert not reduce_poly(g, basis)


@pytest.mark.parametrize("ideal,field", sorted(BASIS_GOLDEN))
def test_golden_bases_pass_the_s_pair_test(ideal, field):
    gens = ALL_IDEALS[ideal](FieldDescriptor.parse(field))
    _assert_groebner_basis(gens, buchberger(gens))


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_random_bases_pass_the_s_pair_test(field):
    fld = FieldDescriptor.parse(field)
    rng = random.Random(f"s-pair test {field}")
    for _ in range(150):
        gens = random_ideal(rng, fld)
        _assert_groebner_basis(gens, buchberger(gens))


# Remainders of seeded random polynomials, by plain division and modulo the
# basis, with the budget left after each: pins the reduction steps taken.
REDUCE_GOLDEN = {
    ("cyclic4", "fp:32003"): "44d5415a8c81755fdbfc3f338ef4f37d4c38f1c4380e592e10df20692af3abc3",
    ("cyclic4", "q"): "80505395d1d2948b36956cda8c10a2616ab3a0df7326209def237cbfa5801979",
    ("katsura3", "fp:32003"): "0a8e931e6d64c0983e3673a79e2f2e2672ed1653846e7f9510711e05af5162a8",
    ("katsura3", "q"): "c41ef769ba955690f97826c7c5b555fdb0b183f35fdd9cf2a3531c115b19d604",
    ("katsura4", "fp:32003"): "5641ff5f3b8dac9bc5dd7a14e95a70a2547fff7ac1826c823cf93324fd85477c",
    ("katsura4", "q"): "831fc5059d4431b4b03df4577788220f508c11472c2615402cb63b24d7489df6",
    ("minors3x4", "fp:32003"): "2ac5a737e9f61dac69401a086ad3b5a1549a387327543f13b5cce790ff939718",
    ("minors3x4", "q"): "c18d254eb96cd0f81ab931af3534d5fa50b46cd8eca815e94e81c1c7a787a1ae",
    ("minors3x5", "fp:32003"): "99c03d6c5fbb43f22ff62da9102f40046133ed4bc59574815573a6167e567f82",
    ("minors3x5", "q"): "8bba3a10c842d472af73da525366c709a0df729b3db2149dce14e1380e337230",
    ("minors4x4", "fp:32003"): "105ebc94bf2e4eff1c1f187609dcf953fbc3934d285f8ee6076cc8ab03d791ff",
    ("minors4x4", "q"): "debb12f44bc46a58eeb801c3a21fbc1c759aa07f68fa5b80fb61628923387142",
}


def _reduce_digest(ideal, field):
    gens = ALL_IDEALS[ideal](FieldDescriptor.parse(field))
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


def test_buchberger_refuses_foreign_ring_generator(foreign_ring_case):
    f, g = foreign_ring_case
    with pytest.raises(RingMismatchError):
        buchberger([f, g])


# -- an independent reference: multivariate division on {exponents: Fraction}
# dicts with a plain leading-term scan, over q (p = 0) or F_p ----------------

def _reference_division(f, divisors, p, weights=None):
    """(quotient per divisor, remainder) of f under division by the divisors,
    in order, for the variable weights (all 1 by default); coefficients are
    Fractions reduced mod p."""
    def norm(c):
        return Fraction(c.numerator * pow(c.denominator, -1, p) % p) if p else c

    def lead(h):
        return max(h, key=lambda e: (sum(a * w for a, w in zip(e, weights or (1,) * len(e))), e))

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
        assert [leading_item(g)[1] for g in divisors] == [2, -3, 6, Fraction(5, 7)]
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


# -- exponents past one byte: a division that meets one widens its divisor set
# and starts again with the budget it started with, and ends as the tuple
# reference does; a set holding a divisor past one byte divides at its width
# from the start -------------------------------------------------------------

@pytest.fixture
def widths(monkeypatch):
    """Bytes per exponent of each working polynomial a division builds: the
    width of its divisor set."""
    from polyfunctor.rings import _Dividend

    seen = []
    init = _Dividend.__init__

    def logged(self, f, divisors):
        seen.append(divisors.k)
        init(self, f, divisors)

    monkeypatch.setattr(_Dividend, "__init__", logged)
    return seen


def _reference_reduce(f, divisors, steps):
    """(remainder terms, budget left) of the reference division of f, from a
    budget of steps: one step per quotient term and one per remainder term."""
    p = f.ring.field.characteristic
    quotients, remainder = _reference_division(f.terms, [g.terms for g in divisors], p, f.ring.weights)
    return remainder, steps - sum(map(len, quotients)) - len(remainder)


def _reference_quotient(h, g):
    (quotient,), rest = _reference_division(h.terms, [g.terms], h.ring.field.characteristic, h.ring.weights)
    return None if rest else quotient


@pytest.mark.parametrize("field", ("q", "fp:101"))
@pytest.mark.parametrize("e", (127, 128, 255, 300))
def test_division_with_exponents_past_one_byte(e, field, widths):
    ring = GradedRing(FieldDescriptor.parse(field), ["x", "y"])
    f = parse_polynomial(f"x^{e}*y + 1/2*x^3 - 7", ring)
    # x - y has leading term x: x^e*y becomes y^(e+1), which passes 127
    # mid-division when e = 127, so the dividend alone forces the restart; the
    # second divisor does not fit one byte, so its set divides at two from the start
    for divisors, expected in ((["x - y"], [1, 2]), (["x - y", f"y^{e + 1} - 3*y"], [2])):
        divisors = [parse_polynomial(text, ring) for text in divisors]
        widths.clear()
        budget = Budget(1000)
        remainder = reduce_poly(f, divisors, budget)
        assert (remainder.terms, budget.remaining) == _reference_reduce(f, divisors, 1000)
        assert widths == expected
    g = parse_polynomial(f"2*y^{e} - x + 1", ring)
    for h in (f * g, f * g + 1, (ring.var("x") + 2) * g):
        widths.clear()
        ours = divide_exact(h, g)
        assert (None if ours is None else ours.terms) == _reference_quotient(h, g)
        # an exact division meets no exponent above those of its inputs
        fits = [max(max(exps) for exps in terms) < 128 for terms in (h.terms, g.terms)]
        assert widths == ([1] if all(fits) else [1, 2] if fits[1] else [2])


def test_division_refuses_a_negative_exponent():
    # no field width holds one, so widening would never end
    ring = GradedRing(Q, ["x", "y"])
    x = ring.var("x")
    for f, g in ((ring.monomial((-1, 2)), x), (x, ring.monomial((1, -300)) + 1)):
        with pytest.raises(AlgebraError):
            reduce_poly(f, [g])
        with pytest.raises(AlgebraError):
            divide_exact(f, g)


@pytest.mark.parametrize("field", ("q", "fp:101"))
def test_weight_zero_exponent_passes_one_byte_mid_division(field, widths):
    ring = GradedRing(FieldDescriptor.parse(field), ["x", ("t", "aux", 0)])
    g = parse_polynomial("x - 2*t^2", ring)  # t has weight 0, so x leads
    f = parse_polynomial("x^70 + 3*x - 1/2", ring)  # t^128 appears at step 64
    for steps in (50, 63, 64, 73, 74, 1000):
        widths.clear()
        budget = Budget(steps)
        remainder, left = _reference_reduce(f, [g], steps)
        if left < 0:
            with pytest.raises(BudgetExceededError):
                reduce_poly(f, [g], budget)
            assert budget.remaining == -1
        else:
            assert (reduce_poly(f, [g], budget).terms, budget.remaining) == (remainder, left)
        assert widths == ([1] if steps < 64 else [1, 2])
    # x^64 is no multiple of g: the division fails only once t^128 leads
    widths.clear()
    assert divide_exact(ring.var("x") ** 64, g) is None
    assert _reference_quotient(ring.var("x") ** 64, g) is None
    assert widths == [1, 2]


# -- buchberger divides on one prepared divisor set and builds each S-pair
# dividend from the packed associates of its pair: every such reduction is the
# public one, reduce_poly(s_polynomial(f, g), basis) ------------------------------

@pytest.fixture
def spair_reductions(monkeypatch, widths):
    """Per S-pair reduction inside buchberger: ((remainder terms, budget left),
    the same by reduce_poly(s_polynomial(f, g), list(basis), Budget(n)), the
    widths of its own working polynomials)."""
    from polyfunctor import groebner

    reduce = groebner.reduce_poly
    seen = []

    def checked(f, gens, budget=None):
        if type(f) is not tuple:
            return reduce(f, gens, budget)
        basis, start = list(gens.polys), budget.remaining
        widths.clear()
        ours = reduce(f, gens, budget)
        own_widths = list(widths)
        reference = Budget(start)
        expected = reduce(s_polynomial(basis[f[1]], basis[f[2]]), basis, reference)
        seen.append(((ours.terms, budget.remaining), (expected.terms, reference.remaining), own_widths))
        return ours

    monkeypatch.setattr(groebner, "reduce_poly", checked)
    return seen


@pytest.mark.parametrize("ideal,field", sorted(BASIS_GOLDEN))
def test_spair_reductions_match_the_public_path(ideal, field, spair_reductions):
    buchberger(ALL_IDEALS[ideal](FieldDescriptor.parse(field)))
    assert spair_reductions
    for ours, expected, _ in spair_reductions:
        assert ours == expected


@pytest.mark.parametrize("field", ("q", "fp:101"))
def test_spair_dividend_past_one_byte(field, spair_reductions):
    p = FieldDescriptor.parse(field).characteristic
    ring = GradedRing(FieldDescriptor.parse(field), ["x", "y"])
    f, g = parse_polynomial("x^100*y + y^50", ring), parse_polynomial("x*y^90 + x^60", ring)
    # y^89*f - x^99*g = y^139 - x^159: the S-pair dividend does not fit one byte
    assert s_polynomial(f, g).terms == {(0, 139): 1, (159, 0): p - 1 if p else -1}
    basis = buchberger([f, g])
    assert len(spair_reductions) == 3 and len(basis) == 4
    for ours, expected, _ in spair_reductions:
        assert ours == expected
    # the first widens the basis, and the later ones divide at its width
    assert [own_widths for _, _, own_widths in spair_reductions] == [[1, 2], [2], [2]]


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_s_polynomial_is_a_multiple_of_the_monic_s_polynomial(field):
    ring = GradedRing(FieldDescriptor.parse(field), ["x", "y", "z"])
    rng = random.Random(f"s-polynomial {field}")
    divisors = [parse_polynomial(text, ring) for text in DIVISORS]
    for f in filter(None, divisors + [_random_fraction_poly(rng, ring) for _ in range(6)]):
        for g in divisors:
            (ef, cf), (eg, cg) = leading_item(f), leading_item(g)
            lcm = tuple(map(max, ef, eg))
            monic = (f.mul_term(tuple(a - b for a, b in zip(lcm, ef)), Fraction(1) / cf)
                     - g.mul_term(tuple(a - b for a, b in zip(lcm, eg)), Fraction(1) / cg))
            ours = s_polynomial(f, g)
            assert bool(ours) == bool(monic)
            if ours:
                assert ours * leading_item(monic)[1] == monic * leading_item(ours)[1]
            if not ring.field.characteristic:
                assert all(type(c) is int for c in ours.terms.values())


def _packed_associates(polys, weights, k):
    """The associates of the polynomials packed at k bytes per exponent, from their exponent tuples."""
    pack = _packing(weights, k)[0]
    return [(pack(e), a, tuple((pack(m), c) for m, c in items))
            for e, a, items, _ in (g._associate() for g in polys)]


def test_prepared_set_extended_in_place_matches_a_fresh_one(widths):
    from polyfunctor.rings import _Divisors

    ring = GradedRing(Q, ["x", "y"])
    texts = ("2*x^2 + y - 1/2", "-3*x*y^3 + 2", "0", "6*y^5 + x", "x^130*y - 1/3", "y - 7")
    polys = [parse_polynomial(text, ring) for text in texts]
    grown = _Divisors(ring)
    one = grown.packed  # built on no divisors, then extended in place until x^130*y widens it
    for n, g in enumerate(polys, 1):
        grown.append(g)
        fresh = _Divisors(ring, polys[:n])
        assert grown.polys == fresh.polys == [h for h in polys[:n] if h]
        assert grown.k == fresh.k == (1 if n < 5 else 2)
        assert grown.packed == fresh.packed == _packed_associates(fresh.polys, ring.weights, fresh.k)
        assert (grown.packed is one) == (n < 5) and len(grown.packed) == len(fresh.polys)
    h = parse_polynomial("x^131*y^2 + 5*x*y^4 - y", ring)
    widths.clear()
    assert reduce_poly(h, grown).terms == _reference_division(h.terms, [g.terms for g in grown.polys], 0)[1]
    assert widths == [2]


def test_spair_whose_lcm_is_no_multiple_of_a_lead_is_an_internal_check_error(widths):
    # (1, 2) is the lead of x*y^2 - 1 but no multiple of x^2, the lead of
    # x^2 - y: the shift by lcm - x^2 is no monomial, and a division of the
    # pair must fail at once rather than widen the exponents without bound
    from polyfunctor.rings import _Dividend, _Divisors

    ring = GradedRing(Q, ["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    divisors = _Divisors(ring, [x**2 - y, x * y**2 - 1])
    spair = (_packing(ring.weights, 1)[0]((1, 2)), 0, 1)
    with pytest.raises(InternalCheckError, match=r"^S-pair lcm \(1, 2\) is not a multiple of the lead \(2, 0\)$"):
        _Dividend(spair, divisors)
    widths.clear()
    with pytest.raises(InternalCheckError):
        divisors.divide(spair, lambda work: work)
    assert widths == [1]


def test_prepared_set_refuses_a_foreign_ring(foreign_ring_case):
    from polyfunctor.groebner import _prepared

    f, g = foreign_ring_case
    prepared = _prepared(g.ring, [g])
    for call in (reduce_poly, membership_by_division, normal_form):
        with pytest.raises(RingMismatchError):
            call(f, prepared)
    with pytest.raises(RingMismatchError):
        prepared.append(f)
    assert prepared.polys == [g]


# -- the pair update on packed monomials against the tuple one it replaced:
# the same pairs in the same order, so the same bases, budgets and S-pair
# sequences, in weighted rings and past one byte per exponent ----------------

@pytest.fixture
def pair_widths(monkeypatch):
    """Per widening of a divisor set: (bytes per exponent before, after,
    pairs in its heap then)."""
    from polyfunctor.rings import _Divisors

    seen = []
    widen = _Divisors.widen

    def logged(self, f=None):
        k = self.k
        f = widen(self, f)
        seen.append((k, self.k, len(self.pairs)))
        return f

    monkeypatch.setattr(_Divisors, "widen", logged)
    return seen


def _pair_run(engine, gens, steps, seen):
    """(basis, or None once the budget ran out; budget left; the (i, j) of
    each S-pair reduced) of one run of engine from a budget of steps."""
    seen.clear()
    budget = Budget(steps)
    try:
        basis = engine(gens, budget)
    except BudgetExceededError:
        basis = None
    return basis, budget.remaining, list(seen)


def _weighted_ideal(rng, field, wide):
    """Seeded random generators in 2 or 3 variables of weights 0..3: 2 to 4
    small ones, or 2 or 3 wide ones of 2 or 3 terms whose exponents reach
    30..100, so that S-pair remainders often lead with one above 127."""
    ring = GradedRing(field, [(v, "main", rng.randint(0, 3)) for v in "xyz"[:rng.choice((2, 3))]])
    if not wide:
        return [random_poly(rng, ring, max_degree=rng.randint(2, 4), max_terms=4) for _ in range(rng.randint(2, 4))]
    return [sum((ring.monomial([rng.choice((0, 1, rng.randint(30, 100))) for _ in ring.names], rng.randint(1, 5))
                 for _ in range(rng.randint(2, 3))), ring.zero())
            for _ in range(rng.randint(2, 3))]


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_pair_update_matches_the_tuple_reference(field, reduced_pairs, pair_widths):
    fld = FieldDescriptor.parse(field)
    rng = random.Random(f"pair update {field}")
    grown = 0
    for n in range(60):
        gens = _weighted_ideal(rng, fld, wide=n % 2)
        pair_widths.clear()
        ours = _pair_run(buchberger, gens, 1000, reduced_pairs)
        assert ours == _pair_run(buchberger_by_tuples, gens, 1000, reduced_pairs)
        grown += any(k < wider and pending for k, wider, pending in pair_widths)
    assert grown >= 3  # the pair data widened with pairs pending


@pytest.mark.parametrize("field", ("q", "fp:101"))
def test_pair_data_widens_with_pairs_pending(field, reduced_pairs, pair_widths):
    ring = GradedRing(FieldDescriptor.parse(field), [("x", "main", 1), ("y", "main", 2), ("z", "main", 3)])
    gens = [parse_polynomial(text, ring) for text in ("x^100*y + y^50", "x*y^90 + x^60", "y*z^90 + x^2")]
    # (0, 1) is taken first; its remainder leads with y^139, joining while
    # (0, 2) and (1, 2) are pending
    ours = _pair_run(buchberger, gens, 1000, reduced_pairs)
    assert ours[2][:1] == [(0, 1)] and (1, 2, 2) in pair_widths
    assert ours == _pair_run(buchberger_by_tuples, gens, 1000, reduced_pairs)
    assert ours[0] is not None and leading_item(ours[0][3])[0] == (0, 139, 0)


@pytest.mark.parametrize("field", ("q", "fp:101"))
def test_a_set_packs_at_its_one_width_across_a_widening_with_pairs_pending(field, reduced_pairs, monkeypatch):
    """Before and after each widening of buchberger's divisor set, its
    associates and its pending pairs' lcms are packed at its one width, and
    the pairs still form a heap."""
    from polyfunctor.rings import _Divisors

    fld = FieldDescriptor.parse(field)
    ring = GradedRing(fld, [("x", "main", 1), ("y", "main", 2), ("z", "main", 3)])
    rng = random.Random(f"one width {field}")
    ideals = [[parse_polynomial(text, ring) for text in ("x^100*y + y^50", "x*y^90 + x^60", "y*z^90 + x^2")]]
    ideals += [_weighted_ideal(rng, fld, wide=True) for _ in range(20)]

    def at_one_width(divisors):
        k, packed, pairs = divisors.k, divisors.packed, divisors.pairs
        assert divisors.packing == _packing(divisors.ring.weights, k)
        # a divisor that widens the set as it joins is packed only by the widening
        assert packed == _packed_associates(divisors.polys[:len(packed)], divisors.ring.weights, k)
        leads = [leading_item(g)[0] for g in divisors.polys]
        pack = divisors.packing[0]
        assert pairs == [(pack(tuple(map(max, leads[i], leads[j]))), i, j) for _, i, j in pairs]
        assert all(pairs[(n - 1) // 2] <= pair for n, pair in enumerate(pairs) if n)

    widen, widenings = _Divisors.widen, []

    def checked(divisors, f=None):
        at_one_width(divisors)
        k, pending = divisors.k, len(divisors.pairs)
        widened = widen(divisors, f)
        at_one_width(divisors)
        assert len(divisors.pairs) == pending and len(divisors.packed) == len(divisors.polys)
        if type(f) is tuple:  # the S-pair whose division overflowed, its lcm repacked too
            unpack, pack = _packing(divisors.ring.weights, k)[1], divisors.packing[0]
            assert widened == (pack(unpack(f[0])), *f[1:])
        widenings.append((k, divisors.k, pending))
        return widened

    monkeypatch.setattr(_Divisors, "widen", checked)
    for gens in ideals:
        ours = _pair_run(buchberger, gens, 1000, reduced_pairs)
        assert ours == _pair_run(buchberger_by_tuples, gens, 1000, reduced_pairs)
    assert (1, 2, 2) in widenings and sum(pending > 0 for *_, pending in widenings) >= 3


@pytest.mark.parametrize("field", ("q", "fp:32003"))
@pytest.mark.parametrize("ideal", ("minors4x4", "katsura4", "cyclic4"))
def test_pair_update_makes_no_order_key(ideal, field, monkeypatch):
    """GradedRing.order_key runs only in each generator's leading-term scan
    (GradedPoly._associate), once per term: an S-pair remainder joins with
    the associate its division read off the ints it popped."""
    gens = [GradedPoly(g.ring, dict(g.terms)) for g in ALL_IDEALS[ideal](FieldDescriptor.parse(field))]
    calls = []
    order_key = GradedRing.order_key

    def counted(ring, exps):
        calls.append(exps)
        return order_key(ring, exps)

    monkeypatch.setattr(GradedRing, "order_key", counted)
    buchberger(gens)
    assert len(calls) == sum(len(g.terms) for g in gens)


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:32003"))
def test_spair_remainders_join_with_their_associate(field, division_events, monkeypatch):
    """Over the ideals of the tuple-reference test, every S-pair remainder
    comes with the associate a fresh leading-term scan computes, the
    divisions that widened their set or rescaled after popping a term too."""
    from polyfunctor import groebner

    reduce, seen = groebner.reduce_poly, []

    def recorded(f, gens, budget=None):
        r = reduce(f, gens, budget)
        if type(f) is tuple and r:
            seen.append((r, gens.k, division_events[-1]))
        return r

    monkeypatch.setattr(groebner, "reduce_poly", recorded)
    fld = FieldDescriptor.parse(field)
    rng = random.Random(f"pair update {field}")
    for n in range(60):
        gens = _weighted_ideal(rng, fld, wide=n % 2)
        try:
            buchberger(gens, Budget(1000))
        except BudgetExceededError:
            pass
    for r, _, _ in seen:
        assert r._assoc == GradedPoly(r.ring, dict(r.terms))._associate()
    assert len(seen) > 300 and any(k > 1 for _, k, _ in seen)
    if not fld.characteristic:  # a term popped at an older scale than the last
        assert sum("s" in e and "r" in e[e.index("s"):] for _, _, e in seen) >= 10
