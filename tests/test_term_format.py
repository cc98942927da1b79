"""The stored term format and the no-boxing guard of the ring kernels.

GradedPoly.terms maps exponents to nonzero raw coefficients: an int in
[1, p) over F_p, and over q an int or a Fraction.  Every kernel result below
is checked against that format, and every kernel below is checked to build
no boxed scalar (FieldDescriptor.scalar or zero).  The packed monomials
of the division engine are a format of rings.py alone: no other module names
the packing helpers or the guard mask.
"""

import io
import random
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import polyfunctor
from polyfunctor import (
    FieldDescriptor,
    GradedRing,
    IdF,
    SymF,
    induced_map,
    parse_functor,
    parse_polynomial,
    reduce_poly,
    space_matrix,
)
from polyfunctor.functors import dim_polynomial
from polyfunctor.groebner import buchberger, divide_exact
from polyfunctor.hasse import DirectionSubspace, hasse_derivative, taylor_expand
from polyfunctor.proofstep import run_rank_one_example
from polyfunctor.rings import GradedPoly

from conftest import IDEALS, Q, boxed_rows, random_poly

F3 = FieldDescriptor.prime_field(3)
F101 = FieldDescriptor.prime_field(101)
FIELDS = (Q, F3, F101)


def _assert_raw(f):
    p = f.ring.field.characteristic
    for exps, c in f.terms.items():
        assert c, (exps, c)
        if p:
            assert type(c) is int and 0 < c < p, (exps, c)
        else:
            assert type(c) in (int, Fraction), (exps, type(c))


def _results(field, seed):
    """(name, polynomial) for every kernel result the format covers."""
    rng = random.Random(seed)
    q = not field.characteristic
    half = Fraction(1, 2) if q else 2
    ring = GradedRing(field, ["x", "y", "z"])
    text = "1/2*x^3*y - 2/3*y*z^2 + 3*x*z + 5" if q else "2*x^3*y - y*z^2 + 3*x*z + 5"
    f = parse_polynomial(text, ring)
    g = random_poly(rng, ring, max_degree=4, max_terms=6) + ring.var("x")
    out = [
        ("parse_polynomial", f), ("+", f + g), ("-", f - g), ("neg", -f), ("*", f * g),
        ("scalar *", f * half), ("int *", 7 * f), ("**", g ** 3),
        ("mul_term", f.mul_term((1, 0, 2), half)),
    ]
    target = GradedRing(field, ["u", "v"])
    u, v = target.var("u"), target.var("v")
    out.append(("substitute", f.substitute({"x": u + 2 * v, "y": u * v - 1, "z": v})))
    W = DirectionSubspace(ring, ("x", "y"))
    w = W.direction([2, half])
    out.extend((f"hasse_derivative {r}", hasse_derivative(f, w, r, W)) for r in range(5))
    out.append(("taylor_expand", taylor_expand(f, W)))
    out.append(("reduce_poly", reduce_poly(f * g + ring.var("y"), [g, ring.var("x") * 3 - 1])))
    out.append(("divide_exact", divide_exact(f * g, g)))
    out.extend(("buchberger", b) for b in buchberger(IDEALS["katsura3"](field)))
    a = space_matrix(field, [[half, 3, 0], [-2, 1, Fraction(2, 3) if q else 2], [4, 0, -1]])
    for expr in (SymF(2, IdF()), parse_functor("ext(2,id)"), parse_functor("sum(tsym,talt)")):
        m = induced_map(expr, a)
        out.extend(("induced_map", e) for row in boxed_rows(m) for e in row)
        out.extend(("compose", e) for row in boxed_rows(m.compose(m)) for e in row)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_results_hold_raw_coefficients(field):
    results = _results(field, 5)
    assert all(isinstance(f, GradedPoly) for _, f in results)
    for name, f in results:
        try:
            _assert_raw(f)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None
    assert any(f.terms for _, f in results)
    if not field.characteristic:
        assert any(type(c) is Fraction for _, f in results for c in f.terms.values())


def test_integral_fraction_is_the_same_coefficient():
    ring = GradedRing(Q, ["x", "y"])
    exps = (1, 2)
    a = GradedPoly(ring, {exps: 3, (0, 0): -1}, _canonical=True)
    b = GradedPoly(ring, {exps: Fraction(3), (0, 0): Fraction(-1)}, _canonical=True)
    assert a == b
    assert hash(a) == hash(b)
    assert a.to_text() == b.to_text() == "3*x*y^2 - 1"
    assert a == ring.monomial(exps, 3) - 1


def _integral_fractions(values) -> list:
    return [c for c in values if type(c) is Fraction and c.denominator == 1]


def test_no_kernel_leaves_an_integral_fraction(monkeypatch):
    """Over q an integral coefficient is an int in every kernel result, and
    in every polynomial that dim_polynomial and the rank-one example build
    (h, the k's and the certificate numerators among them)."""
    for seed in range(5):
        for name, f in _results(Q, seed):
            assert _integral_fractions(f.terms.values()) == [], (seed, name, f)
    built = []
    poly_init = GradedPoly.__init__

    def poly(self, ring, terms, _canonical=False):
        poly_init(self, ring, terms, _canonical)
        built.extend(_integral_fractions(self.terms.values()))

    monkeypatch.setattr(GradedPoly, "__init__", poly)
    for text in ("sym(2,sym(2,id))", "sym(3,id)", "ext(3,tensor(id,id))"):
        assert dim_polynomial(parse_functor(text)).terms
    assert built == []
    for n in (2, 3, 4):
        assert run_rank_one_example(n, Q).all_passed()
    assert built == []
    # the recorder sees an integral Fraction
    GradedPoly(GradedRing(Q, ["x"]), {(1,): Fraction(3)}, _canonical=True)
    assert built == [3]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_poly_and_groebner_kernels_make_no_boxed_arithmetic(field, scalar_calls):
    rng = random.Random(11)
    ring = GradedRing(field, ["x", "y", "z"])
    f = random_poly(rng, ring, max_degree=4, max_terms=6) + ring.var("x")
    g = random_poly(rng, ring, max_degree=3, max_terms=4) * ring.var("z") + 2 * ring.var("y")
    gens = IDEALS["katsura3"](field)
    product = f * g
    total = f + g
    shifted = f.mul_term((1, 1, 0), 2)
    basis = buchberger(gens)
    remainder = reduce_poly(gens[1] * gens[2] + 5, basis)
    quotient = divide_exact(product, g)
    assert _results(field, 11)
    assert scalar_calls == []
    assert quotient == f and total - g == f and shifted and remainder == 5
    # the recorder sees a boxed scalar
    field.zero()
    assert scalar_calls == [("zero", field), ("scalar", field, 0)]


# -- structural guard: only rings.py knows the packed monomial format ----------

PACKING_NAMES = {"_packing", "_packed", "_Overflow", "guard", "from_bytes", "to_bytes"}


def _names(path):
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME}


def test_only_rings_names_the_packed_monomial_format():
    package = Path(polyfunctor.__file__).parent
    found = {path.name: _names(path) & PACKING_NAMES for path in sorted(package.glob("*.py"))}
    # the scan sees the names where they live
    assert found.pop("rings.py") == PACKING_NAMES
    assert found and not any(found.values()), found
