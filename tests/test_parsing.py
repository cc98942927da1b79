import random
from fractions import Fraction

import pytest

from polyfunctor import AlgebraError, FieldDescriptor, GradedRing, ParseError, parse_polynomial
from polyfunctor.parsing import parse_coords, parse_matrix, parse_scalar, polynomial_variable_names

from conftest import F3, F5, Q, parse_polynomial_by_tokens


def test_parse_basic_terms():
    ring = GradedRing(Q, ["x11", "x12", "x21", "x22"])
    f = parse_polynomial("x11*x22 - x12*x21", ring)
    assert len(f.terms) == 2


def test_parse_powers_and_fractions():
    ring = GradedRing(Q, ["x", "y"])
    f = parse_polynomial("3/2*x^3 - y + 4", ring)
    assert f.to_text() == "3/2*x^3 - y + 4"
    assert parse_polynomial(f.to_text(), ring) == f


def test_parse_parentheses():
    ring = GradedRing(Q, ["x", "y"])
    assert parse_polynomial("(x + y)^2", ring) == parse_polynomial("x^2 + 2*x*y + y^2", ring)


def test_parse_unary_minus():
    ring = GradedRing(Q, ["x"])
    assert parse_polynomial("-x + 1", ring) == ring.one() - ring.var("x")


def test_parse_error_carries_position():
    ring = GradedRing(Q, ["x"])
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + @", ring)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w", ring)
    assert err.value.position == 4


def test_variable_name_inference():
    assert polynomial_variable_names("y^25*z^2 + x^10*y^25*z") == ("x", "y", "z")


def test_parse_matrix_and_coords():
    rows = parse_matrix("1,2;3,4", F5)
    assert rows == [[1, 2], [3, 4]] and all(type(e) is int for row in rows for e in row)
    coords = parse_coords("1,-1,2", Q)
    assert coords == (1, -1, 2) and all(type(c) is int for c in coords)
    with pytest.raises(ParseError):
        parse_matrix("1,2;3", F5)


def test_prime_field_printing_round_trip():
    ring = GradedRing(F5, ["a", "b"])
    f = parse_polynomial("-a + 7*b", ring)
    # canonical residues, no negative signs
    assert f.to_text() == "4*a + 2*b"
    assert parse_polynomial(f.to_text(), ring) == f


# -- malformed inputs: message and position, captured before the parser moved
# to raw terms ----------------------------------------------------------------

PARSE_ERROR_GOLDEN = [
    ("x - - y", "unexpected token '-'", 4),
    ("x+", "unexpected end of input", 2),
    ("2 3", "unexpected token '3'", 2),
    ("x^y", "expected integer exponent", 2),
    ("(x", "expected ')'", 2),
    ("1/", "expected integer denominator", 2),
    ("x + w", "unknown variable 'w'", 4),
    ("x + @", "unexpected character '@'", 4),
    (")", "unexpected token ')'", 0),
    ("x^", "expected integer exponent", 2),
    ("1/x", "expected integer denominator", 2),
    ("x*", "unexpected end of input", 2),
    ("x)", "unexpected token ')'", 1),
    ("()", "unexpected token ')'", 1),
    ("", "unexpected end of input", 0),
    ("x^-1", "expected integer exponent", 2),
    ("2/3/4", "unexpected token '/'", 3),
    ("x y", "unexpected token 'y'", 2),
    ("3*-x", "unexpected token '-'", 2),
    ("(x+y)^(2)", "expected integer exponent", 6),
    ("1/2^", "expected integer exponent", 4),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERROR_GOLDEN)
def test_parse_error_golden(text, message, position):
    ring = GradedRing(Q, ["x", "y"])
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ring)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("field", [Q, F3, F5])
def test_zero_denominator_is_a_parse_error(field):
    ring = GradedRing(field, ["x"])
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_polynomial("x + 1/0*x", ring)
    assert err.value.position == 6
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_scalar("-3/00", field)
    assert err.value.position == 3
    with pytest.raises(ParseError, match="zero denominator"):
        parse_matrix("1,2;3,1/0", field)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_coords("1/0,1", field)


def test_denominator_vanishing_in_the_prime_field_is_a_domain_error():
    ring = GradedRing(F5, ["x"])
    with pytest.raises(AlgebraError, match="denominator vanishes") as err:
        parse_polynomial("1/10*x", ring)
    assert not isinstance(err.value, ParseError)


# -- sympy oracle: seeded random texts against sympy's expansion -------------

_DENOMINATORS = (2, 4, 5, 7)  # units in F_3 and F_101


def _random_expression(rng, field, syms, depth):
    """(text, sympy expression) of a random polynomial expression with nested
    parentheses, powers of sums, fractions, unary minus, x^0 and 0^0."""
    sympy = pytest.importorskip("sympy")
    text, total = "", sympy.Integer(0)
    for i in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kinds = ("int", "frac", "name", "name", "name", "zero") + (("group",) * 2 if depth else ())
            kind = rng.choice(kinds)
            if kind == "int":
                n = rng.randint(1, 12)
                chunk, expr = str(n), sympy.Integer(n)
            elif kind == "frac":
                a, b = rng.randint(1, 9), rng.choice(_DENOMINATORS)
                p = field.characteristic
                chunk = f"{a}/{b}"
                expr = sympy.Integer(a * pow(b, -1, p) % p) if p else sympy.Rational(a, b)
            elif kind == "zero":
                chunk, expr = "0", sympy.Integer(0)
            elif kind == "name":
                s = rng.choice(syms)
                chunk, expr = s.name, s
            else:
                inner, expr = _random_expression(rng, field, syms, depth - 1)
                chunk = f"({inner})"
            if kind != "frac" and rng.random() < 0.4:
                k = rng.randint(0, 3)
                chunk, expr = f"{chunk}^{k}", expr**k
            factors.append((chunk, expr))
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "", "-", "+"))
        text += (f" {sign} " if i else sign) + "*".join(c for c, _ in factors)
        product = sympy.Mul(*(e for _, e in factors))
        total += -product if sign == "-" else product
    return text, total


@pytest.mark.parametrize("field", [Q, F3, FieldDescriptor.prime_field(101)])
def test_parse_matches_sympy_expansion(field):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"parser oracle {field}")
    ring = GradedRing(field, ["x", "y", "z"])
    syms = sympy.symbols(ring.names)
    p = field.characteristic
    options = {"modulus": p} if p else {"domain": "QQ"}
    for _ in range(150):
        text, expr = _random_expression(rng, field, syms, rng.randint(0, 3))
        poly = sympy.Poly(sympy.expand(expr), *syms, **options)
        if p:
            want = {e: int(c) % p for e, c in poly.terms() if int(c) % p}
        else:
            want = {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}
        assert parse_polynomial(text, ring).terms == want, text


def test_parser_makes_no_boxed_arithmetic(boxed_calls):
    # a 2000-term sum: a quadratic `poly + rhs` accumulation would show here
    rng = random.Random(7)
    for field in (Q, F3, FieldDescriptor.prime_field(101)):
        ring = GradedRing(field, ["x", "y", "z", "u"])
        text, want = "", {}
        for i in range(2000):
            exps = tuple(rng.randint(0, 9) for _ in ring.names)
            c = Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
            mono = "*".join(f"{n}^{e}" for n, e in zip(ring.names, exps))
            sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
            text += f"{sign}{abs(c.numerator)}/{c.denominator}*{mono}"
            want[exps] = want.get(exps, 0) + c
        boxed_calls.clear()
        f = parse_polynomial(text, ring)
        assert boxed_calls == {}
        expected = {e: r for e, c in want.items() if (r := field.raw(c))}
        assert f.terms == expected


# -- differential: the one-findall parser against the reference on tokens ---

_BLANKS = ("", "", " ", " ", "\t", "\n")


def _random_text(rng, depth):
    """A random polynomial text over x, y, z: flat sums, nested and powered
    parentheses, fractions (now and then over 0 or a multiple of 3 or 5),
    x^0, 0^0 and unary minus, with spaces, tabs and newlines as blanks."""
    terms = []
    for i in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("int", "frac", "name", "name", "zero") + (("group",) * 2 if depth else ()))
            if kind == "int":
                chunk = str(rng.randint(1, 12))
            elif kind == "frac":
                chunk = f"{rng.randint(0, 9)}/{rng.choice((1, 2, 4, 7) * 8 + (3, 5, 10, 0))}"
            elif kind == "zero":
                chunk = "0"
            elif kind == "name":
                chunk = rng.choice("xyz")
            else:
                chunk = f"({_random_text(rng, depth - 1)})"
            if rng.random() < 0.4:
                chunk += f"^{rng.randint(0, 3)}"
            factors.append(chunk)
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "", "-", "+"))
        terms.append(sign + rng.choice(_BLANKS) + f"{rng.choice(_BLANKS)}*{rng.choice(_BLANKS)}".join(factors))
    return rng.choice(_BLANKS).join(terms)


def _outcome(parse, text, ring):
    """The parsed polynomial, or the type, message and position of what was raised."""
    try:
        return parse(text, ring)
    except Exception as exc:  # which exception is raised is part of the outcome
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("field", [Q, F3, F5, FieldDescriptor.prime_field(101)])
def test_parser_matches_the_token_reference(field):
    rng = random.Random(f"parser reference {field}")
    ring = GradedRing(field, ["x", "y", "z"])
    insertable = "xyzw0123456789+-*^/() \t\n@_.é"
    for _ in range(200):
        text = _random_text(rng, rng.randint(0, 2))
        k = rng.randrange(len(text) + 1)
        deleted = text[:k] + text[k + 1:]
        inserted = text[:k] + rng.choice(insertable) + text[k:]
        for case in (text, deleted, inserted):
            assert _outcome(parse_polynomial, case, ring) == _outcome(parse_polynomial_by_tokens, case, ring), case


def test_flat_terms_skip_the_raw_kernels(monkeypatch):
    # a product of variables, coefficients and their powers is one exponent
    # list and one coefficient; only a parenthesised group goes through the
    # raw product and power kernels
    from polyfunctor import parsing

    calls = []
    for name in ("_raw_pow", "_raw_mul_into"):
        kernel = getattr(parsing, name)
        monkeypatch.setattr(parsing, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args))
    ring = GradedRing(Q, ["x", "y", "z"])
    f = parse_polynomial("3*x^2*y^3 - 1/2*z^4 + x", ring)
    assert calls == []
    assert f == ring.monomial((2, 3, 0), 3) - ring.monomial((0, 0, 4), Fraction(1, 2)) + ring.var("x")
    assert parse_polynomial("(x + y)^2*x", ring) == parse_polynomial("x^3 + 2*x^2*y + x*y^2", ring)
    assert "_raw_pow" in calls and "_raw_mul_into" in calls
