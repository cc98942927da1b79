"""Text grammars used by the CLI and the test fixtures.

Polynomials: terms over variables matching [a-zA-Z][a-zA-Z0-9_]*, exact
integer or integer/integer coefficients, operators + - * and ^ for powers,
with parentheses allowed, e.g. ``x11*x22 - x12*x21``.  Printing a polynomial
and re-parsing it in the same ring gives back an equal value.  Every grammar
rule returns raw terms (exponents -> unreduced raw coefficient, the format
of rings): a sum adds each term into one dict, a product or power of single
terms adds or scales exponents, and the result becomes a polynomial once.

Matrices are rows separated by ';' with ',' separated entries.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import ParseError
from .fields import FieldDescriptor, Scalar
from .rings import GradedPoly, GradedRing, _from_raw, _raw, _raw_mul_into, _raw_pow, _reduced

# every non-blank character starts a token; "bad" ones are rejected
_TOKEN = re.compile(
    r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*^()/])|(?P<bad>\S))"
)

NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

_SIGNS = {"+": 1, "-": -1}


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind), text)
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _PolyParser:
    def __init__(self, text: str, ring: GradedRing):
        self.text = text
        self.ring = ring
        self.p = ring.field.characteristic
        self.unit = (0,) * len(ring.names)
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables: dict = {}  # name -> its raw terms {exps: 1}, read only

    def peek(self) -> str:
        """Value of the next token: operators are told apart by value alone."""
        return self.tokens[self.i][1]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> GradedPoly:
        acc = self.expression()
        kind, value, pos = self.next()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos, self.text)
        return _from_raw(self.ring, acc)

    def expression(self) -> dict:
        acc: dict = {}
        sign = _SIGNS[self.next()[1]] if self.peek() in _SIGNS else 1
        while True:
            for exps, c in self.term().items():
                acc[exps] = acc.get(exps, 0) + sign * c
            if self.peek() not in _SIGNS:
                return acc
            sign = _SIGNS[self.next()[1]]

    def term(self) -> dict:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            if len(acc) == 1 == len(rhs):
                ((e1, c1),), ((e2, c2),) = acc.items(), rhs.items()
                acc = {tuple(map(operator.add, e1, e2)): c1 * c2}
            else:
                acc = _raw_mul_into({}, _reduced(acc, self.p), _reduced(rhs, self.p), 1)
        return acc

    def factor(self) -> dict:
        acc = self.atom()
        if self.peek() == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos, self.text)
            acc = _raw_pow(acc, int(value), self.p, self.unit)
        return acc

    def atom(self) -> dict:
        kind, value, pos = self.next()
        if kind == "int":
            c = int(value)
            if self.peek() == "/":
                self.next()
                kind, value, pos = self.next()
                if kind != "int":
                    raise ParseError("expected integer denominator", pos, self.text)
                if not int(value):
                    raise ParseError("zero denominator", pos, self.text)
                c = Fraction(c, int(value))
            return {self.unit: _raw(self.ring.field, c)}
        if kind == "name":
            if value not in self.variables:
                if value not in self.ring._pos:
                    raise ParseError(f"unknown variable {value!r}", pos, self.text)
                self.variables[value] = self.ring.var(value).terms
            return self.variables[value]
        if value == "(":
            acc = self.expression()
            kind, value, pos = self.next()
            if value != ")":
                raise ParseError("expected ')'", pos, self.text)
            return acc
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos, self.text)


def parse_polynomial(text: str, ring: GradedRing) -> GradedPoly:
    return _PolyParser(text, ring).parse()


def polynomial_variable_names(text: str) -> tuple[str, ...]:
    """Distinct variable names appearing in a polynomial string, sorted."""
    return tuple(sorted(set(NAME_RE.findall(text))))


def parse_scalar(text: str, field: FieldDescriptor) -> Scalar:
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    if not m:
        raise ParseError(f"bad scalar {text!r}", 0, text)
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if not den:
        raise ParseError("zero denominator", m.start(2), text)
    return field.scalar(Fraction(num, den))


def parse_matrix(text: str, field: FieldDescriptor) -> list[list[Scalar]]:
    rows = []
    width = None
    for row_text in text.strip().split(";"):
        row = [parse_scalar(entry, field) for entry in row_text.split(",")]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged matrix rows", 0, text)
        rows.append(row)
    return rows


def parse_coords(text: str, field: FieldDescriptor) -> tuple[Scalar, ...]:
    return tuple(parse_scalar(entry, field) for entry in text.strip().split(","))
