"""Text grammars used by the CLI and the test fixtures.

Polynomials: terms over variables matching [a-zA-Z][a-zA-Z0-9_]*, exact
integer or integer/integer coefficients, operators + - * and ^ for powers,
with parentheses allowed, e.g. ``x11*x22 - x12*x21``.  Printing a polynomial
and re-parsing it in the same ring gives back an equal value.  The polynomial
and the functor grammar share one tokenizer: one findall per text, tokens as
plain strings, a position found (by a second scan) only for a ParseError.
Each term gathers its variables, coefficients and powers into one exponent
list and one raw coefficient (the format of rings) added into the sum's one
dict; only a parenthesised group is multiplied or raised as raw terms.

Matrices are rows separated by ';' with ',' separated entries.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import ParseError
from .fields import FieldDescriptor
from .rings import GradedPoly, GradedRing, _from_raw, _raw_mul_into, _raw_pow, _reduced

# a token is the group; a match without it is a character no token starts
# with, reported at its own position
_TOKEN = re.compile(r"\s*([a-zA-Z][a-zA-Z0-9_]*|\d+|[-+*^()/])|\S")

_SIGNS = {"+": 1, "-": -1}


class _Parser:
    """Recursive descent over a text's tokens: group 1 of each match of the
    class's pattern, found by one findall, then "" for the end.  A match
    without group 1 is an unexpected character.  A position is found only
    for a ParseError, by scanning the text again."""

    pattern: re.Pattern

    def __init__(self, text: str):
        self.text, self.tokens, self.i = text, self.pattern.findall(text), 0
        if "" in self.tokens:
            raise self.error("", self.tokens.index(""))
        self.tokens.append("")

    def error(self, message: str, i: int) -> ParseError:
        """ParseError at token i; an unexpected character at the start of its match."""
        m = next(itertools.islice(self.pattern.finditer(self.text), i, None), None)
        if m and not m[1]:
            return ParseError(f"unexpected character {m[0][-1]!r}", m.start(), self.text)
        return ParseError(message, m.start(1) if m else len(self.text), self.text)


class _PolyParser(_Parser):
    pattern = _TOKEN

    def __init__(self, text: str, ring: GradedRing):
        super().__init__(text)
        self.ring = ring

    def parse(self) -> GradedPoly:
        acc = self.expression()
        if self.tokens[self.i]:
            raise self.error(f"unexpected token {self.tokens[self.i]!r}", self.i)
        return _from_raw(self.ring, acc)

    def expression(self) -> dict:
        acc, tokens = {}, self.tokens
        sign = _SIGNS.get(tokens[self.i])
        if sign:
            self.i += 1
        while True:
            self.term(acc, sign or 1)
            sign = _SIGNS.get(tokens[self.i])
            if not sign:
                return acc
            self.i += 1

    def term(self, acc: dict, c):
        """acc += c * the product of factors from the next token on."""
        tokens, ring, i, group = self.tokens, self.ring, self.i, None
        p, exps = ring.field.characteristic, [0] * len(ring.names)
        while True:
            tok = tokens[i]
            if tok[:1].isalpha():
                k = ring._pos.get(tok)
                if k is None:
                    raise self.error(f"unknown variable {tok!r}", i)
                i, n = self.power(i + 1)
                exps[k] += n
            elif tok.isdigit():
                v = int(tok)
                if tokens[i + 1] == "/":
                    i += 2
                    if not tokens[i].isdigit():
                        raise self.error("expected integer denominator", i)
                    if not int(tokens[i]):
                        raise self.error("zero denominator", i)
                    v = Fraction(v, int(tokens[i]))
                v = ring.field.raw(v)
                i, n = self.power(i + 1)
                c *= pow(v, n, p) if p else v**n
            elif tok == "(":
                self.i = i + 1
                g, i = self.expression(), self.i
                if tokens[i] != ")":
                    raise self.error("expected ')'", i)
                i, n = self.power(i + 1)
                if n != 1:
                    g = _raw_pow(g, n, p, (0,) * len(exps))
                group = g if group is None else _raw_mul_into({}, _reduced(group, p), _reduced(g, p), 1)
            else:
                raise self.error(f"unexpected token {tok!r}" if tok else "unexpected end of input", i)
            if tokens[i] != "*":
                break
            i += 1
        self.i, exps = i, tuple(exps)
        if group is None:
            acc[exps] = acc.get(exps, 0) + c
        else:
            _raw_mul_into(acc, group.items(), ((exps, c),), 1)

    def power(self, i: int) -> tuple:
        """(next index, n) of an optional ^n at token i, n = 1 without one."""
        if self.tokens[i] != "^":
            return i, 1
        if not self.tokens[i + 1].isdigit():
            raise self.error("expected integer exponent", i + 1)
        return i + 2, int(self.tokens[i + 1])


def parse_polynomial(text: str, ring: GradedRing) -> GradedPoly:
    return _PolyParser(text, ring).parse()


def polynomial_variable_names(text: str) -> tuple[str, ...]:
    """Distinct variable names appearing in a polynomial string, sorted."""
    return tuple(sorted({t for t in _TOKEN.findall(text) if t[:1].isalpha()}))


def parse_scalar(text: str, field: FieldDescriptor):
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    if not m:
        raise ParseError(f"bad scalar {text!r}", 0, text)
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if not den:
        raise ParseError("zero denominator", m.start(2), text)
    return field.raw(Fraction(num, den))


def parse_matrix(text: str, field: FieldDescriptor) -> list[list]:
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


def parse_coords(text: str, field: FieldDescriptor) -> tuple:
    return tuple(parse_scalar(entry, field) for entry in text.strip().split(","))
