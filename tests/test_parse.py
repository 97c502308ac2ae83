"""``poly_parse`` against the parser it replaced.

``_ReferenceParser`` is the earlier parser, with its comments dropped: it
holds every intermediate as a dict exponent -> scalar and multiplies term
by term.  ``poly_parse`` now holds degree -> ``HomogPoly``
and multiplies through ``dot``.  On every text both give the same
polynomial, or the same error: the same ``ParseError`` position, the same
``HomogeneityError`` degrees.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacsyz.fields import FieldError, PrimeField, QQ
from jacsyz.poly import (VARS, HomogPoly, HomogeneityError, ParseError,
                         poly_parse)

FIELDS = [QQ, PrimeField(1000003)]


class _ReferenceParser:
    def __init__(self, text, field):
        self.text = text
        self.field = field
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self):
        terms = self.expression()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return terms

    def expression(self):
        sign = 1
        ch = self.peek()
        if ch in ("+", "-", "−"):
            self.pos += 1
            sign = -1 if ch != "+" else 1
        acc = self._scaled(self.term(), sign)
        while True:
            ch = self.peek()
            if ch in ("+", "-", "−"):
                self.pos += 1
                t = self.term()
                acc = self._add(acc, self._scaled(t, -1 if ch != "+" else 1))
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                acc = self._mul(acc, self.factor())
            elif ch == "(" or ch.isalpha():
                acc = self._mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.primary()
        while self.peek() == "^":
            self.pos += 1
            e = self.integer()
            out = {(0, 0, 0): self.field.one()}
            b = base
            n = e
            while n:
                if n & 1:
                    out = self._mul(out, b)
                b = self._mul(b, b)
                n >>= 1
            base = out
        return base

    def primary(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expression()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch in VARS:
            self.pos += 1
            exp = [0, 0, 0]
            exp[VARS.index(ch)] = 1
            return {tuple(exp): self.field.one()}
        if ch.isdecimal():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                c = self.field.coerce(Fraction(num, den))
            else:
                c = self.field.coerce(num)
            return {(0, 0, 0): c}
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def _add(self, a, b):
        F = self.field
        out = dict(a)
        for e, c in b.items():
            s = F.add(out.get(e, F.zero()), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def _mul(self, a, b):
        F = self.field
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = F.add(out.get(e, F.zero()), F.mul(c1, c2))
                if F.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return out

    def _scaled(self, a, sign):
        if sign == 1:
            return a
        return {e: self.field.neg(c) for e, c in a.items()}


def _reference_parse(text, field):
    table = _ReferenceParser(text, field).parse()
    table = {e: c for e, c in table.items() if not field.is_zero(c)}
    degrees = sorted({sum(e) for e in table})
    if len(degrees) > 1:
        raise HomogeneityError(degrees[-1], degrees[-2])
    degree = degrees[0] if degrees else -1
    return HomogPoly(field, degree, table)


def _outcome(parse, text, field):
    """The parsed polynomial, or what identifies its error."""
    try:
        return parse(text, field)
    except ParseError as exc:
        return ParseError, exc.position, str(exc)
    except HomogeneityError as exc:
        return HomogeneityError, exc.degrees
    except (FieldError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_same(text, field):
    assert (_outcome(poly_parse, text, field)
            == _outcome(_reference_parse, text, field)), text


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("text", [
    "x^2 + y", "x*", "(x+y", "2/0*x", "x^²", "", "0", "-0", "x - x",
    "x - x + y^2", "0*x + 1", "0^0", "x^0 + 1", "3x y z - (x+y)(x-y)z",
    "−x + 3/4 y", "(x+2*y+3*z)^30", "1000003*x + y", "x/3", "1/1000003",
    "2*(x + y)^2 - (x^2 + 1)", "((x))^2^3", "x^2 y", "x y^", "x)",
])
def test_examples_match_the_reference(text, field):
    _assert_same(text, field)


atoms = st.one_of(
    st.sampled_from(list(VARS)),
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 30), st.integers(0, 7)).map(
        lambda t: f"{t[0]}/{t[1]}"))


def _joined(children):
    return st.tuples(children, st.sampled_from(["+", "-", "−", "*", "", " "]),
                     children).map(lambda t: f"{t[0]}{t[1]}{t[2]}")


# powers are taken of small expressions only, so that the degree stays low
powers = st.tuples(st.recursive(atoms, _joined, max_leaves=3),
                   st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}")
expressions = st.recursive(
    st.one_of(atoms, powers),
    lambda children: st.one_of(_joined(children),
                               children.map(lambda s: f"({s})"),
                               children.map(lambda s: f"-{s}")),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(expressions, st.sampled_from(FIELDS))
def test_generated_expressions_match_the_reference(text, field):
    _assert_same(text, field)


@settings(max_examples=150, deadline=None)
@given(st.text("xyz012+-−*/^() w", max_size=8), st.sampled_from(FIELDS))
def test_arbitrary_text_matches_the_reference(text, field):
    # eight characters reach x^222222 and dense powers such as (x+y)^22
    _assert_same(text, field)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("text, terms", [
    ("x^99999", {(99999, 0, 0): 1}),
    ("x^2000*y + z^2001", {(2000, 1, 0): 1, (0, 0, 2001): 1}),
])
def test_a_sparse_text_of_high_degree_parses_in_little_memory(text, terms,
                                                              field):
    # a grid or a monomial list of that degree would take gigabytes
    tracemalloc.start()
    try:
        parsed = poly_parse(text, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == HomogPoly(field, sum(next(iter(terms))), terms)
    assert peak < 1 << 20
