"""Differential tests for the term-language parser.

The parser below is the earlier arithmetic one, kept verbatim as the
reference: it builds every factor as an EPoly and multiplies and adds them.
Its scanner is the earlier character loop, also kept verbatim, which makes
one `_Token` per token and tracks line and column as it goes.  `parse_epoly`
scans with one regular expression into flat lists, builds each term in one
pass and computes a line and column only when it raises.  It must give an
equal value on well-formed text and the same exception (type, message, line
and column) on malformed text, with the variable count given or inferred.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, parse_epoly  # noqa: E402
from expoly.errors import ParseError  # noqa: E402
from expoly.scalars import IMAG_UNIT, gaussian  # noqa: E402

NVARS = 2
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference parser -----------------------------------------------------

class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "X":
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'X'", line, start_col)
            tokens.append(_Token("var", int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "E+-*/^()i":
            tokens.append(_Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            found = "end of input" if tok.kind == "end" else repr(tok.value)
            raise ParseError(f"expected {kind!r}, found {found}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def parse_epoly(self) -> EPoly:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
        out = self.parse_term() * sign
        while self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
            out = out + self.parse_term() * sign
        return out

    def parse_term(self) -> EPoly:
        out = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            out = out * self.parse_factor()
        return out

    def parse_factor(self) -> EPoly:
        tok = self.peek()
        if tok.kind == "var":
            self.take()
            if tok.value < 1 or tok.value > self.nvars:
                raise ParseError(
                    f"variable X{tok.value} out of range for "
                    f"{self.nvars} variables", tok.line, tok.col)
            base = EPoly.var(self.nvars, tok.value - 1)
            if self.peek().kind == "^":
                self.take()
                power = self.take("num")
                return base ** power.value
            return base
        if tok.kind == "E":
            self.take()
            self.take("(")
            arg = self.parse_epoly()
            self.take(")")
            return arg.exp()
        if tok.kind == "num":
            return EPoly.const(self.nvars, self.parse_rational(signed=False))
        if tok.kind == "i":
            self.take()
            return EPoly.const(self.nvars, IMAG_UNIT)
        if tok.kind == "(":
            return EPoly.const(self.nvars, self.parse_gaussian())
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def parse_rational(self, signed=True) -> Fraction:
        sign = 1
        if signed and self.peek().kind == "-":
            self.take()
            sign = -1
        num = self.take("num").value
        if self.peek().kind == "/":
            self.take()
            den = self.take("num")
            if den.value == 0:
                raise ParseError("zero denominator", den.line, den.col)
            return Fraction(sign * num, den.value)
        return Fraction(sign * num)

    def parse_gaussian(self):
        self.take("(")
        if self.peek().kind == "(":
            # Outer wrapping parens: "((a)+(b)i)".
            value = self.parse_gaussian()
            self.take(")")
            return value
        re_part = self.parse_rational()
        self.take(")")
        op = self.peek()
        if op.kind not in "+-":
            raise ParseError("expected '+' or '-' in Gaussian literal",
                             op.line, op.col)
        self.take()
        self.take("(")
        im_part = self.parse_rational()
        self.take(")")
        tok = self.take()
        if tok.kind != "i":
            raise ParseError("expected 'i' closing a Gaussian literal",
                             tok.line, tok.col)
        return gaussian(re_part, im_part if op.kind == "+" else -im_part)


def reference_parse(text: str, nvars: int | None) -> EPoly:
    tokens = _tokenize(text)
    if nvars is None:
        nvars = max([1] + [t.value for t in tokens if t.kind == "var"])
    parser = _Parser(tokens, nvars)
    value = parser.parse_epoly()
    tail = parser.take()
    if tail.kind != "end":
        raise ParseError(f"trailing input starting at {tail.value!r}",
                         tail.line, tail.col)
    return value


def outcome(parse, text, nvars=NVARS):
    """The parsed terms, or the raised exception as comparable data."""
    try:
        return parse(text, nvars).terms
    except Exception as exc:  # every exception type is compared
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))


# -- strategies -----------------------------------------------------------

numerals = st.one_of(st.integers(0, 12).map(str), st.just("\u0663"))
rationals = st.one_of(numerals, st.tuples(numerals, st.integers(1, 5)).map(
    lambda t: f"{t[0]}/{t[1]}"))
signed = st.tuples(st.sampled_from(["", "-"]), rationals).map("".join)
gaussians = st.tuples(signed, st.sampled_from("+-"), signed).map(
    lambda t: f"({t[0]}){t[1]}({t[2]})i")
scalars = st.one_of(rationals, st.just("i"), gaussians,
                    gaussians.map(lambda g: f"({g})"))
powers = st.one_of(st.just(""), st.integers(0, 3).map(lambda k: f"^{k}"))
variables = st.tuples(st.integers(1, NVARS), powers).map(
    lambda t: f"X{t[0]}{t[1]}")
atoms = st.one_of(variables, scalars)
spaces = st.sampled_from(["", "", "", " ", "  ", "\n", "\t", " \n\t"])


def sums(factors, lead=st.just("")):
    """['+'|'-'] term (('+'|'-') term)* over the given factor strings; each
    term starts with `lead`."""
    terms = st.tuples(lead, st.lists(st.tuples(factors, spaces).map("".join),
                                     min_size=1, max_size=3).map("*".join))
    terms = terms.map("".join)
    rest = st.lists(st.tuples(st.sampled_from("+-"), spaces, terms)
                    .map("".join), max_size=3)
    return st.tuples(st.sampled_from(["", "+", "-"]), terms, rest).map(
        lambda t: t[0] + t[1] + "".join(t[2]))


def exponentials(factors):
    """E(...) around a sum; most arguments have a variable in every term,
    so that they lie in the exponential domain."""
    lead = st.integers(1, NVARS).map(lambda j: f"X{j}*")
    in_domain = sums(factors, lead)
    return st.one_of(in_domain, in_domain, in_domain, sums(factors)).map(
        lambda arg: f"E({arg})")


factors = st.recursive(
    atoms, lambda inner: st.one_of(atoms, exponentials(inner)), max_leaves=6)
expressions = sums(factors)


@st.composite
def malformed(draw):
    """A well-formed string with one character deleted, inserted or
    replaced, or cut short."""
    text = draw(expressions)
    pos = draw(st.integers(0, len(text)))
    junk = draw(st.sampled_from(list("+-*/^()iEX0 #.\n\t\u0663") + ["X "]))
    edit = draw(st.sampled_from(["delete", "insert", "replace", "cut"]))
    if edit == "delete":
        return text[:pos] + text[pos + 1:]
    if edit == "insert":
        return text[:pos] + junk + text[pos:]
    if edit == "replace":
        return text[:pos] + junk + text[pos + 1:]
    return text[:pos]


# -- properties -----------------------------------------------------------

@PROPERTY
@given(expressions)
def test_parser_matches_reference(text):
    for nvars in (NVARS, None):
        assert (outcome(parse_epoly, text, nvars)
                == outcome(reference_parse, text, nvars))


@PROPERTY
@given(malformed())
def test_parser_errors_match_reference(text):
    for nvars in (NVARS, None):
        assert (outcome(parse_epoly, text, nvars)
                == outcome(reference_parse, text, nvars))


@pytest.mark.parametrize("text", [
    "", "X1 + * X2", "E(X1", "E()", "X0", "X3", "X", "X1^", "X1^-1", "1/0",
    "1/", "((1)+(2)i", "(1)*(2)i", "(1)+(2)", "(1)+(2)j", "2 3", "X1)",
    "E(1 + X1)", "E(X1)*E(2)", "i*(1)+(-1/0)i", "X1 +\n  #", "E(\nX1 +)",
    "X1 +\n\tX \n", "\u0663*X1\n\t+ 2/0", "X\u0663", "X1\n\n\t)",
])
def test_fixed_malformed_match_reference(text):
    assert outcome(parse_epoly, text) == outcome(reference_parse, text)
