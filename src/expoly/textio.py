"""Parser for the textual term language.

Grammar (whitespace insensitive)::

    epoly  := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := 'X'<digits> ['^'<digits>] | 'E' '(' epoly ')' | scalar
    scalar := <digits> ['/' <digits>] | gaussian | '(' gaussian ')' | 'i'
    gaussian := '(' rat ')' ('+'|'-') '(' rat ')' 'i'
    rat    := ['-'] <digits> ['/' <digits>]

There are no parenthesised sums, so every term is coeff * X^mono * E(sum of
arguments).  Each term is built in one pass as one (key, coefficient) pair:
`X_j^k` adds k to the monomial vector, `E(...)` joins the running exponent
by the group law and scalars multiply into the coefficient.  A whole
expression is one EPoly built from the pairs of its terms.

Printing is EPoly.__str__ (canonical descending term order); parse composed
with print is the identity on canonical values.
"""

from __future__ import annotations

from .epoly import EPoly, _exp_add, _exp_argument
from .errors import ParseError
from .scalars import IMAG_UNIT, gaussian, scalar_div


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
        pairs = [self.parse_term(sign)]
        while self.peek().kind in "+-":
            sign = -1 if self.take().kind == "-" else 1
            pairs.append(self.parse_term(sign))
        return EPoly(self.nvars, pairs)

    def parse_term(self, coeff):
        """One term as ((mono, exponent), coeff), its factors multiplied in."""
        mono = [0] * self.nvars
        exponent = None
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.take()
                if tok.value < 1 or tok.value > self.nvars:
                    raise ParseError(
                        f"variable X{tok.value} out of range for "
                        f"{self.nvars} variables", tok.line, tok.col)
                power = 1
                if self.peek().kind == "^":
                    self.take()
                    power = self.take("num").value
                mono[tok.value - 1] += power
            elif tok.kind == "E":
                self.take()
                self.take("(")
                arg = self.parse_epoly()
                self.take(")")
                exponent = _exp_add(exponent, _exp_argument(arg))
            else:
                coeff = coeff * self.parse_scalar_factor()
            if self.peek().kind != "*":
                return (tuple(mono), exponent), coeff
            self.take()

    def parse_scalar_factor(self):
        tok = self.peek()
        if tok.kind == "num":
            return self.parse_rational(signed=False)
        if tok.kind == "i":
            self.take()
            return IMAG_UNIT
        if tok.kind == "(":
            return self.parse_gaussian()
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def parse_rational(self, signed=True):
        """An int for an integral literal, else a Fraction."""
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
            return scalar_div(sign * num, den.value)
        return sign * num

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


def max_var_index(text: str) -> int:
    return max((t.value for t in _tokenize(text) if t.kind == "var"),
               default=0)


def parse_epoly(text: str, nvars: int | None = None) -> EPoly:
    """Parse the term language; nvars defaults to the largest index used."""
    tokens = _tokenize(text)
    if nvars is None:
        nvars = max((t.value for t in tokens if t.kind == "var"), default=0)
        nvars = max(nvars, 1)
    parser = _Parser(tokens, nvars)
    value = parser.parse_epoly()
    tail = parser.take()
    if tail.kind != "end":
        raise ParseError(f"trailing input starting at {tail.value!r}",
                         tail.line, tail.col)
    return value


def parse_ideal_file(path: str, nvars: int | None = None) -> list[EPoly]:
    """One exponential polynomial per line; blanks and '#' comments skipped.
    A syntax error names its line of the file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(number, ln) for number, ln
                 in enumerate(handle.read().splitlines(), 1)
                 if ln.strip() and not ln.strip().startswith("#")]
    out = []
    try:
        if nvars is None:
            nvars = 1
            for number, ln in lines:
                nvars = max(nvars, max_var_index(ln))
        for number, ln in lines:
            out.append(parse_epoly(ln, nvars))
    except ParseError as exc:
        # `number` is the line being read when the error was raised.
        raise ParseError(exc.message, number, exc.col) from None
    return out
