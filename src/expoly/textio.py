"""Parser for the textual term language.

Grammar (whitespace insensitive)::

    epoly    := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := 'X'<digits> ['^'<digits>] | 'E' '(' epoly ')' | scalar
    scalar   := <digits> ['/' <digits>] | gaussian | 'i'
    gaussian := '(' rat ')' ('+'|'-') '(' rat ')' 'i' | '(' gaussian ')'
    rat      := ['-'] <digits> ['/' <digits>]

There are no parenthesised sums, so every term is coeff * X^mono * E(sum of
arguments).  Each term is built in one pass as one (key, coefficient) pair:
`X_j^k` adds k to the monomial vector, `E(...)` joins the running exponent
by the group law and scalars multiply into the coefficient.  A whole
expression is one EPoly built from the pairs of its terms.

`_tokenize` scans a text once with one compiled regular expression and
holds its tokens as three parallel lists: kinds ("num", "var", an operator
character, and a closing "end"), values (the int of a numeral or of a
variable index, the operator, None) and character offsets.  The parser
reads them by index.  A ParseError's line and column (from 1; only "\n"
breaks a line) are computed from the token's offset when it is raised.

Printing is EPoly.__str__ (canonical descending term order); parse composed
with print is the identity on canonical values.
"""

from __future__ import annotations

import re

from .epoly import EPoly, _exp_add, _exp_argument
from .errors import ParseError
from .scalars import IMAG_UNIT, gaussian, scalar_div

# One token after optional whitespace: a numeral, a variable (X and its
# digits), an operator, or any other character, which is an error.
_TOKEN = re.compile(r"\s*(?:(\d+)|(X\d*)|([-+*/^()Ei])|(\S))")


def _error(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset `pos` of `text`, at its line and column."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> tuple[list, list, list]:
    """Parallel (kinds, values, offsets) lists, ended by an "end" token."""
    kinds, values, offsets = [], [], []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        token = match[group]
        try:
            if group == 1:
                kinds.append("num")
                values.append(int(token))
            elif group == 3:
                kinds.append(token)
                values.append(token)
            elif group == 2 and len(token) > 1:
                kinds.append("var")
                values.append(int(token[1:]))
            else:
                raise _error(text, match.start(group),
                             "expected digits after 'X'" if group == 2
                             else f"unexpected character {token!r}")
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits().
            raise _error(text, match.start(group),
                         f"too many digits ({len(token.lstrip('X'))}) in "
                         "one numeral") from None
        offsets.append(match.start(group))
    kinds.append("end")
    values.append(None)
    offsets.append(len(text))
    return kinds, values, offsets


class _Parser:
    """Recursive descent over the token lists of one text; `pos` indexes
    the next token."""

    def __init__(self, text, tokens, nvars):
        self.text = text
        self.kinds, self.values, self.offsets = tokens
        self.pos = 0
        self.nvars = nvars

    def error(self, message, pos=None):
        pos = self.pos if pos is None else pos
        return _error(self.text, self.offsets[pos], message)

    def expect(self, kind):
        """Consume the next token, which must be of `kind`; its value."""
        pos = self.pos
        if self.kinds[pos] != kind:
            found = ("end of input" if self.kinds[pos] == "end"
                     else repr(self.values[pos]))
            raise self.error(f"expected {kind!r}, found {found}")
        self.pos = pos + 1
        return self.values[pos]

    def parse_epoly(self) -> EPoly:
        kinds = self.kinds
        pairs = []
        sign = 1
        if kinds[self.pos] in "+-":
            sign = -1 if kinds[self.pos] == "-" else 1
            self.pos += 1
        while True:
            pairs.append(self.parse_term(sign))
            kind = kinds[self.pos]
            if kind not in "+-":
                return EPoly(self.nvars, pairs)
            sign = -1 if kind == "-" else 1
            self.pos += 1

    def parse_term(self, coeff):
        """One term as ((mono, exponent), coeff), its factors multiplied in."""
        kinds, values, nvars = self.kinds, self.values, self.nvars
        mono = [0] * nvars
        exponent = None
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == "var":
                index = values[pos]
                if not 0 < index <= nvars:
                    raise self.error(f"variable X{index} out of range for "
                                     f"{nvars} variables")
                if kinds[pos + 1] == "^":
                    self.pos = pos + 2
                    mono[index - 1] += self.expect("num")
                else:
                    self.pos = pos + 1
                    mono[index - 1] += 1
            elif kind == "E":
                self.pos = pos + 1
                self.expect("(")
                arg = self.parse_epoly()
                self.expect(")")
                exponent = _exp_add(exponent, _exp_argument(arg))
            elif kind == "num":
                coeff = coeff * self.parse_rational(signed=False)
            elif kind == "i":
                self.pos = pos + 1
                coeff = coeff * IMAG_UNIT
            elif kind == "(":
                coeff = coeff * self.parse_gaussian()
            elif kind == "end":
                raise self.error("unexpected end of input")
            else:
                raise self.error(f"unexpected token {values[pos]!r}")
            if kinds[self.pos] != "*":
                return (tuple(mono), exponent), coeff
            self.pos += 1

    def parse_rational(self, signed=True):
        """An int for an integral literal, else a Fraction."""
        sign = 1
        if signed and self.kinds[self.pos] == "-":
            self.pos += 1
            sign = -1
        num = sign * self.expect("num")
        if self.kinds[self.pos] != "/":
            return num
        self.pos += 1
        den = self.expect("num")
        if den == 0:
            raise self.error("zero denominator", self.pos - 1)
        return scalar_div(num, den)

    def parse_gaussian(self):
        self.expect("(")
        if self.kinds[self.pos] == "(":
            # Outer wrapping parens: "((a)+(b)i)".
            value = self.parse_gaussian()
            self.expect(")")
            return value
        re_part = self.parse_rational()
        self.expect(")")
        op = self.kinds[self.pos]
        if op not in "+-":
            raise self.error("expected '+' or '-' in Gaussian literal")
        self.pos += 1
        self.expect("(")
        im_part = self.parse_rational()
        self.expect(")")
        if self.kinds[self.pos] != "i":
            raise self.error("expected 'i' closing a Gaussian literal")
        self.pos += 1
        return gaussian(re_part, im_part if op == "+" else -im_part)


# The most variables a value may have: memory grows with the count.
_MAX_VARS = 100_000


def _var_count(text, tokens) -> int:
    """The largest variable index the tokens of `text` use, at least 1; an
    index above _MAX_VARS is a syntax error at that variable."""
    count = 1
    for kind, value, offset in zip(*tokens):
        if kind == "var":
            if value > _MAX_VARS:
                raise _error(text, offset, f"variable X{value} is above the "
                             f"bound of {_MAX_VARS:,} variables")
            count = max(count, value)
    return count


def _parse_tokens(text, tokens, nvars: int) -> EPoly:
    parser = _Parser(text, tokens, nvars)
    value = parser.parse_epoly()
    if parser.kinds[parser.pos] != "end":
        raise parser.error("trailing input starting at "
                           f"{parser.values[parser.pos]!r}")
    return value


def parse_epoly(text: str, nvars: int | None = None) -> EPoly:
    """Parse the term language; nvars defaults to the largest index used."""
    tokens = _tokenize(text)
    return _parse_tokens(text, tokens, _var_count(text, tokens)
                         if nvars is None else nvars)


def parse_ideal_file(path: str, nvars: int | None = None) -> list[EPoly]:
    """One exponential polynomial per line; blanks and '#' comments skipped.
    Each line is tokenized once, and a syntax error names its line of the
    file.  A byte-order mark that starts the file is skipped."""
    return _parse_all(path, [], nvars)[1]


def _parse_all(path: str | None, texts, nvars: int | None):
    """(count, generators, values): the lines of the ideal file at `path`
    as in `parse_ideal_file` (none for None) and the values of `texts`,
    all over one variable count, `nvars` or else the largest index any of
    them names.  Each text is tokenized once; an error in one names its
    own line and column."""
    lines = []
    if path is not None:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = [(number, ln) for number, ln
                     in enumerate(handle.read().splitlines(), 1)
                     if ln.strip() and not ln.strip().startswith("#")]
    lines += [(None, text) for text in texts]
    scanned, out = [], []
    try:
        for number, ln in lines:
            scanned.append((number, ln, _tokenize(ln)))
        if nvars is None:
            nvars = 1
            for number, ln, tokens in scanned:
                nvars = max(nvars, _var_count(ln, tokens))
        for number, ln, tokens in scanned:
            out.append(_parse_tokens(ln, tokens, nvars))
    except ParseError as exc:
        # `number` is the file line being read when the error was raised.
        if number is None:
            raise
        raise ParseError(exc.message, number, exc.col) from None
    split = len(lines) - len(texts)
    return nvars, out[:split], out[split:]
