"""Exact base-field scalars: rationals and Gaussian rationals.

A rational (an element of the field Q) is an `int` when its denominator is
1 and a `fractions.Fraction` otherwise; an element of Q(i) with a nonzero
imaginary part is a `GaussianRational`.  A Gaussian rational with zero
imaginary part is never constructed: all arithmetic routes through
`gaussian()`, which collapses such values back to a rational.  The parts of
a Gaussian rational follow the same int-or-Fraction rule.

`as_scalar`, `gaussian`, `scalar_re`, `parse_scalar` and `scalar_div`
return canonical values.  Raw `Fraction` arithmetic may still give a
`Fraction` with denominator 1; it equals the int, hashes like it and prints
like it, so `==`, dict/set keys and text output never see the difference.

`scalar_div` is the one division of coefficients: `/` on two ints would
give a float, so no other `/` may touch a coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class GaussianRational:
    """An element a + b*i of Q(i) with b != 0 (pure rationals are int or
    Fraction)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = _rational(re)
        self.im = _rational(im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (Fraction, int)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return gaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return gaussian(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return gaussian(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (GaussianRational, Fraction, int)):
            return NotImplemented
        return scalar_div(self, other)

    def __rtruediv__(self, other):
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        return scalar_div(other, self)

    def __bool__(self):
        return True  # im != 0 by construction

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _rational(x):
    """The canonical rational equal to an int or a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _lift(x):
    """View x as a Gaussian rational, or None if it is not a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (Fraction, int)):
        return GaussianRational(x, 0)
    return None


def gaussian(re, im) -> int | Fraction | GaussianRational:
    """Canonical element of Q(i): a rational when im == 0."""
    if not im:
        return _rational(re)
    return GaussianRational(re, im)


IMAG_UNIT = GaussianRational(0, 1)


def as_scalar(x) -> int | Fraction | GaussianRational:
    """The canonical scalar equal to an int, Fraction or Gaussian rational."""
    if type(x) is int or isinstance(x, GaussianRational):
        return x
    return _rational(x)


def scalar_re(c) -> int | Fraction:
    if type(c) is int:
        return c
    return c.re if isinstance(c, GaussianRational) else _rational(c)


def scalar_im(c) -> int | Fraction:
    return c.im if isinstance(c, GaussianRational) else 0


def scalar_div(a, b):
    """The canonical quotient a / b of two scalars; raises
    ZeroDivisionError when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if isinstance(b, GaussianRational):
        n = b.re * b.re + b.im * b.im  # nonzero since im != 0
        return a * GaussianRational(scalar_div(b.re, n), scalar_div(-b.im, n))
    if isinstance(a, GaussianRational):
        return GaussianRational(scalar_div(a.re, b), scalar_div(a.im, b))
    return _rational(Fraction(a) / b)


def scalar_inv(c):
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    return scalar_div(1, c)


def scalar_sort_key(c) -> tuple:
    """Deterministic total order on scalars: lexicographic on (re, im)."""
    return (scalar_re(c), scalar_im(c))


def format_scalar(c) -> str:
    """Canonical text: `p/q` for rationals, `(a)+(b)i` for Gaussians."""
    if isinstance(c, GaussianRational):
        return f"({c.re})+({c.im})i"
    return str(_rational(c))


def parse_scalar(text: str):
    """Parse the canonical scalar text form (unreduced fractions accepted)."""
    s = text.strip()
    if s.endswith("i"):
        body = s[:-1]
        for cut in range(1, len(body)):
            if body[cut] in "+-" and body[cut - 1] == ")":
                try:
                    re_part = _parse_rational(body[:cut].strip())
                    sign = -1 if body[cut] == "-" else 1
                    im_part = _parse_rational(body[cut + 1:].strip())
                    return gaussian(re_part, sign * im_part)
                except ParseError:
                    continue
        raise ParseError(f"malformed Gaussian rational literal {text!r}")
    return _parse_rational(s)


def _parse_rational(s: str) -> int | Fraction:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    try:
        return _rational(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational literal {s!r}") from exc

