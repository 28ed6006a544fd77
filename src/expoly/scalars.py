"""Exact base-field scalars: rationals and Gaussian rationals.

A rational (an element of the field Q) is an `int` when its denominator is
1 and a `fractions.Fraction` otherwise.  An element of Q(i) with a nonzero
imaginary part is a `GaussianRational`: one reduced triple of ints
(a, b, d) standing for (a + b*i)/d, with d > 0, b != 0 and
gcd(a, b, d) = 1.  Its arithmetic works on the ints and reduces each result
with one gcd (Knuth, TAOCP vol. 2, section 4.5.1), and a result whose
imaginary part cancels is a rational, so a Gaussian rational with zero
imaginary part never exists.  The read-only parts `.re` and `.im` are
rationals under the int-or-Fraction rule.

`as_scalar`, `gaussian`, `scalar_re`, `scalar_div` and the
`GaussianRational` operators return canonical values.  Raw `Fraction`
arithmetic may still give a `Fraction` with denominator 1; it equals the
int, hashes like it and prints like it, so `==`, dict/set keys and text
output never see the difference.

`scalar_div` is the one division of coefficients: `/` on two ints would
give a float, so no other `/` may touch a coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """An element (a + b*i)/d of Q(i) with b != 0 (pure rationals are int
    or Fraction), built from its real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im):
        re, im = _rational(re), _rational(im)
        if not im:
            raise ValueError("a GaussianRational needs a nonzero imaginary "
                             "part; gaussian() collapses it to a rational")
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        # With d the lcm of reduced denominators, gcd(a, b, d) is 1.
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    @property
    def re(self) -> int | Fraction:
        return _ratio(self._a, self._d)

    @property
    def im(self) -> int | Fraction:
        return _ratio(self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (Fraction, int)):
            return False  # b != 0 by construction
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        return _make(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _make(a * c - b * e, a * e + b * c, self._d * f)

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
        return True  # b != 0 by construction

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _new(a, b, d):
    """The Gaussian rational of a reduced triple, past the constructor."""
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _make(a, b, d):
    """The canonical scalar (a + b*i)/d for ints a, b and d > 0: reduced
    with one gcd, and a rational when b is 0."""
    if not b:
        return _ratio(a, d)
    g = gcd(a, b, d)
    return _new(a // g, b // g, d // g)


def _triple(x):
    """Ints (a, b, d) with x == (a + b*i)/d and d > 0, or None if x is not
    a scalar."""
    if type(x) is int:
        return x, 0, 1
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, (Fraction, int)):
        return x.numerator, 0, x.denominator
    return None


def _ratio(n, d):
    """The canonical rational n/d of two ints (d nonzero)."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _rational(x):
    """The canonical rational equal to an int or a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact scalar: {x!r}")


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
        return _ratio(a, b)
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        # (p + q*i)/r divided by (c + e*i)/f is
        # (p + q*i)(c - e*i)*f / (r*(c^2 + e^2)).
        p, q, r = _triple(a)
        c, e, f = _triple(b)
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("Gaussian rational division by zero")
        return _make((p * c + q * e) * f, (q * c - p * e) * f, r * n)
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

