"""Exact base-field scalars: rationals and Gaussian rationals.

Scalars are either `fractions.Fraction` (the field Q) or `GaussianRational`
(the field Q(i)).  A Gaussian rational with zero imaginary part is never
constructed: all arithmetic routes through `gaussian()`, which collapses such
values back to Fraction.  This keeps representations unique, so `==` on
scalars is exactly equality of values and dict/set keys behave canonically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, PartialityError

Rational = Fraction


class GaussianRational:
    """An element a + b*i of Q(i) with b != 0 (pure rationals are Fraction)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = Fraction(re)
        self.im = Fraction(im)

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
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self * scalar_inv(o)

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o * scalar_inv(self)

    def __bool__(self):
        return True  # im != 0 by construction

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _lift(x):
    """View x as a Gaussian rational, or None if it is not a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (Fraction, int)):
        return GaussianRational(x, 0)
    return None


def gaussian(re, im) -> Fraction | GaussianRational:
    """Canonical element of Q(i): collapses to Fraction when im == 0."""
    im = Fraction(im)
    if im == 0:
        return Fraction(re)
    return GaussianRational(re, im)


IMAG_UNIT = GaussianRational(0, 1)


def as_scalar(x) -> Fraction | GaussianRational:
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_re(c) -> Fraction:
    return c.re if isinstance(c, GaussianRational) else Fraction(c)


def scalar_im(c) -> Fraction:
    return c.im if isinstance(c, GaussianRational) else Fraction(0)


def scalar_inv(c):
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    if isinstance(c, GaussianRational):
        n = c.re * c.re + c.im * c.im  # nonzero since im != 0
        return gaussian(c.re / n, -c.im / n)
    c = Fraction(c)
    if c == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    return 1 / c


def scalar_sort_key(c) -> tuple[Fraction, Fraction]:
    """Deterministic total order on scalars: lexicographic on (re, im)."""
    return (scalar_re(c), scalar_im(c))


def format_scalar(c) -> str:
    """Canonical text: `p/q` for rationals, `(a)+(b)i` for Gaussians."""
    if isinstance(c, GaussianRational):
        return f"({c.re})+({c.im})i"
    return str(Fraction(c))


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


def _parse_rational(s: str) -> Fraction:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational literal {s!r}") from exc


class BaseField:
    """Descriptor for one of the supported base fields, Q or Q(i).

    The exponential domain A(R) is {0} on both: no nontrivial exact
    exponential exists on these fields, so E is total only on zero.
    """

    __slots__ = ("tag",)

    def __init__(self, tag):
        if tag not in ("Q", "Q_i"):
            raise ValueError(f"unknown base field tag {tag!r}")
        self.tag = tag

    def exp(self, a):
        """The partial exponential on A(R) = {0}: defined only at zero."""
        if as_scalar(a) != 0:
            raise PartialityError(
                f"E undefined on base-field element {format_scalar(a)}: "
                "exponential domain is {0}"
            )
        return Fraction(1)

    def contains(self, c) -> bool:
        if self.tag == "Q":
            return not isinstance(c, GaussianRational)
        return True

    def sample(self, rng, span=20):
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        re = Fraction(num, den)
        if self.tag == "Q":
            return re
        return gaussian(re, Fraction(rng.randint(-span, span),
                                     rng.randint(1, span)))

    def __repr__(self):
        return f"BaseField({self.tag!r})"


RATIONALS = BaseField("Q")
GAUSSIAN_RATIONALS = BaseField("Q_i")
