"""Differential tests for the Gaussian-rational representation.

The class below is the earlier pair-of-rationals `GaussianRational`, kept
verbatim as the reference together with the helpers it used: it stores the
real and imaginary parts as two int-or-Fraction values and does its
arithmetic with `Fraction` products and sums.  `scalars.GaussianRational`
stores one reduced integer triple (a, b, d), meaning (a + b*i)/d.  Mixed
with int and Fraction operands, every operation must give the same
canonical value as the reference: the same type, parts, text, sort key,
hash and repr, and the same `==` verdicts.  Each Gaussian result must also
keep the triple's invariants: ints only, d > 0, b != 0 and
gcd(a, b, d) = 1.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import scalars  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


# -- reference ------------------------------------------------------------

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


def gaussian(re, im):
    """Canonical element of Q(i): a rational when im == 0."""
    if not im:
        return _rational(re)
    return GaussianRational(re, im)


def scalar_re(c):
    if type(c) is int:
        return c
    return c.re if isinstance(c, GaussianRational) else _rational(c)


def scalar_im(c):
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


# -- operands -------------------------------------------------------------

_INTS = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10**20))
_FRACTIONS = st.builds(Fraction, _INTS, _DENOMINATORS)
_PARTS = st.one_of(_INTS, _FRACTIONS)


@st.composite
def _operand(draw, like=None):
    """(value, reference): an int, a Fraction (perhaps with denominator 1)
    or a Gaussian rational, once in each representation.  Given the parts
    of an earlier operand, a Gaussian sometimes reuses its real part and
    its imaginary part or the negation of it, so that a sum, difference,
    product or quotient of the two can cancel its imaginary part."""
    kind = draw(st.sampled_from(["int", "fraction", "gaussian"]))
    if kind == "int":
        x = draw(_INTS)
        return x, x
    if kind == "fraction":
        x = draw(_FRACTIONS)
        return x, x
    re, im = draw(_PARTS), draw(_PARTS.filter(bool))
    if like is not None and like[1]:
        if draw(st.booleans()):
            re = like[0]
        im = draw(st.sampled_from([im, like[1], -like[1]]))
    return scalars.gaussian(re, im), gaussian(re, im)


def _parts(ref):
    return (scalar_re(ref), scalar_im(ref))


_PAIRS = _operand().flatmap(lambda a: st.tuples(
    st.just(a), _operand(like=_parts(a[1]))))


def _assert_same(value, ref):
    """value (library) and ref (reference) are the same canonical scalar,
    and a Gaussian value is a reduced triple."""
    if type(ref) is GaussianRational:
        assert type(value) is scalars.GaussianRational
        a, b, d = value._a, value._b, value._d
        assert type(a) is int and type(b) is int and type(d) is int
        assert d > 0 and b != 0 and gcd(a, b, d) == 1
        assert type(value.re) is type(ref.re) and value.re == ref.re
        assert type(value.im) is type(ref.im) and value.im == ref.im
    else:
        # An imaginary part that cancels leaves an int or a Fraction.
        assert type(value) is type(ref) and value == ref
        assert type(value) is int or value.denominator != 1
    assert scalars.format_scalar(value) == format_scalar(ref)
    assert scalars.scalar_sort_key(value) == scalar_sort_key(ref)
    assert hash(value) == hash(ref)
    assert repr(value) == repr(ref)


def _assert_same_outcome(fn, args, ref_fn, ref_args):
    """Both calls raise ZeroDivisionError, or both give the same scalar."""
    try:
        ref = ref_fn(*ref_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(*args)
        return
    _assert_same(fn(*args), ref)


# -- properties -----------------------------------------------------------

@PROPERTY
@given(_PAIRS)
def test_arithmetic_matches_reference(pair):
    (a, ra), (b, rb) = pair
    _assert_same(scalars.as_scalar(a), gaussian(*_parts(ra)))
    _assert_same_outcome(scalars.scalar_div, (a, b), scalar_div, (ra, rb))
    _assert_same_outcome(scalars.scalar_div, (b, a), scalar_div, (rb, ra))
    _assert_same_outcome(scalars.scalar_inv, (a,), scalar_inv, (ra,))
    if type(ra) is not GaussianRational and type(rb) is not GaussianRational:
        return  # raw int and Fraction arithmetic is Python's own
    for x, rx in ((a, ra), (b, rb)):
        if type(rx) is GaussianRational:
            _assert_same(-x, -rx)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _assert_same_outcome(op, (a, b), op, (ra, rb))
        _assert_same_outcome(op, (b, a), op, (rb, ra))


@PROPERTY
@given(_PAIRS)
def test_equality_and_hash_match_reference(pair):
    (a, ra), (b, rb) = pair
    assert (a == b) is (ra == rb)
    assert (b == a) is (rb == ra)
    assert (a != b) is (ra != rb)
    if a == b:
        assert hash(a) == hash(b)
    # A value equals itself rebuilt from its parts.
    rebuilt = scalars.gaussian(scalars.scalar_re(a), scalars.scalar_im(a))
    assert rebuilt == a and hash(rebuilt) == hash(a)


@PROPERTY
@given(_PARTS, _PARTS.filter(bool))
def test_constructor_matches_reference(re, im):
    value = scalars.GaussianRational(re, im)
    assert value == scalars.gaussian(re, im)
    _assert_same(value, GaussianRational(re, im))


@pytest.mark.parametrize("re", [0, 3, Fraction(1, 2), Fraction(4, 2)])
def test_constructor_rejects_a_zero_imaginary_part(re):
    """Only `gaussian` collapses a zero imaginary part to a rational; the
    reduced triple has b != 0, so the constructor refuses to build one."""
    with pytest.raises(ValueError):
        scalars.GaussianRational(re, Fraction(0))
    assert scalars.gaussian(re, 0) == re
