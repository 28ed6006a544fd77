import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import (GaussianRational, IMAG_UNIT, gaussian,  # noqa: E402
                    parse_epoly)
from expoly.cli import main  # noqa: E402
from expoly.scalars import (as_scalar, format_scalar,  # noqa: E402
                            scalar_div, scalar_im, scalar_inv, scalar_re,
                            scalar_sort_key)

from helpers import random_scalar  # noqa: E402


def test_rational_basics():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)  # always reduced


def test_imag_unit_squares_to_minus_one():
    assert IMAG_UNIT * IMAG_UNIT == Fraction(-1)


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        scalar_inv(Fraction(0))


def test_gaussian_collapses_to_fraction():
    """A zero imaginary part leaves a fraction p/q: an int when q is 1,
    else a Fraction."""
    assert type(gaussian(3, 0)) is int
    assert type(gaussian(Fraction(6, 2), Fraction(0))) is int
    assert type(gaussian(Fraction(1, 2), 0)) is Fraction
    assert isinstance(gaussian(3, 1), GaussianRational)
    # arithmetic lands back in a rational when the imaginary part cancels:
    # an int when it is integral, a Fraction otherwise
    z = gaussian(2, 5) - gaussian(1, 5)
    assert type(z) is int and z == 1
    z = gaussian(Fraction(1, 2), 5) - gaussian(1, 5)
    assert type(z) is Fraction and z == Fraction(-1, 2)
    z = gaussian(Fraction(1, 2), 5) + gaussian(Fraction(1, 2), -5)
    assert type(z) is int and z == 1


def test_field_axioms_sampled():
    rng = random.Random(20240811)
    for gaussian_ok in (False, True):
        for _ in range(5000):
            a = random_scalar(rng, gaussian_ok=gaussian_ok)
            b = random_scalar(rng, gaussian_ok=gaussian_ok)
            c = random_scalar(rng, gaussian_ok=gaussian_ok)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == 0
            if a != 0:
                assert a * scalar_inv(a) == 1


def test_canonical_equality_is_representation_equality():
    a = gaussian(Fraction(2, 4), Fraction(0))
    b = Fraction(1, 2)
    assert a == b and hash(a) == hash(b) and type(a) is type(b)


def _read(text):
    """The scalar that a term-language constant denotes."""
    return parse_epoly(text, 1).constant_term()


def test_text_forms_round_trip():
    for c in (Fraction(5, 6), Fraction(-3), gaussian(Fraction(1, 2),
                                                     Fraction(1, 3)),
              gaussian(1, -2), Fraction(0)):
        assert _read(format_scalar(c)) == c
    # unreduced input is accepted, printing is reduced
    assert format_scalar(_read("2/4")) == "1/2"
    assert _read("(1/2)+(1/3)i") == gaussian(Fraction(1, 2), Fraction(1, 3))


def test_sort_key_is_total():
    rng = random.Random(7)
    values = [random_scalar(rng, gaussian_ok=True) for _ in range(50)]
    ordered = sorted(values, key=scalar_sort_key)
    assert sorted(ordered, key=scalar_sort_key) == ordered


# -- canonical results against a reference on (re, im) pairs --------------

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

_INTS = st.integers(-5, 5)
_FRACTIONS = st.builds(Fraction, _INTS, st.integers(1, 4))
_PARTS = st.one_of(_INTS, _FRACTIONS)


@st.composite
def _operand(draw, im_of=None):
    """(value, (re, im)): an int, a Fraction or a Gaussian rational built
    with int or Fraction parts, next to its parts as Fractions.  Given
    `im_of`, the imaginary part is sometimes its negation, so that a sum
    collapses to a rational."""
    kind = draw(st.sampled_from(["int", "fraction", "gaussian", "parts"]))
    if kind == "int":
        x = draw(_INTS)
        return x, (Fraction(x), Fraction(0))
    if kind == "fraction":
        x = draw(_FRACTIONS)
        return x, (x, Fraction(0))
    re = draw(_PARTS)
    im = draw(_PARTS.filter(bool))
    if im_of and draw(st.booleans()):
        im = -im_of
    value = (gaussian(re, im) if kind == "gaussian"
             else GaussianRational(re, im))
    return value, (Fraction(re), Fraction(im))


def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _canonical_rational(x):
    """An int when integral, a Fraction otherwise; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_canonical(value, ref):
    parts = (scalar_re(value), scalar_im(value))
    assert parts == ref and all(_canonical_rational(x) for x in parts)
    if type(value) is GaussianRational:
        assert _canonical_rational(value.re)
        assert _canonical_rational(value.im)
        assert value.im != 0
        assert (value.re, value.im) == ref
    else:
        assert _canonical_rational(value)
        assert ref == (value, 0)


def _assert_raw_rational(value, ref):
    """A result of raw int/Fraction arithmetic: canonical, or a Fraction
    with denominator 1 that equals, hashes and prints like the int."""
    if type(value) is Fraction and value.denominator == 1:
        n = value.numerator
        assert value == n and hash(value) == hash(n)
        assert str(value) == str(n) == format_scalar(value)
        value = n
    _assert_canonical(value, ref)


@PROPERTY
@given(_operand().flatmap(lambda a: st.tuples(
    st.just(a), _operand(im_of=a[1][1]))))
def test_arithmetic_results_are_canonical(pair):
    (a, ra), (b, rb) = pair
    _assert_canonical(gaussian(*ra), ra)
    _assert_canonical(as_scalar(a), ra)
    _assert_canonical(-as_scalar(a), (-ra[0], -ra[1]))
    _assert_canonical(_read(format_scalar(a)), ra)
    if ra != (0, 0):
        _assert_canonical(scalar_inv(a), _ref_inv(ra))
    if rb != (0, 0):
        _assert_canonical(scalar_div(a, b), _ref_mul(ra, _ref_inv(rb)))
    if not isinstance(a, GaussianRational):
        _assert_raw_rational(-a, (-ra[0], -ra[1]))
    else:
        _assert_canonical(-a, (-ra[0], -ra[1]))
    if not (isinstance(a, GaussianRational)
            or isinstance(b, GaussianRational)):
        # Raw int/Fraction arithmetic; `/` is not a scalar operation here,
        # since int / int is a float.
        _assert_raw_rational(a + b, (ra[0] + rb[0], ra[1] + rb[1]))
        _assert_raw_rational(a - b, (ra[0] - rb[0], ra[1] - rb[1]))
        _assert_raw_rational(a * b, _ref_mul(ra, rb))
        return
    _assert_canonical(a + b, (ra[0] + rb[0], ra[1] + rb[1]))
    _assert_canonical(a - b, (ra[0] - rb[0], ra[1] - rb[1]))
    _assert_canonical(a * b, _ref_mul(ra, rb))
    if rb != (0, 0):
        _assert_canonical(a / b, _ref_mul(ra, _ref_inv(rb)))


def test_gaussian_parts_are_fractions():
    """The parts are fractions p/q under the same rule: an int when q is
    1, else a Fraction."""
    z = GaussianRational(1, 2)
    assert type(z.re) is int and type(z.im) is int
    z = GaussianRational(Fraction(4, 2), Fraction(1, 2))
    assert type(z.re) is int and z.re == 2
    assert type(z.im) is Fraction and z.im == Fraction(1, 2)
    z = gaussian(Fraction(1, 3), 1) * 3
    assert type(z.re) is int and type(z.im) is int and z == gaussian(1, 3)
    assert type(gaussian(3, 0)) is int


@st.composite
def _coefficient_text(draw):
    """(text, value): a Q(i) coefficient in a term-language form that is
    not always canonical (unreduced fractions, spaces, a bare `i`)."""
    def rational():
        k = draw(st.integers(1, 3))
        n, d = draw(_INTS), draw(st.integers(1, 4))
        return f"{n * k}/{d * k}", Fraction(n, d)
    re_text, re = rational()
    kind = draw(st.sampled_from(["rational", "literal", "sum"]))
    if kind == "rational":
        return re_text, as_scalar(re)
    im_text, im = rational()
    if kind == "literal":
        return f"({re_text})+({im_text})i", gaussian(re, im)
    return f" {re_text} + i ", gaussian(re, 1)


@PROPERTY
@given(st.lists(_coefficient_text(), min_size=1, max_size=5))
def test_eval_json_coefficients_read_back(coefficients):
    """`eval --json X1 --at <list>` prints the canonical coefficients, and
    those, joined by commas, read back to the same document."""
    def run(at):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["eval", "--json", "X1", f"--at={at}",
                         "--order", str(len(coefficients))])
        assert code == 0
        return out.getvalue()

    document = run(",".join(text for text, _ in coefficients))
    printed = json.loads(document)["coefficients"]
    assert printed == [format_scalar(value) for _, value in coefficients]
    assert run(",".join(printed)) == document
