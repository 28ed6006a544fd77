"""Property tests for the shared sparse accumulator and the ring laws it
carries.  They sit next to the seeded sampling tests, not in place of them.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, gaussian  # noqa: E402
from expoly.polyring import Poly, PolyRing  # noqa: E402

NVARS = 2
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

X1, X2 = EPoly.var(NVARS, 0), EPoly.var(NVARS, 1)
# A small pool of exponents (zero constant term, one nested) so that
# repeated keys are common.
EXPONENTS = [None, X1, -X2, X1 + 2 * X2, X1.exp() - 1]

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
scalars = st.one_of(
    rationals,
    st.builds(gaussian, rationals, rationals),
)
monos = st.tuples(*[st.integers(0, 2)] * NVARS)
keys = st.tuples(monos, st.sampled_from(EXPONENTS))


@st.composite
def pair_lists(draw, key_strategy):
    """(key, coeff) pairs with repeated keys and some exact cancellations."""
    pairs = draw(st.lists(st.tuples(key_strategy, scalars), max_size=8))
    cancelled = draw(st.lists(st.sampled_from(pairs), max_size=4)
                     if pairs else st.just([]))
    mixed = pairs + [(key, -coeff) for key, coeff in cancelled]
    return draw(st.permutations(mixed))


def epolys():
    return pair_lists(keys).map(lambda pairs: EPoly(NVARS, pairs))


@PROPERTY
@given(pair_lists(keys))
def test_epoly_constructor_is_sum_of_terms(pairs):
    total = EPoly.zero(NVARS)
    for pair in pairs:
        total = total + EPoly(NVARS, [pair])
    built = EPoly(NVARS, pairs)
    assert built == total
    assert all(coeff != 0 for _, coeff in built.terms)
    assert len({key for key, _ in built.terms}) == len(built.terms)


@PROPERTY
@given(pair_lists(keys))
def test_epoly_full_cancellation_is_zero(pairs):
    assert EPoly(NVARS, pairs + [(k, -c) for k, c in pairs]).is_zero()


@PROPERTY
@given(pair_lists(monos))
def test_poly_constructor_is_sum_of_terms(pairs):
    ring = PolyRing(["a", "b"])
    total = ring.zero()
    for pair in pairs:
        total = total + Poly(ring, [pair])
    built = Poly(ring, pairs)
    assert built == total
    assert all(coeff != 0 for coeff in built.terms.values())
    assert Poly(ring, pairs + [(m, -c) for m, c in pairs]).is_zero()


@PROPERTY
@given(epolys(), epolys(), epolys())
def test_epoly_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(epolys())
def test_epoly_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + (-a) == 0
