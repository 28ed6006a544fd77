"""Differential tests for the series exponential.

`models.series_exp` builds f = exp(s) in one pass by the recurrence
n*f_n = sum of k*s_k*f_(n-k), which follows from f' = s'*f.  The function
below is the earlier body, kept verbatim as the reference: the sum of
s^k / k! for k < N, one full series product per power.  On Q and Q(i)
series that mix zero and nonzero coefficients, both must give the same
coefficients, of the same scalar types.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import PartialityError, TruncatedSeries, series_exp  # noqa: E402
from expoly.scalars import gaussian, scalar_inv  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


# -- reference ------------------------------------------------------------

def reference_series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp on the maximal ideal: sum of s^k / k! for k < N, exact mod t^N."""
    if s.coeffs[0] != 0:
        raise PartialityError(
            f"series exponential undefined: constant coefficient "
            f"{s.coeffs[0]} is nonzero")
    out = TruncatedSeries.const(1, s.order)
    power = TruncatedSeries.const(1, s.order)
    factorial = 1
    for k in range(1, s.order):
        power = power * s
        factorial *= k
        out = out + power * scalar_inv(factorial)
    return out


# -- strategies -----------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
# About a third of the coefficients are zero, so sparse arguments are
# common.
COEFFS = st.one_of(st.just(0), RATIONALS,
                   st.builds(gaussian, RATIONALS, RATIONALS))


@st.composite
def maximal_ideal_series(draw):
    """A series in t*K[[t]] of order 1 to 20 over Q or Q(i)."""
    order = draw(st.integers(1, 20))
    tail = draw(st.lists(COEFFS, min_size=order - 1, max_size=order - 1))
    return TruncatedSeries([0] + tail, order)


def types(series):
    return [type(c) for c in series.coeffs]


@PROPERTY
@given(maximal_ideal_series())
def test_recurrence_matches_the_sum_of_powers(s):
    got, want = series_exp(s), reference_series_exp(s)
    assert got.coeffs == want.coeffs
    assert types(got) == types(want)

