"""Differential tests for the Jacobian determinant.

`ediff._det` expands along the first remaining row and keeps each minor,
keyed by the columns it keeps: its rows are always the last ones, so the
columns fix it.  The function below is the earlier body, kept verbatim
as the reference: a plain Laplace expansion over row and column index
lists, n! products for n rows.  On square systems of up to six values
over Q and Q(i), with E-terms, both must give equal determinants.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, jacobian  # noqa: E402
from expoly.ediff import partial_derivative  # noqa: E402

from helpers import random_epoly  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference ------------------------------------------------------------

def reference_det(rows, ridx, cidx) -> EPoly:
    n = len(ridx)
    nvars = rows[0][0].nvars
    if n == 1:
        return rows[ridx[0]][cidx[0]]
    row = rows[ridx[0]]
    return EPoly.combination(
        nvars, ((row[c] if k % 2 == 0 else -row[c],
                 reference_det(rows, ridx[1:], cidx[:k] + cidx[k + 1:]))
                for k, c in enumerate(cidx) if row[c]))


def reference_jacobian(fs) -> EPoly:
    n = len(fs)
    rows = [[partial_derivative(f, j) for j in range(n)] for f in fs]
    return reference_det(rows, list(range(n)), list(range(n)))


# -- properties -----------------------------------------------------------

@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_memoized_minors_give_the_reference_determinant(n, seed, gaussian):
    """Random square systems; small values of height at most 1, so the
    derivative matrix mixes zero entries, E-terms and Q(i) coefficients."""
    rng = random.Random(seed)
    fs = [random_epoly(rng, n, height=rng.randint(0, 1), max_terms=2,
                       gaussian_ok=gaussian) for _ in range(n)]
    assert jacobian(fs) == reference_jacobian(fs)


def test_dense_system_agrees():
    """f_i = X1 + ... + Xn + Xi^2: every entry of the matrix is nonzero."""
    for n in range(1, 7):
        xs = [EPoly.var(n, j) for j in range(n)]
        fs = [sum(xs, EPoly.zero(n)) + x * x for x in xs]
        assert jacobian(fs) == reference_jacobian(fs)
