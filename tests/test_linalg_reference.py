"""Differential and property tests of the integer lattice routines.

`ref_hnf_with_transform` below is the earlier Hermite reduction, kept
verbatim as the reference: it ran the row operations on the matrix and on a
parallel unimodular matrix through three closures.  `hnf_with_transform`
runs the same operations in the same order on one augmented matrix
[M | I], so it must return the same (H, U): U is not unique, and
saturation's added generators are read off its rows.  The other checks
hold for any correct Hermite reduction: U @ M == H with |det U| == 1, H in
Hermite form, kernel rows annihilating M, and back-substitution agreeing
with a rational solve.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly.linalg import (hnf_with_transform, integer_kernel,  # noqa: E402
                           lattice_basis, solve_upper_integer)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


# -- reference reduction --------------------------------------------------

def ref_hnf_with_transform(mat):
    """Row-style Hermite normal form: returns (H, U) with U unimodular and
    U @ mat == H, H in echelon shape with positive pivots and reduced
    entries above each pivot.  Zero rows of H sink to the bottom.
    """
    rows = [list(map(int, r)) for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    unimod = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def rowop_sub(dst, src, q):
        rows[dst] = [a - q * b for a, b in zip(rows[dst], rows[src])]
        unimod[dst] = [a - q * b for a, b in zip(unimod[dst], unimod[src])]

    def rowswap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        unimod[i], unimod[j] = unimod[j], unimod[i]

    def rowneg(i):
        rows[i] = [-a for a in rows[i]]
        unimod[i] = [-a for a in unimod[i]]

    r = 0
    for col in range(n):
        # Euclid all entries below r into position r.
        while True:
            nonzero = [i for i in range(r, m) if rows[i][col]]
            if not nonzero:
                break
            pivot_row = min(nonzero, key=lambda i: (abs(rows[i][col]), i))
            if pivot_row != r:
                rowswap(pivot_row, r)
            if rows[r][col] < 0:
                rowneg(r)
            done = True
            for i in range(r + 1, m):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rowop_sub(i, r, q)
                    if rows[i][col]:
                        done = False
            if done:
                break
        if r < m and rows[r][col]:
            for i in range(r):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rowop_sub(i, r, q)
            r += 1
            if r == m:
                break
    return rows, unimod


# -- independent helpers --------------------------------------------------

def matmul(a, b, inner):
    """a @ b for a with `inner` columns (so an empty a still multiplies)."""
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(inner))
             for j in range(cols)] for row in a]


def det(mat):
    """Exact determinant by Gaussian elimination over Q."""
    rows = [[Fraction(v) for v in row] for row in mat]
    out = Fraction(1)
    for col in range(len(rows)):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            out = -out
        out *= rows[col][col]
        for i in range(col + 1, len(rows)):
            f = rows[i][col] / rows[col][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return out


def rational_solution(basis, target):
    """The x with x @ basis == target over Q, or None; the rows of basis
    are independent, so x is unique when it exists."""
    m = len(basis)
    aug = [[Fraction(row[j]) for row in basis] + [Fraction(t)]
           for j, t in enumerate(target)]
    done = 0
    for col in range(m):
        pivot = next(i for i in range(done, len(aug)) if aug[i][col])
        aug[done], aug[pivot] = aug[pivot], aug[done]
        aug[done] = [v / aug[done][col] for v in aug[done]]
        for i in range(len(aug)):
            if i != done and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[done])]
        done += 1
    if any(row[m] for row in aug[done:]):
        return None
    return [row[m] for row in aug[:m]]


def leading_column(row):
    return next((j for j, v in enumerate(row) if v), None)


# -- strategies -----------------------------------------------------------

@st.composite
def matrices(draw):
    """Up to 5x5 integer matrices with entries in -6..6, some rows and
    columns forced to zero; m == 0 is the empty matrix."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 5))
    mat = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                        min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v
             for j, v in enumerate(row)] for i, row in enumerate(mat)]


# -- tests ----------------------------------------------------------------

@PROPERTY
@given(matrices())
def test_hnf_with_transform_matches_reference(mat):
    assert hnf_with_transform(mat) == ref_hnf_with_transform(mat)


@PROPERTY
@given(matrices())
def test_transform_is_unimodular_and_maps_to_hermite(mat):
    hermite, unimod = hnf_with_transform(mat)
    m = len(mat)
    assert len(hermite) == len(unimod) == m
    assert all(len(row) == m for row in unimod)
    assert matmul(unimod, mat, m) == hermite
    assert abs(det(unimod)) == 1


@PROPERTY
@given(matrices())
def test_hermite_form(mat):
    hermite, _ = hnf_with_transform(mat)
    leads = [leading_column(row) for row in hermite]
    rank = sum(lead is not None for lead in leads)
    # Zero rows last, pivot columns strictly increasing.
    assert all(lead is None for lead in leads[rank:])
    assert leads[:rank] == sorted(set(leads[:rank]))
    for i, col in enumerate(leads[:rank]):
        pivot = hermite[i][col]
        assert pivot > 0
        assert all(0 <= hermite[k][col] < pivot for k in range(i))


@PROPERTY
@given(matrices())
def test_integer_kernel_annihilates(mat):
    kernel = integer_kernel(mat)
    n = len(mat[0]) if mat else 0
    for x in kernel:
        assert len(x) == len(mat)
        assert matmul([x], mat, len(mat)) == [[0] * n]
    # The kernel has the full dimension m - rank.
    assert len(kernel) == len(mat) - len(lattice_basis(mat))


@PROPERTY
@given(matrices(), st.data())
def test_solve_upper_integer_inverts_lattice_points(mat, data):
    basis = lattice_basis(mat)
    n = len(mat[0]) if mat else 0
    x = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                           max_size=len(basis)), label="x")
    point = [sum(xi * row[j] for xi, row in zip(x, basis))
             for j in range(n)]
    unchanged = [row[:] for row in basis]
    assert solve_upper_integer(basis, point) == x
    assert basis == unchanged   # the HNF rows are read, never written
    # A perturbed target: None exactly when it is off the lattice.
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                      label="shift")
    target = [p + s for p, s in zip(point, shift)]
    coords = rational_solution(basis, target)
    if coords is None or any(c.denominator != 1 for c in coords):
        assert solve_upper_integer(basis, target) is None
    else:
        assert solve_upper_integer(basis, target) == coords


def test_empty_matrix():
    assert hnf_with_transform([]) == ([], [])
    assert integer_kernel([]) == []
    assert lattice_basis([]) == []
