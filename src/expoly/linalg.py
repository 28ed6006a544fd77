"""Exact linear algebra over Q and Z used by the exponent-lattice code.

Vectors are dicts {coordinate: scalar} over an arbitrary hashable
coordinate set, holding nonzero entries only: `vec_add` folds through
`sparse.accumulate`, which drops every entry that cancels.  Entries are
canonical scalars (see `scalars`); the one division, a pivot's inverse,
goes through `scalar_inv`, so int vectors stay exact.  Matrices for the
integer routines are lists of lists.
"""

from __future__ import annotations

from .scalars import scalar_inv
from .sparse import accumulate


def vec_add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b as a new vector."""
    return accumulate(((k, v * scale) for k, v in b.items()), into=dict(a))


class RationalEchelon:
    """Incremental row echelon form over Q with expression tracking.

    Each inserted vector is either reduced to zero against the current rows
    (giving its coordinates over the previously inserted independent
    vectors) or added as a new pivot row.  Coordinates are arbitrary
    hashable labels; pivot choice follows the supplied deterministic
    ordering of labels.
    """

    def __init__(self, coord_order=None):
        self.rows = []          # echelon rows, each a dict
        self.pivots = []        # pivot label per row
        self.expr = []          # row expressed over inserted independents
        self._coord_order = coord_order or (lambda label: label)

    def reduce(self, vec: dict):
        """Return (residual, coeffs) with vec = residual + coeffs . inserted."""
        residual, row_coeffs = self.row_coords(vec)
        coeffs = {}
        for c, expr in zip(row_coeffs, self.expr):
            if c:
                coeffs = vec_add(coeffs, expr, c)
        return residual, coeffs

    def row_coords(self, vec: dict):
        """Return (residual, coeffs) with vec = residual + sum c_i * rows[i];
        coeffs is a list indexed by echelon row."""
        coeffs = [0] * len(self.rows)
        vec = dict(vec)
        for i, row in enumerate(self.rows):
            c = vec.get(self.pivots[i])
            if c:
                vec = vec_add(vec, row, -c)
                coeffs[i] = c
        return vec, coeffs

    def insert(self, vec: dict):
        """Insert; returns (independent?, coeffs over inserted independents)."""
        residual, coeffs = self.reduce(vec)
        if not residual:
            return False, coeffs
        pivot = min(residual, key=self._coord_order)
        inv = scalar_inv(residual[pivot])
        row = {k: v * inv for k, v in residual.items()}
        # residual = vec - sum coeffs_i * inserted_i, so the normalized row
        # is inv*vec - sum inv*coeffs_i * inserted_i.
        expr = vec_add({len(self.rows): inv}, coeffs, -inv)
        self.rows.append(row)
        self.pivots.append(pivot)
        self.expr.append(expr)
        return True, coeffs


def hnf_with_transform(mat):
    """Row-style Hermite normal form: returns (H, U) with U unimodular and
    U @ mat == H, H in echelon shape with positive pivots and reduced
    entries above each pivot.  Zero rows of H sink to the bottom.  The row
    operations run on the augmented matrix [mat | I], whose right block
    ends as U.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [[*map(int, r), *(0,) * i, 1, *(0,) * (m - i - 1)]
            for i, r in enumerate(mat)]
    r = 0
    for col in range(n):
        # Euclid all entries below r into position r.
        while True:
            nonzero = [i for i in range(r, m) if rows[i][col]]
            if not nonzero:
                break
            pivot_row = min(nonzero, key=lambda i: (abs(rows[i][col]), i))
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            if rows[r][col] < 0:
                rows[r] = [-a for a in rows[r]]
            done = True
            for i in range(r + 1, m):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][col]:
                        done = False
            if done:
                break
        if r < m and rows[r][col]:
            for i in range(r):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == m:
                break
    return [row[:n] for row in rows], [row[n:] for row in rows]


def integer_kernel(mat):
    """Basis of {x in Z^m : x @ mat == 0} for an integer matrix (m rows)."""
    hermite, transform = hnf_with_transform(mat)
    return [u for h, u in zip(hermite, transform) if not any(h)]


def lattice_basis(vectors):
    """Basis of the lattice (Z-span) generated by integer row vectors."""
    hermite, _ = hnf_with_transform(vectors)
    return [row for row in hermite if any(row)]


def solve_upper_integer(hermite, target):
    """Solve x @ H = target in integers for an HNF basis H (full row rank).

    Returns None when the target is not in the lattice spanned by the rows.
    """
    target = list(target)
    n = len(target)
    coeffs = [0] * len(hermite)
    pivots = []
    for i, row in enumerate(hermite):
        for col in range(n):
            if row[col]:
                pivots.append((i, col))
                break
    for i, col in pivots:
        value = target[col]
        pivot = hermite[i][col]
        if value % pivot:
            return None
        q = value // pivot
        coeffs[i] = q
        if q:
            target = [t - q * r for t, r in zip(target, hermite[i])]
    if any(target):
        return None
    return coeffs
