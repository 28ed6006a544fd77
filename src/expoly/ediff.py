"""Partial derivatives, derivation extension and Jacobians.

A derivation is determined by its action on the variables: on Q and Q(i)
every derivation vanishes (D(1) = 0 forces D = 0 on Q, and 2i*D(i) =
D(i^2) = 0 forces D(i) = 0), so there is no configurable base action.  On
every exponential node the defining law D(E(a)) = E(a) * D(a) applies.
"""

from __future__ import annotations

from .epoly import EPoly
from .errors import VariableCountError


class DerivationSpec:
    """A derivation given by its values D(X_j) on the variables."""

    __slots__ = ("nvars", "var_actions")

    def __init__(self, var_actions):
        actions = tuple(var_actions)
        if not actions:
            raise ValueError("need at least one variable action")
        self.nvars = actions[0].nvars
        for a in actions:
            if a.nvars != self.nvars:
                raise VariableCountError("variable actions disagree on arity")
        if len(actions) != self.nvars:
            raise VariableCountError(
                f"need {self.nvars} variable actions, got {len(actions)}")
        self.var_actions = actions

    def __repr__(self):
        return f"DerivationSpec({[str(a) for a in self.var_actions]})"


def apply_derivation(spec: DerivationSpec, p: EPoly) -> EPoly:
    """D(p) by structural recursion: Leibniz over terms, D(t^a) = D(a)*t^a."""
    if p.nvars != spec.nvars:
        raise VariableCountError("arity mismatch between derivation and input")
    products = []
    for (mono, exponent), coeff in p.terms:
        for j, e in enumerate(mono):
            if e == 0 or not spec.var_actions[j]:
                continue
            lowered = tuple(x - 1 if k == j else x for k, x in enumerate(mono))
            products.append((EPoly(p.nvars, {(lowered, exponent): coeff * e}),
                             spec.var_actions[j]))
        if exponent is not None:
            products.append((EPoly(p.nvars, {(mono, exponent): coeff}),
                             apply_derivation(spec, exponent)))
    return EPoly.combination(p.nvars, products)


def partial_derivative(p: EPoly, j: int) -> EPoly:
    """d/dX_{j+1}: the derivation with D(X_{j+1}) = 1 and D(X_k) = 0 else."""
    if not 0 <= j < p.nvars:
        raise VariableCountError(
            f"variable X{j + 1} out of range for {p.nvars} variables")
    unit = DerivationSpec([EPoly.const(p.nvars, 1 if k == j else 0)
                           for k in range(p.nvars)])
    return apply_derivation(unit, p)


def jacobian(fs) -> EPoly:
    """Determinant of the matrix of partial derivatives of a square system."""
    fs = list(fs)
    n = len(fs)
    if n == 0:
        raise VariableCountError("empty system")
    for f in fs:
        if f.nvars != n:
            raise VariableCountError(
                f"system of {n} equations needs {n} variables, "
                f"got arity {f.nvars}")
    rows = [[partial_derivative(f, j) for j in range(n)] for f in fs]
    return _det(rows, tuple(range(n)), {})


def _det(rows, cols, minors) -> EPoly:
    """The minor of the last len(cols) rows on the columns `cols`, by
    Laplace expansion along its first row, skipping zero entries.  A
    minor is fixed by its columns, so `minors` keeps each one computed:
    at most n*2^n products for n rows, not n!."""
    row = rows[len(rows) - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    if cols not in minors:
        minors[cols] = EPoly.combination(
            row[0].nvars, ((row[c] if k % 2 == 0 else -row[c],
                            _det(rows, cols[:k] + cols[k + 1:], minors))
                           for k, c in enumerate(cols) if row[c]))
    return minors[cols]
