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
    out = EPoly.zero(p.nvars)
    for (mono, exponent), coeff in p.terms:
        for j, e in enumerate(mono):
            if e == 0 or not spec.var_actions[j]:
                continue
            lowered = tuple(x - 1 if k == j else x for k, x in enumerate(mono))
            out = out + (EPoly(p.nvars, {(lowered, exponent): coeff * e})
                         * spec.var_actions[j])
        if exponent is not None:
            carrier = EPoly(p.nvars, {(mono, exponent): coeff})
            out = out + carrier * apply_derivation(spec, exponent)
    return out


def partial_derivative(p: EPoly, j: int) -> EPoly:
    """d/dX_{j+1}: the derivation with D(X_{j+1}) = 1 and D(X_k) = 0 else."""
    if not 0 <= j < p.nvars:
        raise VariableCountError(
            f"variable index {j} out of range for {p.nvars} variables")
    unit = DerivationSpec([EPoly.const(p.nvars, 1 if k == j else 0)
                           for k in range(p.nvars)])
    return apply_derivation(unit, p)


def derivation_defect(spec: DerivationSpec, p: EPoly) -> EPoly:
    """D(p) minus sum_j D(X_j) * dp/dX_j.

    With the (forced) trivial action on the base field this is always zero;
    it is exposed so the identity can be checked rather than assumed.
    """
    total = apply_derivation(spec, p)
    for j, action in enumerate(spec.var_actions):
        total = total - action * partial_derivative(p, j)
    return total


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
    return _det(rows, list(range(n)), list(range(n)))


def _det(rows, ridx, cidx) -> EPoly:
    n = len(ridx)
    nvars = rows[0][0].nvars
    if n == 1:
        return rows[ridx[0]][cidx[0]]
    out = EPoly.zero(nvars)
    sign = 1
    for k, c in enumerate(cidx):
        entry = rows[ridx[0]][c]
        if entry:
            minor = _det(rows, ridx[1:], cidx[:k] + cidx[k + 1:])
            out = out + entry * minor * sign
        sign = -sign
    return out
