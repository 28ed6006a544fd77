"""Independent brute-force ideal-membership oracle for tiny instances.

Membership p in <g_1..g_k> is decided by exhaustively enumerating all
cofactor monomials up to a degree cap and solving the resulting exact
linear system over Q: p = sum c_i * g_i has a solution with deg(c_i) <= cap
iff p lies in the span of {m * g_i : deg(m) <= cap}.  No Groebner machinery
is involved, so this is a genuinely independent check of the engine (the
relation polynomials u*v - 1 are passed in as ordinary generators).

A negative answer is relative to the cap; the tests pick caps comfortably
above the degrees the tiny corpus needs.
"""

from __future__ import annotations

from itertools import product

from expoly.linalg import RationalEchelon
from expoly.polyring import Poly


def monomials_up_to(nvars: int, cap: int):
    for exps in product(range(cap + 1), repeat=nvars):
        if sum(exps) <= cap:
            yield exps


def oracle_member(gens, p: Poly, cap: int) -> bool:
    """True iff p is an explicit combination with cofactor degrees <= cap."""
    ring = p.ring
    echelon = RationalEchelon()
    for g in gens:
        if g.is_zero():
            continue
        for mono in map(ring.pack, monomials_up_to(ring.nvars, cap)):
            column = {}
            for gm, gc in g.terms.items():
                key = gm + mono
                column[key] = column.get(key, 0) + gc
            column = {k: v for k, v in column.items() if v != 0}
            if column:
                echelon.insert(column)
    residual, _ = echelon.reduce(dict(p.terms))
    return not residual
