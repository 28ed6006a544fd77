"""Correctness gate: every op's answer is checked after the timed phase.

Answers are checked against evidence that does not come from the library:
- ideal and refinement sessions: `sympy.groebner(..., order="grevlex")`
  over a fixed lattice built from the benchmark's own input data decides
  each membership query; every returned cofactor vector is re-expanded
  with `xpoly` and must give the query; every `intersect` generator must
  have height 0 and be a member.
- tower sessions: the answers known by construction (E(f)-1 one level up,
  multiples of generators, 1 at no level), level consistency on queries of
  height below their level, and E(f)-1 at level+1 for every tracked seed
  the session ended with.
- saturate sessions: the expected status; a unit certificate re-expands to
  1; a stabilized outcome reports exp-compatibility.
- rabinowitsch sessions: the expected verdict and d, and g^d = Σ c_i·h_i
  re-expanded with `xpoly`.

`check_session` returns one error string (or None) per op.
"""

from __future__ import annotations

import json

from expoly import textio

import xpoly as xp


def _member_checks(session, outputs, errors):
    n = session.nvars
    gens = [xp.parse(t, n) for t in session.lines]
    queries = {j: xp.parse(op[1], n) for j, op in enumerate(session.ops)
               if op[0] == "member"}
    lattice = xp.SympyLattice(gens + list(queries.values()), n)
    basis = lattice.groebner(gens)
    for j, op in enumerate(session.ops):
        if outputs[j] is None or errors[j]:
            continue
        doc = json.loads(outputs[j])
        if op[0] == "intersect":
            for text in doc["generators"]:
                g = xp.parse(text, n)
                if xp.height(g) != 0:
                    errors[j] = f"intersect generator {text} has height > 0"
                elif not basis.contains(lattice.encode(g)):
                    errors[j] = f"intersect generator {text} is no member"
            continue
        q = queries[j]
        truth = basis.contains(lattice.encode(q))
        if session.expect.get(j, truth) != truth:
            errors[j] = f"sympy disagrees with the construction on {op[1]}"
        elif doc["member"] != truth:
            errors[j] = f"verdict {doc['member']} for {op[1]}, sympy {truth}"
        elif truth:
            total = {}
            for c, g in zip(doc["cofactors"], gens):
                total = xp.add(total, xp.mul(xp.parse(c, n), g))
            if total != q:
                errors[j] = f"cofactors of {op[1]} do not re-expand"


def _tower_checks(session, outputs, errors, state):
    n = session.nvars
    t = state.get("tower")
    for j, op in enumerate(session.ops):
        if op[0] != "query" or outputs[j] is None or errors[j]:
            continue
        verdict = json.loads(outputs[j])["member"]
        _, text, level = op
        if j in session.expect:
            if verdict != session.expect[j]:
                errors[j] = f"{text} at level {level}: {verdict}"
        elif level > 0 and xp.height(xp.parse(text, n)) < level:
            lower = t.membership(textio.parse_epoly(text, n), level - 1)
            if lower != verdict:
                errors[j] = (f"{text}: level {level} says {verdict}, "
                             f"level {level - 1} says {lower}")
    if t is not None and not any(errors):
        for layer in range(t.base_layer, t.top_level):
            for f in t.tracked_seeds(layer):
                if not t.membership(f.exp() - 1, layer + 1):
                    errors[0] = f"E({f})-1 is no member at level {layer + 1}"


def _saturate_checks(session, outputs, errors):
    n = session.nvars
    doc = json.loads(outputs[0])
    if doc["status"] != session.expect[0]:
        errors[0] = f"status {doc['status']}, expected {session.expect[0]}"
    elif doc["status"] == "unit":
        total = {}
        for c, g in zip(doc["certificate"], doc["generators"]):
            total = xp.add(total, xp.mul(xp.parse(c, n), xp.parse(g, n)))
        if total != xp.const(n, 1):
            errors[0] = "unit certificate does not re-expand to 1"
    elif doc["dagger_holds"] is not True:
        errors[0] = "stabilized outcome without exp-compatibility"


def _rabin_checks(session, outputs, errors):
    n = session.nvars
    doc = json.loads(outputs[0])
    found, d = session.expect[0]
    if doc["certificate_found"] != found:
        errors[0] = f"certificate_found {doc['certificate_found']}"
    elif found:
        hs = [xp.parse(t, n) for t in session.lines]
        g = xp.parse(session.ops[0][1], n)
        total = {}
        for c, h in zip(doc["cofactors"], hs):
            total = xp.add(total, xp.mul(xp.parse(c, n), h))
        if doc["d"] != d:
            errors[0] = f"d = {doc['d']}, expected {d}"
        elif not doc["verified"] or total != xp.power(g, d, n):
            errors[0] = "g^d = sum c_i*h_i does not re-expand"


def check_session(session, outputs, state):
    """outputs[j] is op j's text (None if it raised or never ran)."""
    errors = [None] * len(session.ops)
    if session.kind in ("ideal", "refine"):
        _member_checks(session, outputs, errors)
    elif session.kind == "tower":
        _tower_checks(session, outputs, errors, state)
    elif session.kind == "saturate" and outputs[0] is not None:
        _saturate_checks(session, outputs, errors)
    elif session.kind == "rabin" and outputs[0] is not None:
        _rabin_checks(session, outputs, errors)
    return errors
