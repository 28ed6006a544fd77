"""One benchmark op: one verdict, produced the way a CLI subcommand does.

Each op parses its text inputs with `textio`, calls the library and formats
the result as the JSON text `expoly <subcommand> --json` prints.  The
library is reached through module attributes (`ideals.IdealHandle`, ...)
so that the tracer's wrappers see every call.  `state` is the session's
cache: the ideal handle or tower built by the session's cold op.
"""

from __future__ import annotations

import json

from expoly import ideals, rabin, textio, tower

BUDGET = 1_000_000  # the CLI's default --budget


def _gens(session):
    return [textio.parse_epoly(line, session.nvars) for line in session.lines]


def _ideal(state, session):
    if "ideal" not in state:
        state["ideal"] = ideals.IdealHandle(_gens(session),
                                            nvars=session.nvars,
                                            budget_limit=BUDGET)
    return state["ideal"]


def member(state, session, query):
    ideal = _ideal(state, session)
    p = textio.parse_epoly(query, ideal.nvars)
    result = ideal.membership(p)
    return json.dumps({
        "member": result.member,
        "cofactors": (None if result.cofactors is None
                      else [str(c) for c in result.cofactors]),
        "lattice": ideal.presentation().describe()})


def intersect(state, session, layer):
    cut = _ideal(state, session).intersect_subring(layer)
    return json.dumps({"generators": [str(g) for g in cut.gens]})


def _tower_doc(t):
    return {"base_layer": t.base_layer, "top_level": t.top_level,
            "tracked": [[str(s.element) for s in dec.seeds]
                        for dec in t.decomps]}


def extend(state, session, levels):
    t = tower.TowerIdeal(_ideal(state, session))
    t.extend(levels)
    state["tower"] = t
    return json.dumps(_tower_doc(t))


def query(state, session, text, level):
    t = state["tower"]
    q = textio.parse_epoly(text, session.nvars)
    return json.dumps({"query": str(q), "level": level,
                       "member": t.membership(q, level)})


def saturate(state, session):
    outcome = tower.saturate_level_one(_ideal(state, session))
    doc = {"status": outcome.status, "rounds": outcome.rounds,
           "generators": [str(g) for g in outcome.generators],
           "added": [str(g) for g in outcome.added]}
    if outcome.status == "unit":
        doc["certificate"] = [str(c) for c in outcome.certificate]
    else:
        doc["dagger_holds"] = outcome.dagger.holds
    return json.dumps(doc)


def rabinowitsch(state, session, g_text):
    hs = _gens(session)
    g = textio.parse_epoly(g_text, session.nvars)
    report = rabin.nullstellensatz_pipeline(hs, g, budget_limit=BUDGET)
    return json.dumps(report.to_dict())


OPS = {"member": member, "intersect": intersect, "extend": extend,
       "query": query, "saturate": saturate, "rabinowitsch": rabinowitsch}


def run_op(state, session, op):
    return OPS[op[0]](state, session, *op[1:])
