"""Seeded inputs for the three benchmark workloads.

Each workload turns a seed into a list of sessions, one benchmark round.
A session is one ideal, tower or system (its generators, in the ideal-file
format) together with the ops run against it; the first op of a session is
cold, later ones reuse the session's cached state.  Inputs are built with
the benchmark's own arithmetic (`xpoly`), so the answers known by
construction (Σ c_i·g_i is a member, E(f)-1 lies one level up, the
Rabinowitsch exponent d) do not come from the library under test.

Session k of a workload draws its *shape* (how many generators, terms and
queries, which monomials and exponents) from a generator seeded by k alone,
and its *numbers* (coefficients, cofactors, numerators) from one seeded by
the run seed and k.  Cost over these families is heavy-tailed in the shape
and nearly flat in the numbers, so runs with different seeds get different
inputs but measure comparable work.  The ideals of ideal-certify are fixed
outright: the shape alone decides the Buchberger cost.

Op tuples (run by `ops.run_op`):
  ("member", query)             expoly member --ideal I query
  ("intersect", layer)          expoly intersect --ideal I --layer layer
  ("extend", levels)            expoly extend --ideal I --levels levels
  ("query", query, level)       expoly extend ... --query query --level level
  ("saturate",)                 expoly saturate --ideal I
  ("rabinowitsch", g)           expoly rabinowitsch --ideal I --g g
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import xpoly as xp

REFERENCE_IDEAL = ["E(X1) - X2 - 1", "E(X2) - X3 - 1", "X1*E(X3) - X2",
                   "X1*X2*X3 - E(X1 + X2)"]

# Refinement denominators stay <= 5, so a lattice refines at most to
# X/60 (the lcm of 2..5).  Denominator 7 refines <E(X1)-1> to X1/420,
# which ran for over 90 s without finishing; see perfbench/README.md.
MAX_REFINE_DENOM = 5


@dataclass
class Session:
    kind: str                 # ideal | tower | refine | saturate | rabin
    nvars: int
    lines: list               # generators, one expression per line
    ops: list                 # op tuples, see the module docstring
    expect: dict = field(default_factory=dict)  # op index -> known answer


def _draws(workload, seed, k):
    """(shape, numbers) generators of session k."""
    return (random.Random(f"{workload}/shape/{k}"),
            random.Random(f"{workload}/{seed}/{k}"))


def _values(lines, n):
    return [xp.parse(t, n) for t in lines]


def _rand_coeff(num, gaussian=False, span=3):
    re = Fraction(num.choice([-1, 1]) * num.randint(1, span))
    if gaussian and num.random() < 0.5:
        return xp.scalar(re, num.choice([-2, -1, 1, 2]))
    return xp.scalar(re)


def _linear_exponent(shape, n):
    """An integer combination of X1..Xn: coefficients in {-1, 1}, at most
    two nonzero."""
    out = {}
    for j in shape.sample(range(n), min(n, shape.randint(1, 2))):
        out = xp.add(out, xp.scale(xp.var(n, j), shape.choice([-1, 1])))
    return out


def _term(shape, n, mono_deg, exponent, coeff):
    mono = [0] * n
    for _ in range(mono_deg):
        mono[shape.randrange(n)] += 1
    key = (tuple(mono), None if not exponent else frozenset(exponent.items()))
    return {key: coeff}


def _scaled_exp_minus_one(n, exponent, factor, coeff):
    return xp.scale(xp.sub(xp.exp(xp.scale(exponent, factor), n),
                           xp.const(n, 1)), coeff)


# -- ideal-certify ---------------------------------------------------------

def _catalog_ideal(rng, n, gaussian):
    """3-4 generators of 2-3 terms; at most one exponential term each."""
    gens = []
    for _ in range(rng.randint(3, 4)):
        while True:
            g = {}
            has_exp = False
            for _ in range(rng.randint(2, 3)):
                exponent = None
                if not has_exp and rng.random() < 0.5:
                    exponent = _linear_exponent(rng, n)
                    has_exp = True
                deg = 1 if rng.random() < 0.4 else 0
                g = xp.add(g, _term(rng, n, deg, exponent,
                                    _rand_coeff(rng, gaussian)))
            if len(g) >= 2:
                break
        gens.append(g)
    return gens


def _lattice_exponents(gens):
    out = []
    for g in gens:
        for e in xp.exponents(g):
            if e not in out:
                out.append(e)
    return out


def _lattice_term(shape, num, n, exps, gaussian, p_exp, max_deg):
    """One term whose exponent is 0 or ± a generator exponent (sometimes
    plus another), so it stays inside the ideal's lattice."""
    exponent = None
    if exps and shape.random() < p_exp:
        exponent = xp.scale(shape.choice(exps), shape.choice([-1, 1]))
        if len(exps) > 1 and shape.random() < 0.3:
            exponent = xp.add(exponent, shape.choice(exps))
    return _term(shape, n, shape.randint(0, max_deg), exponent,
                 _rand_coeff(num, gaussian))


def _ideal_session(shape, num, kind, gens, n, n_queries, gaussian,
                   intersect=True):
    """The cold op asks for the first generator, so its cost is the ideal's
    (parsing, presentation, basis); then n_queries queries inside the
    lattice, alternately Σ c_i·g_i (members) and random values."""
    exps = _lattice_exponents(gens)
    ops, expect = [("member", xp.fmt(gens[0]))], {0: True}
    for k in range(n_queries):
        q = {}
        while not q:
            if k % 2 == 0:
                for g in gens:
                    if shape.random() < 0.7:
                        c = {}
                        for _ in range(shape.randint(1, 2)):
                            c = xp.add(c, _lattice_term(shape, num, n, exps,
                                                        gaussian, 0.5, 1))
                        q = xp.add(q, xp.mul(c, g))
            else:
                for _ in range(shape.randint(2, 3)):
                    q = xp.add(q, _lattice_term(shape, num, n, exps,
                                                gaussian, 0.6, 2))
        if k % 2 == 0:
            expect[len(ops)] = True
        ops.append(("member", xp.fmt(q)))
    if intersect:
        ops.append(("intersect", 0))
    return Session(kind, n, [xp.fmt(g) for g in gens], ops, expect)


IDEAL_SESSIONS = 32     # sessions in a round
IDEAL_QUERIES = 8       # seeded member ops per session (then one intersect)
REFERENCE_EVERY = 8     # the reference ideal is every 8th session
GAUSSIAN_SHARE = 0.25   # share of catalog ideals with Q(i) coefficients


def ideal_certify(seed):
    ref = _values(REFERENCE_IDEAL, 3)
    out = []
    for k in range(IDEAL_SESSIONS):
        shape, num = _draws("ideal-certify", seed, k)
        if k % REFERENCE_EVERY == 0:
            gens, gaussian = ref, False
        else:
            gaussian = shape.random() < GAUSSIAN_SHARE
            gens = _catalog_ideal(shape, 3, gaussian)
        out.append(_ideal_session(shape, num, "ideal", gens, 3,
                                  IDEAL_QUERIES, gaussian))
    return out


# -- tower-query -----------------------------------------------------------

def _zero_const_poly(shape, num, n, terms, max_deg=2):
    p = {}
    while not p:
        for _ in range(terms):
            p = xp.add(p, _term(shape, n, shape.randint(1, max_deg), None,
                                _rand_coeff(num)))
    return p


def _random_of_height(shape, num, n, height, terms):
    """`terms` terms; exponents are zero-constant values of height below
    `height` (so the result has height at most `height`)."""
    q = {}
    for _ in range(terms):
        exponent = None
        if height > 0 and shape.random() < 0.7:
            exponent = _random_of_height(shape, num, n,
                                         shape.randint(0, height - 1),
                                         shape.randint(1, 2))
            exponent = xp.sub(exponent, xp.const(n, xp.constant_term(
                exponent, n)))
        q = xp.add(q, _term(shape, n, shape.randint(0, 1), exponent,
                            _rand_coeff(num)))
    return q or xp.const(n, 1)


TOWER_SESSIONS = 120
TOWER_LEVELS = 3
TOWER_RANDOM_QUERIES = 4   # random queries per level


def _tower_session(shape, num, gens, n):
    ops, expect = [("extend", TOWER_LEVELS)], {}
    one = xp.const(n, 1)
    for level in range(0, TOWER_LEVELS + 1):
        expect[len(ops)] = False
        ops.append(("query", "1", level))
        if level == 0:
            continue
        for f in gens:  # every base generator is a tracked seed
            expect[len(ops)] = True
            ops.append(("query", xp.fmt(xp.sub(xp.exp(f, n), one)), level))
        f = shape.choice(gens)
        expect[len(ops)] = True
        multiple = xp.mul(f, _random_of_height(shape, num, n, level, 1))
        ops.append(("query", xp.fmt(multiple), level))
        for _ in range(TOWER_RANDOM_QUERIES):
            q = _random_of_height(shape, num, n, level, shape.randint(2, 3))
            ops.append(("query", xp.fmt(q), level))
    return Session("tower", n, [xp.fmt(g) for g in gens], ops, expect)


def tower_query(seed):
    """Sessions cycle through <X1>, <X1, X2^2>, a seeded base in 1 variable
    and three seeded bases in 2 variables.  Fixed shares keep the median
    cold op inside one cluster (towers over 1 and 2 variables differ about
    twofold in build cost)."""
    fixed = {0: (["X1"], 1), 1: (["X1", "X2^2"], 2)}
    out = []
    for k in range(TOWER_SESSIONS):
        shape, num = _draws("tower-query", seed, k)
        if k % 6 in fixed:
            lines, n = fixed[k % 6]
            gens = _values(lines, n)
        else:
            n = 1 if k % 6 == 2 else 2
            gens = [_zero_const_poly(shape, num, n, shape.randint(1, 2))
                    for _ in range(shape.randint(1, 2))]
        out.append(_tower_session(shape, num, gens, n))
    return out


# -- refine-saturate -------------------------------------------------------

def _refine_stream(shape, num, n, gens, exponent, denoms):
    """member queries c*(E(m/k * a) - 1): each new denominator k refines the
    lattice and forces a fresh presentation and Groebner run."""
    ops = [("member", xp.fmt(gens[0]))]
    for k in denoms:
        # The numerator m is shape: the degree of u^(m*D/k) - 1 in the
        # refined lattice E(a/D) decides the Groebner cost.
        m = shape.choice([j for j in range(1, k)
                          if Fraction(j, k).denominator == k])
        q = _scaled_exp_minus_one(n, exponent, Fraction(m, k),
                                  _rand_coeff(num))
        ops.append(("member", xp.fmt(q)))
    return Session("refine", n, [xp.fmt(g) for g in gens], ops, {0: True})


def _saturate_session(shape, num, n, stabilizes):
    x = [xp.var(n, j) for j in range(n)]
    if stabilizes:
        # Every generator vanishes at X = 0, E = 1: the ideal stays proper
        # and saturation stabilizes.  The coefficients inside p and a are
        # shape: E(5*X2) costs twenty times what E(-2*X2) does.
        p = _zero_const_poly(shape, shape, n, shape.randint(1, 2), max_deg=1)
        a = _zero_const_poly(shape, shape, n, shape.randint(1, 2), max_deg=1)
        gens = [p, _scaled_exp_minus_one(n, a, 1, _rand_coeff(num))]
    else:
        # X_j = 0 is forced while E(X_j) = c != 1: saturation adds
        # E(X_j) - 1 and the ideal collapses to the unit ideal.
        j = shape.randrange(n)
        c = num.choice([Fraction(2), Fraction(3), Fraction(-1),
                        Fraction(1, 2), Fraction(3, 2)])
        gens = [xp.scale(x[j], _rand_coeff(num)),
                xp.sub(xp.exp(x[j], n), xp.const(n, c))]
        if n == 2:
            gens.append(xp.add(x[1 - j], xp.scale(x[j], _rand_coeff(num))))
    return Session("saturate", n, [xp.fmt(g) for g in gens], [("saturate",)],
                   {0: "stabilized" if stabilizes else "unit"})


def _rabin_session(shape, num, power):
    n = 2
    a = shape.randrange(2)
    b = 1 - a
    x = [xp.var(n, j) for j in range(n)]
    g = xp.scale(x[a], _rand_coeff(num))
    if power:
        d = shape.randint(1, 4)
        hs = [xp.scale(xp.power(x[a], d, n), _rand_coeff(num))]
    else:
        d = 4  # X_a^4 = (X_a^2 - cX_b)(X_a^2 + cX_b) + c^2 X_b^2
        c = _rand_coeff(num)
        hs = [xp.sub(xp.mul(x[a], x[a]), xp.scale(x[b], c)),
              xp.mul(x[b], x[b])]
    return Session("rabin", n, [xp.fmt(h) for h in hs],
                   [("rabinowitsch", xp.fmt(g))], {0: (True, d)})


FIXED_RABIN = [
    (["X1^2"], "X1", (True, 2)),
    (["X1^3"], "X1", (True, 3)),
    (["X1^2 - X2", "X2^2"], "X1", (True, 4)),
    (["E(X1) - 1", "E(i*X1) - 1"], "E(X1) - 1", (True, 1)),
    (["E(X1) - 1", "E(i*X1) - 1"], "X1", (False, None)),
]

SATURATE_SESSIONS = 20      # 3 in 5 stabilize, 2 in 5 reach the unit ideal
RABIN_SESSIONS = 16         # 5 in 8 are powers X^d, 3 in 8 have d = 4
REFINE_STREAMS = 24         # short streams refining <E(a)-1, p> to a/12


def refine_saturate(seed):
    """The fixed refinement streams (<E(X1)-1> to X1/60, and the reference
    ideal), the fixed Rabinowitsch cases, then seeded sessions in fixed
    numbers: saturations, Rabinowitsch systems and short refinement
    streams."""
    draws = (_draws("refine-saturate", seed, k) for k in itertools.count())
    x1 = xp.var(1, 0)
    base1 = [xp.sub(xp.exp(x1, 1), xp.const(1, 1))]
    out = [_refine_stream(*next(draws), 1, base1, x1,
                          list(range(2, MAX_REFINE_DENOM + 1)))]
    ref = _ideal_session(*next(draws), "refine", _values(REFERENCE_IDEAL, 3),
                         3, 0, False, intersect=False)
    ref.ops += [("member", "E(X1*X2) - 1"), ("member", "E(1/2*X1) - 1")]
    out.append(ref)
    for lines, g, expect in FIXED_RABIN:
        out.append(Session("rabin", 2, list(lines), [("rabinowitsch", g)],
                           {0: expect}))
    for i in range(SATURATE_SESSIONS):
        out.append(_saturate_session(*next(draws), 1 + i % 2, i % 5 < 3))
    for i in range(RABIN_SESSIONS):
        out.append(_rabin_session(*next(draws), i % 8 < 5))
    for i in range(REFINE_STREAMS):
        shape, num = next(draws)
        n = 1 + i % 2
        a = _linear_exponent(shape, n)
        gens = [_scaled_exp_minus_one(n, a, 1, xp.scalar(1)),
                _zero_const_poly(shape, num, n, 1, max_deg=1)]
        out.append(_refine_stream(shape, num, n, gens, a,
                                  shape.sample([2, 3, 4], 3)))
    return out


WORKLOADS = {
    "ideal-certify": ideal_certify,
    "tower-query": tower_query,
    "refine-saturate": refine_saturate,
}


def round_sessions(name, seed):
    """The session list of one benchmark round of a workload."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)
