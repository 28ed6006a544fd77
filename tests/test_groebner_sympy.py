"""Differential check of `buchberger` against sympy's reduced grevlex bases.

Reduced Groebner bases are unique for a fixed monomial order, so the
elements `buchberger` returns must equal, as a set of monic polynomials,
what `sympy.groebner(..., order="grevlex")` computes over the same variables
in the same order.  sympy is only a test dependency: without it the module
is skipped.

On the same corpus, the representations lifted from each basis's reduction
trace must re-expand to its elements, and on the presented ideals
`IdealHandle.decide` must agree with `membership` without lifting anything.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from expoly import EPoly, IdealHandle, parse_epoly  # noqa: E402
from expoly.polyring import (GroebnerBasis, Poly, PolyRing,  # noqa: E402
                             buchberger)
from expoly.scalars import GaussianRational  # noqa: E402

from helpers import random_epoly  # noqa: E402


def _sympy_scalar(c):
    if isinstance(c, GaussianRational):
        return _sympy_scalar(c.re) + _sympy_scalar(c.im) * sympy.I
    return sympy.Rational(c.numerator, c.denominator)


def _ours(gb):
    return {frozenset((gb.ring.unpack(m), _sympy_scalar(c))
                      for m, c in e.terms.items())
            for e in gb.elements}


def _theirs(gens, ring):
    symbols = sympy.symbols(ring.names)
    exprs = [sympy.Add(*(_sympy_scalar(c)
                         * sympy.Mul(*(s ** e for s, e
                                       in zip(symbols, ring.unpack(m))))
                         for m, c in g.terms.items()))
             for g in gens]
    out = set()
    for p in sympy.groebner(exprs, *symbols, order="grevlex").exprs:
        poly = sympy.Poly(p, *symbols)
        lc = poly.LC(order="grevlex")
        out.add(frozenset((m, c / lc) for m, c in poly.terms()))
    return out


def _check(gens, ring):
    gb = buchberger(gens, ring)
    assert _ours(gb) == _theirs(gens, ring), [str(g) for g in gens]
    for element, rep in zip(gb.elements, gb.reps):
        expanded = ring.zero()
        for r, g in zip(rep, gens):
            expanded = expanded + r * g
        assert expanded == element, [str(g) for g in gens]


def _ring_polys(names, term_dicts):
    """Integer polynomials written as {exponent tuple: coefficient}."""
    ring = PolyRing(names)
    return ring, [Poly(ring, {ring.pack(m): Fraction(c)
                              for m, c in t.items()})
                  for t in term_dicts]


def test_cyclic_4():
    ring, gens = _ring_polys("abcd", [
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
        {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (1, 0, 0, 1): 1},
        {(1, 1, 1, 0): 1, (0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 0, 1): 1},
        {(1, 1, 1, 1): 1, (0, 0, 0, 0): -1},
    ])
    _check(gens, ring)


def test_katsura_3():
    ring, gens = _ring_polys(("x0", "x1", "x2", "x3"), [
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 2, (0, 0, 0, 1): 2,
         (0, 0, 0, 0): -1},
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): 2, (0, 0, 2, 0): 2, (0, 0, 0, 2): 2,
         (1, 0, 0, 0): -1},
        {(1, 1, 0, 0): 2, (0, 1, 1, 0): 2, (0, 0, 1, 1): 2, (0, 1, 0, 0): -1},
        {(0, 2, 0, 0): 1, (1, 0, 1, 0): 2, (0, 1, 0, 1): 2, (0, 0, 1, 0): -1},
    ])
    _check(gens, ring)


def _presented(handle):
    gb = handle.groebner()
    return gb.input_gens, gb.ring


def _check_decide(handle, rng, monkeypatch):
    """decide and intersect_subring lift no representation, and decide
    agrees with membership on members and on random queries."""
    lifted = []
    lift = GroebnerBasis._lift

    def spy(gb, nodes):
        lifted.append(nodes)
        lift(gb, nodes)

    monkeypatch.setattr(GroebnerBasis, "_lift", spy)
    n = handle.nvars
    members = [sum((g * random_epoly(rng, n, max_terms=2)
                    for g in handle.gens), EPoly.zero(n))
               for _ in range(2)]
    queries = members + [EPoly.const(n, 1)] + [
        random_epoly(rng, n, height=handle.layer(), max_terms=2)
        for _ in range(2)]
    verdicts = [handle.decide(p) for p in queries]
    handle.intersect_subring(0)
    assert not lifted and not handle.groebner()._reps
    assert verdicts[:2] == [True, True]
    assert verdicts == [handle.membership(p).member for p in queries]
    assert lifted


def test_presented_reference_ideal(monkeypatch):
    texts = ["E(X1)-X2-1", "E(X2)-X3-1", "X1*E(X3)-X2",
             "X1*X2*X3-E(X1+X2)"]
    handle = IdealHandle([parse_epoly(t, 3) for t in texts])
    _check(*_presented(handle))
    _check_decide(IdealHandle(handle.gens), random.Random(7), monkeypatch)


# (variables, height, terms per generator, generators): exponential
# ideals in one and two variables, and polynomial ideals in three, where
# many pairs share an lcm.
RANDOM_SHAPES = [(1, 1, 2, 2), (2, 1, 2, 2), (3, 0, 3, 4), (3, 0, 2, 4)]


def test_presented_random_ideals(monkeypatch):
    rng, samples = random.Random(2024), random.Random(7)
    for _ in range(5):
        for nvars, height, max_terms, count in RANDOM_SHAPES:
            gens = [random_epoly(rng, nvars, height=height,
                                 max_terms=max_terms, gaussian_ok=True)
                    for _ in range(count)]
            _check(*_presented(IdealHandle(gens, nvars=nvars)))
            _check_decide(IdealHandle(gens, nvars=nvars), samples,
                          monkeypatch)


def test_random_binomial_ideals():
    # Two or three binomials x^a*y^b +- x^c*y^d: their S-pairs often share
    # an lcm, so the criterion F decides which pairs survive.
    ring = PolyRing(("x", "y"))
    rng = random.Random(2024)
    for _ in range(40):
        gens = [Poly(ring, [(ring.pack((rng.randint(0, 3), rng.randint(0, 3))),
                             Fraction(rng.choice((-1, 1))))
                            for _ in range(2)])
                for _ in range(rng.randint(2, 3))]
        _check([g for g in gens if g], ring)
