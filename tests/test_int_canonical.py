"""Int-canonical scalars through EPoly arithmetic and the Groebner kernel.

A rational coefficient is an int when its denominator is 1 and a Fraction
otherwise.  The properties below check that no operation leaves a float
behind (Python's int / int is one), and that the kernel gives the same
bases, normal forms, cofactors and verdicts when every input coefficient
is wrapped as a Fraction, the representation the kernel had before ints
were canonical.
"""

from fractions import Fraction
from functools import partial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from expoly import EPoly, GaussianRational, parse_epoly  # noqa: E402
from expoly.errors import Budget, BudgetExceededError  # noqa: E402
from expoly.linalg import RationalEchelon, vec_add  # noqa: E402
from expoly.polyring import (Poly, PolyRing, buchberger,  # noqa: E402
                             reduce_full)
from expoly.scalars import gaussian, scalar_div, scalar_inv  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

_RATIONALS = st.builds(scalar_div, st.integers(-6, 6), st.integers(1, 4))
_SCALARS = st.one_of(_RATIONALS, st.builds(gaussian, _RATIONALS, _RATIONALS))


def _canonical(x) -> bool:
    """An int, a Fraction with denominator > 1, or a Gaussian rational with
    such parts and a nonzero imaginary part."""
    if type(x) is GaussianRational:
        return _canonical(x.re) and _canonical(x.im) and x.im != 0
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _exact(x) -> bool:
    """Canonical, or a raw Fraction with denominator 1 that equals, hashes
    and prints like the int (raw Fraction arithmetic can give one)."""
    if type(x) is Fraction and x.denominator == 1:
        n = x.numerator
        return x == n and hash(x) == hash(n) and str(x) == str(n)
    return _canonical(x)


def _epoly_canonical(p: EPoly) -> bool:
    return all(_canonical(c) and (e is None or _epoly_canonical(e))
               for (_, e), c in p.terms)


def _poly_exact(p: Poly) -> bool:
    return all(_exact(c) for c in p.terms.values())


# -- EPoly values, parsing and division by zero ----------------------------

_EXPONENTS = [None, *(parse_epoly(t, 2) for t in
                      ("X1", "-X1", "1/2*X2", "X1 - 3/2*X2", "2*X1*X2"))]


@st.composite
def epolys(draw):
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    keys = st.tuples(monos, st.sampled_from(_EXPONENTS))
    return EPoly(2, draw(st.dictionaries(keys, _SCALARS, max_size=4)))


@PROPERTY
@given(epolys(), epolys(), _SCALARS)
def test_epoly_arithmetic_keeps_coefficients_canonical(p, q, c):
    for value in (p, q, p + q, p - q, p * q, -p, p * c, c * q, p * 2,
                  p * Fraction(4, 2), p.constant_term() + q):
        assert _epoly_canonical(value)
    assert _canonical(p.constant_term())
    assert p * c == c * p == p * EPoly.const(2, c)
    parsed = parse_epoly(str(p * q), 2)
    assert parsed == p * q and _epoly_canonical(parsed)


def test_integral_literals_parse_as_ints():
    p = parse_epoly("4/2*X1 + 6/4*E(2/2*X1) - (4/2)+(0/3)i", 1)
    assert str(p) == "3/2*E(X1) + 2*X1 - 2"
    assert _epoly_canonical(p)
    assert [type(c) for _, c in p.terms] == [int, int, Fraction]


def test_zero_divisors_raise():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            scalar_inv(zero)
        with pytest.raises(ZeroDivisionError):
            scalar_div(gaussian(1, 1), zero)


# -- the exponent-span echelon ---------------------------------------------

_INT_VECTORS = st.dictionaries(st.integers(0, 3),
                               st.integers(-5, 5).filter(bool), max_size=4)


@PROPERTY
@given(st.lists(_INT_VECTORS, min_size=1, max_size=5))
def test_echelon_keeps_int_vectors_exact(vectors):
    """Pivots are inverted exactly, so int vectors leave no float in the
    echelon rows, their expressions or the coefficients `reduce` returns,
    and every vector re-expands exactly over the independent ones."""
    echelon = RationalEchelon()
    independents = [vec for vec in vectors if echelon.insert(vec)[0]]
    tables = echelon.rows + echelon.expr
    assert all(_exact(x) for table in tables for x in table.values())
    for vec in vectors:
        residual, coeffs = echelon.reduce(vec)
        assert not residual and all(_exact(x) for x in coeffs.values())
        total = {}
        for i, c in coeffs.items():
            total = vec_add(total, independents[i], c)
        assert total == vec


# -- the Groebner kernel --------------------------------------------------

@st.composite
def ideal_problems(draw):
    """A small ring, generators and queries: multiples of the generators
    (members) and random polynomials (mostly not members)."""
    n = draw(st.integers(1, 3))
    ring = PolyRing([f"x{i}" for i in range(n)])
    monos = st.tuples(*[st.integers(0, 2)] * n)
    polys = st.dictionaries(monos, _SCALARS.filter(bool), min_size=1,
                            max_size=3).map(partial(Poly, ring))
    gens = draw(st.lists(polys, min_size=1, max_size=3))
    queries = draw(st.lists(polys, max_size=2))
    for i, q in draw(st.lists(st.tuples(st.integers(0, len(gens) - 1),
                                        polys), max_size=2)):
        queries.append(gens[i] * q)
    return ring, gens, queries


def _basis(gens, ring):
    """The traced basis, or None past a step limit that keeps examples
    small."""
    try:
        return buchberger(gens, ring, Budget(3_000))
    except BudgetExceededError:
        return None


@PROPERTY
@given(ideal_problems(), st.data())
def test_kernel_leaves_no_float(problem, data):
    ring, gens, queries = problem
    p, q = gens[0], gens[-1]
    c = data.draw(_SCALARS.filter(bool))
    for value in (p + q, p - q, -p, p * q, p * c, c * p):
        assert _poly_exact(value)
    quotients, remainder = reduce_full(p * q + q, gens, Budget(3_000))
    assert all(_poly_exact(x) for x in (*quotients, remainder))
    gb = _basis(gens, ring)
    assume(gb is not None)
    assert all(_poly_exact(e) and e.lead()[1] == 1 for e in gb.elements)
    for rep in gb.reps:
        assert all(_poly_exact(r) for r in rep)
    for query in queries:
        quotients, remainder = gb.normal_form(query)
        assert all(_poly_exact(x) for x in (*quotients, remainder))
        cof = gb.cofactors(query)
        if cof is not None:
            assert all(_poly_exact(x) for x in cof)
            total = ring.zero()
            for x, g in zip(cof, gens):
                total = total + x * g
            assert total == query


def _as_fraction(c):
    """c as it was stored before ints were canonical: a rational becomes a
    Fraction.  A Gaussian rational is one reduced integer triple, which has
    no Fraction form, so it stays as it is."""
    if isinstance(c, GaussianRational):
        return c
    return Fraction(c)


def _wrapped(p: Poly) -> Poly:
    return Poly(p.ring, {m: _as_fraction(c) for m, c in p.terms.items()})


@PROPERTY
@given(ideal_problems())
def test_fraction_wrapped_inputs_give_the_same_results(problem):
    ring, gens, queries = problem
    gb = _basis(gens, ring)
    assume(gb is not None)
    old = _basis([_wrapped(g) for g in gens], ring)
    assert old is not None and old._budget.used == gb._budget.used
    assert old.elements == gb.elements
    assert list(map(str, old.elements)) == list(map(str, gb.elements))
    assert old.reps == gb.reps
    for query in queries:
        nf, old_nf = gb.normal_form(query), old.normal_form(_wrapped(query))
        assert old_nf[0] == nf[0] and old_nf[1] == nf[1]
        assert str(old_nf[1]) == str(nf[1])
        cof, old_cof = gb.cofactors(query), old.cofactors(_wrapped(query))
        assert (cof is None) == (old_cof is None)
        if cof is not None:
            assert old_cof == cof
            assert list(map(str, old_cof)) == list(map(str, cof))
