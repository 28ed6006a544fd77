"""Differential tests of the polyring division kernel.

The functions below are the earlier definitions of the kernel, kept
verbatim as the reference: `reduce_full` scanning its work dict with `max`,
the nested-tuple order key, and the generator-based monomial helpers.  The
only edit is that the reference division reads the nested key through
`ref_key` instead of `MonomialOrder.key`.  The heap-ordered division with
support masks must return the same quotients and remainder and spend the
same number of steps, and the flat order key must sort monomials exactly
as the nested one does.
"""

from fractions import Fraction
from functools import partial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import polyring  # noqa: E402
from expoly.errors import Budget  # noqa: E402
from expoly.polyring import (MonomialOrder, Poly, PolyRing,  # noqa: E402
                             reduce_full)
from expoly.scalars import gaussian  # noqa: E402
from expoly.sparse import accumulate  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference kernel -----------------------------------------------------

def ref_key(order, mono):
    if not order.block:
        return (sum(mono), tuple(-mono[i]
                                 for i in range(order.nvars - 1, -1, -1)))
    front = tuple(mono[i] for i in order.block)
    back = tuple(mono[i] for i in order.rest)
    return ((sum(front), tuple(-e for e in reversed(front))),
            (sum(back), tuple(-e for e in reversed(back))))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def ref_reduce_full(p: Poly, reducers, budget: Budget):
    """Multivariate division of p by the list of reducers.

    Returns (quotients, remainder) with p = sum q_i * reducers_i + remainder
    and no remainder term divisible by any leading monomial.  Reducer choice
    is by list position, so the outcome is deterministic.
    """
    ring = p.ring
    key = partial(ref_key, ring.order)
    quotients = [{} for _ in reducers]  # m only falls: no key repeats
    remainder = {}
    work = dict(p.terms)
    leads = [r.lead() for r in reducers]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, red in enumerate(reducers):
            lm, lc = leads[i]
            if mono_divides(lm, m):
                budget.spend()
                qm = mono_div(m, lm)
                qc = c / lc
                quotients[i][qm] = qc
                accumulate(((mono_mul(rm, qm), -rc * qc)
                            for rm, rc in red.terms.items() if rm != lm),
                           into=work)
                break
        else:
            remainder[m] = c
    return [Poly(ring, q) for q in quotients], Poly(ring, remainder)


# -- strategies -----------------------------------------------------------

def _rationals():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def orders(draw):
    """A grevlex or block-elimination order on 1 to 7 variables."""
    n = draw(st.integers(1, 7))
    block = draw(st.sets(st.integers(0, n - 1)))
    return MonomialOrder(n, block)


@st.composite
def division_problems(draw):
    order = draw(orders())
    n = order.nvars
    ring = PolyRing([f"x{i}" for i in range(n)], order)
    gaussian_field = draw(st.booleans())
    coeffs = _rationals().filter(bool)
    if gaussian_field:
        coeffs = st.builds(gaussian, _rationals(), _rationals()).filter(bool)
    monos = st.tuples(*[st.integers(0, 3)] * n)
    polys = st.dictionaries(monos, coeffs, min_size=1, max_size=6).map(
        partial(Poly, ring)).filter(bool)
    reducers = draw(st.lists(polys, min_size=1, max_size=4))
    # Shifted copies put leading monomials that divide one another at
    # chosen list positions, so the first-divisor-wins rule is exercised.
    for i, shift, at in draw(st.lists(
            st.tuples(st.integers(0, len(reducers) - 1), monos,
                      st.integers(0, len(reducers))), max_size=3)):
        reducers.insert(at, reducers[i] * Poly(ring, {shift: draw(coeffs)}))
    p = draw(polys)
    # Multiples of the reducers make the division do work.
    for i, shift, c in draw(st.lists(
            st.tuples(st.integers(0, len(reducers) - 1), monos, coeffs),
            max_size=3)):
        p = p + reducers[i] * Poly(ring, {shift: c})
    return ring, p, reducers


# -- properties -----------------------------------------------------------

@PROPERTY
@given(division_problems())
def test_division_matches_reference(problem):
    _, p, reducers = problem
    # These divisions take fewer than 100 steps; the limit turns a division
    # whose monomials fail to fall into an error instead of a hang.
    budget, ref_budget = Budget(2_000), Budget(2_000)
    quotients, rem = reduce_full(p, reducers, budget)
    ref_quotients, ref_rem = ref_reduce_full(p, reducers, ref_budget)
    assert [q.terms for q in quotients] == [q.terms for q in ref_quotients]
    assert rem.terms == ref_rem.terms
    assert budget.used == ref_budget.used
    total = rem
    for q, r in zip(quotients, reducers):
        total = total + q * r
    assert total == p
    leads = [r.lead()[0] for r in reducers]
    assert not any(mono_divides(lm, m) for m in rem.terms for lm in leads)


@PROPERTY
@given(orders().flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.tuples(*[st.integers(0, 4)] * order.nvars), max_size=25))))
def test_flat_key_orders_as_nested_key(case):
    order, monos = case
    assert (sorted(monos, key=order.key)
            == sorted(monos, key=partial(ref_key, order)))


@PROPERTY
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(0, 4)] * n)] * 2)))
def test_monomial_helpers_match_reference(pair):
    a, b = pair
    assert polyring.mono_mul(a, b) == mono_mul(a, b)
    assert polyring.mono_div(a, b) == mono_div(a, b)
    assert polyring.mono_lcm(a, b) == mono_lcm(a, b)
    assert polyring.mono_divides(a, b) == mono_divides(a, b)
