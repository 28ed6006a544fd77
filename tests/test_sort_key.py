"""Property tests for the canonical order and the printed form.

The comparator pair below is the pre-tuple-key definition of the canonical
order, kept verbatim as the reference: `EPoly.sort_key` and the term key
must order everything exactly as it does.
"""

from fractions import Fraction
from functools import cmp_to_key

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, gaussian, parse_epoly  # noqa: E402
from expoly.epoly import _term_key, term_layer  # noqa: E402
from expoly.scalars import scalar_sort_key  # noqa: E402

NVARS = 2
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference order ------------------------------------------------------

def _cmp(a, b):
    return (a > b) - (a < b)


def cmp_term_key(ka, kb) -> int:
    """Canonical total order on term keys.

    Compares by layer, then graded-lexicographically on the monomial, then
    recursively on the exponent-argument.
    """
    la, lb = term_layer(ka), term_layer(kb)
    if la != lb:
        return _cmp(la, lb)
    ma, mb = ka[0], kb[0]
    c = _cmp(sum(ma), sum(mb))
    if c:
        return c
    c = _cmp(ma, mb)
    if c:
        return c
    ea, eb = ka[1], kb[1]
    if ea is None and eb is None:
        return 0
    return cmp_epoly(ea, eb)


def cmp_epoly(p: "EPoly", q: "EPoly") -> int:
    """Deterministic total order on values, leading terms first."""
    for (ka, ca), (kb, cb) in zip(reversed(p._terms), reversed(q._terms)):
        c = cmp_term_key(ka, kb)
        if c:
            return c
        c = _cmp(scalar_sort_key(ca), scalar_sort_key(cb))
        if c:
            return c
    return _cmp(len(p._terms), len(q._terms))


# -- strategies -----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.one_of(rationals, st.builds(gaussian, rationals, rationals))
monos = st.tuples(*[st.integers(0, 2)] * NVARS)


def _values(exponents):
    pairs = st.lists(st.tuples(st.tuples(monos, exponents), scalars),
                     max_size=4)
    return pairs.map(lambda pairs: EPoly(NVARS, pairs))


def _as_exponent(values):
    """Nonzero values with the constant term removed."""
    return (values.map(lambda p: p - p.constant_term())
            .filter(lambda p: not p.is_zero()))


# Exponent arguments of height 0, 1 and 2, so values reach height 3.
_level0 = _values(st.none())
_exp1 = _as_exponent(_level0)
_level1 = _values(st.one_of(st.none(), _exp1))
_exp2 = _as_exponent(_level1)
_level2 = _values(st.one_of(st.none(), _exp1, _exp2))
_exp3 = _as_exponent(_level2)
epolys = _values(st.one_of(st.none(), _exp1, _exp2, _exp3))


@st.composite
def value_families(draw):
    """Random values plus variants of one value that share its leading
    terms: a dropped tail and a changed trailing coefficient."""
    out = draw(st.lists(epolys, min_size=1, max_size=5))
    base = draw(epolys)
    out.append(base)
    terms = base.terms
    for cut in range(1, len(terms)):
        out.append(EPoly(NVARS, terms[cut:]))
    if terms:
        (key, coeff), rest = terms[0], terms[1:]
        out.append(EPoly(NVARS, ((key, coeff + draw(scalars)),) + rest))
    return draw(st.permutations(out))


def _sign(a, b):
    return (a > b) - (a < b)


# -- properties -----------------------------------------------------------

@PROPERTY
@given(value_families())
def test_sort_keys_match_reference_order(values):
    assert ([v.terms for v in sorted(values, key=lambda v: v.sort_key)]
            == [v.terms for v in sorted(values, key=cmp_to_key(cmp_epoly))])
    for a in values:
        for b in values:
            assert _sign(a.sort_key, b.sort_key) == cmp_epoly(a, b)
    keys = [k for v in values for k, _ in v.terms]
    for ka in keys:
        for kb in keys:
            assert _sign(_term_key(ka), _term_key(kb)) == cmp_term_key(ka, kb)
    for v in values:
        stored = [k for k, _ in v.terms]
        assert stored == sorted(stored, key=cmp_to_key(cmp_term_key))


@PROPERTY
@given(epolys)
def test_parse_print_round_trip(p):
    assert parse_epoly(str(p), NVARS) == p
