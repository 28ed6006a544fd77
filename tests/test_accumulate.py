"""Property tests for the shared sparse accumulator, the ring laws it
carries and `EPoly.combination`, the one fold for sums of products.  They
sit next to the seeded sampling tests, not in place of them.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, VariableCountError, gaussian  # noqa: E402
from expoly.polyring import Poly, PolyRing  # noqa: E402
from expoly.scalars import scalar_im, scalar_re  # noqa: E402

from test_scalars import _assert_canonical  # noqa: E402

NVARS = 2
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

X1, X2 = EPoly.var(NVARS, 0), EPoly.var(NVARS, 1)
# A small pool of exponents (zero constant term, one nested) so that
# repeated keys are common.
EXPONENTS = [None, X1, -X2, X1 + 2 * X2, X1.exp() - 1]

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
scalars = st.one_of(
    rationals,
    st.builds(gaussian, rationals, rationals),
)
monos = st.tuples(*[st.integers(0, 2)] * NVARS)
keys = st.tuples(monos, st.sampled_from(EXPONENTS))


@st.composite
def pair_lists(draw, key_strategy):
    """(key, coeff) pairs with repeated keys and some exact cancellations."""
    pairs = draw(st.lists(st.tuples(key_strategy, scalars), max_size=8))
    cancelled = draw(st.lists(st.sampled_from(pairs), max_size=4)
                     if pairs else st.just([]))
    mixed = pairs + [(key, -coeff) for key, coeff in cancelled]
    return draw(st.permutations(mixed))


def epolys():
    return pair_lists(keys).map(lambda pairs: EPoly(NVARS, pairs))


@PROPERTY
@given(pair_lists(keys))
def test_epoly_constructor_is_sum_of_terms(pairs):
    total = EPoly.zero(NVARS)
    for pair in pairs:
        total = total + EPoly(NVARS, [pair])
    built = EPoly(NVARS, pairs)
    assert built == total
    assert all(coeff != 0 for _, coeff in built.terms)
    assert len({key for key, _ in built.terms}) == len(built.terms)


@PROPERTY
@given(pair_lists(keys))
def test_epoly_full_cancellation_is_zero(pairs):
    assert EPoly(NVARS, pairs + [(k, -c) for k, c in pairs]).is_zero()


@PROPERTY
@given(pair_lists(monos))
def test_poly_constructor_is_sum_of_terms(pairs):
    ring = PolyRing(["a", "b"])
    total = ring.zero()
    for pair in pairs:
        total = total + Poly(ring, [pair])
    built = Poly(ring, pairs)
    assert built == total
    assert all(coeff != 0 for coeff in built.terms.values())
    assert Poly(ring, pairs + [(m, -c) for m, c in pairs]).is_zero()


@PROPERTY
@given(epolys(), epolys(), epolys())
def test_epoly_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(epolys())
def test_epoly_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + (-a) == 0


# Exponents nested two deep, some with Q(i) coefficients, for the values
# whose term order is kept rather than re-sorted.
NESTED = EXPONENTS + [X2 * (X1 * X2.exp()).exp(),
                      gaussian(1, 2) * X2 + X1 * X1.exp()]
nonzero_factors = st.one_of(scalars.filter(bool),
                            st.integers(-3, 3).filter(bool))


def assert_canonical(p):
    """p equals its own terms rebuilt by the folding constructor."""
    rebuilt = EPoly(p.nvars, list(p.terms))
    assert p.terms == rebuilt.terms
    assert hash(p) == hash(rebuilt)
    assert p.sort_key == rebuilt.sort_key


@PROPERTY
@given(pair_lists(st.tuples(monos, st.sampled_from(NESTED))).map(
    lambda pairs: EPoly(NVARS, pairs)), nonzero_factors, st.integers(0, 3))
def test_order_preserving_results_are_canonical(p, c, i):
    assert p * c == c * p == p * EPoly.const(NVARS, c)
    for result in (-p, p * c, c * p, p.layer_component(i),
                   *p.layer_decompose(), EPoly.zero(NVARS),
                   (p - p.constant_term()).exp()):
        assert_canonical(result)
    assert (p * 0).is_zero() and (p * Fraction(0)).is_zero()


# -- EPoly.combination against the hand-rolled accumulator loop --------------

nested_epolys = pair_lists(st.tuples(monos, st.sampled_from(NESTED))).map(
    lambda pairs: EPoly(NVARS, pairs))
factors = st.one_of(nested_epolys, scalars, st.integers(-3, 3))


def reference_combination(products):
    """The loop `EPoly.combination` replaces: one product and one partial
    sum per pair."""
    acc = EPoly.zero(NVARS)
    for a, b in products:
        acc = acc + a * b
    return acc


@st.composite
def product_lists(draw):
    """(a, b) pairs, scalars on either side, some cancelled by a (-a, b)."""
    products = draw(st.lists(st.tuples(factors, factors), max_size=5))
    cancelled = draw(st.lists(st.sampled_from(products), max_size=3)
                     if products else st.just([]))
    return draw(st.permutations(products + [(-a, b) for a, b in cancelled]))


def assert_coefficients_canonical(p):
    for (_, exponent), coeff in p.terms:
        _assert_canonical(coeff, (scalar_re(coeff), scalar_im(coeff)))
        if exponent is not None:
            assert_coefficients_canonical(exponent)


@PROPERTY
@given(product_lists())
def test_combination_is_the_accumulator_loop(products):
    built = EPoly.combination(NVARS, products)
    assert built == reference_combination(products)
    assert_canonical(built)
    assert_coefficients_canonical(built)
    cancelled = products + [(a, -b) for a, b in products]
    assert EPoly.combination(NVARS, cancelled).is_zero()


def test_combination_edge_cases():
    assert EPoly.combination(NVARS, []) == EPoly.zero(NVARS)
    assert EPoly.combination(NVARS, iter([(2, 3), (X1, 0)])) == 6
    (_, one), = EPoly.combination(NVARS, [(Fraction(1, 2), 2)]).terms
    assert one == 1 and type(one) is int
    with pytest.raises(VariableCountError):
        EPoly.combination(NVARS, [(X1, EPoly.var(1, 0))])
