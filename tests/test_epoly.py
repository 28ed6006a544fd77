import random
from fractions import Fraction

import pytest

from expoly import (EPoly, OrdinalCNF, ParseError, PartialityError,
                    PreconditionError, VariableCountError, ord_reduce,
                    parse_epoly)

from expoly.epoly import _term_key
from expoly.scalars import as_scalar, gaussian

from helpers import random_epoly, random_nonzero_zero_const, random_zero_const


def P(text, nvars=None):
    return parse_epoly(text, nvars)


def test_additive_inverse_and_group_law():
    x = EPoly.var(1, 0)
    assert (x + (-x)).is_zero()
    assert x.exp() * (-x).exp() == EPoly.const(1, 1)


def test_expand_and_merge():
    x = EPoly.var(1, 0)
    one = EPoly.const(1, 1)
    assert (one + x.exp()) * (one - x.exp()) == one - (2 * x).exp()


def test_ring_axioms_sampled():
    rng = random.Random(99)
    for _ in range(1000):
        a = random_epoly(rng, 2, height=rng.randint(0, 2))
        b = random_epoly(rng, 2, height=rng.randint(0, 2))
        c = random_epoly(rng, 2, height=rng.randint(0, 2))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exponential_homomorphism_sampled():
    rng = random.Random(1234)
    for _ in range(300):
        p = random_zero_const(rng, 2, height=rng.randint(0, 2))
        q = random_zero_const(rng, 2, height=rng.randint(0, 2))
        assert (p + q).exp() == p.exp() * q.exp()
    assert EPoly.zero(2).exp() == EPoly.const(2, 1)


def test_exponential_partiality():
    with pytest.raises(PartialityError) as err:
        P("E(1 + X1)")
    assert "1" in str(err.value)


def test_variable_count_mismatch():
    with pytest.raises(VariableCountError):
        EPoly.var(1, 0) + EPoly.var(2, 0)


def test_layer_decomposition_fixtures():
    x = EPoly.var(1, 0)
    d = (x * x + 1).layer_decompose()
    assert len(d) == 1 and d[0] == x * x + 1

    p = x + 2 * x.exp()
    d = p.layer_decompose()
    assert d[0] == x and d[1] == 2 * x.exp()
    assert sum(d) == p

    p = x.exp().exp()
    d = p.layer_decompose()
    assert d[0].is_zero() and d[1].is_zero() and d[2] == p


def test_layer_decomposition_round_trip_sampled():
    rng = random.Random(555)
    for _ in range(200):
        p = random_epoly(rng, 2, height=rng.randint(0, 3))
        d = p.layer_decompose()
        assert sum(d) == p
        for i, part in enumerate(d):
            for key, _ in part.terms:
                from expoly.epoly import term_layer
                assert term_layer(key) == i


def test_height_fixtures():
    x = EPoly.var(1, 0)
    assert (x ** 3).height() == 0
    assert x.exp().height() == 1
    assert (x.exp().exp() + x).height() == 2


def test_height_of_exponential():
    rng = random.Random(31)
    for _ in range(100):
        p = random_nonzero_zero_const(rng, 2, height=rng.randint(0, 2))
        assert p.exp().height() == p.height() + 1


ORD_FIXTURES = [
    # (text, ordinal CNF terms, height, rank)
    ("0", (), 0, 0),
    ("5", ((0, 1),), 0, 1),
    ("X1", ((0, 2),), 0, 2),
    ("X1^2 + 1", ((0, 3),), 0, 3),
    ("X1*X2 + X2", ((0, 3),), 0, 3),
    ("X1^3", ((0, 4),), 0, 4),
    ("E(X1)", ((1, 1),), 1, 1),
    ("E(X1) - 1", ((1, 1), (0, 1)), 1, 1),
    ("X1 + 2*E(X1)", ((1, 1), (0, 2)), 1, 1),
    ("E(X1) - E(2*X1)", ((1, 2),), 1, 2),
    ("3*E(X1) - E(X1^2)", ((1, 2),), 1, 2),
    ("E(X1) + E(X2) + E(X1+X2)", ((1, 3),), 1, 3),
    ("X1*E(X1)", ((1, 1),), 1, 1),
    ("E(X1)*E(X2)", ((1, 1),), 1, 1),          # merges to E(X1+X2)
    ("E(E(X1))", ((2, 1),), 2, 1),
    ("E(E(X1)) + E(X1)", ((2, 1), (1, 1)), 2, 1),
    ("E(E(X1)) + X1^2", ((2, 1), (0, 3)), 2, 1),
    ("E(E(X1)) - E(E(2*X1))", ((2, 2),), 2, 2),
    ("E(X1 + E(X1))", ((2, 1),), 2, 1),
    ("E(X1)*E(E(X1))", ((2, 1),), 2, 1),       # exponent X1 + E(X1)
    ("E(E(X1)) + E(X2 + E(X1))", ((2, 1),), 2, 1),
    ("1 + E(X1) + E(E(X1))", ((2, 1), (1, 1), (0, 1)), 2, 1),
]


def test_ord_fixture_table():
    for text, terms, height, rank in ORD_FIXTURES:
        p = P(text, 2)
        assert p.complexity() == OrdinalCNF(terms), text
        assert p.height() == height, text
        assert p.rank() == rank, text


def test_ord_reduce_fixtures():
    x = EPoly.var(1, 0)
    q, reduced = ord_reduce(x.exp())
    assert q == -x and reduced == EPoly.const(1, 1)

    q, reduced = ord_reduce(x.exp() - (2 * x).exp())
    assert q == -x and reduced == EPoly.const(1, 1) - x.exp()
    assert reduced.complexity() == OrdinalCNF(((1, 1), (0, 1)))

    with pytest.raises(PreconditionError):
        ord_reduce(x)
    with pytest.raises(PreconditionError):
        ord_reduce(EPoly.zero(1))


def test_ord_reduce_strictly_decreases_sampled():
    rng = random.Random(4321)
    done = 0
    while done < 200:
        p = random_epoly(rng, 2, height=rng.randint(1, 3))
        p = p - p.layer_component(0)
        if p.is_zero():
            continue
        q, reduced = ord_reduce(p)
        assert q.exp() * p == reduced
        assert reduced.complexity() < p.complexity(), str(p)
        done += 1


def test_mixed_layer_reduction_decreases():
    # A top-layer pick would increase the ordinal here; the lowest-layer
    # pick must still strictly decrease it.
    x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
    p = x1.exp() + (x2 + x1.exp()).exp() + (2 * x2 + x1.exp()).exp()
    _, reduced = ord_reduce(p)
    assert reduced.complexity() < p.complexity()


GOLDEN = [
    "0",
    "1",
    "-X1 + 5/6",
    "2*X1",
    "X1^2 + 1",
    "E(X1) - 1",
    "E(2*X1) - E(X1)",
    "3*E(X1) + X2",
    "E(X1^2 + X2)",
    "E(E(X1)) + E(X1) + 1",
    "((1)+(-2/3)i)*X1",
    "E(((0)+(1)i)*X1) - 1",
    "1/2*X1*X2^2",
    "X1*E(X1)",
    "E(X1 + E(X1))",
]


def test_parse_print_round_trip_golden():
    for text in GOLDEN:
        p = P(text, 2)
        assert parse_epoly(str(p), 2) == p, text


def test_print_canonicalizes():
    assert str(P("X1 + X1")) == "2*X1"
    assert str(P("E(X1) - 1")) == "E(X1) - 1"
    assert str(P("1 - E(2*X1)")) == "-E(2*X1) + 1"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        P("X1 + + X2")
    assert err.value.col == 6
    with pytest.raises(ParseError):
        P("X9", 2)
    with pytest.raises(ParseError):
        P("E(X1")


def test_print_parse_round_trip_gaussian_sampled():
    rng = random.Random(777)
    for _ in range(50):
        p = random_epoly(rng, 2, height=rng.randint(0, 2), gaussian_ok=True)
        assert parse_epoly(str(p), 2) == p


def _fold_then_sort(pairs):
    """Reference constructor: add up equal keys, drop zero sums, make each
    coefficient canonical and sort every term by its key."""
    acc = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return tuple(sorted(((k, as_scalar(c)) for k, c in acc.items() if c),
                        key=lambda kv: _term_key(kv[0])))


_X1, _X2, _ONE = ((1, 0), None), ((0, 1), None), ((0, 0), None)
_NESTED = ((0, 1), P("X1*E(X2) - 2*X2", 2))   # X2*E(X1*E(X2) - 2*X2)


@pytest.mark.parametrize("pairs", [
    [],
    [(_X1, 3)],
    [(_X1, 0)],
    [(_ONE, Fraction(4, 2))],
    [(_X1, 1), (_X2, 2), (_X1, -1)],
    [(_X1, Fraction(1, 2)), (_X1, Fraction(-1, 2))],
    [(_NESTED, 1)],
    [(_NESTED, 1), (_X1, gaussian(1, 2)), (_ONE, -1), (_NESTED, 2),
     (((2, 0), P("X1", 2)), Fraction(3, 4)), (_X2, Fraction(6, 3)),
     (((0, 0), P("-X1*E(X2)", 2)), 5), (_ONE, 1)],
], ids=["none", "one", "one-zero", "one-fraction-4/2", "cancel-to-one",
        "cancel-to-zero", "one-nested", "many"])
def test_constructor_matches_fold_then_sort(pairs):
    built = EPoly(2, pairs)
    expected = _fold_then_sort(pairs)
    assert built.terms == expected
    assert [type(c) for _, c in built.terms] == [type(c) for _, c in expected]
    assert EPoly(2, dict(_fold_then_sort(pairs))) == built
