import random
from fractions import Fraction

import pytest

from expoly import (DerivationSpec, EPoly, PartialityError, SeriesPoint,
                    TruncatedSeries, apply_derivation, eval_epoly,
                    khovanskii_check, series_exp)

from helpers import random_evaluable


def series(coeffs, order):
    return TruncatedSeries(coeffs, order)


def test_series_exp_fixtures():
    t = TruncatedSeries.t(4)
    assert series_exp(t) == series([1, 1, Fraction(1, 2), Fraction(1, 6)], 4)
    assert series_exp(series([0], 4)) == series([1], 4)
    with pytest.raises(PartialityError):
        series_exp(series([1, 1], 4))


def test_series_exp_homomorphism_sampled():
    rng = random.Random(808)
    for _ in range(200):
        a = series([0] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(7)], 8)
        b = series([0] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(7)], 8)
        assert series_exp(a + b) == series_exp(a) * series_exp(b)


def test_eval_fixtures():
    x = EPoly.var(1, 0)
    point = SeriesPoint([TruncatedSeries.t(3)])
    assert eval_epoly(x.exp() - 1, point) == series([0, 1, Fraction(1, 2)], 3)
    assert eval_epoly(x * x + 1, SeriesPoint([[0]], order=3)) == series([1], 3)
    with pytest.raises(PartialityError) as err:
        eval_epoly(x.exp(), SeriesPoint([[1]], order=3))
    assert "E(X1)" in str(err.value)


def test_eval_is_ring_homomorphism_sampled():
    rng = random.Random(99)
    for _ in range(100):
        p = random_evaluable(rng, 2, rng.randint(0, 2))
        q = random_evaluable(rng, 2, rng.randint(0, 2))
        point = SeriesPoint([
            series([0] + [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(5)], 6),
            series([0] + [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(5)], 6)])
        assert (eval_epoly(p + q, point)
                == eval_epoly(p, point) + eval_epoly(q, point))
        assert (eval_epoly(p * q, point)
                == eval_epoly(p, point) * eval_epoly(q, point))


def test_chain_rule_cross_check():
    rng = random.Random(112)
    spec = DerivationSpec([EPoly.const(1, 1)])
    for _ in range(60):
        p = random_evaluable(rng, 1, rng.randint(0, 2))
        lhs = eval_epoly(p, SeriesPoint([TruncatedSeries.t(8)])).derivative()
        rhs = eval_epoly(apply_derivation(spec, p),
                         SeriesPoint([TruncatedSeries.t(7)]))
        assert lhs == rhs


def test_khovanskii_fixtures():
    x = EPoly.var(1, 0)
    zero_pt = SeriesPoint([[0]], order=4)
    assert khovanskii_check([x], zero_pt)
    assert not khovanskii_check([x], SeriesPoint([TruncatedSeries.t(4)]))
    assert khovanskii_check([x.exp() - 1], zero_pt)
    # degenerate jacobian
    assert not khovanskii_check([x * x], zero_pt)

