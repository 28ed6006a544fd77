import random

import pytest

from expoly import (DerivationSpec, EPoly, VariableCountError,
                    apply_derivation, jacobian, partial_derivative)

from helpers import random_epoly


def test_partial_derivative_fixtures():
    x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
    assert partial_derivative(x1 * x1, 0) == 2 * x1
    assert partial_derivative((x1 * x1).exp(), 0) == 2 * x1 * (x1 * x1).exp()
    assert partial_derivative(x1.exp(), 1).is_zero()
    # Both name the variable 1-based, as the term language and `--var` do.
    message = "^variable X3 out of range for 2 variables$"
    with pytest.raises(VariableCountError, match=message):
        partial_derivative(x1, 2)
    with pytest.raises(VariableCountError, match=message):
        EPoly.var(2, 2)


def test_apply_derivation_fixtures():
    x = EPoly.var(1, 0)
    spec = DerivationSpec([EPoly.const(1, 1)])
    assert apply_derivation(spec, x.exp()) == x.exp()

    trivial = DerivationSpec([EPoly.zero(1)])
    assert apply_derivation(trivial, x ** 3 + x.exp() * x).is_zero()

    scaled = DerivationSpec([x])
    assert (apply_derivation(scaled, x * x.exp())
            == x * x.exp() + x * x * x.exp())


def test_derivation_identity_sampled():
    rng = random.Random(2718)
    for _ in range(200):
        actions = [random_epoly(rng, 2, height=rng.randint(0, 1))
                   for _ in range(2)]
        spec = DerivationSpec(actions)
        p = random_epoly(rng, 2, height=rng.randint(0, 2))
        expected = EPoly.zero(2)
        for j, a in enumerate(actions):
            expected = expected + a * partial_derivative(p, j)
        assert apply_derivation(spec, p) == expected


def test_mixed_partials_commute():
    rng = random.Random(314)
    for _ in range(100):
        p = random_epoly(rng, 2, height=rng.randint(0, 2))
        d01 = partial_derivative(partial_derivative(p, 0), 1)
        d10 = partial_derivative(partial_derivative(p, 1), 0)
        assert d01 == d10


def test_jacobian_fixtures():
    x = EPoly.var(1, 0)
    assert jacobian([x]) == EPoly.const(1, 1)
    assert jacobian([x.exp() - 1]) == x.exp()
    x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
    assert jacobian([x1, x2]) == EPoly.const(2, 1)
    assert jacobian([x1 * x2, x1 + x2]) == x2 - x1
    y1, y2, y3 = (EPoly.var(3, j) for j in range(3))
    assert jacobian([y2, y1, y3]) == -1
    assert (jacobian([y1 * y2 + y3, y2.exp() - 1, y1 - y3])
            == -(y2 + 1) * y2.exp())
    with pytest.raises(VariableCountError):
        jacobian([x1])


def test_jacobian_of_triangular_systems():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 3)
        fs = []
        for i in range(n):
            # f_i depends only on X_1..X_{i+1}
            p = random_epoly(rng, n, height=rng.randint(0, 1))
            mask = EPoly(n, {
                (mono, exponent): c
                for (mono, exponent), c in p.terms
                if all(e == 0 for e in mono[i + 1:]) and exponent is None})
            fs.append(mask + EPoly.var(n, i) * rng.randint(1, 3))
        expected = EPoly.const(n, 1)
        for i, f in enumerate(fs):
            expected = expected * partial_derivative(f, i)
        assert jacobian(fs) == expected
