import random

import pytest

from expoly import (EPoly, IMAG_UNIT, InternalError, VariableCountError,
                    extract_power, nullstellensatz_pipeline, one_certificate,
                    parse_epoly)
from expoly import rabin
from expoly.errors import Budget

from helpers import random_epoly

X = EPoly.var(1, 0)
ONE = EPoly.const(1, 1)


class TestYGraded:
    def test_cofactors_graded_by_y_degree(self):
        # Only g^2 lies in <X1^2>: t = Y^2 and r = 1 + X1*Y.
        cert = one_certificate([X * X], X)
        assert cert.t[0].coeffs == {2: ONE}
        assert cert.r.coeffs == {0: ONE, 1: X}
        assert cert.max_degree() == 2

    def test_no_y_inside_exponentials(self):
        # Y-degrees index plain exponential polynomials in the original
        # variables; Y itself never occurs inside an E-node.
        g = X.exp() - 1
        cert = one_certificate([g * X.exp()], g)
        for s in (*cert.t, cert.r):
            assert all(isinstance(k, int) and k >= 0 for k in s.coeffs)
            assert all(c and c.nvars == 1 for c in s.coeffs.values())


class TestCertificates:
    def test_polynomial_identity(self):
        cert = one_certificate([X], X)
        assert cert.found
        assert cert.t[0].coeffs == {1: ONE}
        assert cert.r.coeffs == {0: ONE}

    def test_group_unit_identity(self):
        g = X.exp() - 1
        cert = one_certificate([g], g)
        assert cert.found
        assert cert.t[0].coeffs == {1: ONE}
        assert cert.r.coeffs == {0: ONE}

    def test_not_found(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        cert = one_certificate([x1], x2)
        assert not cert.found

    def test_mixed_arities_raise(self):
        for hs, g in (([X, EPoly.var(2, 0)], X), ([X], EPoly.var(2, 0))):
            with pytest.raises(VariableCountError):
                one_certificate(hs, g)

    def test_extract_power_simple(self):
        cert = one_certificate([X], X)
        power = extract_power(cert, [X], X)
        assert power.d == 1
        assert power.cofactors == (ONE,)
        assert power.verified

    def test_extract_power_degenerate(self):
        # 1 already lies in the ideal: d = 0 and g^0 = 1.
        hs = [X, ONE - X]
        g = X  # arbitrary
        cert = one_certificate(hs, g)
        assert cert.found
        power = extract_power(cert, hs, g)
        assert power.d == 0 and power.verified

    def test_zero_g_takes_a_positive_power(self):
        # 0^0 = 1 is not a combination of X1; 0^1 = 0 * X1 is.
        for hs in ([X], [X, X.exp() - 1]):
            cert = one_certificate(hs, EPoly.zero(1))
            power = extract_power(cert, hs, EPoly.zero(1))
            assert power.d == 1 and power.verified
            assert all(c.is_zero() for c in power.cofactors)

    def test_power_needed(self):
        # g = X1 vanishes where X1^2 does, but only g^2 is in the ideal.
        cert = one_certificate([X * X], X)
        assert cert.found
        power = extract_power(cert, [X * X], X)
        assert power.d >= 2 and power.verified
        total = EPoly.zero(1)
        for c, h in zip(power.cofactors, [X * X]):
            total = total + c * h
        assert total == X ** power.d


class TestPipeline:
    def test_fixture_reports(self):
        report = nullstellensatz_pipeline([X], X)
        assert report.dagger.holds and report.found
        assert report.power.d == 1 and report.power.verified

        g = X.exp() - 1
        report = nullstellensatz_pipeline([g], g)
        assert report.found and report.power.d == 1 and report.power.verified

        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        report = nullstellensatz_pipeline([x1], x2)
        assert not report.found

    def test_dagger_failure_is_reported(self):
        report = nullstellensatz_pipeline([X, X.exp() - 2], X)
        assert not report.dagger.holds
        assert report.dagger.witness == X

    def test_obstruction_from_independent_exponentials(self):
        hs = [X.exp() - 1, (IMAG_UNIT * X).exp() - 1]
        report = nullstellensatz_pipeline(hs, ONE)
        assert not report.found
        lattice = report.to_dict()["lattice"]
        assert "E(X1) [layer 1]" in lattice
        assert "E(((0)+(1)i)*X1) [layer 1]" in lattice
        assert report.to_dict()["certificate_found"] is False

    def test_determinism(self):
        a = nullstellensatz_pipeline([X], X).to_dict()
        b = nullstellensatz_pipeline([X], X).to_dict()
        assert a == b

    def test_report_schema(self):
        doc = nullstellensatz_pipeline([X], X).to_dict()
        assert doc["format"] == "nssreport/1"
        assert doc["verified"] is True
        assert doc["d"] == 1
        assert doc["cofactors"] == ["1"]


def _certificate_corpus():
    """Seeded (hs, g) in 1-2 variables with Q(i) coefficients and one level
    of E.  g^d lies in <g^d + a*q, q>, so each system has a certificate."""
    rng = random.Random(6)
    corpus = []
    for _ in range(12):
        n = rng.randint(1, 2)
        g = random_epoly(rng, n, height=1, max_terms=2, gaussian_ok=True)
        q = random_epoly(rng, n, height=1, max_terms=2, gaussian_ok=True)
        a = random_epoly(rng, n, height=0, max_terms=1, gaussian_ok=True)
        corpus.append(([g ** rng.randint(1, 2) + a * q, q], g))
    return corpus


@pytest.mark.parametrize("hs, g", _certificate_corpus())
def test_certificate_re_expands_with_y_as_a_variable(hs, g):
    # Independent of the per-degree check: print every slice, parse it in
    # n + 1 variables with Y = X_{n+1} and expand the whole identity there.
    n = g.nvars
    cert = one_certificate(hs, g, Budget(100_000))
    assert cert.found
    # Slices that decode to zero (u*v - 1 multiples) are dropped.
    assert all(all(s.coeffs.values()) for s in (*cert.t, cert.r))

    def lift(p):
        return parse_epoly(str(p), n + 1)

    y = EPoly.var(n + 1, n)

    def with_y(s):
        return sum((lift(c) * y ** k for k, c in s.coeffs.items()),
                   EPoly.zero(n + 1))

    total = sum((with_y(t) * lift(h) for t, h in zip(cert.t, hs)),
                (1 - y * lift(g)) * with_y(cert.r))
    assert total == EPoly.const(n + 1, 1)


def _drop_top_slice_of_r(index, s):
    if index != 1:
        return s
    return s._replace(coeffs={k: c for k, c in s.coeffs.items()
                              if k != max(s.coeffs)})


def _perturb_top_slice_of_t(index, s):
    if index != 0:
        return s
    top = max(s.coeffs)
    return s._replace(coeffs={**s.coeffs, top: s.coeffs[top] + X})


def _move_top_slice_of_t_into_r(index, s):
    # t_1 = Y^2 becomes 0 and r gains X1^2*Y^2: every degree up to 2 still
    # balances, and only degree 3 sees the stray -g*X1^2*Y^3.
    if index == 0:
        return s._replace(coeffs={})
    return s._replace(coeffs={**s.coeffs, 2: X * X})


@pytest.mark.parametrize("mutate", [_drop_top_slice_of_r,
                                    _perturb_top_slice_of_t,
                                    _move_top_slice_of_t_into_r])
def test_broken_cofactor_fails_the_check(monkeypatch, mutate):
    # For <X1^2> and g = X1 the decoder is called for t_1, then for r.
    decoded = []
    original = rabin._decode_with_y

    def decode(q, pres):
        decoded.append(q)
        return mutate(len(decoded) - 1, original(q, pres))

    monkeypatch.setattr(rabin, "_decode_with_y", decode)
    with pytest.raises(InternalError, match="certificate fails to expand"):
        one_certificate([X * X], X)
    assert len(decoded) == 2
