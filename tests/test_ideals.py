import random
from fractions import Fraction

import pytest

from expoly import (BudgetExceededError, EPoly, IdealHandle, IMAG_UNIT,
                    InternalError, PreconditionError, augmentation,
                    augmentation_mod, parse_epoly, present)
from expoly import ideals
from expoly.ideals import LaurentPresentation
from expoly.polyring import spolynomial

from helpers import random_epoly
from oracle import oracle_member


def P(text, nvars=1):
    return parse_epoly(text, nvars)


X = EPoly.var(1, 0)
ONE = EPoly.const(1, 1)


class TestPresent:
    def test_no_exponents(self):
        assert present([X]).directions == ()

    def test_span_collapses(self):
        pres = present([X.exp() - 1, (2 * X).exp()])
        assert [d.epoly for d in pres.directions] == [X]
        assert [d.level for d in pres.directions] == [1]

    def test_primitive_generator(self):
        half = X * Fraction(1, 2)
        pres = present([half.exp()])
        assert [d.epoly for d in pres.directions] == [half]

    def test_refines_to_common_primitive(self):
        third = X * Fraction(1, 3)
        half = X * Fraction(1, 2)
        pres = present([half.exp(), third.exp()])
        assert [d.epoly for d in pres.directions] == [X * Fraction(1, 6)]

    def test_layer_adapted_levels(self):
        pres = present([X.exp().exp(), X.exp() - 1])
        assert sorted(d.level for d in pres.directions) == [1, 2]

    def test_gaussian_directions_are_q_independent(self):
        pres = present([X.exp(), (IMAG_UNIT * X).exp()])
        assert len(pres.directions) == 2

    def test_encode_decode_round_trip(self):
        rng = random.Random(21)
        for _ in range(100):
            p = random_epoly(rng, 2, height=rng.randint(0, 2),
                             gaussian_ok=True)
            pres = present([p])
            assert pres.decode(pres.encode(p)) == p

    def test_mixed_layer_exponent(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        p = (x2 + x1.exp()).exp()
        pres = present([p])
        assert sorted(d.level for d in pres.directions) == [1, 2]
        assert pres.decode(pres.encode(p)) == p


class TestGroebner:
    def test_single_variable(self):
        gb = IdealHandle([X]).groebner()
        assert [str(e) for e in gb.elements] == ["1*X1"]

    def test_two_variable_fixture(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        gb = IdealHandle([x1, x1 * x1 + x2]).groebner()
        leads = sorted(str(e) for e in gb.elements)
        assert leads == ["1*X1", "1*X2"]

    def test_group_unit_fixture(self):
        gb = IdealHandle([X.exp() - 1]).groebner()
        assert "1*u1 + -1*1" in [str(e) for e in gb.elements]

    def test_spoly_consistency_and_cofactors(self):
        # A handle's basis lies over its generators' lattice; the last
        # entry is built over the refined lattice X1/60 explicitly: from
        # u1^60 - 1 and the unit relation, a basis of degree 31.
        gens = [X.exp() - 1]
        fine = present(gens + [(X * Fraction(1, 60)).exp()])
        presented = [handle.lattice_basis() for handle in [
            IdealHandle([X, X * X + 1]),
            IdealHandle([X.exp() - 1, X]),
            IdealHandle([(X * Fraction(1, 2)).exp() - 1]),
            IdealHandle([parse_epoly("X1*X2 + X2", 2),
                         parse_epoly("X2^2 - X1", 2)]),
            IdealHandle([P(t, 3) for t in ("E(X1)-X2-1", "E(X2)-X3-1",
                                           "X1*E(X3)-X2",
                                           "X1*X2*X3-E(X1+X2)")]),
        ]] + [(fine, IdealHandle(gens)._basis(fine))]
        assert "1*v1^31 + -1*u1^29" in [
            str(e) for e in presented[-1][1].elements]
        for pres, gb in presented:
            for i in range(len(gb.elements)):
                for j in range(i):
                    s = spolynomial(gb.elements[i], gb.elements[j])
                    _, rem = gb.normal_form(s)
                    assert rem.is_zero()
            # A representation over the generators holds modulo the unit
            # relations, which decode to zero: decode both sides.
            ring = gb.ring
            for element, rep in zip(gb.elements, gb.reps):
                acc = ring.zero()
                for r, g in zip(rep, gb.input_gens):
                    acc = acc + r * g
                assert pres.decode(acc) == pres.decode(element)

    def test_no_relation_input_gets_a_cofactor(self):
        handle = IdealHandle([P(t, 3) for t in (
            "E(X1)-X2-1", "E(X2)-X3-1", "X1*E(X3)-X2", "X1*X2*X3-E(X1+X2)")])
        pres, gb = handle.lattice_basis()
        assert len(pres.relations()) == 3
        # The trace reaches the relation inputs 4, 5 and 6 ...
        leaves, stack = set(), list(gb._nodes)
        while stack:
            origin, quotients, _ = stack.pop()
            if isinstance(origin, int):
                leaves.add(origin)
            else:
                stack.extend(n for n, _, _ in origin)
            stack.extend(n for n, _ in quotients)
        assert {4, 5, 6} <= leaves
        # ... but representations are lifted over the 4 generators only.
        assert len(gb.input_gens) == len(handle.gens) == 4
        assert all(len(rep) == 4 for rep in gb.reps)
        assert all(i < 4 for rep in gb._reps.values() for i in rep)
        x1, x2 = EPoly.var(3, 0), EPoly.var(3, 1)
        query = (-x2).exp() * handle.gens[3] + x1 * handle.gens[0]
        result = handle.membership(query)
        assert result.member and len(result.cofactors) == 4

    def test_budget_exceeded_is_explicit(self):
        handle = IdealHandle([parse_epoly("X1^3*X2 - X1", 2),
                              parse_epoly("X1*X2^3 - X2", 2)],
                             budget_limit=3)
        with pytest.raises(BudgetExceededError):
            handle.groebner()

    def test_refinement_stream_within_budget(self):
        # Each query refines the covering lattice of <E(X1)-1>, up to X1/60
        # at k = 5, and is decided by coset over the one basis of u - 1 and
        # the unit relation.  The limit bounds the handle's one budget,
        # which the whole stream spends: 1 step.
        handle = IdealHandle([X.exp() - 1], budget_limit=2000)
        for k in (2, 3, 4, 5):
            assert not handle.membership(P(f"E(1/{k}*X1) - 1")).member

    def test_refinement_stream_runs_buchberger_once(self, monkeypatch):
        runs = []
        buchberger = ideals.buchberger

        def spy(*args):
            runs.append(args)
            return buchberger(*args)

        monkeypatch.setattr(ideals, "buchberger", spy)
        handle = IdealHandle([X.exp() - 1])
        for text in ("E(1/2*X1) - 1", "E(1/3*X1) - 1", "E(1/4*X1) - 1",
                     "E(2/5*X1) - 1"):
            assert not handle.membership(P(text)).member
        assert len(runs) == 1
        assert handle.presentation().describe() == (
            "exponent lattice: E(1/60*X1) [layer 1]")


class TestMembership:
    def test_fixture_cofactor(self):
        result = IdealHandle([X]).membership(X * X + X)
        assert result.member and list(result.cofactors) == [X + 1]

    def test_one_not_member(self):
        assert not IdealHandle([X]).membership(ONE).member

    def test_lattice_refinement(self):
        handle = IdealHandle([(X * Fraction(1, 2)).exp() - 1])
        result = handle.membership(X.exp() - 1)
        assert result.member
        assert result.cofactors[0] == (X * Fraction(1, 2)).exp() + 1

    def test_refinement_on_query(self):
        handle = IdealHandle([X.exp() - 1])
        assert not handle.membership((X * Fraction(1, 2)).exp() - 1).member
        # the slice refined to the primitive direction X1/2
        dirs = [d.epoly for d in handle.presentation().directions]
        assert dirs == [X * Fraction(1, 2)]

    def test_cofactors_reexpand(self):
        rng = random.Random(69)
        handle = IdealHandle([X, X.exp() - 1])
        for _ in range(50):
            mult = random_epoly(rng, 1, height=rng.randint(0, 1))
            p = mult * X + random_epoly(rng, 1, height=1) * (X.exp() - 1)
            result = handle.membership(p)
            assert result.member
            acc = EPoly.zero(1)
            for c, g in zip(result.cofactors, handle.gens):
                acc = acc + c * g
            assert acc == p

    @pytest.mark.parametrize("verdict", ["decide", "membership"])
    def test_covered_query_is_encoded_once(self, monkeypatch, verdict):
        handle = IdealHandle([X, X.exp() - 1])
        handle.groebner()
        calls = []
        encode = LaurentPresentation.encode

        def counted(pres, p):
            calls.append(p)
            return encode(pres, p)

        monkeypatch.setattr(LaurentPresentation, "encode", counted)
        query = X * (-X).exp() + X.exp() - 1
        answer = getattr(handle, verdict)(query)
        assert answer if verdict == "decide" else answer.member
        assert calls == [query]

    def test_query_outside_the_lattice_refines_it(self):
        gens = [X.exp() - 1, X * X]
        query = (X * Fraction(1, 3)).exp() * X * X - X * X
        handle = IdealHandle(gens)
        assert handle.membership(X.exp() - 1).member
        before = handle.presentation().directions
        result = handle.membership(query)
        assert handle.presentation().directions != before
        assert handle.presentation().covers(query)
        fresh = IdealHandle(gens).membership(query)
        assert result == fresh and result.member
        assert handle.decide(query) and IdealHandle(gens).decide(query)

    def test_perturbed_trace_quotient_fails_reexpansion(self):
        # Cofactors are lifted lazily from the basis's reduction trace; a
        # wrong recorded quotient must still be caught by the re-expansion
        # check.  Query the basis element whose trace first records one.
        handle = IdealHandle([P("X1*X2 + X2", 2), P("X2^2 - X1", 2)])
        gb = handle.groebner()
        for k, node in enumerate(gb._nodes):
            stack = [node]
            while stack:
                origin, quotients, _ = stack.pop()
                if quotients:
                    break
                if not isinstance(origin, int):
                    stack.extend(n for n, _, _ in origin)
            if quotients:
                break
        q = quotients[0][1]
        mono = next(iter(q.terms))
        q.terms[mono] += 1
        element = handle.presentation().decode(gb.elements[k])
        with pytest.raises(InternalError):
            handle.membership(element)


class TestOracleAgreement:
    CAP = 5

    def tiny_instances(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        one = EPoly.const(2, 1)
        e1 = x1.exp()
        yield [x1], [x1 * x1, x1 * x2 + x1, x2, one, x2 * x2]
        yield [x1, x2 * x2], [x1 * x2, x2 ** 3, x2, x1 + x2 * x2, one]
        yield [x1 * x2 - 1], [x1 * x2 * x2 - x2, x1, x1 * x2 + 1]
        yield [e1 - 1], [e1 * e1 - 1, e1, e1 * e1 - e1, (2 * x1).exp() - 1,
                         x1]
        yield [e1 - 1, x1], [x1 * e1 - x1, e1 - 1 + x1, one, e1 + 1]
        yield [x1 + x2, x2 * x2 - 1], [x1 * x1 - 1, x1 + x2 * x2 * x1,
                                       x2 - 1, (x1 + x2) * (x2 - 3)]

    def test_agreement_with_exhaustive_cofactor_search(self):
        for gens, queries in self.tiny_instances():
            nvars = gens[0].nvars
            handle = IdealHandle(gens, nvars=nvars)
            for q in queries:
                engine = handle.membership(q).member
                pres = handle.presentation(also_cover=(q,))
                encoded_gens = ([pres.encode(g) for g in handle.gens]
                                + pres.relations())
                brute = oracle_member(encoded_gens, pres.encode(q), self.CAP)
                assert engine == brute, (gens, str(q))


class TestIntersect:
    def test_eliminates_group_directions(self):
        handle = IdealHandle([X, X.exp() - 2])
        cut = handle.intersect_subring(0)
        assert [str(g) for g in cut.gens] == ["X1"]

    def test_localization_kernel_is_zero(self):
        handle = IdealHandle([X.exp() - 1 - X])
        assert IdealHandle([X.exp() - 1 - X]).intersect_subring(0).gens == ()
        assert handle.intersect_subring(0).gens == ()

    def test_untouched_polynomial_ideal(self):
        x2 = EPoly.var(2, 1)
        cut = IdealHandle([x2]).intersect_subring(0)
        assert [str(g) for g in cut.gens] == ["X2"]

    def test_outputs_live_in_the_subring_and_ideal(self):
        handle = IdealHandle([X.exp().exp() - 1, X.exp() - 1, X * X])
        for level in (0, 1):
            cut = handle.intersect_subring(level)
            for g in cut.gens:
                assert g.height() <= level
                assert handle.membership(g).member

    def test_base_field_cut(self):
        with pytest.raises(PreconditionError):
            IdealHandle([X]).intersect_subring(-1)

    def test_cut_is_memoized_until_the_lattice_refines(self, monkeypatch):
        runs = []
        buchberger = ideals.buchberger

        def spy(*args):
            runs.append(args)
            return buchberger(*args)

        monkeypatch.setattr(ideals, "buchberger", spy)
        handle = IdealHandle([X, X.exp() - 2])
        first, second = handle.intersect_subring(0), handle.intersect_subring(0)
        assert len(runs) == 1
        assert first is not second and first.gens == second.gens
        handle.presentation(also_cover=[(X * Fraction(1, 2)).exp()])
        assert handle.intersect_subring(0).gens == first.gens
        assert len(runs) == 2


    def test_elimination_runs_in_the_presentations_ring(self, monkeypatch):
        """The cut's Buchberger run gets the eliminating presentation's own
        encodings and relations, in its ring, whose order is the block
        elimination order: no copy into another ring."""
        elims, runs = [], []
        eliminating = LaurentPresentation.eliminating
        buchberger = ideals.buchberger

        def elim_spy(self, level):
            elims.append(eliminating(self, level))
            return elims[-1]

        def spy(gens, ring, budget, relations):
            runs.append((list(gens), ring, list(relations)))
            return buchberger(gens, ring, budget, relations)

        monkeypatch.setattr(LaurentPresentation, "eliminating", elim_spy)
        monkeypatch.setattr(ideals, "buchberger", spy)
        handle = IdealHandle([X.exp().exp() - 1, X.exp() - 1, X * X])
        for level in (0, 1):
            handle.intersect_subring(level)
        assert len(elims) == len(runs) == 2
        for elim, (gens, ring, relations) in zip(elims, runs):
            assert elim.block and ring is elim.ring
            assert elim.ring.order.block == elim.block
            assert all(q.ring is elim.ring for q in gens + relations)


class TestAugmentation:
    def test_fixtures(self):
        assert augmentation(3 * X.exp() - 2 * (X * X).exp(), 1) == ONE
        assert augmentation(X.exp() - 1, 1).is_zero()
        assert augmentation(X, 1) == X
        with pytest.raises(PreconditionError):
            augmentation(X.exp().exp(), 1)

    def test_augmentation_mod_fixtures(self):
        ideal = IdealHandle([X])
        assert augmentation_mod(X.exp() - 1, ideal, 1) == (EPoly.zero(1), True)
        image, member = augmentation_mod(X.exp(), ideal, 1)
        assert image == ONE and not member
        image, member = augmentation_mod(X * (X * X).exp(), ideal, 1)
        assert image == X and member

    def test_ring_homomorphism_sampled(self):
        rng = random.Random(515)
        for _ in range(500):
            u = random_epoly(rng, 2, height=1)
            v = random_epoly(rng, 2, height=1)
            assert (augmentation(u + v, 1)
                    == augmentation(u, 1) + augmentation(v, 1))
            assert (augmentation(u * v, 1)
                    == augmentation(u, 1) * augmentation(v, 1))

    def test_kernel_cut_agreement_sampled(self):
        # Elements of the coefficient ring are fixed by the augmentation, so
        # kernel membership must agree with plain ideal membership.
        rng = random.Random(25)
        ideal = IdealHandle([X])
        for _ in range(200):
            u = random_epoly(rng, 1, height=0)
            _, in_kernel = augmentation_mod(u, ideal, 1)
            assert in_kernel == ideal.membership(u).member
