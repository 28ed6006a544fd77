import random

import pytest

from expoly import (EPoly, IdealHandle, InternalError, PreconditionError,
                    TowerIdeal, TrackedDecomposition, dagger_check,
                    real_kernel_check, rewrite, rewrite_expand,
                    saturate_level_one)

from expoly.tower import _directions_in_ideal

from helpers import random_epoly, random_zero_const

X = EPoly.var(1, 0)
ONE = EPoly.const(1, 1)


def _tracked(layer, nvars, *seeds):
    """A tracked slice at `layer` that accepts every seed."""
    dec = TrackedDecomposition(layer, nvars)
    for f in seeds:
        assert dec.try_add(f) is None
    return dec


class TestDagger:
    def test_layer_zero_holds(self):
        report = dagger_check(IdealHandle([X]), 0)
        assert report.holds

    def test_incompatible_constant_fails_with_witness(self):
        report = dagger_check(IdealHandle([X, X.exp() - 2]), 1)
        assert not report.holds and report.witness == X

    def test_compatible_pair_holds(self):
        report = dagger_check(IdealHandle([X, X.exp() - 1]), 1)
        assert report.holds and report.checked == [X]

    def test_nonzero_constant_generators_are_skipped(self):
        # X1 - 1 is outside the exponential domain; the check must not
        # attempt E on it.
        report = dagger_check(IdealHandle([X - 1]), 1)
        assert report.holds and report.skipped == [X - 1]

    def test_failure_keeps_the_generators_before_the_witness(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        report = dagger_check(
            IdealHandle([x1, x2, x1.exp() - 1, x2.exp() - 2]), 1)
        assert not report.holds and report.witness == x2
        assert report.checked == [x1] and report.skipped == []
        report = dagger_check(IdealHandle([x1 - 1, x2, x2.exp() - 2]), 1)
        assert not report.holds and report.witness == x2
        assert report.checked == [] and report.skipped == [x1 - 1]


class TestSplitTilde:
    """The tracked slice of a level ideal, built seed by seed."""

    def test_single_seed(self):
        dec = _tracked(0, 1, X)
        assert [s.element for s in dec.seeds] == [X]
        assert [s.lower for s in dec.seeds] == [EPoly.zero(1)]

    def test_dependent_seed_rejected(self):
        dec = _tracked(0, 1, X)
        assert "depends Q-linearly" in dec.try_add(2 * X)
        assert [s.element for s in dec.seeds] == [X]

    def test_span_membership(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        dec = _tracked(0, 2, x1, x2 * x2)
        assert "depends Q-linearly" in dec.try_add(x1 + x2 * x2)
        assert [s.element for s in dec.seeds] == [x1, x2 * x2]

    def test_non_member_rejected(self):
        reason = TrackedDecomposition(0, 1).try_add(X + 1)
        assert reason.startswith("nonzero constant term")


class TestRewrite:
    def test_tracked_direction(self):
        dec = _tracked(0, 1, X)
        terms = rewrite(X.exp(), dec)
        assert [(t.coefficient, t.argument) for t in terms] == [(ONE, X)]

    def test_pure_complement(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        dec = TrackedDecomposition(0, 2)
        terms = rewrite(x1 * x2.exp(), dec)
        assert [(t.coefficient, t.argument) for t in terms] == [(x1, x2)]

    def test_mixed_argument(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        dec = _tracked(0, 2, x1)
        terms = rewrite((x1 + x2).exp(), dec)
        assert len(terms) == 1
        assert terms[0].coefficient == EPoly.const(2, 1)
        assert terms[0].argument == x1 + x2
        assert terms[0].complement_part == x2

    def test_lower_part_absorbed_into_coefficient(self):
        # Track f = X1 + E(X1) - E(2*X1) at layer 1 (zero constant, nonzero
        # lower part): rewriting the group element of its projection must
        # absorb E(-X1) into the coefficient.
        f = X + X.exp() - (2 * X).exp()
        dec = _tracked(1, 1, f)
        proj = f.layer_component(1)           # E(X1) - E(2*X1)
        group_elem = proj.exp()
        terms = rewrite(group_elem, dec)
        assert len(terms) == 1
        t = terms[0]
        assert t.argument == f
        assert t.coefficient == (-X).exp()
        assert rewrite_expand(terms, 1) == group_elem

    def test_round_trip_sampled(self):
        rng = random.Random(3141)
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        dec = _tracked(0, 2, x1, x2 * x2)
        empty = TrackedDecomposition(0, 2)
        for _ in range(250):
            u = random_epoly(rng, 2, height=1)
            for d in (dec, empty):
                terms = rewrite(u, d)
                assert rewrite_expand(terms, 2) == u
                args = [t.argument for t in terms]
                assert len(set(args)) == len(args)

    def test_phi_is_ring_homomorphism(self):
        rng = random.Random(59)
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        dec = _tracked(0, 2, x1)

        def phi(u):
            total = EPoly.zero(2)
            for t in rewrite(u, dec):
                total = total + t.coefficient
            return total

        for _ in range(100):
            u = random_epoly(rng, 2, height=1)
            v = random_epoly(rng, 2, height=1)
            assert phi(u + v) == phi(u) + phi(v)
            assert phi(u * v) == phi(u) * phi(v)


class TestTower:
    def test_extension_requires_compatibility(self):
        with pytest.raises(PreconditionError) as err:
            TowerIdeal(IdealHandle([X, X.exp() - 2])).extend(1)
        assert "X1" in str(err.value)

    def test_failing_base_seed_is_an_internal_error(self, monkeypatch):
        # The base seeds are generators, so only an engine fault fails one.
        monkeypatch.setattr(TowerIdeal, "membership", lambda *args: False)
        with pytest.raises(InternalError, match="fails membership"):
            TowerIdeal(IdealHandle([X])).extend(1)

    def test_level_one_memberships(self):
        tower = TowerIdeal(IdealHandle([X])).extend(1)
        assert tower.membership(X.exp() - 1, 1)
        assert not tower.membership(X.exp(), 1)
        assert tower.membership(X * (X * X).exp(), 1)

    def test_seed_refresh(self):
        tower = TowerIdeal(IdealHandle([X])).extend(1)
        assert tower.membership((X * X).exp() - 1, 1)
        assert X * X in tower.tracked_seeds(0)

    def test_exponentials_of_tracked_members(self):
        tower = TowerIdeal(IdealHandle([X])).extend(2)
        f = X.exp() - (2 * X).exp()
        assert tower.membership(f, 1)
        assert tower.membership(f.exp() - 1, 2)

    def test_properness_all_levels(self):
        tower = TowerIdeal(IdealHandle([X])).extend(3)
        for level in range(4):
            assert not tower.membership(ONE, level)

    def test_level_consistency_sampled(self):
        rng = random.Random(2024)
        tower = TowerIdeal(IdealHandle([X])).extend(2)
        samples = [random_epoly(rng, 1, height=1) for _ in range(50)]
        assert tower.check_level_consistency(samples, level=2) == []

    def test_derived_generators_recorded(self):
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        tower = TowerIdeal(IdealHandle([x1, x2 * x2])).extend(1)
        assert [f.exp() - 1 for f in tower.tracked_seeds(0)] == [
            x1.exp() - 1, (x2 * x2).exp() - 1]

    def test_query_height_guard(self):
        tower = TowerIdeal(IdealHandle([X])).extend(1)
        with pytest.raises(PreconditionError):
            tower.membership(X.exp().exp(), 1)

    def test_level_ideal_contains_generated_ideal(self):
        # The kernel-based level ideal must contain the finitely generated
        # ideal spanned by the base generators and the recorded E(f)-1.
        rng = random.Random(90210)
        tower = TowerIdeal(IdealHandle([X])).extend(1)
        gens = list(tower.base.gens) + [f.exp() - 1
                                        for f in tower.tracked_seeds(0)]
        for _ in range(50):
            combo = EPoly.zero(1)
            for g in gens:
                combo = combo + random_epoly(rng, 1, height=1,
                                             max_terms=2) * g
            assert tower.membership(combo, 1)


class TestSaturation:
    def test_stabilizes_trivially(self):
        outcome = saturate_level_one(IdealHandle([X.exp() - 1 - X]))
        assert outcome.succeeded and outcome.rounds == 1
        assert outcome.dagger.holds
        assert outcome.added == ()

    def test_failure_certificate(self):
        outcome = saturate_level_one(IdealHandle([X, X.exp() - 2]))
        assert outcome.status == "unit"
        total = EPoly.zero(1)
        for c, g in zip(outcome.certificate, outcome.generators):
            total = total + c * g
        assert total == ONE

    def test_compatible_ideal_stabilizes(self):
        outcome = saturate_level_one(IdealHandle([X, X.exp() - 1]))
        assert outcome.succeeded and outcome.dagger.holds

    def test_slice_is_enlarged_to_see_the_cut(self):
        outcome = saturate_level_one(IdealHandle([X]))
        assert outcome.succeeded
        assert X.exp() - 1 in outcome.added
        assert outcome.dagger.holds

    def test_requires_proper_input(self):
        with pytest.raises(PreconditionError):
            saturate_level_one(IdealHandle([ONE]))

    def test_directions_over_a_cut_refined_before_its_basis(self):
        """The cut's covering lattice has grown past its generators' own
        lattice before the cut's basis exists; directions are still
        encoded over the basis's presentation."""
        x1, x2 = EPoly.var(2, 0), EPoly.var(2, 1)
        gens = [x1 - 2 * x2, x2 * x2]
        directions = [x1, x2]
        cut = IdealHandle(gens)
        cut.presentation(also_cover=[x1.exp(), (x1 + x2).exp()])
        assert cut._gb is None and len(cut.presentation().directions) == 2
        found = _directions_in_ideal(directions, cut)
        assert cut.groebner().ring.nvars != cut.presentation().ring.nvars
        assert found == _directions_in_ideal(directions, IdealHandle(gens))
        assert found == [x1 - 2 * x2]

    def test_equal_cut_keeps_its_basis(self, monkeypatch):
        """Round 2 of <X1, E(3*X1) - 1> adds E(X1) - 1 and cuts to <X1>
        again; the directions are then found over round 1's cut basis, so
        no Buchberger run repeats the inputs and order of an earlier one."""
        from expoly import ideals
        runs = []
        buchberger = ideals.buchberger

        def spy(*args):
            gens, ring = args[0], args[1]
            runs.append((tuple(tuple(g.terms.items()) for g in gens),
                         ring.names, ring.order.block))
            return buchberger(*args)

        monkeypatch.setattr(ideals, "buchberger", spy)
        outcome = saturate_level_one(IdealHandle([X, (3 * X).exp() - 1]))
        assert outcome.succeeded and outcome.rounds == 2
        assert outcome.added == (X.exp() - 1,)
        assert len(runs) == 5 and len(set(runs)) == 5

    def test_one_is_asked_about_once_per_round(self, monkeypatch):
        """Round 1's membership of 1 is also the properness check."""
        asked = []
        for name in ("decide", "membership"):
            method = getattr(IdealHandle, name)

            def spy(handle, p, method=method):
                asked.append(p == ONE)
                return method(handle, p)

            monkeypatch.setattr(IdealHandle, name, spy)
        outcome = saturate_level_one(IdealHandle([X, (3 * X).exp() - 1]))
        assert outcome.rounds == 2 and asked.count(True) == 2

    def test_caller_handle_is_never_presented(self):
        """The rounds run on a work handle, and properness is checked
        there too, so the caller's handle builds no basis."""
        ideal = IdealHandle([X, X.exp() - 1])
        assert saturate_level_one(ideal).succeeded
        assert ideal._pres is None and ideal._gb is None


class TestRealKernel:
    def test_real_ideal_passes(self):
        report = real_kernel_check(IdealHandle([X]),
                                   [(X,), (X.exp() - 1,)], 1)
        assert not report.falsified
        assert all(e.sum_in_kernel for e in report.entries)

    def test_non_real_ideal_falsified(self):
        report = real_kernel_check(IdealHandle([X * X]), [(X,)], 1)
        assert report.falsified
        falsifications = [e for e in report.entries
                          if e.sum_in_kernel and e.offenders]
        assert falsifications[0].offenders == (X,)

    def test_kernel_witnesses_from_construction(self):
        rng = random.Random(8)
        ideal = IdealHandle([X])
        tuples = []
        for _ in range(20):
            u1 = random_epoly(rng, 1, height=0) * X
            u2 = (random_zero_const(rng, 1, height=0)).exp() - 1
            tuples.append((u1, u2))
        report = real_kernel_check(ideal, tuples, 1)
        assert not report.falsified
        assert all(e.sum_in_kernel for e in report.entries)
