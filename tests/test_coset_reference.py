"""Differential tests for membership of queries outside the basis lattice.

A handle builds its Groebner basis once, over the lattice of its
generators.  A query whose exponents leave that lattice is split by coset:
p = sum of E(c) * p_c with each p_c inside the lattice, and p is a member
exactly when every p_c is, since the group ring over a finer lattice is a
free module over the group ring of the coarser one, one basis element per
coset.  The refine-and-rebuild handle below is the earlier one, kept
verbatim as the reference: each query outside the lattice re-presents the
ideal over a refined lattice and runs Buchberger again.  The one edit is
that its methods sit on a subclass of `IdealHandle`.  Both must give the
same verdict on every query of a stream, `decide` must agree with
`membership`, and every cofactor tuple must re-expand to its query.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, IdealHandle, present  # noqa: E402
from expoly.errors import InternalError, VariableCountError  # noqa: E402
from expoly.ideals import MembershipResult  # noqa: E402

from helpers import random_epoly  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


# -- reference handle -----------------------------------------------------

class ReferenceHandle(IdealHandle):
    """The refine-and-rebuild `IdealHandle`: one basis per lattice."""

    def _refine(self, fresh):
        """Re-present over the generators, every earlier cover and fresh."""
        self._cover.extend(fresh)
        self._pres = present(list(self.gens) + self._cover, nvars=self.nvars)
        self._gb = None

    def groebner(self):
        """Reduced Groebner basis of the presented ideal, graded
        reverse-lexicographic over all presentation variables (cached until
        the presentation is refined)."""
        pres = self.presentation()
        if self._gb is None:
            self._gb = self._basis(pres)
        return self._gb

    def _presented(self, p: EPoly):
        """(presentation, basis, encoding of p), refining the lattice first
        when p falls outside it; p is encoded once when it is covered."""
        if p.nvars != self.nvars:
            raise VariableCountError("query arity mismatch")
        encoded = None if self._pres is None else self._pres.encode(p)
        if encoded is None:
            self._refine([p])
            encoded = self._pres.encode(p)
        return self._pres, self.groebner(), encoded

    def decide(self, p: EPoly) -> bool:
        """Membership from the normal form alone: no cofactor is lifted."""
        _, gb, encoded = self._presented(p)
        return gb.normal_form(encoded)[1].is_zero()

    def membership(self, p: EPoly) -> MembershipResult:
        """The verdict with cofactors, checked by exact re-expansion."""
        pres, gb, encoded = self._presented(p)
        cof = gb.cofactors(encoded)
        if cof is None:
            return MembershipResult(False, None)
        cofactors = tuple(pres.decode(c) for c in cof[:len(self.gens)])
        if EPoly.combination(self.nvars, zip(cofactors, self.gens)) != p:
            raise InternalError("internal error: cofactor expansion mismatch")
        return MembershipResult(True, cofactors)


# -- strategies -----------------------------------------------------------

SCALES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 2),
          Fraction(3, 2))


@st.composite
def coset_streams(draw):
    """(gens, queries): a small ideal of R_1 and a stream of queries that
    leave its lattice.  They are E(q*a) - 1 for a lattice direction a and
    a fractional q, E of a new direction minus 1, and mixes of covered and
    uncovered terms: members sum g * r * E(c) over the generators g, with
    polynomial r and shifts c inside and outside the lattice, and the same
    members plus a stray term, which are mostly not members."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    nvars = draw(st.integers(1, 2))
    x1 = EPoly.var(nvars, 0)
    gens = [g for g in (random_epoly(rng, nvars, height=1, max_terms=2)
                        for _ in range(draw(st.integers(1, 2)))) if g]
    gens = gens or [x1.exp() - 1]
    directions = [d.epoly for d in present(gens, nvars=nvars).directions]
    new = x1 * EPoly.var(nvars, nvars - 1) if nvars == 2 else x1 * x1
    shifts = [EPoly.zero(nvars), new]
    for a in (directions or [x1])[:2]:
        shifts.append(a * draw(st.sampled_from(SCALES)))
    queries = [c.exp() - 1 for c in shifts[1:]]
    for _ in range(draw(st.integers(1, 3))):
        member = EPoly.combination(nvars, (
            (g * random_epoly(rng, nvars, max_terms=2),
             draw(st.sampled_from(shifts)).exp()) for g in gens))
        stray = (random_epoly(rng, nvars, max_terms=1)
                 * draw(st.sampled_from(shifts)).exp())
        queries += [member, member + stray]
    return gens, draw(st.permutations(queries))


@PROPERTY
@given(coset_streams())
def test_coset_split_matches_refine_and_rebuild(case):
    gens, queries = case
    handle = IdealHandle(gens)
    reference = ReferenceHandle(gens)
    nvars = handle.nvars
    for q in queries:
        verdict = handle.decide(q)
        result = handle.membership(q)
        assert verdict == result.member == reference.membership(q).member
        if result.member:
            assert EPoly.combination(nvars,
                                     zip(result.cofactors, gens)) == q
        # The covering lattice names every query, as the reference's does.
        assert (handle.presentation().describe()
                == reference.presentation().describe())


def test_one_basis_serves_every_coset():
    """A member with a covered part and parts in two other cosets."""
    x = EPoly.var(1, 0)
    gens = [x.exp() - 1, x * x]
    query = ((x * Fraction(1, 3)).exp() * (x.exp() - 1) + x * x
             + (x * Fraction(1, 2)).exp() * x * x * x)
    handle = IdealHandle(gens)
    result = handle.membership(query)
    assert result.member and handle.decide(query)
    assert EPoly.combination(1, zip(result.cofactors, gens)) == query
    assert ReferenceHandle(gens).membership(query).member
    assert handle.groebner().ring.nvars == 3  # X1, u1, v1 over X1


def test_wrong_coset_shift_fails_reexpansion(monkeypatch):
    """Recombining a coset's cofactors with another representative of the
    same coset gives a different value, and the check must catch it."""
    x = EPoly.var(1, 0)
    handle = IdealHandle([x.exp() - 1])
    query = (x * Fraction(1, 3)).exp() * (x.exp() - 1) + x * (x.exp() - 1)
    assert handle.membership(query).member
    presented = IdealHandle._presented

    def shifted(self, p):
        pres, gb, parts = presented(self, p)
        assert any(c for c, _ in parts)
        return pres, gb, [(c + x if c else c, q) for c, q in parts]

    monkeypatch.setattr(IdealHandle, "_presented", shifted)
    with pytest.raises(InternalError):
        handle.membership(query)
