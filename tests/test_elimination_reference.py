"""Differential tests for subring intersection with one shared inverse.

`IdealHandle.intersect_subring` eliminates the directions above the level
with one inverse t and the relation t*prod(u_i) - 1.  The elimination
below is the earlier one, kept verbatim as the reference: every direction
has its own inverse v_i and relation u_i*v_i - 1, all of them eliminated
for the directions above the level.  Both encodings present the same
Laurent ring, and the block-free part of a reduced basis under an
elimination order is the reduced basis of the intersection, so the cut
generators must be equal, in the same order.  The edits: the earlier
presentation methods sit on a subclass of `LaurentPresentation`, the
earlier `_basis` and `intersect_subring` on a subclass of `IdealHandle`,
`_refine` wraps each presentation in the subclass, and the branch for a
level below 0, which no command reaches, is gone from both.  `_basis`'s
ring defaults to the presentation's own, and the block order is a new
`PolyRing` over the presentation's names.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, IMAG_UNIT, IdealHandle, present  # noqa: E402
from expoly.errors import VariableCountError  # noqa: E402
from expoly.ideals import LaurentPresentation  # noqa: E402
from expoly.polyring import (MonomialOrder, Poly, PolyRing,  # noqa: E402
                             buchberger)

from helpers import random_epoly  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


# -- reference elimination ------------------------------------------------

class ReferencePresentation(LaurentPresentation):
    """The earlier encoding: one v_i per direction."""

    def uv_index(self, i: int) -> tuple[int, int]:
        return self.nvars + 2 * i, self.nvars + 2 * i + 1

    def eliminated_var_indices(self, level: int) -> list[int]:
        """Ring variables of all directions living strictly above `level`."""
        out = []
        for i, direction in enumerate(self.directions):
            if direction.level > level:
                out.extend(self.uv_index(i))
        return out

    def encode(self, p: EPoly) -> Poly | None:
        if p.nvars != self.nvars:
            raise VariableCountError(
                f"presentation over {self.nvars} variables, value has "
                f"{p.nvars}")
        pairs = []
        for (mono, exponent), coeff in p.terms:
            coords = self.exponent_coordinates(exponent)
            if coords is None:
                return None
            full = list(mono) + [0] * (2 * len(self.directions))
            for i, k in enumerate(coords):
                ui, vi = self.uv_index(i)
                if k > 0:
                    full[ui] = k
                elif k < 0:
                    full[vi] = -k
            pairs.append((tuple(full), coeff))
        return Poly(self.ring, pairs)

    def relations(self) -> list[Poly]:
        out = []
        for i in range(len(self.directions)):
            ui, vi = self.uv_index(i)
            out.append(self.ring.var(ui) * self.ring.var(vi)
                       - self.ring.const(1))
        return out

    def decode(self, q: Poly) -> EPoly:
        """Ring homomorphism back: u_i -> E(b_i), v_i -> E(-b_i)."""
        zero = EPoly.zero(self.nvars)
        return EPoly(self.nvars, self.shifted_terms(q, zero))

    def shifted_terms(self, q: Poly, shift: EPoly) -> list:
        """The terms of E(shift) * decode(q), as (key, coeff) pairs."""
        uv = [self.uv_index(i) for i in range(len(self.directions))]
        pairs = []
        for mono, coeff in q.terms.items():
            exponent = EPoly.combination(self.nvars, chain(
                ((shift, 1),), ((d.epoly, mono[ui] - mono[vi])
                                for d, (ui, vi) in zip(self.directions, uv))))
            pairs.append(((mono[:self.nvars], exponent or None), coeff))
        return pairs


class ReferenceHandle(IdealHandle):
    """`IdealHandle` eliminating one v_i per direction."""

    def _refine(self, fresh):
        super()._refine(fresh)
        pres = self._pres
        self._pres = ReferencePresentation(pres.nvars, pres.directions,
                                           pres._echelon, pres._denom,
                                           pres._hermite)

    def _basis(self, pres: LaurentPresentation, ring=None):
        """Reduced Groebner basis of the generators plus the unit relations
        of the presentation, computed in `ring` (the presentation's
        variables under some monomial order; by default its own ring)."""
        ring = ring or pres.ring
        encoded = [Poly(ring, pres.encode(g).terms) for g in self.gens]
        relations = [Poly(ring, rel.terms) for rel in pres.relations()]
        return buchberger(encoded + relations, ring, self._budget)

    def intersect_subring(self, level: int) -> "IdealHandle":
        """Generators of the intersection with R_level, by block elimination."""
        pres = self.presentation()
        if level not in self._cuts:
            eliminated = pres.eliminated_var_indices(level)
            gens = self.gens
            if eliminated:
                gb = self._basis(pres, PolyRing(pres.ring.names, MonomialOrder(
                    pres.ring.nvars, block=tuple(eliminated))))
                kept = (e for e in gb.elements if not e.uses_vars(eliminated))
                gens = tuple(g for g in map(pres.decode, kept) if g)
            self._cuts[level] = gens
        return self._sharing(self._cuts[level])


def assert_same_cut(gens, level, cover=()):
    handle, reference = IdealHandle(gens), ReferenceHandle(gens)
    for h in (handle, reference):
        h.presentation(also_cover=cover)
    assert handle.presentation().describe() == (
        reference.presentation().describe())
    cut = handle.intersect_subring(level)
    assert cut.gens == reference.intersect_subring(level).gens
    assert all(g.height() <= level for g in cut.gens)
    return cut


# -- fixed cases ----------------------------------------------------------

X1, X2 = EPoly.var(2, 0), EPoly.var(2, 1)
# E(a) = X2 + 1, E(b) = X1 + 1 and E(a + b) = X1*X2 + 1 force X1 + X2;
# with b = -X2 the encoding needs the inverse t.
UNITS = [X1.exp() - X2 - 1, (-X2).exp() - X1 - 1,
         (X1 - X2).exp() - X1 * X2 - 1]
TOWER = [X1.exp() - X2 - 1, X1.exp().exp() - X1 - 1,
         (X1.exp() + X1).exp() - X1 * X2 - 1]

CASES = {
    "layer 1 at level 0": (UNITS, 0, (), ["X1 + X2"]),
    "layers 1 and 2 at level 0": (TOWER, 0, (), ["X1 + X2"]),
    "layers 1 and 2 at level 1": (TOWER, 1, (), ["E(X1) + X1 - 1",
                                                 "-E(X1) + X2 + 1"]),
    "Q(i) coefficients": (
        [(IMAG_UNIT * X1).exp() - X2 - IMAG_UNIT, X1.exp() - X1 - 1,
         ((1 + IMAG_UNIT) * X1).exp() - X1 * X2 - 1], 0, (),
        ["X1 + ((0)+(-1)i)*X2 + ((1)+(1)i)"]),
    "lattice refined before the cut": (
        UNITS, 0, [(X1 * Fraction(1, 2)).exp(),
                   (X1 * Fraction(2, 3) + X2).exp()], ["X1 + X2"]),
}


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_fixed_cut_matches_the_reference(case):
    gens, level, cover, expected = case
    cut = assert_same_cut(gens, level, cover)
    assert [str(g) for g in cut.gens] == expected


def test_reference_ideal_eliminates_in_fewer_steps():
    """<E(X1) - X2 - 1, E(X2) - X3 - 1, X1*E(X3) - X2, X1*X2*X3 - E(X1+X2)>
    cut to R_0: 81 Buchberger steps with one shared inverse, 160 with one
    inverse per direction, and the same one generator."""
    x1, x2, x3 = (EPoly.var(3, j) for j in range(3))
    gens = [x1.exp() - x2 - 1, x2.exp() - x3 - 1, x1 * x3.exp() - x2,
            x1 * x2 * x3 - (x1 + x2).exp()]
    handle, reference = IdealHandle(gens), ReferenceHandle(gens)
    cut = handle.intersect_subring(0)
    assert cut.gens == reference.intersect_subring(0).gens
    assert [str(g) for g in cut.gens] == ["X1*X2*X3 - X2*X3 - X2 - X3 - 1"]
    assert (handle._budget.used, reference._budget.used) == (81, 160)


def test_shared_inverse_encoding_round_trips():
    rng = random.Random(19)
    for _ in range(60):
        p = random_epoly(rng, 2, height=rng.randint(1, 2), gaussian_ok=True)
        pres = present([p])
        for level in (0, 1):
            elim = pres.eliminating(level)
            encoded = elim.encode(p)
            assert elim.decode(encoded) == p
            # Every relation decodes to zero.
            assert all(not elim.decode(r) for r in elim.relations())


# -- property -------------------------------------------------------------

SCALES = (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3))


@st.composite
def cut_cases(draw):
    """(gens, level, cover): a small ideal of R_2 whose directions lie in
    layers 1 and 2, with Q(i) coefficients on some draws, a level of 0 or
    1, and on some draws a refining cover presented before the cut."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    nvars = draw(st.integers(1, 2))
    gaussian_ok = draw(st.booleans())
    gens = [g for g in (random_epoly(rng, nvars, height=2, max_terms=2,
                                     gaussian_ok=gaussian_ok)
                        for _ in range(draw(st.integers(1, 3)))) if g]
    x1 = EPoly.var(nvars, 0)
    gens = gens or [x1.exp().exp() - 1]
    cover = []
    if draw(st.booleans()):
        directions = present(gens, nvars=nvars).directions or ()
        cover = [(d.epoly * draw(st.sampled_from(SCALES))).exp()
                 for d in directions[:2]]
    return gens, draw(st.sampled_from((0, 1))), cover


@PROPERTY
@given(cut_cases())
def test_cut_matches_the_reference(case):
    assert_same_cut(*case)
