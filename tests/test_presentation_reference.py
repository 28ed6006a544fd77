"""Differential tests for the Laurent presentation.

`present` builds one echelon and one Hermite basis over the exponent
components of all layers.  The per-layer construction below is the earlier
one, kept verbatim as the reference: one echelon, denominator and Hermite
basis per layer, solved layer by layer.  The two edits are that the
coordinates of a value p, once `_epoly_coords(p)`, are spelled
`_coords(p.terms)`, and that an echelon's dimension, once `echelon.dim`,
is spelled `len(echelon.rows)`.  Both must give the same directions, the
same `describe()` text and the same coordinates, or the same None, for
every exponent, covered or not.
"""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, present  # noqa: E402
from expoly.errors import InternalError, VariableCountError  # noqa: E402
from expoly.ideals import (LatticeDirection, _coord_key,  # noqa: E402
                           _coords, _coords_epoly)
from expoly.linalg import (RationalEchelon, lattice_basis,  # noqa: E402
                           solve_upper_integer, vec_add)

from helpers import random_epoly, random_zero_const  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference presentation -----------------------------------------------

class _LayerLattice:
    """Solving data for one exponent layer: span echelon plus HNF lattice."""

    def __init__(self, echelon, denom, hermite, offset):
        self.echelon = echelon
        self.denom = denom
        self.hermite = hermite
        self.offset = offset  # index of this layer's first direction

    def solve(self, component: EPoly):
        """Integer coordinates of the component over this layer's directions,
        or None when it falls outside the lattice slice."""
        residual, coeffs = self.echelon.row_coords(_coords(component.terms))
        if residual:
            return None
        target = []
        for j in range(len(self.echelon.rows)):
            scaled = coeffs[j] * self.denom
            if scaled.denominator != 1:
                return None
            target.append(scaled.numerator)
        return solve_upper_integer(self.hermite, target)


def reference_present(ps, nvars: int | None = None):
    """The per-layer `present`; returns (directions, {layer: lattice})."""
    ps = list(ps)
    if nvars is None:
        if not ps:
            raise ValueError("need values or an explicit variable count")
        nvars = ps[0].nvars
    per_layer: dict[int, list[EPoly]] = {}
    seen: dict[int, set] = {}
    for p in ps:
        if p.nvars != nvars:
            raise VariableCountError("mixed variable counts in presentation")
        for (_, exponent), _c in p.terms:
            if exponent is None:
                continue
            for layer in range(exponent.height() + 1):
                component = exponent.layer_component(layer)
                if component.is_zero():
                    continue
                bucket = seen.setdefault(layer, set())
                if component not in bucket:
                    bucket.add(component)
                    per_layer.setdefault(layer, []).append(component)

    directions = []
    layers = {}
    for layer in sorted(per_layer):
        components = per_layer[layer]
        echelon = RationalEchelon(coord_order=_coord_key)
        for component in components:
            echelon.insert(_coords(component.terms))
        coord_rows = []
        denom = 1
        for component in components:
            residual, coeffs = echelon.row_coords(_coords(component.terms))
            if residual:
                raise InternalError(
                    "internal error: a presented exponent component lies "
                    "outside the span of its own layer")
            row = [coeffs[j] for j in range(len(echelon.rows))]
            denom = math.lcm(denom, *(value.denominator for value in row))
            coord_rows.append(row)
        int_rows = [[int(value * denom) for value in row]
                    for row in coord_rows]
        hermite = lattice_basis(int_rows)
        offset = len(directions)
        for hrow in hermite:
            coords: dict = {}
            for j, entry in enumerate(hrow):
                if entry:
                    coords = vec_add(coords, echelon.rows[j],
                                     Fraction(entry, denom))
            directions.append(
                LatticeDirection(_coords_epoly(coords, nvars), layer + 1))
        layers[layer] = _LayerLattice(echelon, denom, hermite, offset)
    return directions, layers


def reference_coordinates(directions, layers, exponent):
    """The per-layer `exponent_coordinates`."""
    coords = [0] * len(directions)
    if exponent is None:
        return coords
    for layer in range(exponent.height() + 1):
        component = exponent.layer_component(layer)
        if component.is_zero():
            continue
        lattice = layers.get(layer)
        if lattice is None:
            return None
        solved = lattice.solve(component)
        if solved is None:
            return None
        for j, value in enumerate(solved):
            coords[lattice.offset + j] = value
    return coords


def reference_describe(directions):
    if not directions:
        return "exponent lattice: (empty)"
    bits = [f"E({d.epoly}) [layer {d.level}]" for d in directions]
    return "exponent lattice: " + ", ".join(bits)


# -- strategies -----------------------------------------------------------

def _exponents(values):
    return [e for p in values for (_, e), _c in p.terms if e is not None]


SCALES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
          Fraction(-2, 3), Fraction(3, 4))


@st.composite
def presented_lists(draw):
    """(values, probes): random values of height up to 3 over Q(i), plus
    values whose exponents repeat earlier ones or combine them Q-linearly
    across layers; probes are exponents to solve, covered or not."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    nvars = draw(st.integers(1, 2))
    values = [random_epoly(rng, nvars, height=draw(st.integers(0, 3)),
                           gaussian_ok=True)
              for _ in range(draw(st.integers(1, 3)))]
    x = EPoly.var(nvars, 0)
    for _ in range(draw(st.integers(0, 4))):
        exponents = _exponents(values)
        if not exponents:
            break
        a = draw(st.sampled_from(exponents))
        b = draw(st.sampled_from(exponents))
        q = draw(st.sampled_from(SCALES))
        combined = a * q + b * draw(st.sampled_from((0, 1)))
        values.append(x * combined.exp() + a.exp())
    exponents = _exponents(values)
    probes = [None] + exponents
    for a in exponents[:4]:
        probes += [a * Fraction(1, 3), a * Fraction(5, 2), a * 7]
    for _ in range(3):
        probes.append(random_zero_const(rng, nvars, draw(st.integers(0, 2)),
                                        gaussian_ok=True) or None)
    return values, probes


@PROPERTY
@given(presented_lists())
def test_present_matches_per_layer_reference(case):
    values, probes = case
    pres = present(values)
    directions, layers = reference_present(values)
    assert list(pres.directions) == directions
    assert pres.describe() == reference_describe(directions)
    for exponent in probes:
        assert (pres.exponent_coordinates(exponent)
                == reference_coordinates(directions, layers, exponent))
