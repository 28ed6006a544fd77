"""Decidable ideal computations in a finite slice of the ring tower.

The free exponential ring is a group ring over the additive group of
exponents; any finite computation only meets finitely many exponents, so an
ideal is presented over a finite exponent lattice: a layer-adapted list of
Q-independent directions b_1..b_m such that every encountered exponent is an
integer combination.  Each direction becomes a unit u_i (with inverse v_i,
relation u_i*v_i - 1) of an ordinary polynomial ring, where Groebner bases
decide membership, cofactors certify it, and block elimination computes
subring intersections.

Verdicts are relative to the lattice slice: queries whose exponents fall
outside trigger a joint re-presentation with a refined primitive basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from .epoly import EPoly, cmp_term_key
from .errors import (Budget, InternalError, PreconditionError,
                     VariableCountError)
from .linalg import (RationalEchelon, lattice_basis, solve_upper_integer,
                     vec_add)
from .polyring import MonomialOrder, Poly, PolyRing, buchberger
from .scalars import gaussian, scalar_im, scalar_re


def _cmp_coord(a, b):
    """Deterministic order on coordinate labels ((mono, exponent), part)."""
    c = cmp_term_key(a[0], b[0])
    return c if c else (a[1] > b[1]) - (a[1] < b[1])


_COORD_KEY = cmp_to_key(_cmp_coord)


def _epoly_coords(p: EPoly) -> dict:
    """Q-vector coordinates of a value: one label per term and re/im part."""
    out = {}
    for key, coeff in p.terms:
        re, im = scalar_re(coeff), scalar_im(coeff)
        if re:
            out[(key, 0)] = re
        if im:
            out[(key, 1)] = im
    return out


def _coords_epoly(coords: dict, nvars: int) -> EPoly:
    parts = {}
    for (key, part), value in coords.items():
        re, im = parts.get(key, (Fraction(0), Fraction(0)))
        parts[key] = (re + value, im) if part == 0 else (re, im + value)
    return EPoly(nvars, {key: gaussian(re, im)
                         for key, (re, im) in parts.items()})


class LatticeDirection(NamedTuple):
    epoly: EPoly     # a pure layer-(level-1) exponent
    level: int       # layer of the group element t^epoly


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
        residual, coeffs = self.echelon.row_coords(_epoly_coords(component))
        if residual:
            return None
        target = []
        for j in range(self.echelon.dim):
            scaled = coeffs[j] * self.denom
            if scaled.denominator != 1:
                return None
            target.append(scaled.numerator)
        return solve_upper_integer(self.hermite, target)


class LaurentPresentation:
    """Finite encoding of a tower slice as a Laurent polynomial ring."""

    def __init__(self, nvars: int, directions, layers, extra_names=()):
        self.nvars = nvars
        self.directions = tuple(directions)
        self._layers = layers  # {layer: _LayerLattice}
        self.extra_names = tuple(extra_names)
        names = [f"X{j + 1}" for j in range(nvars)]
        for i in range(len(self.directions)):
            names += [f"u{i + 1}", f"v{i + 1}"]
        names += list(self.extra_names)
        self.ring = PolyRing(names)

    def uv_index(self, i: int) -> tuple[int, int]:
        return self.nvars + 2 * i, self.nvars + 2 * i + 1

    def extra_index(self, k: int) -> int:
        return self.nvars + 2 * len(self.directions) + k

    def eliminated_var_indices(self, level: int) -> list[int]:
        """Ring variables of all directions living strictly above `level`."""
        out = []
        for i, direction in enumerate(self.directions):
            if direction.level > level:
                out.extend(self.uv_index(i))
        return out

    def exponent_coordinates(self, exponent: EPoly | None):
        """Integer coordinates over the directions, or None if not covered."""
        coords = [0] * len(self.directions)
        if exponent is None:
            return coords
        for layer in range(exponent.height() + 1):
            component = exponent.layer_component(layer)
            if component.is_zero():
                continue
            lattice = self._layers.get(layer)
            if lattice is None:
                return None
            solved = lattice.solve(component)
            if solved is None:
                return None
            for j, value in enumerate(solved):
                coords[lattice.offset + j] = value
        return coords

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
            full = list(mono) + [0] * (2 * len(self.directions)
                                       + len(self.extra_names))
            for i, k in enumerate(coords):
                ui, vi = self.uv_index(i)
                if k > 0:
                    full[ui] = k
                elif k < 0:
                    full[vi] = -k
            pairs.append((tuple(full), coeff))
        return Poly(self.ring, pairs)

    def covers(self, p: EPoly) -> bool:
        return self.encode(p) is not None

    def relations(self) -> list[Poly]:
        out = []
        for i in range(len(self.directions)):
            ui, vi = self.uv_index(i)
            out.append(self.ring.var(ui) * self.ring.var(vi)
                       - self.ring.const(Fraction(1)))
        return out

    def decode(self, q: Poly) -> EPoly:
        """Ring homomorphism back: u_i -> E(b_i), v_i -> E(-b_i)."""
        pairs = []
        for mono, coeff in q.terms.items():
            exponent = None
            for i, direction in enumerate(self.directions):
                ui, vi = self.uv_index(i)
                k = mono[ui] - mono[vi]
                if k:
                    piece = direction.epoly * k
                    exponent = piece if exponent is None else exponent + piece
            for k in range(len(self.extra_names)):
                if mono[self.extra_index(k)]:
                    raise PreconditionError(
                        "cannot decode a polynomial using the extra variable "
                        f"{self.extra_names[k]}")
            if exponent is not None and exponent.is_zero():
                exponent = None
            pairs.append(((mono[:self.nvars], exponent), coeff))
        return EPoly(self.nvars, pairs)

    def describe(self) -> str:
        if not self.directions:
            return "exponent lattice: (empty)"
        bits = [f"E({d.epoly}) [layer {d.level}]" for d in self.directions]
        return "exponent lattice: " + ", ".join(bits)


def present(ps, nvars: int | None = None, extra_names=()) -> LaurentPresentation:
    """Minimal layer-adapted presentation covering every exponent in ps.

    Deterministic for a fixed input order: exponent components are processed
    layer by layer in canonical term order of first encounter.
    """
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
        echelon = RationalEchelon(coord_order=_COORD_KEY)
        for component in components:
            echelon.insert(_epoly_coords(component))
        coord_rows = []
        denom = 1
        for component in components:
            residual, coeffs = echelon.row_coords(_epoly_coords(component))
            if residual:
                raise InternalError(
                    "internal error: a presented exponent component lies "
                    "outside the span of its own layer")
            row = [coeffs[j] for j in range(echelon.dim)]
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
    return LaurentPresentation(nvars, directions, layers, extra_names)


class MembershipResult(NamedTuple):
    member: bool
    cofactors: tuple[EPoly, ...] | None


class IdealHandle:
    """An ideal of some R_n given by generators, with cached Groebner data.

    The presentation refines monotonically as queries arrive (single-writer
    discipline); all answers are deterministic given the query history.
    """

    def __init__(self, gens, nvars: int | None = None,
                 budget_limit: int | None = 1_000_000):
        gens = tuple(gens)
        if nvars is None:
            if not gens:
                raise ValueError("need generators or an explicit nvars")
            nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise VariableCountError("mixed variable counts in ideal")
        self.gens = gens
        self.nvars = nvars
        self.budget_limit = budget_limit
        self._cover: list[EPoly] = []
        self._pres: LaurentPresentation | None = None
        self._gb = None

    def layer(self) -> int:
        """The smallest n with all generators in R_n."""
        return max((g.height() for g in self.gens), default=0)

    def _budget(self) -> Budget:
        return Budget(self.budget_limit)

    def presentation(self, also_cover=()) -> LaurentPresentation:
        fresh = [p for p in also_cover
                 if self._pres is None or not self._pres.covers(p)]
        if self._pres is None or fresh:
            self._cover.extend(fresh)
            self._pres = present(list(self.gens) + self._cover,
                                 nvars=self.nvars)
            self._gb = None
        return self._pres

    def groebner(self):
        """Reduced Groebner basis of the presented ideal, graded
        reverse-lexicographic over all presentation variables (cached until
        the presentation is refined)."""
        pres = self.presentation()
        if self._gb is None:
            self._gb = self._basis(pres, pres.ring)
        return self._gb

    def _basis(self, pres: LaurentPresentation, ring: PolyRing):
        """Reduced Groebner basis of the generators plus the unit relations
        of the presentation, computed in `ring` (the presentation's
        variables under some monomial order)."""
        encoded = [Poly(ring, pres.encode(g).terms) for g in self.gens]
        relations = [Poly(ring, rel.terms) for rel in pres.relations()]
        return buchberger(encoded + relations, ring, self._budget())

    def membership(self, p: EPoly) -> MembershipResult:
        if p.nvars != self.nvars:
            raise VariableCountError("query arity mismatch")
        pres = self.presentation(also_cover=(p,))
        gb = self.groebner()
        cof = gb.cofactors(pres.encode(p))
        if cof is None:
            return MembershipResult(False, None)
        cofactors = tuple(pres.decode(c) for c in cof[:len(self.gens)])
        check = EPoly.zero(self.nvars)
        for c, g in zip(cofactors, self.gens):
            check = check + c * g
        if check != p:
            raise InternalError("internal error: cofactor expansion mismatch")
        return MembershipResult(True, cofactors)

    def intersect_subring(self, level: int) -> "IdealHandle":
        """Generators of the intersection with R_level, by block elimination."""
        if level < 0:
            # R_{-1} is the base field: proper ideals meet it in {0}.
            if self.is_proper():
                return IdealHandle((), nvars=self.nvars,
                                   budget_limit=self.budget_limit)
            return IdealHandle((EPoly.const(self.nvars, 1),),
                               budget_limit=self.budget_limit)
        pres = self.presentation()
        eliminated = pres.eliminated_var_indices(level)
        if not eliminated:
            return IdealHandle(self.gens, nvars=self.nvars,
                               budget_limit=self.budget_limit)
        gb = self._basis(pres, pres.ring.with_order(
            MonomialOrder(pres.ring.nvars, block=tuple(eliminated))))
        kept = [e for e in gb.elements if not e.uses_vars(eliminated)]
        gens = tuple(pres.decode(Poly(pres.ring, e.terms)) for e in kept)
        gens = tuple(g for g in gens if not g.is_zero())
        return IdealHandle(gens, nvars=self.nvars,
                           budget_limit=self.budget_limit)

    def is_proper(self) -> bool:
        return not self.membership(EPoly.const(self.nvars, 1)).member

    def __repr__(self):
        return f"IdealHandle([{', '.join(str(g) for g in self.gens)}])"


def augmentation(u: EPoly, layer: int) -> EPoly:
    """The coefficient-sum map on the layer's group part.

    Every group element t^a with a in the top layer collapses to 1: in flat
    form the layer-(layer-1) component of each exponent is erased.  Requires
    u in R_layer and layer >= 1.
    """
    if layer < 1:
        raise PreconditionError("augmentation needs a group layer >= 1")
    if u.height() > layer:
        raise PreconditionError(
            f"augmentation at layer {layer} needs input in R_{layer}, "
            f"got height {u.height()}")
    pairs = []
    for (mono, exponent), coeff in u.terms:
        if exponent is not None:
            component = exponent.layer_component(layer - 1)
            if component:
                exponent = _nonzero_or_none(exponent - component)
        pairs.append(((mono, exponent), coeff))
    return EPoly(u.nvars, pairs)


def _nonzero_or_none(p: EPoly):
    return None if p.is_zero() else p


def augmentation_mod(u: EPoly, ideal: IdealHandle, layer: int
                     ) -> tuple[EPoly, bool]:
    """Image under the augmentation followed by reduction mod the ideal:
    returns (image, image in ideal), i.e. whether u lies in the kernel."""
    image = augmentation(u, layer)
    return image, ideal.membership(image).member
