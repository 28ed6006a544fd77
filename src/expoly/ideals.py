"""Decidable ideal computations in a finite slice of the ring tower.

The free exponential ring is a group ring over the additive group of
exponents; any finite computation only meets finitely many exponents, so an
ideal is presented over a finite exponent lattice: a layer-adapted list of
Q-independent directions b_1..b_m such that every encountered exponent is an
integer combination.  One echelon and one Hermite normal form cover all
layers: components of different layers share no coordinate, so each
direction lies in a single layer.  Each direction becomes a unit u_i (with
inverse v_i, relation u_i*v_i - 1) of an ordinary polynomial ring, where
Groebner bases decide membership and cofactors certify it.  Cofactors are
lifted from the basis's reduction trace only when `membership` is asked;
`decide` lifts none.  They are lifted over the generators only: the
relations decode to zero, so their cofactors are never built.  A monomial
decodes by its net powers, power of u_i minus power of its inverse, to one
exponent sum k_i*b_i.  Block elimination computes subring intersections
over the same Laurent ring presented with one inverse t for all the
directions it eliminates, with the one relation t*prod(u_i) - 1: m + 1
block variables for m directions, not 2m (the one-variable presentation of
a localization).

A handle's grevlex basis is built once, over the lattice of its
generators.  A query whose exponents fall outside that lattice is split by
coset, p = sum of E(c) * p_c with each p_c inside it: the group ring over a
finer lattice is free over the coarser one's, one basis element per coset,
so p is a member exactly when every p_c is, and a negative verdict holds in
every refinement.  The covering lattice, which `presentation()` names,
still refines with queries and covers; it serves printing, subring
intersection and saturation's directions, and never rebuilds the basis.
The augmentation, which sums coefficients over a layer's group elements,
lives in `tower`: it is the tower's rewriting image over an empty slice.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from .epoly import EPoly, _term_key
from .errors import (DEFAULT_BUDGET, Budget, InternalError,
                     PreconditionError, VariableCountError)
from .linalg import (RationalEchelon, lattice_basis, solve_upper_integer,
                     vec_add)
from .polyring import MonomialOrder, Poly, PolyRing, buchberger
from .scalars import gaussian, scalar_div, scalar_im, scalar_re


def _coord_key(label):
    """Deterministic order on coordinate labels ((mono, exponent), part)."""
    return (_term_key(label[0]), label[1])


def _coords(pairs) -> dict:
    """Q-vector coordinates of (key, scalar) pairs, such as a value's
    terms: one label (key, 0) for each nonzero real part and (key, 1) for
    each nonzero imaginary part, in the order of the pairs."""
    out = {}
    for key, coeff in pairs:
        re, im = scalar_re(coeff), scalar_im(coeff)
        if re:
            out[(key, 0)] = re
        if im:
            out[(key, 1)] = im
    return out


def _coords_epoly(coords: dict, nvars: int) -> EPoly:
    parts = {}
    for (key, part), value in coords.items():
        re, im = parts.get(key, (0, 0))
        parts[key] = (re + value, im) if part == 0 else (re, im + value)
    return EPoly(nvars, {key: gaussian(re, im)
                         for key, (re, im) in parts.items()})


class LatticeDirection(NamedTuple):
    epoly: EPoly     # a pure layer-(level-1) exponent
    level: int       # layer of the group element t^epoly


class LaurentPresentation:
    """Finite encoding of a tower slice as a Laurent polynomial ring.

    Each direction b_i is a unit u_i.  Its inverse is its own v_i, with the
    relation u_i*v_i - 1, unless the direction is `shared`: the shared
    directions have one inverse t in common, the last variable, with the
    one relation t*prod(u_i) - 1, so u_i^-1 is t times the other shared
    u's.  Both encodings present the same Laurent ring.  A monomial stands
    for E(sum k_i*b_i), where the net power k_i is the power of u_i minus
    that of its inverse.
    """

    def __init__(self, nvars: int, directions, echelon, denom, hermite,
                 shared=()):
        self.nvars = nvars
        self.directions = tuple(directions)
        # The echelon spans the exponent components over Q; the HNF rows,
        # in echelon coordinates scaled by denom, are the directions.
        self._echelon = echelon
        self._denom = denom
        self._hermite = hermite
        self._shared = frozenset(shared)
        names = [f"X{j + 1}" for j in range(nvars)]
        t = nvars + 2 * len(self.directions) - len(self._shared)
        self._uv = []   # per direction: (index of u_i, index of its inverse)
        for i in range(len(self.directions)):
            u = len(names)
            if i in self._shared:
                names.append(f"u{i + 1}")
                self._uv.append((u, t))
            else:
                names += [f"u{i + 1}", f"v{i + 1}"]
                self._uv.append((u, u + 1))
        self.block = ()   # the shared u's and t: what an elimination removes
        if self._shared:
            names.append("t")
            self.block = (*(self._uv[i][0] for i in sorted(self._shared)), t)
        self.ring = PolyRing(names, MonomialOrder(len(names), self.block))

    def eliminating(self, level: int) -> "LaurentPresentation":
        """This presentation with one inverse shared by the directions
        living strictly above `level`; its order eliminates their `block`."""
        return LaurentPresentation(
            self.nvars, self.directions, self._echelon, self._denom,
            self._hermite, [i for i, d in enumerate(self.directions)
                            if d.level > level])

    def exponent_coordinates(self, exponent: EPoly | None):
        """Integer coordinates over the directions, or None if not covered."""
        if exponent is None:
            return [0] * len(self.directions)
        residual, coeffs = self._echelon.row_coords(_coords(exponent.terms))
        if residual:
            return None
        target = [value * self._denom for value in coeffs]
        if any(value.denominator != 1 for value in target):
            return None
        return solve_upper_integer(self._hermite,
                                   [value.numerator for value in target])

    def encode(self, p: EPoly) -> Poly | None:
        """The one monomial of each exponent with the smallest inverse
        powers: v_i^-k_i for k_i < 0, and t to the largest -k_i over the
        shared directions."""
        if p.nvars != self.nvars:
            raise VariableCountError(
                f"presentation over {self.nvars} variables, value has "
                f"{p.nvars}")
        pairs = []
        width = self.ring.nvars - self.nvars
        shared = self._shared
        for (mono, exponent), coeff in p.terms:
            coords = self.exponent_coordinates(exponent)
            if coords is None:
                return None
            full = list(mono) + [0] * width
            t_power = max(0, *(-coords[i] for i in shared)) if shared else 0
            for i, ((u, v), k) in enumerate(zip(self._uv, coords)):
                inverse = t_power if i in shared else (-k if k < 0 else 0)
                full[u], full[v] = k + inverse, inverse
            pairs.append((tuple(full), coeff))
        return Poly(self.ring, pairs)

    def covers(self, p: EPoly) -> bool:
        return self.encode(p) is not None

    def relations(self) -> list[Poly]:
        var, one = self.ring.var, self.ring.const(1)
        out = [var(u) * var(v) - one
               for i, (u, v) in enumerate(self._uv) if i not in self._shared]
        if self._shared:
            product = one
            for index in self.block:
                product = product * var(index)
            out.append(product - one)
        return out

    def decode(self, q: Poly) -> EPoly:
        """Ring homomorphism back: u_i -> E(b_i), its inverse -> E(-b_i)."""
        zero = EPoly.zero(self.nvars)
        return EPoly(self.nvars, self.shifted_terms(q, zero))

    def shifted_terms(self, q: Poly, shift: EPoly) -> list:
        """The terms of E(shift) * decode(q), as (key, coeff) pairs.  Each
        exponent is one linear fold of shift + sum k_i*b_i over the net
        powers k_i; a zero net vector with a zero shift is t^0 (None)."""
        columns = [(u, v, d.epoly.terms)
                   for (u, v), d in zip(self._uv, self.directions)]
        pairs = []
        for mono, coeff in q.terms.items():
            net = [(mono[u] - mono[v], terms) for u, v, terms in columns]
            exponent = None
            if shift or any(k for k, _ in net):
                exponent = EPoly(self.nvars, chain(
                    shift.terms, ((key, c * k) for k, terms in net if k
                                  for key, c in terms))) or None
            pairs.append(((mono[:self.nvars], exponent), coeff))
        return pairs

    def describe(self) -> str:
        if not self.directions:
            return "exponent lattice: (empty)"
        bits = [f"E({d.epoly}) [layer {d.level}]" for d in self.directions]
        return "exponent lattice: " + ", ".join(bits)


def present(ps, nvars: int | None = None) -> LaurentPresentation:
    """Minimal layer-adapted presentation covering every exponent in ps.

    Deterministic for a fixed input order: exponent components are taken
    layer by layer, in order of first encounter within a layer.
    """
    ps = list(ps)
    if nvars is None:
        if not ps:
            raise ValueError("need values or an explicit variable count")
        nvars = ps[0].nvars
    seen: dict[EPoly, None] = {}
    for p in ps:
        if p.nvars != nvars:
            raise VariableCountError("mixed variable counts in presentation")
        for (_, exponent), _c in p.terms:
            if exponent is not None:
                for component in exponent.layer_decompose():
                    if component:
                        seen[component] = None
    vectors = [_coords(c.terms) for c in sorted(seen, key=EPoly.height)]
    echelon = RationalEchelon(coord_order=_coord_key)
    for vec in vectors:
        echelon.insert(vec)
    coord_rows = []
    for vec in vectors:
        residual, row = echelon.row_coords(vec)
        if residual:
            raise InternalError(
                "internal error: a presented exponent component lies "
                "outside the span of the components")
        coord_rows.append(row)
    denom = math.lcm(1, *(value.denominator for row in coord_rows
                          for value in row))
    hermite = lattice_basis([[int(value * denom) for value in row]
                             for row in coord_rows])
    directions = []
    for hrow in hermite:
        coords: dict = {}
        for j, entry in enumerate(hrow):
            if entry:
                coords = vec_add(coords, echelon.rows[j],
                                 scalar_div(entry, denom))
        epoly = _coords_epoly(coords, nvars)
        directions.append(LatticeDirection(epoly, epoly.height() + 1))
    return LaurentPresentation(nvars, directions, echelon, denom, hermite)


class MembershipResult(NamedTuple):
    member: bool
    cofactors: tuple[EPoly, ...] | None


class IdealHandle:
    """An ideal of some R_n given by generators, with cached Groebner data.

    The presentation refines monotonically as queries arrive (single-writer
    discipline); all answers are deterministic given the query history.
    A handle and every handle made from it (subring intersections,
    saturation work handles) spend one step budget over their lifetime.
    """

    def __init__(self, gens, nvars: int | None = None,
                 budget_limit: int = DEFAULT_BUDGET):
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
        self._budget = Budget(budget_limit)
        self._cover: list[EPoly] = []
        self._pres: LaurentPresentation | None = None
        self._gb = None   # (presentation, basis) over the generators
        self._cuts: dict[int, tuple[EPoly, ...]] = {}

    def layer(self) -> int:
        """The smallest n with all generators in R_n."""
        return max((g.height() for g in self.gens), default=0)

    def presentation(self, also_cover=()) -> LaurentPresentation:
        fresh = [p for p in also_cover
                 if self._pres is None or not self._pres.covers(p)]
        if self._pres is None or fresh:
            self._refine(fresh)
        return self._pres

    def _refine(self, fresh):
        """Re-present over the generators, every earlier cover and fresh;
        the cut generators memoized over the old lattice are dropped."""
        self._cover.extend(fresh)
        self._pres = present(list(self.gens) + self._cover, nvars=self.nvars)
        self._cuts.clear()

    def lattice_basis(self):
        """(presentation, basis) over the lattice of the generators alone,
        built once: refining the covering lattice never invalidates it.
        A value over that lattice is encoded with this presentation, which
        can differ from `presentation()`.  With no cover yet, the covering
        presentation is that lattice."""
        if self._gb is None:
            pres = (present(self.gens, nvars=self.nvars) if self._cover
                    else self.presentation())
            self._gb = pres, self._basis(pres)
        return self._gb

    def groebner(self):
        """Reduced Groebner basis of the ideal over the lattice of its
        generators, graded reverse-lexicographic over all of that
        presentation's variables."""
        return self.lattice_basis()[1]

    def _basis(self, pres: LaurentPresentation):
        """Reduced Groebner basis of the generators plus the unit relations
        of the presentation, in its ring and under its order."""
        return buchberger([pres.encode(g) for g in self.gens], pres.ring,
                          self._budget, pres.relations())

    def _presented(self, p: EPoly):
        """(presentation, basis, parts) with p = sum of E(c) * decode(q)
        over the parts (c, q): one part per coset of the basis lattice that
        p's exponents meet.  The lattice's own class has c zero; any other
        class has c its first exponent, and the covering lattice is refined
        to cover p.  A covered p is one part, encoded once."""
        if p.nvars != self.nvars:
            raise VariableCountError("query arity mismatch")
        pres, gb = self.lattice_basis()
        zero = EPoly.zero(self.nvars)
        encoded = pres.encode(p)
        if encoded is not None:
            return pres, gb, [(zero, encoded)]
        self.presentation(also_cover=[p])
        classes: dict = {zero: []}   # representative -> shifted terms
        for (mono, exponent), coeff in p.terms:
            exponent = exponent or zero
            for c in classes:
                rest = exponent - c if c else exponent
                if pres.exponent_coordinates(rest) is not None:
                    break
            else:
                c, rest = exponent, zero
                classes[c] = []
            classes[c].append(((mono, rest or None), coeff))
        return pres, gb, [(c, pres.encode(EPoly(self.nvars, terms)))
                          for c, terms in classes.items() if terms]

    def decide(self, p: EPoly) -> bool:
        """Membership from normal forms alone: no cofactor is lifted."""
        _, gb, parts = self._presented(p)
        return all(gb.normal_form(q)[1].is_zero() for _, q in parts)

    def membership(self, p: EPoly) -> MembershipResult:
        """The verdict with cofactors, checked by exact re-expansion."""
        pres, gb, parts = self._presented(p)
        lifted = []  # per part c, E(c) * each generator's cofactor
        for c, q in parts:
            cof = gb.cofactors(q)
            if cof is None:
                return MembershipResult(False, None)
            lifted.append([pres.shifted_terms(a, c) for a in cof])
        # Per generator, the sum over the parts.
        cofactors = tuple(EPoly(self.nvars, chain.from_iterable(row))
                          for row in zip(*lifted))
        if EPoly.combination(self.nvars, zip(cofactors, self.gens)) != p:
            raise InternalError("internal error: cofactor expansion mismatch")
        return MembershipResult(True, cofactors)

    def intersect_subring(self, level: int) -> "IdealHandle":
        """Generators of the intersection with R_level, by block elimination."""
        if level < 0:
            raise PreconditionError("intersect_subring needs a level >= 0")
        pres = self.presentation()
        if level not in self._cuts:
            elim = pres.eliminating(level)
            gens = self.gens
            if elim.block:
                gb = self._basis(elim)
                kept = (e for e in gb.elements if not e.uses_vars(elim.block))
                gens = tuple(g for g in map(elim.decode, kept) if g)
            self._cuts[level] = gens
        return self._sharing(self._cuts[level])

    def _sharing(self, gens) -> "IdealHandle":
        """A handle on other generators that spends this handle's budget."""
        handle = IdealHandle(gens, nvars=self.nvars)
        handle._budget = self._budget
        return handle

    def __repr__(self):
        return f"IdealHandle([{', '.join(str(g) for g in self.gens)}])"

