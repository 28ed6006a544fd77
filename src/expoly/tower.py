"""Extending ideals up the ring tower into exponential ideals.

Level n+1 of a tower over a base ideal I is the kernel of the modified
augmentation: rewrite an element of R_{n+1} over the group of exponentials
of (tracked ideal slice) + (complement), sum the coefficients, and test the
sum at level n.  The tracked slice is a finite list of zero-constant ideal
elements whose top-layer projections are Q-independent; it is refreshed
lazily when a query meets a complement direction that itself belongs to the
level ideal.  The plain augmentation is the same image over an empty slice.
All guarantees ((dagger), properness, level consistency) are relative to
the tracked slice, which is exactly what the finite computation can
certify.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .epoly import EPoly, term_layer
from .errors import InternalError, PreconditionError
from .ideals import IdealHandle, _coord_key, _coords, _coords_epoly
from .linalg import RationalEchelon, integer_kernel

# Saturation rounds before `saturate_level_one` gives up.
_MAX_SATURATION_ROUNDS = 64


class TrackedSeed(NamedTuple):
    element: EPoly      # zero-constant member of the layer ideal
    lower: EPoly        # element minus its nonzero layer-n part, in R_{n-1}


class TrackedDecomposition:
    """A finite slice of the direct summand of a layer-n ideal.

    Stores seeds f_1..f_r with Q-independent top-layer projections; the
    complement policy assigns every exponent coordinate outside the tracked
    span to the complement wholesale (non-pivot coordinates of the
    projection echelon).
    """

    def __init__(self, layer: int, nvars: int):
        self.layer = layer
        self.nvars = nvars
        self.seeds: list[TrackedSeed] = []
        self._echelon = RationalEchelon(coord_order=_coord_key)

    def try_add(self, f: EPoly) -> str | None:
        """Track f; returns a rejection reason or None on success."""
        if f.constant_term() != 0:
            return ("nonzero constant term: outside the exponential domain, "
                    "cannot participate in the rewriting")
        projection = f.layer_component(self.layer)
        if projection.is_zero():
            return f"zero layer-{self.layer} projection"
        independent, _ = self._echelon.insert(_coords(projection.terms))
        if not independent:
            return "projection depends Q-linearly on the tracked span"
        self.seeds.append(TrackedSeed(f, f - projection))
        return None

    def split(self, a: EPoly):
        """Decompose a pure layer-n exponent a = a0 + a1 with a0 in the
        tracked projection span; returns (a1, fhat_lower), where fhat =
        a0 + fhat_lower is the unique tracked-span ideal element with
        projection a0.

        a1 is reduced against every tracked pivot, so a nonzero a1 never
        lies in the tracked span."""
        residual, coeffs = self._echelon.reduce(_coords(a.terms))
        if not coeffs:
            return a, EPoly.zero(self.nvars)
        fhat_lower = EPoly.combination(
            self.nvars, ((self.seeds[idx].lower, lam)
                         for idx, lam in coeffs.items()))
        return _coords_epoly(residual, self.nvars), fhat_lower


class RewriteTerm(NamedTuple):
    coefficient: EPoly      # in R_n
    argument: EPoly         # in (tracked slice) + (complement)
    complement_part: EPoly  # the complement component of the argument


def rewrite(u: EPoly, dec: TrackedDecomposition) -> list[RewriteTerm]:
    """Unique rewriting of u in R_n[t^{A_n}] as sum r_i * E(u_i).

    Terms are grouped by the layer-n component a of their exponent; each
    group key splits as a = a0 + a1 against the tracked span, where a0 is
    the top part of the span element fhat = a0 + fhat_lower.  The argument
    is fhat + a1 = a + fhat_lower, and the coefficient absorbs
    E(-fhat_lower) so that t^a = E(-fhat_lower) * E(a + fhat_lower)
    exactly.  Terms sharing a key differ in the rest of their monomial or
    exponent, so no group cancels.  The arguments are pairwise distinct.
    """
    n = dec.layer
    if u.height() > n + 1:
        raise PreconditionError(
            f"rewrite at layer {n} needs input in R_{n + 1}, got height "
            f"{u.height()}")
    groups: dict = {}  # layer-n exponent component or None -> term pairs
    for (mono, exponent), coeff in u.terms:
        if exponent is None:
            key = None
            rest = None
        else:
            component = exponent.layer_component(n)
            if component.is_zero():
                key = None
                rest = exponent
            else:
                key = component
                rest = EPoly._canonical(
                    u.nvars, tuple((k, c) for k, c in exponent.terms
                                   if term_layer(k) != n)) or None
        groups.setdefault(key, []).append(((mono, rest), coeff))

    out = []
    zero = EPoly.zero(u.nvars)
    if None in groups:
        # The t^0 group keeps its terms of u unchanged and in u's order.
        carrier = (u if len(groups) == 1
                   else EPoly._canonical(u.nvars, tuple(groups[None])))
        out.append(RewriteTerm(carrier, zero, zero))
    for key in sorted((k for k in groups if k is not None),
                      key=lambda k: k.sort_key):
        carrier = EPoly(u.nvars, groups[key])
        a1, fhat_lower = dec.split(key)
        if fhat_lower:
            carrier, key = carrier * (-fhat_lower).exp(), key + fhat_lower
        out.append(RewriteTerm(carrier, key, a1))
    arguments = [t.argument for t in out]
    if len(set(arguments)) != len(arguments):
        raise InternalError("internal error: rewrite produced repeated "
                            "exponential arguments")
    return out


def rewrite_expand(terms, nvars: int) -> EPoly:
    """Exact re-expansion sum r_i * E(u_i) of a rewriting."""
    return EPoly.combination(nvars, ((t.coefficient, t.argument.exp())
                                     for t in terms))


def _image(terms, nvars: int) -> EPoly:
    """The coefficient sum r_1 + ... + r_k of a rewriting: E(u_i) -> 1."""
    if len(terms) == 1:
        return terms[0].coefficient
    return EPoly(nvars, (pair for t in terms for pair in t.coefficient.terms))


def augmentation(u: EPoly, layer: int) -> EPoly:
    """The coefficient-sum map on the layer's group part.

    Every group element t^a with a in the top layer collapses to 1: the
    image of the rewriting over an empty tracked slice at layer - 1.
    Requires u in R_layer and layer >= 1.
    """
    if layer < 1:
        raise PreconditionError("augmentation needs a group layer >= 1")
    if u.height() > layer:
        raise PreconditionError(
            f"augmentation at layer {layer} needs input in R_{layer}, "
            f"got height {u.height()}")
    empty = TrackedDecomposition(layer - 1, u.nvars)
    return _image(rewrite(u, empty), u.nvars)


def augmentation_mod(u: EPoly, ideal: IdealHandle, layer: int
                     ) -> tuple[EPoly, bool]:
    """Image under the augmentation followed by reduction mod the ideal:
    returns (image, image in ideal), i.e. whether u lies in the kernel."""
    image = augmentation(u, layer)
    return image, ideal.membership(image).member


class DaggerReport(NamedTuple):
    layer: int
    holds: bool
    witness: EPoly | None
    checked: list
    skipped: list  # outside exponential domain

    def describe(self) -> str:
        if self.holds:
            msg = (f"holds on the {len(self.checked)} computed generator(s) "
                   f"of the intersection with the layer below")
            if self.skipped:
                msg += (f"; {len(self.skipped)} generator(s) outside the "
                        "exponential domain skipped")
            return msg
        return f"fails with witness {self.witness}"


def dagger_check(ideal: IdealHandle, layer: int | None = None) -> DaggerReport:
    """Check that generators g of (ideal cut to the layer below) keep
    E(g) - 1 inside the ideal.  Failure is definitive; success is evidence
    on the computed generators only.
    """
    if layer is None:
        layer = ideal.layer()
    if layer == 0:
        # The cut lives in the base field; for a proper ideal it is {0} and
        # E(0) - 1 = 0 is a member.
        return DaggerReport(0, True, None, [EPoly.zero(ideal.nvars)], [])
    checked, skipped = [], []
    for g in ideal.intersect_subring(layer - 1).gens:
        if g.is_zero():
            continue
        if g.constant_term() != 0:
            skipped.append(g)
        elif ideal.membership(g.exp() - 1).member:
            checked.append(g)
        else:
            return DaggerReport(layer, False, g, checked, skipped)
    return DaggerReport(layer, True, None, checked, skipped)


class TowerIdeal:
    """A base ideal plus tracked decomposition data for each built level.

    Membership at level n+1 is the kernel condition of the modified
    augmentation: rewrite, sum the coefficients, descend one level, until
    the base ideal decides.
    """

    def __init__(self, base: IdealHandle):
        self.base = base
        self.base_layer = base.layer()
        self.decomps: list[TrackedDecomposition] = []

    @property
    def top_level(self) -> int:
        return self.base_layer + len(self.decomps)

    def decomposition(self, layer: int) -> TrackedDecomposition:
        return self.decomps[layer - self.base_layer]

    def tracked_seeds(self, layer: int) -> list[EPoly]:
        return [s.element for s in self.decomposition(layer).seeds]

    def membership(self, p: EPoly, level: int | None = None) -> bool:
        level = self.top_level if level is None else level
        if not self.base_layer <= level <= self.top_level:
            raise PreconditionError(
                f"level {level} outside the built tower "
                f"[{self.base_layer}, {self.top_level}]")
        if p.height() > level:
            raise PreconditionError(
                f"query of height {p.height()} is not in R_{level}")
        while level > self.base_layer:
            dec = self.decomposition(level - 1)
            # Lazy slice refresh: a complement direction that is itself an
            # ideal element joins the tracked span, and p is rewritten again.
            terms = rewrite(p, dec)
            while any(t.complement_part
                      and self.membership(t.complement_part, level - 1)
                      and dec.try_add(t.complement_part) is None
                      for t in terms):
                terms = rewrite(p, dec)
            p, level = _image(terms, p.nvars), level - 1
        return self.base.membership(p).member

    def extend(self, levels: int) -> "TowerIdeal":
        """Add `levels` levels.  The first needs (dagger) on the base
        generators and seeds its tracked slice with the zero-constant
        generators; higher slices start empty and grow by lazy refresh.
        Each level built spends one step of the base's budget.
        """
        for _ in range(levels):
            self.base._budget.spend()
            top = self.top_level
            dec = TrackedDecomposition(top, self.base.nvars)
            if top == self.base_layer:
                report = dagger_check(self.base, top)
                if not report.holds:
                    raise PreconditionError(
                        f"cannot extend: exp-compatibility fails at layer "
                        f"{report.layer} with witness {report.witness}")
                for g in self.base.gens:
                    if (g.constant_term() != 0
                            or g.layer_component(top).is_zero()):
                        continue
                    # A generator is a member; this check runs the base's
                    # Groebner basis here rather than in the first query.
                    if not self.membership(g, top):
                        raise InternalError(
                            f"internal error: seed {g} fails membership "
                            f"at level {top}")
                    dec.try_add(g)
            self.decomps.append(dec)
        return self

    def check_level_consistency(self, samples, level: int | None = None):
        """Sampled (level vs level-1) membership agreement on R_{level-1}
        elements; any disagreement falsifies the implementation."""
        level = self.top_level if level is None else level
        disagreements = []
        for s in samples:
            upper = self.membership(s, level)
            lower = self.membership(s, level - 1)
            if upper != lower:
                disagreements.append((s, upper, lower))
        return disagreements

    def to_dict(self) -> dict:
        return {
            "format": "tower/1",
            "base_layer": self.base_layer,
            "levels": self.top_level - self.base_layer,
            "generators": [g.to_dict() for g in self.base.gens],
            "tracked": [[s.element.to_dict() for s in dec.seeds]
                        for dec in self.decomps],
        }


class SaturationOutcome(NamedTuple):
    status: str                       # "stabilized" or "unit"
    generators: tuple                 # final generator list
    added: tuple                      # exponential generators introduced
    rounds: int
    certificate: tuple | None = None  # cofactors of 1 over `generators`
    dagger: DaggerReport | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "stabilized"


def saturate_level_one(ideal: IdealHandle) -> SaturationOutcome:
    """Close a proper ideal of R_1 under f -> E(f) - 1 on its R_0 part.

    Each round intersects with R_0, finds every lattice direction lying in
    that intersection (the kernel of the normal-form map on directions,
    which is Q-linear), and adjoins the missing E(direction) - 1.  The loop
    ends when nothing new appears (stabilized, with an exp-compatibility
    report) or when 1 becomes a member (failure certificate with exact
    cofactors over the final generators).
    """
    if ideal.layer() > 1:
        raise PreconditionError("saturation operates on ideals of R_1")
    work = ideal._sharing(ideal.gens)
    nvars = ideal.nvars
    added: list[EPoly] = []
    cut = None
    for round_no in range(1, _MAX_SATURATION_ROUNDS + 1):
        one = work.membership(EPoly.const(nvars, 1))
        if one.member and round_no == 1:
            raise PreconditionError("saturation requires a proper ideal")
        if one.member:
            return SaturationOutcome(
                status="unit", generators=work.gens, added=tuple(added),
                rounds=round_no, certificate=one.cofactors)
        # A cut equal to the last round's keeps that handle and its basis.
        fresh_cut = work.intersect_subring(0)
        if cut is None or fresh_cut.gens != cut.gens:
            cut = fresh_cut
        # Make every zero-constant generator of the cut a lattice direction,
        # then find all directions lying inside the cut.
        domain_gens = [g for g in cut.gens if g.constant_term() == 0
                       and not g.is_zero()]
        pres = work.presentation(
            also_cover=[g.exp() for g in domain_gens])
        directions = [d.epoly for d in pres.directions]
        in_cut = _directions_in_ideal(directions, cut)
        fresh = []
        for direction in in_cut:
            candidate = direction.exp() - 1
            if not work.membership(candidate).member:
                fresh.append(candidate)
        if not fresh:
            return SaturationOutcome(
                status="stabilized", generators=work.gens,
                added=tuple(added), rounds=round_no,
                dagger=dagger_check(work, 1))
        added.extend(fresh)
        work = ideal._sharing(work.gens + tuple(fresh))
    raise PreconditionError(
        f"saturation did not settle within {_MAX_SATURATION_ROUNDS} rounds")


def _directions_in_ideal(directions, cut: IdealHandle) -> list[EPoly]:
    """All integer lattice directions lying in the cut ideal.

    Membership of sum x_i * b_i is Q-linear in x for a fixed Groebner basis
    (normal forms are linear), so the solutions form the integer kernel of
    the normal-form matrix; that kernel is saturated by construction.
    """
    if not directions:
        return []
    if not cut.gens:
        return []
    # Each direction is an R_0 value with no exponent, so the basis's own
    # presentation encodes it, whatever the cut's covering lattice.
    pres, gb = cut.lattice_basis()
    rows = [_coords(gb.normal_form(pres.encode(b))[1].terms.items())
            for b in directions]
    # Columns in order of first appearance.  Scale each column to integers;
    # column scaling keeps the kernel.  With no columns every direction is
    # in the cut: the kernel is the identity.
    columns = list(dict.fromkeys(label for row in rows for label in row))
    dense = [[row.get(label, 0) for label in columns] for row in rows]
    for j in range(len(columns)):
        denom = math.lcm(*(row[j].denominator for row in dense))
        for row in dense:
            row[j] = int(row[j] * denom)
    kernel = integer_kernel(dense)
    out = []
    for x in kernel:
        element = EPoly.combination(cut.nvars, zip(directions, x))
        if element.is_zero():
            continue
        if not cut.membership(element).member:
            raise InternalError(
                f"internal error: kernel direction {element} is not in the "
                "cut ideal")
        out.append(element)
    return out


class RealKernelEntry(NamedTuple):
    witnesses: tuple
    sum_in_kernel: bool
    offenders: tuple  # witnesses whose own image misses the ideal


class RealKernelReport(NamedTuple):
    layer: int
    entries: list

    @property
    def falsified(self) -> bool:
        return any(e.sum_in_kernel and e.offenders for e in self.entries)


def real_kernel_check(ideal: IdealHandle, witness_tuples, layer: int
                      ) -> RealKernelReport:
    """Falsification-style check of the real-ideal property of the
    augmentation kernel: whenever a sum of squares lies in the kernel,
    every summand must too.  Offending witnesses are reported; none are
    expected when the underlying ideal is real.
    """
    entries = []
    for tup in witness_tuples:
        tup = tuple(tup)
        total = EPoly.combination(ideal.nvars, ((u, u) for u in tup))
        _, in_kernel = augmentation_mod(total, ideal, layer)
        offenders = ()
        if in_kernel:
            offenders = tuple(u for u in tup
                              if not augmentation_mod(u, ideal, layer)[1])
        entries.append(RealKernelEntry(tup, in_kernel, offenders))
    return RealKernelReport(layer, entries)
