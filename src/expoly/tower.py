"""Extending ideals up the ring tower into exponential ideals.

Level n+1 of a tower over a base ideal I is the kernel of the modified
augmentation: rewrite an element of R_{n+1} over the group of exponentials
of (tracked ideal slice) + (complement), sum the coefficients, and test the
sum at level n.  The tracked slice is a finite list of zero-constant ideal
elements whose top-layer projections are Q-independent; it is refreshed
lazily when a query meets a complement direction that itself belongs to the
level ideal.  All guarantees ((dagger), properness, level consistency) are
relative to the tracked slice, which is exactly what the finite computation
can certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .epoly import EPoly, EPOLY_SORT_KEY
from .errors import InternalError, PreconditionError
from .ideals import (IdealHandle, augmentation_mod, _coords_epoly,
                     _epoly_coords, _COORD_KEY)
from .linalg import RationalEchelon


class TrackedSeed(NamedTuple):
    element: EPoly      # zero-constant member of the layer ideal
    projection: EPoly   # its top-layer (layer n) component, nonzero
    lower: EPoly        # element - projection, in R_{n-1}


class SeedRejected(NamedTuple):
    element: EPoly
    reason: str


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
        self._echelon = RationalEchelon(coord_order=_COORD_KEY)

    def try_add(self, f: EPoly) -> str | None:
        """Track f; returns a rejection reason or None on success."""
        if f.constant_term() != 0:
            return ("nonzero constant term: outside the exponential domain, "
                    "cannot participate in the rewriting")
        projection = f.layer_component(self.layer)
        if projection.is_zero():
            return f"zero layer-{self.layer} projection"
        independent, _ = self._echelon.insert(_epoly_coords(projection))
        if not independent:
            return "projection depends Q-linearly on the tracked span"
        self.seeds.append(TrackedSeed(f, projection, f - projection))
        return None

    def split(self, a: EPoly):
        """Decompose a pure layer-n exponent a = a0 + a1 with a0 in the
        tracked projection span; returns (a1, fhat, fhat_lower) where fhat
        is the unique tracked-span ideal element with projection a0."""
        residual, coeffs = self._echelon.reduce(_epoly_coords(a))
        a1 = _coords_epoly(residual, self.nvars)
        fhat = EPoly.zero(self.nvars)
        fhat_lower = EPoly.zero(self.nvars)
        for idx, lam in coeffs.items():
            seed = self.seeds[idx]
            fhat = fhat + seed.element * lam
            fhat_lower = fhat_lower + seed.lower * lam
        return a1, fhat, fhat_lower

    def in_span(self, a: EPoly) -> bool:
        residual, _ = self._echelon.reduce(_epoly_coords(a))
        return not residual


def split_tilde(ideal: IdealHandle, layer: int, seeds
                ) -> tuple[TrackedDecomposition, list[SeedRejected]]:
    """Greedy tracked decomposition from candidate ideal elements.

    Seeds failing membership (or outside the exponential domain, or with
    dependent projections) are rejected with a report.
    """
    dec = TrackedDecomposition(layer, ideal.nvars)
    rejected = []
    for f in seeds:
        if not ideal.membership(f).member:
            rejected.append(SeedRejected(f, "fails membership in the ideal"))
            continue
        reason = dec.try_add(f)
        if reason is not None:
            rejected.append(SeedRejected(f, reason))
    return dec, rejected


class RewriteTerm(NamedTuple):
    coefficient: EPoly      # in R_n
    argument: EPoly         # in (tracked slice) + (complement)
    complement_part: EPoly  # the complement component of the argument


def rewrite(u: EPoly, dec: TrackedDecomposition) -> list[RewriteTerm]:
    """Unique rewriting of u in R_n[t^{A_n}] as sum r_i * E(u_i).

    Terms are grouped by the layer-n component a of their exponent; each
    group key splits as a = a0 + a1 against the tracked span, the matching
    span element fhat is exponentiated, and the coefficient absorbs
    E(-fhat_lower) so that t^a = E(-fhat_lower) * E(fhat) * t^{a1} exactly.
    The arguments are pairwise distinct.
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
                rest = exponent - component
                if rest.is_zero():
                    rest = None
        groups.setdefault(key, []).append(((mono, rest), coeff))

    out = []
    zero = EPoly.zero(u.nvars)
    for key in sorted((k for k in groups if k is not None),
                      key=EPOLY_SORT_KEY):
        carrier = EPoly(u.nvars, groups[key])
        if carrier.is_zero():
            continue
        a1, fhat, fhat_lower = dec.split(key)
        argument = fhat + a1
        coefficient = carrier * (-fhat_lower).exp()
        out.append(RewriteTerm(coefficient, argument, a1))
    if None in groups:
        carrier = EPoly(u.nvars, groups[None])
        if not carrier.is_zero():
            out.insert(0, RewriteTerm(carrier, zero, zero))
    arguments = [t.argument for t in out]
    if len(set(arguments)) != len(arguments):
        raise InternalError("internal error: rewrite produced repeated "
                            "exponential arguments")
    return out


def rewrite_expand(terms, nvars: int) -> EPoly:
    """Exact re-expansion sum r_i * E(u_i) of a rewriting."""
    acc = EPoly.zero(nvars)
    for term in terms:
        acc = acc + term.coefficient * term.argument.exp()
    return acc


@dataclass
class DaggerReport:
    layer: int
    holds: bool
    witness: EPoly | None = None
    checked: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # outside exponential domain

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
        return DaggerReport(layer=0, holds=True,
                            checked=[EPoly.zero(ideal.nvars)])
    sub = ideal.intersect_subring(layer - 1)
    report = DaggerReport(layer=layer, holds=True)
    for g in sub.gens:
        if g.is_zero():
            continue
        if g.constant_term() != 0:
            report.skipped.append(g)
            continue
        if not ideal.membership(g.exp() - 1).member:
            report.holds = False
            report.witness = g
            return report
        report.checked.append(g)
    return report


class TowerIdeal:
    """A base ideal plus tracked decomposition data for each built level.

    Membership at level n+1 is the kernel condition of the modified
    augmentation: rewrite, sum the coefficients, recurse one level down.
    """

    def __init__(self, base: IdealHandle, base_layer: int | None = None):
        self.base = base
        self.base_layer = base.layer() if base_layer is None else base_layer
        if self.base_layer < max((g.height() for g in base.gens), default=0):
            raise PreconditionError("generators exceed the base layer")
        self.decomps: list[TrackedDecomposition] = []

    @property
    def top_level(self) -> int:
        return self.base_layer + len(self.decomps)

    def decomposition(self, layer: int) -> TrackedDecomposition:
        return self.decomps[layer - self.base_layer]

    def tracked_seeds(self, layer: int) -> list[EPoly]:
        return [s.element for s in self.decomposition(layer).seeds]

    def derived_generators(self, layer: int) -> list[EPoly]:
        """The recorded E(f) - 1 for seeds tracked at the given layer."""
        return [s.element.exp() - 1 for s in self.decomposition(layer).seeds]

    def membership(self, p: EPoly, level: int | None = None) -> bool:
        level = self.top_level if level is None else level
        if not self.base_layer <= level <= self.top_level:
            raise PreconditionError(
                f"level {level} outside the built tower "
                f"[{self.base_layer}, {self.top_level}]")
        if p.height() > level:
            raise PreconditionError(
                f"query of height {p.height()} is not in R_{level}")
        if level == self.base_layer:
            return self.base.membership(p).member
        dec = self.decomposition(level - 1)
        while True:
            terms = rewrite(p, dec)
            refreshed = False
            for term in terms:
                a1 = term.complement_part
                if a1.is_zero() or dec.in_span(a1):
                    continue
                # Lazy slice refresh: a complement direction that is itself
                # an ideal element belongs in the tracked span.
                if self.membership(a1, level - 1):
                    reason = dec.try_add(a1)
                    refreshed = reason is None
                    if refreshed:
                        break
            if not refreshed:
                break
        image = EPoly.zero(p.nvars)
        for term in terms:
            image = image + term.coefficient
        return self.membership(image, level - 1)

    def extend_one_step(self, seeds=None) -> "TowerIdeal":
        """Add one level.  At the base, (dagger) must hold on generators and
        the default seeds are the zero-constant generators; above the base
        the tracked slice starts from the given seeds (if any) and grows by
        lazy refresh.
        """
        top = self.top_level
        if top == self.base_layer:
            report = dagger_check(self.base, self.base_layer)
            if not report.holds:
                raise PreconditionError(
                    f"cannot extend: exp-compatibility fails at layer "
                    f"{report.layer} with witness {report.witness}")
            if seeds is None:
                seeds = [g for g in self.base.gens
                         if g.constant_term() == 0
                         and not g.layer_component(self.base_layer).is_zero()]
        dec = TrackedDecomposition(top, self.base.nvars)
        for f in seeds or []:
            if top == self.base_layer:
                if not self.base.membership(f).member:
                    raise PreconditionError(
                        f"seed {f} fails membership at the base")
            elif not self.membership(f, top):
                raise PreconditionError(
                    f"seed {f} fails membership at level {top}")
            dec.try_add(f)
        self.decomps.append(dec)
        return self

    def extend(self, levels: int) -> "TowerIdeal":
        for _ in range(levels):
            self.extend_one_step()
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

    @classmethod
    def from_dict(cls, data: dict,
                  budget_limit: int | None = 1_000_000) -> "TowerIdeal":
        if data.get("format") != "tower/1":
            raise ValueError(f"unsupported format {data.get('format')!r}")
        gens = [EPoly.from_dict(d) for d in data["generators"]]
        tower = cls(IdealHandle(gens, budget_limit=budget_limit),
                    base_layer=data["base_layer"])
        for level_seeds in data["tracked"]:
            tower.extend_one_step(
                seeds=[EPoly.from_dict(d) for d in level_seeds])
        return tower


@dataclass
class SaturationOutcome:
    status: str                       # "stabilized" or "unit"
    generators: tuple                 # final generator list
    added: tuple                      # exponential generators introduced
    rounds: int
    ideal: IdealHandle | None = None
    certificate: tuple | None = None  # cofactors of 1 over `generators`
    dagger: DaggerReport | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "stabilized"


def saturate_level_one(ideal: IdealHandle, max_rounds: int = 64
                       ) -> SaturationOutcome:
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
    if not ideal.is_proper():
        raise PreconditionError("saturation requires a proper ideal")
    nvars = ideal.nvars
    work = IdealHandle(ideal.gens, nvars=nvars,
                       budget_limit=ideal.budget_limit)
    added: list[EPoly] = []
    for round_no in range(1, max_rounds + 1):
        one = work.membership(EPoly.const(nvars, 1))
        if one.member:
            return SaturationOutcome(
                status="unit", generators=work.gens, added=tuple(added),
                rounds=round_no, certificate=one.cofactors)
        cut = work.intersect_subring(0)
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
                added=tuple(added), rounds=round_no, ideal=work,
                dagger=dagger_check(work, 1))
        added.extend(fresh)
        work = IdealHandle(work.gens + tuple(fresh), nvars=nvars,
                           budget_limit=ideal.budget_limit)
    raise PreconditionError(
        f"saturation did not settle within {max_rounds} rounds")


def _directions_in_ideal(directions, cut: IdealHandle) -> list[EPoly]:
    """All integer lattice directions lying in the cut ideal.

    Membership of sum x_i * b_i is Q-linear in x for a fixed Groebner basis
    (normal forms are linear), so the solutions form the integer kernel of
    the normal-form matrix; that kernel is saturated by construction.
    """
    from .linalg import integer_kernel
    if not directions:
        return []
    if not cut.gens:
        return []
    pres = cut.presentation(also_cover=directions)
    gb = cut.groebner()
    columns: dict = {}
    rows = []
    for b in directions:
        encoded = pres.encode(b)
        _, nf = gb.normal_form(encoded)
        row = {}
        for mono, coeff in nf.terms.items():
            from .scalars import scalar_re, scalar_im
            for part, val in ((0, scalar_re(coeff)), (1, scalar_im(coeff))):
                if val:
                    columns.setdefault((mono, part), len(columns))
                    row[columns[(mono, part)]] = val
        rows.append(row)
    if not columns:
        kernel = [[1 if i == j else 0 for j in range(len(directions))]
                  for i in range(len(directions))]
    else:
        # Scale each column to integers; column scaling keeps the kernel.
        ncols = len(columns)
        dense = [[rows[i].get(j, Fraction(0)) for j in range(ncols)]
                 for i in range(len(directions))]
        for j in range(ncols):
            denom = math.lcm(*(row[j].denominator for row in dense))
            for i in range(len(dense)):
                dense[i][j] = int(dense[i][j] * denom)
        kernel = integer_kernel(dense)
    out = []
    for x in kernel:
        element = EPoly.zero(cut.nvars)
        for xi, b in zip(x, directions):
            if xi:
                element = element + b * xi
        if element.is_zero():
            continue
        if not cut.membership(element).member:
            raise InternalError(
                f"internal error: kernel direction {element} is not in the "
                "cut ideal")
        out.append(element)
    return out


@dataclass
class RealKernelEntry:
    witnesses: tuple
    sum_in_kernel: bool
    offenders: tuple  # witnesses whose own image misses the ideal


@dataclass
class RealKernelReport:
    layer: int
    entries: list

    @property
    def falsified(self) -> bool:
        return any(e.sum_in_kernel and e.offenders for e in self.entries)

    def falsifications(self):
        return [e for e in self.entries if e.sum_in_kernel and e.offenders]


def real_kernel_check(ideal: IdealHandle, witness_tuples, layer: int
                      ) -> RealKernelReport:
    """Falsification-style check of the real-ideal property of the
    augmentation kernel: whenever a sum of squares lies in the kernel,
    every summand must too.  Offending witnesses are reported; none are
    expected when the underlying ideal is real.
    """
    report = RealKernelReport(layer=layer, entries=[])
    for tup in witness_tuples:
        tup = tuple(tup)
        total = EPoly.zero(ideal.nvars)
        for u in tup:
            total = total + u * u
        _, in_kernel = augmentation_mod(total, ideal, layer)
        offenders = ()
        if in_kernel:
            offenders = tuple(u for u in tup
                              if not augmentation_mod(u, ideal, layer)[1])
        report.entries.append(RealKernelEntry(tup, in_kernel, offenders))
    return report
