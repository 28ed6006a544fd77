"""Radical-membership certificates via an adjoined inverse variable.

A single ordinary variable Y (never inside an exponential) is adjoined as
the last variable of the presented ring; if 1 lies in the ideal generated
by h_1..h_m and 1 - Y*g, the tracked cofactors give, after substituting the
inverse of g for Y and clearing denominators, an exact identity
g^d = sum c_i * h_i back in the original ring.

Cofactors are graded by Y: `coeffs` maps each Y-degree k to a nonzero
exponential polynomial.  1 = sum t_i*h_i + (1 - Y*g)*r is checked exactly,
one degree at a time: sum_i t_i[k]*h_i + r[k] - g*r[k-1] is 1 at k = 0 and
0 above.  g^d = sum c_i * h_i is re-expanded too.  A failed check of
either identity raises `InternalError` (exit 4 from the CLI); it is never
silently accepted.
"""

from __future__ import annotations

from typing import NamedTuple

from .epoly import EPoly
from .errors import DEFAULT_BUDGET, Budget, InternalError
from .ideals import IdealHandle, present
from .polyring import Poly, PolyRing, buchberger
from .sparse import accumulate
from .tower import DaggerReport, dagger_check


class _YGraded(NamedTuple):
    """A cofactor graded by Y-degree: {degree: nonzero EPoly}."""
    coeffs: dict


class CertificateResult(NamedTuple):
    found: bool
    t: tuple | None = None          # Y-graded cofactors of the h_i
    r: _YGraded | None = None       # Y-graded cofactor of 1 - Y*g
    lattice: str = ""

    def max_degree(self) -> int:
        return max((max(s.coeffs, default=0) for s in self.t or ()),
                   default=0)


def one_certificate(hs, g: EPoly, budget: Budget | None = None
                    ) -> CertificateResult:
    """Search for 1 = sum t_i*h_i + (1 - Y*g)*r over the current lattice
    slice; cofactors of a found certificate are verified by expansion.
    Reduction steps spend from `budget`, as in `buchberger`.  `present`
    rejects a system of mixed variable counts."""
    hs = list(hs)
    nvars = g.nvars
    pres = present(hs + [g], nvars=nvars)
    ring = PolyRing(pres.ring.names + ("Y",))

    def with_y(q: Poly) -> Poly:
        return Poly(ring, {ring.pack(pres.ring.unpack(m) + (0,)): c
                           for m, c in q.terms.items()})

    one_minus_yg = (ring.const(1)
                    - ring.var(ring.nvars - 1) * with_y(pres.encode(g)))
    gens = [with_y(pres.encode(h)) for h in hs] + [one_minus_yg]
    gb = buchberger(gens, ring, budget,
                    [with_y(rel) for rel in pres.relations()])
    cof = gb.cofactors(ring.const(1))
    if cof is None:
        return CertificateResult(found=False, lattice=pres.describe())
    t = tuple(_decode_with_y(c, pres) for c in cof[:len(hs)])
    r = _decode_with_y(cof[len(hs)], pres)
    # Exact verification, one Y-degree at a time (see the module docstring).
    top = max(max(s.coeffs, default=0) for s in (*t, r))
    for k in range(top + 2):
        products = [(ti.coeffs.get(k, 0), h) for ti, h in zip(t, hs)]
        products += [(r.coeffs.get(k, 0), 1), (-g, r.coeffs.get(k - 1, 0))]
        if EPoly.combination(nvars, products) != (1 if k == 0 else 0):
            raise InternalError("internal error: certificate fails to expand")
    return CertificateResult(found=True, t=t, r=r, lattice=pres.describe())


def _decode_with_y(q: Poly, pres) -> _YGraded:
    """Split a polynomial in the presentation's variables and a trailing Y
    by Y-degree and decode each slice; slices decoding to zero are dropped."""
    slices: dict[int, list] = {}
    for m, coeff in q.terms.items():
        *mono, degree = q.ring.unpack(m)
        slices.setdefault(degree, []).append((pres.ring.pack(mono), coeff))
    return _YGraded(accumulate((deg, pres.decode(Poly(pres.ring, pairs)))
                               for deg, pairs in slices.items()))


class PowerResult(NamedTuple):
    d: int
    cofactors: tuple
    verified: bool


def extract_power(cert: CertificateResult, hs, g: EPoly) -> PowerResult:
    """Substitute the inverse of g for Y and clear denominators.

    d is the maximal Y-degree among the t_i; the cofactor of h_i becomes
    sum_j t_ij * g^(d-j).  For g = 0 the exponent is at least 1, since
    0^0 = 1 is not a combination of the h_i.  The identity g^d = sum c_i*h_i
    is re-expanded exactly; a mismatch raises `InternalError`.
    """
    if not cert.found or cert.t is None:
        raise ValueError("no certificate to extract from")
    d = cert.max_degree() if g else max(cert.max_degree(), 1)
    powers = [EPoly.const(g.nvars, 1)]
    for _ in range(d):
        powers.append(powers[-1] * g)
    cofactors = tuple(
        EPoly.combination(g.nvars, ((coeff, powers[d - j])
                                    for j, coeff in ti.coeffs.items()))
        for ti in cert.t)
    if EPoly.combination(g.nvars, zip(cofactors, hs)) != powers[d]:
        raise InternalError("internal error: power certificate fails to "
                            "expand")
    return PowerResult(d=d, cofactors=cofactors, verified=True)


class PipelineReport(NamedTuple):
    dagger: DaggerReport
    certificate: CertificateResult
    power: PowerResult | None
    hs: tuple
    g: EPoly

    @property
    def found(self) -> bool:
        return self.certificate.found

    def to_dict(self) -> dict:
        out = {
            "format": "nssreport/1",
            "system": [str(h) for h in self.hs],
            "g": str(self.g),
            "dagger": {
                "layer": self.dagger.layer,
                "holds_on_generators": self.dagger.holds,
                "witness": (None if self.dagger.witness is None
                            else str(self.dagger.witness)),
            },
            "certificate_found": self.certificate.found,
            "lattice": self.certificate.lattice,
        }
        if self.certificate.found and self.power is not None:
            out["d"] = self.power.d
            out["cofactors"] = [str(c) for c in self.power.cofactors]
            out["verified"] = self.power.verified
        return out

    def describe(self) -> str:
        lines = [f"system: {', '.join(str(h) for h in self.hs)}",
                 f"g: {self.g}",
                 f"exp-compatibility at layer {self.dagger.layer}: "
                 f"{self.dagger.describe()}"]
        if not self.certificate.found:
            lines.append(f"certificate: not found within the slice "
                         f"({self.certificate.lattice})")
        else:
            lines.append("certificate: found")
            lines.append(f"d = {self.power.d}")
            for c, h in zip(self.power.cofactors, self.hs):
                lines.append(f"  cofactor of {h}: {c}")
            lines.append(f"verified: {self.power.verified}")
        return "\n".join(lines)


def nullstellensatz_pipeline(hs, g: EPoly,
                             budget_limit: int = DEFAULT_BUDGET
                             ) -> PipelineReport:
    """Exp-compatibility check, certificate search, and power extraction."""
    hs = tuple(hs)
    ideal = IdealHandle(hs, nvars=g.nvars, budget_limit=budget_limit)
    layer = max([h.height() for h in hs] + [g.height()])
    dagger = dagger_check(ideal, layer)
    cert = one_certificate(hs, g, ideal._budget)
    power = extract_power(cert, hs, g) if cert.found else None
    return PipelineReport(dagger=dagger, certificate=cert, power=power,
                          hs=hs, g=g)
