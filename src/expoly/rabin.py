"""Radical-membership certificates via an adjoined inverse variable.

A single ordinary variable Y (never inside an exponential) is adjoined; if
1 lies in the ideal generated by h_1..h_m and 1 - Y*g, the tracked
cofactors give, after substituting the inverse of g for Y and clearing
denominators, an exact identity g^d = sum c_i * h_i back in the original
ring.  Every emitted certificate is re-expanded and checked; a failed check
is flagged, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .epoly import EPoly
from .errors import Budget, InternalError, VariableCountError
from .ideals import IdealHandle, present
from .polyring import Poly, buchberger
from .sparse import accumulate
from .tower import DaggerReport, dagger_check


class SPoly:
    """Polynomial in Y with exponential-polynomial coefficients; Y is an
    ordinary variable and never occurs inside an E-node."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=()):
        """Coefficients are a {degree: EPoly} mapping or (degree, EPoly)
        pairs; repeated degrees add up."""
        self.nvars = nvars
        self.coeffs = accumulate(coeffs)

    @classmethod
    def from_epoly(cls, p: EPoly) -> "SPoly":
        return cls(p.nvars, {0: p})

    @classmethod
    def y(cls, nvars: int) -> "SPoly":
        return cls(nvars, {1: EPoly.const(nvars, 1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def coefficient(self, deg: int) -> EPoly:
        return self.coeffs.get(deg, EPoly.zero(self.nvars))

    def _check(self, other):
        if isinstance(other, EPoly):
            other = SPoly.from_epoly(other)
        if not isinstance(other, SPoly):
            raise TypeError(f"cannot combine SPoly with {other!r}")
        if other.nvars != self.nvars:
            raise VariableCountError("arity mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return SPoly(self.nvars,
                     [*self.coeffs.items(), *other.coeffs.items()])

    def __neg__(self):
        return SPoly(self.nvars, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        return SPoly(self.nvars, ((da + db, ca * cb)
                                  for da, ca in self.coeffs.items()
                                  for db, cb in other.coeffs.items()))

    def __eq__(self, other):
        if isinstance(other, (EPoly, SPoly)):
            other = self._check(other)
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for deg in sorted(self.coeffs, reverse=True):
            c = self.coeffs[deg]
            if deg == 0:
                bits.append(str(c))
            else:
                ypow = "Y" if deg == 1 else f"Y^{deg}"
                bits.append(f"({c})*{ypow}")
        return " + ".join(bits)

    __repr__ = __str__


def adjoin_y(p: EPoly) -> SPoly:
    """Degree-zero embedding into the ring with the inverse variable."""
    return SPoly.from_epoly(p)


@dataclass
class CertificateResult:
    found: bool
    t: tuple | None = None          # SPoly cofactors of the h_i
    r: SPoly | None = None          # SPoly cofactor of 1 - Y*g
    lattice: str = ""

    def max_degree(self) -> int:
        if not self.t:
            return 0
        return max((s.degree() for s in self.t if not s.is_zero()), default=0)


def one_certificate(hs, g: EPoly, budget_limit: int | None = 1_000_000
                    ) -> CertificateResult:
    """Search for 1 = sum t_i*h_i + (1 - Y*g)*r over the current lattice
    slice; cofactors of a found certificate are verified by expansion."""
    hs = list(hs)
    nvars = g.nvars
    for h in hs:
        if h.nvars != nvars:
            raise VariableCountError("arity mismatch in the system")
    pres = present(hs + [g], nvars=nvars, extra_names=("Y",))
    ring = pres.ring
    y = ring.var(pres.extra_index(0))
    encoded_h = [pres.encode(h) for h in hs]
    one_minus_yg = ring.const(Fraction(1)) - y * pres.encode(g)
    gens = encoded_h + [one_minus_yg]
    gb = buchberger(gens + pres.relations(), ring, Budget(budget_limit))
    cof = gb.cofactors(ring.const(Fraction(1)))
    if cof is None:
        return CertificateResult(found=False, lattice=pres.describe())
    t = tuple(_decode_with_y(c, pres) for c in cof[:len(hs)])
    r = _decode_with_y(cof[len(hs)], pres)
    # Exact verification in the adjoined ring.
    total = SPoly(nvars)
    for ti, hi in zip(t, hs):
        total = total + ti * adjoin_y(hi)
    check = (SPoly.from_epoly(EPoly.const(nvars, 1))
             - SPoly.y(nvars) * adjoin_y(g))
    total = total + r * check
    if total != SPoly.from_epoly(EPoly.const(nvars, 1)):
        raise InternalError("internal error: certificate fails to expand")
    return CertificateResult(found=True, t=t, r=r, lattice=pres.describe())


def _decode_with_y(q: Poly, pres) -> SPoly:
    """Split a presented polynomial by Y-degree and decode each slice."""
    yindex = pres.extra_index(0)
    slices: dict[int, list] = {}
    for mono, coeff in q.terms.items():
        stripped = tuple(0 if i == yindex else e for i, e in enumerate(mono))
        slices.setdefault(mono[yindex], []).append((stripped, coeff))
    return SPoly(pres.nvars, {deg: pres.decode(Poly(pres.ring, pairs))
                              for deg, pairs in slices.items()})


@dataclass
class PowerResult:
    d: int
    cofactors: tuple
    verified: bool


def extract_power(cert: CertificateResult, hs, g: EPoly) -> PowerResult:
    """Substitute the inverse of g for Y and clear denominators.

    d is the maximal Y-degree among the t_i; the cofactor of h_i becomes
    sum_j t_ij * g^(d-j).  The identity g^d = sum c_i*h_i is re-expanded
    exactly; a mismatch flags an engine bug rather than being accepted.
    """
    if not cert.found or cert.t is None:
        raise ValueError("no certificate to extract from")
    hs = list(hs)
    d = cert.max_degree()
    powers = [EPoly.const(g.nvars, 1)]
    for _ in range(d):
        powers.append(powers[-1] * g)
    cofactors = []
    for ti in cert.t:
        c = EPoly.zero(g.nvars)
        for j, coeff in ti.coeffs.items():
            c = c + coeff * powers[d - j]
        cofactors.append(c)
    lhs = powers[d]
    rhs = EPoly.zero(g.nvars)
    for c, h in zip(cofactors, hs):
        rhs = rhs + c * h
    return PowerResult(d=d, cofactors=tuple(cofactors), verified=lhs == rhs)


@dataclass
class PipelineReport:
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
                             budget_limit: int | None = 1_000_000
                             ) -> PipelineReport:
    """Exp-compatibility check, certificate search, and power extraction."""
    hs = tuple(hs)
    ideal = IdealHandle(hs, nvars=g.nvars, budget_limit=budget_limit)
    layer = max([h.height() for h in hs] + [g.height()])
    dagger = dagger_check(ideal, layer)
    cert = one_certificate(hs, g, budget_limit=budget_limit)
    power = extract_power(cert, hs, g) if cert.found else None
    return PipelineReport(dagger=dagger, certificate=cert, power=power,
                          hs=hs, g=g)
