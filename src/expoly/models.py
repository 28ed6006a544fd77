"""The exact model for evaluating E-polynomials.

Values are truncated power series K[[t]]/t^N over Q or Q(i), with the
Neumann exponential on the maximal ideal; E is partial, defined only where
the constant coefficient is zero.  `series_exp` builds f = exp(s) in one
pass from f' = s'*f, that is n*f_n = sum of k*s_k*f_(n-k) (Knuth, TAOCP
vol. 2, section 4.7): O(N*m) scalar products for m nonzero coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .ediff import jacobian
from .epoly import EPoly
from .errors import PartialityError, PreconditionError, VariableCountError
from .scalars import GaussianRational, as_scalar, format_scalar, scalar_div


class TruncatedSeries:
    """Exact series arithmetic modulo t^N over Q or Q(i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = [as_scalar(c) for c in coeffs]
        if order is not None:
            # Pad or truncate to `order`; an order below 1 leaves nothing.
            coeffs = (coeffs + [0] * order)[:max(order, 0)]
        if not coeffs:
            raise PreconditionError("truncation order must be at least 1")
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def const(cls, c, order: int) -> "TruncatedSeries":
        return cls([c] + [0] * (order - 1))

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(as_scalar(other), self.order)
        if other.order != self.order:
            raise ValueError("mixed truncation orders")
        return other

    def __add__(self, other):
        other = self._check(other)
        return TruncatedSeries([a + b
                                for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return TruncatedSeries([a * other for a in self.coeffs])
        other = self._check(other)
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k by square-and-multiply."""
        out, base = TruncatedSeries.const(1, self.order), self
        while k > 0:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == TruncatedSeries.const(other, self.order)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt, one order lower."""
        if self.order == 1:
            raise ValueError("cannot differentiate at truncation order 1")
        return TruncatedSeries([k * c
                                for k, c in enumerate(self.coeffs)][1:])

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(format_scalar(c))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                parts.append(tpow if c == 1 else f"{format_scalar(c)} {tpow}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp on the maximal ideal, exact mod t^N: f_0 = 1 and n*f_n is the
    sum of k*s_k*f_(n-k) over the nonzero s_k, O(N*m) products in all."""
    if s.coeffs[0] != 0:
        raise PartialityError(
            f"series exponential undefined: constant coefficient "
            f"{s.coeffs[0]} is nonzero")
    ks = [(k, k * c) for k, c in enumerate(s.coeffs) if c != 0]
    f = [1]
    for n in range(1, s.order):
        f.append(scalar_div(sum(a * f[n - k] for k, a in ks if k <= n), n))
    return TruncatedSeries(f)


class SeriesPoint:
    """One truncated series per variable; the exact evaluation model."""

    def __init__(self, values, order: int = 8):
        self.values = tuple(v if isinstance(v, TruncatedSeries)
                            else TruncatedSeries(v, order) for v in values)
        for v in self.values:
            if v.order != self.values[0].order:
                raise ValueError("mixed truncation orders in point")

    @property
    def order(self) -> int:
        return self.values[0].order


def eval_epoly(p: EPoly, point: SeriesPoint) -> TruncatedSeries:
    """Ring-homomorphic evaluation at a series point; an E-node takes the
    series exponential of its argument's value."""
    if len(point.values) != p.nvars:
        raise VariableCountError(
            f"point has {len(point.values)} coordinates, value has "
            f"{p.nvars} variables")
    total = TruncatedSeries.const(0, point.order)
    for (mono, exponent), coeff in p.terms:
        acc = TruncatedSeries.const(coeff, point.order)
        for j, e in enumerate(mono):
            if e:
                acc = acc * point.values[j] ** e
        if exponent is not None:
            v = eval_epoly(exponent, point)
            if v.coeffs[0] != 0:
                raise PartialityError(
                    f"E-node E({exponent}) evaluates outside the exponential"
                    f" domain: constant coefficient {v.coeffs[0]}")
            acc = acc * series_exp(v)
        total = total + acc
    return total


def khovanskii_check(fs, point: SeriesPoint) -> bool:
    """Square system: all f_i vanish at the point and the Jacobian does not."""
    fs = list(fs)
    for f in fs:
        if not eval_epoly(f, point).is_zero():
            return False
    return not eval_epoly(jacobian(fs), point).is_zero()
