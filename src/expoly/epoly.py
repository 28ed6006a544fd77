"""Exponential polynomials in canonical flat group-ring form.

An exponential polynomial in n variables is stored as a finite sum of terms

    coeff * X^mono * t^exponent

where `mono` is a multidegree vector, `coeff` an exact scalar, and
`exponent` is itself an exponential polynomial with zero constant term (or
None for the trivial exponent t^0 = 1).  Multiplication merges exponents by
the group law t^a * t^b = t^(a+b), so values are always canonical: no zero
coefficients, no duplicate (mono, exponent) keys, and a fixed term order.

The layer of a term is 0 when its exponent is trivial and 1 + height of the
exponent otherwise; the height of a value is the maximal layer of its terms.
These drive the decomposition into per-layer components and the ordinal
complexity measure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .errors import PartialityError, PreconditionError, VariableCountError
from .ordinals import OrdinalCNF
from .scalars import (GaussianRational, as_scalar, format_scalar,
                      scalar_sort_key)
from .sparse import accumulate

Mono = tuple


def _cmp(a, b):
    return (a > b) - (a < b)


def term_layer(key) -> int:
    mono, exponent = key
    return 0 if exponent is None else 1 + exponent.height()


def cmp_term_key(ka, kb) -> int:
    """Canonical total order on term keys.

    Compares by layer, then graded-lexicographically on the monomial, then
    recursively on the exponent-argument.
    """
    la, lb = term_layer(ka), term_layer(kb)
    if la != lb:
        return _cmp(la, lb)
    ma, mb = ka[0], kb[0]
    c = _cmp(sum(ma), sum(mb))
    if c:
        return c
    c = _cmp(ma, mb)
    if c:
        return c
    ea, eb = ka[1], kb[1]
    if ea is None and eb is None:
        return 0
    return cmp_epoly(ea, eb)


def cmp_epoly(p: "EPoly", q: "EPoly") -> int:
    """Deterministic total order on values, leading terms first."""
    for (ka, ca), (kb, cb) in zip(reversed(p._terms), reversed(q._terms)):
        c = cmp_term_key(ka, kb)
        if c:
            return c
        c = _cmp(scalar_sort_key(ca), scalar_sort_key(cb))
        if c:
            return c
    return _cmp(len(p._terms), len(q._terms))


_TERM_SORT_KEY = cmp_to_key(cmp_term_key)
EPOLY_SORT_KEY = cmp_to_key(cmp_epoly)


class EPoly:
    __slots__ = ("nvars", "_terms", "_hash", "_height")

    def __init__(self, nvars: int, terms):
        """Build a canonical value from a {(mono, exponent): coeff} mapping
        or from ((mono, exponent), coeff) pairs; repeated keys add up."""
        if isinstance(terms, dict):
            terms = terms.items()
        merged = accumulate(((tuple(mono), exponent), as_scalar(coeff))
                            for (mono, exponent), coeff in terms)
        self.nvars = nvars
        self._terms = tuple(sorted(merged.items(),
                                   key=lambda kv: _TERM_SORT_KEY(kv[0])))
        self._hash = None
        self._height = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "EPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "EPoly":
        return cls(nvars, {((0,) * nvars, None): c})

    @classmethod
    def var(cls, nvars: int, j: int) -> "EPoly":
        if not 0 <= j < nvars:
            raise VariableCountError(
                f"variable index {j} out of range for {nvars} variables")
        mono = tuple(1 if k == j else 0 for k in range(nvars))
        return cls(nvars, {(mono, None): Fraction(1)})

    # -- basic structure ----------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def constant_term(self):
        key = ((0,) * self.nvars, None)
        for k, c in self._terms:
            if k == key:
                return c
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = EPoly.const(self.nvars, other)
        if not isinstance(other, EPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self._terms))
        return self._hash

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return EPoly.const(self.nvars, other)
        if isinstance(other, EPoly):
            if other.nvars != self.nvars:
                raise VariableCountError(
                    f"variable counts differ: {self.nvars} vs {other.nvars}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EPoly(self.nvars, self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        return EPoly(self.nvars, {k: -c for k, c in self._terms})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return EPoly(self.nvars, {k: v * other for k, v in self._terms})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EPoly(self.nvars,
                     (((tuple(x + y for x, y in zip(ma, mb)),
                        _exp_add(ea, eb)), ca * cb)
                      for (ma, ea), ca in self._terms
                      for (mb, eb), cb in other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not ring operations")
        out = EPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- the exponential ----------------------------------------------

    def exp(self) -> "EPoly":
        """E(p) = t^p, defined when the constant term lies in A(R) = {0}."""
        c = self.constant_term()
        if c != 0:
            raise PartialityError(
                f"E undefined: constant term {format_scalar(c)} "
                "outside the exponential domain {0}")
        if self.is_zero():
            return EPoly.const(self.nvars, 1)
        return EPoly(self.nvars, {((0,) * self.nvars, self): Fraction(1)})

    # -- layers, height, rank, complexity -----------------------------

    def height(self) -> int:
        if self._height is None:
            self._height = max((term_layer(k) for k, _ in self._terms),
                               default=0)
        return self._height

    def layer_component(self, i: int) -> "EPoly":
        """The sum of the terms of layer exactly i."""
        return EPoly(self.nvars,
                     {k: c for k, c in self._terms if term_layer(k) == i})

    def layer_decompose(self) -> "LayerDecomposition":
        acc = [{} for _ in range(self.height() + 1)]
        for k, c in self._terms:
            acc[term_layer(k)][k] = c
        return LayerDecomposition(tuple(EPoly(self.nvars, a) for a in acc))

    def total_degree(self) -> int:
        return max((sum(k[0]) for k, _ in self._terms), default=0)

    def top_exponent_parts(self) -> list["EPoly"]:
        """Distinct top-layer components of the exponents of the top layer,
        sorted canonically.  These are the group directions counted by rank.
        """
        h = self.height()
        if h == 0:
            return []
        seen = {exponent.layer_component(h - 1)
                for (mono, exponent), _ in self._terms
                if term_layer((mono, exponent)) == h}
        return sorted(seen, key=EPOLY_SORT_KEY)

    def rank(self) -> int:
        if self.is_zero():
            return 0
        if self.height() == 0:
            return self.total_degree() + 1
        return len(self.top_exponent_parts())

    def complexity(self) -> OrdinalCNF:
        """The ordinal measure: sum over layers i of w^i * rank(component_i)."""
        out = OrdinalCNF()
        for i, part in enumerate(self.layer_decompose().parts):
            if part:
                out = out + OrdinalCNF.omega_term(i, part.rank())
        return out

    # -- presentation --------------------------------------------------

    def __repr__(self):
        return f"EPoly({self.nvars}, {self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        chunks = []
        for key, coeff in reversed(self._terms):
            sign, body = _format_term(key, coeff)
            if not chunks:
                chunks.append(body if sign >= 0 else "-" + body)
            else:
                chunks.append((" + " if sign >= 0 else " - ") + body)
        return "".join(chunks)

    def to_dict(self) -> dict:
        """Structured export, schema version "epoly/1"."""
        return {"format": "epoly/1", "nvars": self.nvars,
                "terms": _terms_to_json(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EPoly":
        if data.get("format") != "epoly/1":
            raise ValueError(f"unsupported format {data.get('format')!r}")
        return _terms_from_json(data["terms"], data["nvars"])


def _exp_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    s = a + b
    return None if s.is_zero() else s


def _format_term(key, coeff):
    mono, exponent = key
    factors = []
    for j, e in enumerate(mono):
        if e == 1:
            factors.append(f"X{j + 1}")
        elif e > 1:
            factors.append(f"X{j + 1}^{e}")
    if exponent is not None:
        factors.append(f"E({exponent})")
    if isinstance(coeff, GaussianRational):
        # Gaussian coefficients keep their own signs inside the literal.
        lit = f"(({coeff.re})+({coeff.im})i)"
        return 1, "*".join([lit] + factors) if factors else lit
    sign = 1 if coeff > 0 else -1
    mag = abs(coeff)
    if not factors:
        return sign, str(mag)
    if mag == 1:
        return sign, "*".join(factors)
    return sign, "*".join([str(mag)] + factors)


def _terms_to_json(p: EPoly) -> list:
    out = []
    for (mono, exponent), coeff in p.terms:
        out.append({
            "monomial": list(mono),
            "exponent": None if exponent is None else _terms_to_json(exponent),
            "coeff": format_scalar(coeff),
        })
    return out


def _terms_from_json(items, nvars: int) -> EPoly:
    from .scalars import parse_scalar
    acc = {}
    for item in items:
        mono = tuple(item["monomial"])
        exponent = (None if item["exponent"] is None
                    else _terms_from_json(item["exponent"], nvars))
        acc[(mono, exponent)] = parse_scalar(item["coeff"])
    return EPoly(nvars, acc)


class LayerDecomposition:
    """Per-layer components: parts[0] in R_0 and parts[i] in A_i for i >= 1."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def component(self, i: int) -> EPoly:
        return self.parts[i]

    def recompose(self) -> EPoly:
        out = self.parts[0]
        for part in self.parts[1:]:
            out = out + part
        return out

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"LayerDecomposition({[str(p) for p in self.parts]})"


def ord_reduce(p: EPoly) -> tuple[EPoly, EPoly]:
    """Return (q, E(q) * p) with strictly smaller complexity.

    Requires p nonzero with zero layer-0 component.  q is the negation of a
    group direction of the lowest nonzero layer; killing it lowers that
    layer's rank by one while every higher layer keeps its rank and nothing
    new appears below, so the ordinal strictly drops.  The lowest-layer pick
    is what makes the decrease provable; candidates within the layer are
    tie-broken by the canonical term order.
    """
    if p.is_zero():
        raise PreconditionError("ord_reduce requires a nonzero argument")
    decomposition = p.layer_decompose()
    if decomposition.parts[0]:
        raise PreconditionError(
            "ord_reduce requires a zero layer-0 component, got "
            f"{decomposition.parts[0]}")
    lowest = next(i for i, part in enumerate(decomposition.parts) if part)
    direction = decomposition.parts[lowest].top_exponent_parts()[0]
    q = -direction
    return q, q.exp() * p
