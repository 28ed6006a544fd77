"""Exponential polynomials in canonical flat group-ring form.

An exponential polynomial in n variables is stored as a finite sum of terms

    coeff * X^mono * t^exponent

where `mono` is a multidegree vector, `coeff` an exact scalar, and
`exponent` is itself an exponential polynomial with zero constant term (or
None for the trivial exponent t^0 = 1).  Multiplication merges exponents by
the group law t^a * t^b = t^(a+b), so values are always canonical: no zero
coefficients, no duplicate (mono, exponent) keys, and a fixed term order.

That order is a plain tuple key.  A term (mono, exponent) sorts by

    (layer, sum(mono), mono, exponent.sort_key)    with () for t^0

and a value by `EPoly.sort_key`: its (term key, scalar key) pairs from the
leading term down, compared element by element and then by length.  Terms
are stored in ascending order, leading term last.

The layer of a term is 0 when its exponent is trivial and 1 + height of the
exponent otherwise; the height of a value is the maximal layer of its terms.
These drive the decomposition into per-layer components and the ordinal
complexity measure.

Values are built by the folding constructor `EPoly(nvars, terms)`, whose
monomials must be tuples (keys are hashed as given): it adds up repeated
keys, drops zero sums and sorts only when two or more terms remain.
`EPoly.combination` is the one way to build a sum of products
a_1*b_1 + ... + a_m*b_m: every product term goes to a single constructor
call, which folds and sorts once, and `a * b` uses the same product rule, a
scalar factor included.  Operations whose result is canonical by
construction skip both through the private `EPoly._canonical`: `zero`,
negation, `exp` (a single term), and filters of a value's sorted terms
(`layer_component`, `layer_decompose`, and in `tower.rewrite` the
layer-other-than-n part of an exponent and the t^0 group of a value).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import PartialityError, PreconditionError, VariableCountError
from .ordinals import OrdinalCNF
from .scalars import (GaussianRational, as_scalar, format_scalar,
                      scalar_sort_key)
from .sparse import accumulate


def term_layer(key) -> int:
    mono, exponent = key
    return 0 if exponent is None else 1 + exponent.height()


def _term_key(key) -> tuple:
    """Sort key of a term key, as stated in the module docstring."""
    mono, exponent = key
    if exponent is None:
        return (0, sum(mono), mono, ())
    return (1 + exponent.height(), sum(mono), mono, exponent.sort_key)


class EPoly:
    __slots__ = ("nvars", "_terms", "_hash", "_height", "_key")

    def __init__(self, nvars: int, terms):
        """Build a canonical value from a {(mono, exponent): coeff} mapping
        or from ((mono, exponent), coeff) pairs, each `mono` a tuple;
        repeated keys add up, and each sum is made a canonical scalar
        (`scalars.as_scalar`)."""
        terms = [(k, as_scalar(c)) for k, c in accumulate(terms).items()]
        if len(terms) > 1:
            terms.sort(key=lambda kv: _term_key(kv[0]))
        self.nvars = nvars
        self._terms = tuple(terms)
        self._hash = None
        self._height = None
        self._key = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, nvars: int, terms: tuple) -> "EPoly":
        """Wrap a term tuple that is already canonical: ascending term order,
        distinct keys and nonzero scalar coefficients.  Nothing is checked."""
        self = object.__new__(cls)
        self.nvars = nvars
        self._terms = terms
        self._hash = None
        self._height = None
        self._key = None
        return self

    @classmethod
    def combination(cls, nvars: int, products) -> "EPoly":
        """sum a * b over (a, b) pairs, each factor an EPoly over `nvars`
        variables or a scalar; one constructor call folds and sorts it."""
        return cls(nvars, (term for a, b in products
                           for term in _product_terms(
                               _factor_terms(nvars, a),
                               _factor_terms(nvars, b))))

    @classmethod
    def zero(cls, nvars: int) -> "EPoly":
        return cls._canonical(nvars, ())

    @classmethod
    def const(cls, nvars: int, c) -> "EPoly":
        return cls(nvars, {((0,) * nvars, None): c})

    @classmethod
    def var(cls, nvars: int, j: int) -> "EPoly":
        if not 0 <= j < nvars:
            raise VariableCountError(
                f"variable X{j + 1} out of range for {nvars} variables")
        mono = tuple(1 if k == j else 0 for k in range(nvars))
        return cls(nvars, {(mono, None): 1})

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
        return 0

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

    @property
    def sort_key(self) -> tuple:
        """Cached sort key of the value, as stated in the module docstring."""
        if self._key is None:
            self._key = tuple((_term_key(k), scalar_sort_key(c))
                              for k, c in reversed(self._terms))
        return self._key

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return EPoly.const(self.nvars, other)
        if isinstance(other, EPoly):
            return _checked(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EPoly(self.nvars, self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        return EPoly._canonical(self.nvars,
                                tuple((k, -c) for k, c in self._terms))

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EPoly(self.nvars, _product_terms(self._terms, other._terms))

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
        if _exp_argument(self) is None:
            return EPoly.const(self.nvars, 1)
        return EPoly._canonical(self.nvars,
                                ((((0,) * self.nvars, self), 1),))

    # -- layers, height, rank, complexity -----------------------------

    def height(self) -> int:
        if self._height is None:
            self._height = max((term_layer(k) for k, _ in self._terms),
                               default=0)
        return self._height

    def layer_component(self, i: int) -> "EPoly":
        """The sum of the terms of layer exactly i."""
        return EPoly._canonical(
            self.nvars,
            tuple((k, c) for k, c in self._terms if term_layer(k) == i))

    def layer_decompose(self) -> tuple["EPoly", ...]:
        """Per-layer components: part 0 in R_0 and part i in A_i for i >= 1;
        their sum is the value."""
        acc = [[] for _ in range(self.height() + 1)]
        for k, c in self._terms:
            acc[term_layer(k)].append((k, c))
        return tuple(EPoly._canonical(self.nvars, tuple(a)) for a in acc)

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
        return sorted(seen, key=lambda p: p.sort_key)

    def rank(self) -> int:
        if self.is_zero():
            return 0
        if self.height() == 0:
            return self.total_degree() + 1
        return len(self.top_exponent_parts())

    def complexity(self) -> OrdinalCNF:
        """The ordinal measure: sum over layers i of w^i * rank(component_i)."""
        out = OrdinalCNF()
        for i, part in enumerate(self.layer_decompose()):
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


def _exp_argument(p):
    """p as the exponent of E(p), None when p is zero; raises outside the
    exponential domain."""
    c = p.constant_term()
    if c != 0:
        raise PartialityError(
            f"E undefined: constant term {format_scalar(c)} "
            "outside the exponential domain {0}")
    return p or None


def _product_terms(a_terms, b_terms):
    """The unfolded terms of a product: monomials and exponents add."""
    for (ma, ea), ca in a_terms:
        for (mb, eb), cb in b_terms:
            yield (tuple(map(add, ma, mb)), _exp_add(ea, eb)), ca * cb


def _factor_terms(nvars: int, x) -> tuple:
    """The terms of a factor: an EPoly's own, a scalar's as a constant."""
    if isinstance(x, EPoly):
        return _checked(nvars, x)._terms
    return ((((0,) * nvars, None), x),) if x else ()


def _checked(nvars: int, p: EPoly) -> EPoly:
    if p.nvars != nvars:
        raise VariableCountError(
            f"variable counts differ: {nvars} vs {p.nvars}")
    return p


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
        lit = f"({format_scalar(coeff)})"
        return 1, "*".join([lit] + factors) if factors else lit
    sign = 1 if coeff > 0 else -1
    mag = abs(coeff)
    if not factors:
        return sign, format_scalar(mag)
    if mag == 1:
        return sign, "*".join(factors)
    return sign, "*".join([format_scalar(mag)] + factors)


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
    parts = p.layer_decompose()
    if parts[0]:
        raise PreconditionError(
            "ord_reduce requires a zero layer-0 component, got "
            f"{parts[0]}")
    lowest = next(part for part in parts if part)
    direction = lowest.top_exponent_parts()[0]
    q = -direction
    return q, q.exp() * p
