"""Sparse multivariate polynomials over an exact field, with Buchberger.

This is the machine room for ideal computations: ordinary polynomial rings
whose variables are the formal X's plus the u/v pairs encoding group
elements (and optionally one extra ordinary variable).  Coefficients are
exact scalars (Fraction or GaussianRational); the code only relies on field
operators.

The Buchberger implementation tracks cofactors: every basis element carries
its representation over the input generators, and division tracks quotients,
so any normal form can be expanded back into an exact combination of the
inputs.  Reduced bases are unique for a fixed monomial order, which the
determinism tests rely on.

Term dicts map monomials to nonzero coefficients.  Every sum, product and
division step folds its (monomial, coefficient) pairs through
`sparse.accumulate`, so equal monomials add up and cancelled terms vanish.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Budget
from .sparse import accumulate


class MonomialOrder:
    """Graded reverse-lexicographic order, optionally with an elimination
    block: monomials are compared on the block variables first, so any
    monomial meeting the block dominates every block-free monomial.
    """

    def __init__(self, nvars: int, block=()):
        self.nvars = nvars
        self.block = tuple(sorted(block))
        blocked = set(self.block)
        self.rest = tuple(i for i in range(nvars) if i not in blocked)

    def key(self, mono):
        if not self.block:
            return (sum(mono), tuple(-mono[i]
                                     for i in range(self.nvars - 1, -1, -1)))
        front = tuple(mono[i] for i in self.block)
        back = tuple(mono[i] for i in self.rest)
        return ((sum(front), tuple(-e for e in reversed(front))),
                (sum(back), tuple(-e for e in reversed(back))))

    def descriptor(self) -> str:
        if not self.block:
            return "grevlex"
        return f"grevlex eliminating {list(self.block)}"

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.nvars == other.nvars and self.block == other.block)

    def __hash__(self):
        return hash((self.nvars, self.block))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class PolyRing:
    def __init__(self, names, order: MonomialOrder | None = None):
        self.names = tuple(names)
        self.order = order or MonomialOrder(len(self.names))
        if self.order.nvars != len(self.names):
            raise ValueError("order arity mismatch")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c) -> "Poly":
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        mono = tuple(1 if k == i else 0 for k in range(self.nvars))
        return Poly(self, {mono: Fraction(1)})

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.names, order)

    def __repr__(self):
        return f"PolyRing({self.names}, {self.order.descriptor()})"


class Poly:
    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms):
        """Terms are a {mono: coeff} mapping or (mono, coeff) pairs;
        repeated monomials add up."""
        self.ring = ring
        self.terms = accumulate(terms)
        self._lead = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lead(self):
        """(monomial, coefficient) of the leading term."""
        if self._lead is None and self.terms:
            m = max(self.terms, key=self.ring.order.key)
            self._lead = (m, self.terms[m])
        return self._lead

    def __add__(self, other):
        return Poly(self.ring, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.ring,
                        {m: c * other for m, c in self.terms.items()})
        return Poly(self.ring, ((mono_mul(ma, mb), ca * cb)
                                for ma, ca in self.terms.items()
                                for mb, cb in other.terms.items()))

    __rmul__ = __mul__

    def mul_term(self, mono, coeff) -> "Poly":
        return Poly(self.ring, {mono_mul(m, mono): c * coeff
                                for m, c in self.terms.items()})

    def scale(self, coeff) -> "Poly":
        return self * coeff

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda mc: self.ring.order.key(mc[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = [f"{self.ring.names[i]}^{e}" if e > 1
                       else self.ring.names[i]
                       for i, e in enumerate(m) if e]
            body = "*".join(factors) if factors else "1"
            bits.append(f"{c}*{body}")
        return " + ".join(bits)

    __repr__ = __str__

    def uses_vars(self, indices) -> bool:
        return any(any(m[i] for i in indices) for m in self.terms)


def reduce_full(p: Poly, reducers, budget: Budget):
    """Multivariate division of p by the list of reducers.

    Returns (quotients, remainder) with p = sum q_i * reducers_i + remainder
    and no remainder term divisible by any leading monomial.  Reducer choice
    is by list position, so the outcome is deterministic.
    """
    ring = p.ring
    key = ring.order.key
    quotients = [ring.zero() for _ in reducers]
    remainder = {}
    work = dict(p.terms)
    leads = [r.lead() for r in reducers]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, red in enumerate(reducers):
            lm, lc = leads[i]
            if mono_divides(lm, m):
                budget.spend()
                qm = mono_div(m, lm)
                qc = c / lc
                quotients[i] = quotients[i] + Poly(ring, {qm: qc})
                accumulate(((mono_mul(rm, qm), -rc * qc)
                            for rm, rc in red.terms.items() if rm != lm),
                           into=work)
                break
        else:
            remainder[m] = c
    return quotients, Poly(ring, remainder)


class TrackedPoly:
    """A polynomial together with its representation over the input list."""

    __slots__ = ("poly", "rep")

    def __init__(self, poly: Poly, rep):
        self.poly = poly
        self.rep = list(rep)

    def combine(self, other: "TrackedPoly", mono_s, coeff_s, mono_o, coeff_o):
        poly = (self.poly.mul_term(mono_s, coeff_s)
                - other.poly.mul_term(mono_o, coeff_o))
        rep = [a.mul_term(mono_s, coeff_s) - b.mul_term(mono_o, coeff_o)
               for a, b in zip(self.rep, other.rep)]
        return TrackedPoly(poly, rep)


def _reduce_tracked(tp: TrackedPoly, basis, budget: Budget) -> TrackedPoly:
    quotients, remainder = reduce_full(tp.poly, [b.poly for b in basis],
                                       budget)
    rep = list(tp.rep)
    for q, b in zip(quotients, basis):
        if q.is_zero():
            continue
        for i, r in enumerate(b.rep):
            if not r.is_zero():
                rep[i] = rep[i] - q * r
    return TrackedPoly(remainder, rep)


class GroebnerBasis:
    """Reduced Groebner basis with exact cofactor matrices.

    elements[k] == sum_i reps[k][i] * input_gens[i] holds exactly; the
    normal-form routine returns quotients over the basis, from which
    cofactors over the inputs are assembled.  Each normal-form call gets a
    fresh step budget with the limit the basis was built under.
    """

    def __init__(self, ring, input_gens, elements, reps, budget: Budget):
        self.ring = ring
        self.order = ring.order
        self.input_gens = list(input_gens)
        self.elements = list(elements)
        self.reps = [list(r) for r in reps]
        self.budget_limit = budget.limit

    def normal_form(self, p: Poly):
        return reduce_full(p, self.elements, Budget(self.budget_limit))

    def cofactors(self, p: Poly):
        """None if p is not in the ideal, else exact cofactors over inputs."""
        quotients, remainder = self.normal_form(p)
        if not remainder.is_zero():
            return None
        total = [self.ring.zero() for _ in self.input_gens]
        for q, rep in zip(quotients, self.reps):
            if q.is_zero():
                continue
            for i, r in enumerate(rep):
                if not r.is_zero():
                    total[i] = total[i] + q * r
        return total


def buchberger(gens, ring: PolyRing, budget: Budget | None = None
               ) -> GroebnerBasis:
    """Reduced Groebner basis of <gens> with cofactor tracking."""
    budget = budget or Budget()
    key = ring.order.key
    tracked = []
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = [ring.zero() for _ in gens]
        rep[i] = ring.const(Fraction(1))
        tracked.append(TrackedPoly(g, rep))
    if not tracked:
        return GroebnerBasis(ring, gens, [], [], budget)

    basis = []
    for tp in tracked:
        reduced = _reduce_tracked(tp, basis, budget) if basis else tp
        if not reduced.poly.is_zero():
            basis.append(reduced)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        # Normal strategy: smallest lcm first; index tie-break for determinism.
        i, j = min(pairs, key=lambda ij: (key(mono_lcm(
            basis[ij[0]].poly.lead()[0], basis[ij[1]].poly.lead()[0])), ij))
        pairs.discard((i, j))
        fi, fj = basis[i], basis[j]
        mi, ci = fi.poly.lead()
        mj, cj = fj.poly.lead()
        lcm = mono_lcm(mi, mj)
        if mono_mul(mi, mj) == lcm:
            continue  # coprime leading monomials reduce to zero
        budget.spend()
        spair = fi.combine(fj, mono_div(lcm, mi), Fraction(1),
                           mono_div(lcm, mj), ci / cj)
        reduced = _reduce_tracked(spair, basis, budget)
        if reduced.poly.is_zero():
            continue
        basis.append(reduced)
        new = len(basis) - 1
        for k in range(new):
            pairs.add((new, k))

    return _interreduce(basis, ring, gens, budget)


def _interreduce(basis, ring, gens, budget: Budget) -> GroebnerBasis:
    from .scalars import scalar_inv
    key = ring.order.key
    # Minimalize: drop any element whose leading monomial is divisible by
    # the leading monomial of an earlier (smaller) survivor.
    basis = sorted(basis, key=lambda tp: key(tp.poly.lead()[0]))
    kept = []
    for tp in basis:
        lm = tp.poly.lead()[0]
        if not any(mono_divides(s.poly.lead()[0], lm) for s in kept):
            kept.append(tp)
    # Reduce every element's tail against the others until stable.
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            if not others:
                continue
            reduced = _reduce_tracked(kept[i], others, budget)
            if reduced.poly.terms != kept[i].poly.terms:
                changed = True
            kept[i] = reduced
        kept = [tp for tp in kept if not tp.poly.is_zero()]
    # Monic normalization and canonical element order.
    final = []
    for tp in kept:
        inv = scalar_inv(tp.poly.lead()[1])
        final.append(TrackedPoly(tp.poly.scale(inv),
                                 [r * inv for r in tp.rep]))
    final.sort(key=lambda tp: key(tp.poly.lead()[0]), reverse=True)
    return GroebnerBasis(ring, gens, [tp.poly for tp in final],
                         [tp.rep for tp in final], budget)


def spolynomial(f: Poly, g: Poly) -> Poly:
    mf, cf = f.lead()
    mg, cg = g.lead()
    lcm = mono_lcm(mf, mg)
    return (f.mul_term(mono_div(lcm, mf), Fraction(1))
            - g.mul_term(mono_div(lcm, mg), cf / cg))
