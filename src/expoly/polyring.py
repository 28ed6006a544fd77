"""Sparse multivariate polynomials over an exact field, with Buchberger.

This is the machine room for ideal computations: ordinary polynomial rings
whose variables are the formal X's plus the u/v pairs encoding group
elements.  Coefficients are exact scalars (`scalars`: int, Fraction or
GaussianRational).  The code adds, subtracts and multiplies them with the
field operators and divides them only through `scalar_div`, since `/` on
two ints would give a float.

Buchberger runs on bare polynomials and keeps a reduction trace, from
which cofactors over the inputs are lifted only when asked for, through
the elements a query's quotients use.  Reduced bases are unique for a fixed
monomial order, which the determinism tests rely on.

S-pairs wait in a heap and are taken smallest lcm first (the normal
strategy), ties broken by basis position.  When an element enters the
basis, the Gebauer-Moeller update (Gebauer and Moeller, J. Symbolic
Comput. 6, 1988) drops the pairs known to reduce to zero: old pairs by the
chain criterion B_k, new pairs by the criteria M and F, and pairs with
coprime leading monomials by the product criterion.  See `buchberger`.

Term dicts map monomials to nonzero coefficients.  Every sum, product and
division step folds its (monomial, coefficient) pairs through
`sparse.accumulate`, so equal monomials add up and cancelled terms vanish.

Monomials are tuples of exponents, and the monomial helpers work on them
with `map` over `operator` functions.  `MonomialOrder.key` is one flat
tuple of ints.  Division (`reduce_full`) takes the largest remaining term
from a heap of negated keys (Monagan and Pearce, CASC 2007).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

from .errors import Budget
from .scalars import as_scalar, scalar_div, scalar_inv
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
        self._front = self.block[::-1]
        self._back = self.rest[::-1]

    def key(self, mono):
        """One flat tuple of ints, larger for a larger monomial: the degree
        and then the negated exponents from the last variable down, and
        for an elimination order that block for the block variables
        followed by the one for the others.  Each block has a fixed length,
        so comparing flat keys compares the blocks in turn."""
        if not self.block:
            return (sum(mono), *map(neg, reversed(mono)))
        front = [mono[i] for i in self._front]
        back = [mono[i] for i in self._back]
        return (sum(front), *map(neg, front), sum(back), *map(neg, back))

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
    return tuple(map(add, a, b))


def mono_divides(a, b) -> bool:
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


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
        return Poly(self, {mono: 1})

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
                        {m: as_scalar(c * other)
                         for m, c in self.terms.items()})
        return Poly(self.ring, ((mono_mul(ma, mb), ca * cb)
                                for ma, ca in self.terms.items()
                                for mb, cb in other.terms.items()))

    __rmul__ = __mul__

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

    The work set is a dict of terms plus a heap of (negated order key,
    monomial) entries, so the largest remaining monomial is popped instead
    of searched for.  A monomial is pushed when it enters the dict; since
    monomials only fall, a popped monomial no longer in the dict (it
    cancelled) is skipped.
    """
    ring = p.ring
    key = ring.order.key
    quotients = [{} for _ in reducers]  # m only falls: no key repeats
    remainder = {}
    work = dict(p.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    leads = [r.lead() for r in reducers]
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, m):
                budget.spend()
                qm = mono_div(m, lm)
                qc = scalar_div(c, lc)
                quotients[i][qm] = qc
                qc_neg = -qc
                shifted = [(mono_mul(rm, qm), rc * qc_neg)
                           for rm, rc in reducers[i].terms.items() if rm != lm]
                for sm, _ in shifted:
                    if sm not in work:
                        heappush(heap, (tuple(map(neg, key(sm))), sm))
                accumulate(shifted, into=work)
                break
        else:
            remainder[m] = c
    return [Poly(ring, q) for q in quotients], Poly(ring, remainder)


def _traced(nodes, quotients):
    """The nonzero (node, quotient) pairs of a division by `nodes`."""
    return [(n, q) for n, q in zip(nodes, quotients) if q]


class GroebnerBasis:
    """Reduced Groebner basis with the reduction trace of each element.

    A trace node (origin, quotients, scale) stands for scale * (origin -
    sum of q * node over its nonzero (node, q) quotients); origin is an
    input index or (node, monomial, coefficient) terms.  The representation
    elements[k] == sum_i reps[k][i] * input_gens[i] is lifted on demand and
    memoized, and `cofactors` lifts only the elements its quotients use.
    Normal forms spend from the step budget the basis was built with.
    """

    def __init__(self, ring, input_gens, elements, nodes, budget: Budget):
        self.ring = ring
        self.input_gens = list(input_gens)
        self.elements = list(elements)
        self._nodes = list(nodes)
        self._reps = {}  # id(node) -> {input index: nonzero term dict}
        self._budget = budget

    def _combine(self, parts, acc):
        """Fold terms * rep(node) over (node, terms) parts into acc, a
        {input index: term dict}, and return its nonzero entries."""
        for node, terms in parts:
            for i, r in self._reps[id(node)].items():
                accumulate(((mono_mul(m, tm), c * tc)
                            for m, c in r.items() for tm, tc in terms),
                           into=acc.setdefault(i, {}))
        return {i: t for i, t in acc.items() if t}

    def _lift(self, nodes):
        """Memoize the representation of `nodes` and of every node they
        depend on, children first, on an explicit stack (no recursion)."""
        stack = list(nodes)
        while stack:
            node = stack[-1]
            if id(node) in self._reps:
                stack.pop()
                continue
            origin, quotients, s = node
            leaf = isinstance(origin, int)
            parts = [] if leaf else [(n, ((m, c * s),)) for n, m, c in origin]
            parts += [(n, [(m, -c * s) for m, c in q.terms.items()])
                      for n, q in quotients]
            pending = [n for n, _ in parts if id(n) not in self._reps]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            self._reps[id(node)] = self._combine(
                parts, {origin: {(0,) * self.ring.nvars: s}} if leaf else {})

    def _dense(self, rep):
        return [Poly(self.ring, rep.get(i, ()))
                for i in range(len(self.input_gens))]

    @property
    def reps(self):
        self._lift(self._nodes)
        return [self._dense(self._reps[id(n)]) for n in self._nodes]

    def normal_form(self, p: Poly):
        return reduce_full(p, self.elements, self._budget)

    def cofactors(self, p: Poly):
        """None if p is not in the ideal, else exact cofactors over inputs."""
        quotients, remainder = self.normal_form(p)
        if not remainder.is_zero():
            return None
        used = [(n, q.terms.items())
                for n, q in _traced(self._nodes, quotients)]
        self._lift([n for n, _ in used])
        return self._dense(self._combine(used, {}))


def buchberger(gens, ring: PolyRing, budget: Budget | None = None
               ) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>, with a reduction trace.

    Each nonzero input, reduced against the inputs before it, enters the
    basis; then S-pairs are reduced, smallest lcm first, and every nonzero
    remainder enters too, recording a trace node of how it arose.  An
    S-polynomial is built as one Poly from the two shifted term lists.
    Pairs wait in a heap keyed by (order key of lcm, i, j), where i > j are
    basis positions.  When an element h enters, the Gebauer-Moeller update
    prunes the pairs:

    - B_k: an old pair (i, j) is dropped if lm(h) divides its lcm and
      lcm(i, h), lcm(j, h) both differ from it;
    - M: a new pair (h, k) is dropped if the lcm of another new pair
      properly divides its lcm;
    - F: one new pair is kept per lcm, the one with the smallest k;
    - product criterion: no pair with coprime leading monomials is kept,
      and if one pair of an lcm is coprime, all pairs of that lcm go.

    Dropped pairs are skipped when they reach the top of the heap.
    """
    budget = budget or Budget()
    key = ring.order.key
    basis, nodes, leads = [], [], []
    heap = []   # (order key of lcm, i, j)
    live = {}   # (i, j) -> lcm, for the pairs not dropped yet

    def reduce_and_enter(poly, origin):
        quotients = ()
        if basis:
            qs, poly = reduce_full(poly, basis, budget)
            quotients = _traced(nodes, qs)
        if poly.is_zero():
            return
        h, mh = len(basis), poly.lead()[0]
        for (i, j), lcm in list(live.items()):  # B_k
            if (mono_divides(mh, lcm) and mono_lcm(leads[i], mh) != lcm
                    and mono_lcm(leads[j], mh) != lcm):
                del live[i, j]
        by_lcm = {}
        for k, mk in enumerate(leads):
            by_lcm.setdefault(mono_lcm(mh, mk), []).append(k)
        for lcm, ks in by_lcm.items():
            if any(other != lcm and mono_divides(other, lcm)
                   for other in by_lcm):
                continue  # M
            if any(mono_mul(mh, leads[k]) == lcm for k in ks):
                continue  # F with the product criterion
            live[h, ks[0]] = lcm
            heappush(heap, (key(lcm), h, ks[0]))
        basis.append(poly)
        nodes.append((origin, quotients, 1))
        leads.append(mh)

    for i, g in enumerate(gens):
        if not g.is_zero():
            reduce_and_enter(g, i)

    while heap:
        _, i, j = heappop(heap)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        fi, fj = basis[i], basis[j]
        mi, mj = mono_div(lcm, leads[i]), mono_div(lcm, leads[j])
        c = scalar_div(fi.lead()[1], fj.lead()[1])
        budget.spend()
        reduce_and_enter(_spoly(fi, mi, fj, mj, c),
                         ((nodes[i], mi, 1), (nodes[j], mj, -c)))

    return _interreduce(list(zip(basis, nodes)), ring, gens, budget)


def _interreduce(basis, ring, gens, budget: Budget) -> GroebnerBasis:
    key = ring.order.key
    unit = (0,) * ring.nvars
    # Minimalize: drop any element whose leading monomial is divisible by
    # the leading monomial of an earlier (smaller) survivor.
    basis.sort(key=lambda pn: key(pn[0].lead()[0]))
    kept = []
    for poly, node in basis:
        lm = poly.lead()[0]
        if not any(mono_divides(s.lead()[0], lm) for s, _ in kept):
            kept.append((poly, node))
    # Reduce every element's tail against the others, then make it monic.
    # No leading monomial divides another and reduction never changes one,
    # so a single pass leaves every tail reduced and no element zero.  A
    # reducer already made monic only rescales its quotient.
    final = []
    for i, (poly, node) in enumerate(kept):
        others = final + kept[i + 1:]
        quotients = ()
        if others:
            qs, poly = reduce_full(poly, [p for p, _ in others], budget)
            quotients = _traced([n for _, n in others], qs)
        inv = scalar_inv(poly.lead()[1])
        if quotients or inv != 1:
            poly, node = poly * inv, (((node, unit, 1),),
                                      quotients, inv)
        final.append((poly, node))
    final.sort(key=lambda pn: key(pn[0].lead()[0]), reverse=True)
    return GroebnerBasis(ring, gens, [p for p, _ in final],
                         [n for _, n in final], budget)


def _spoly(f: Poly, mf, g: Poly, mg, c) -> Poly:
    """f * mf - c * g * mg, built as one Poly from both shifted term lists
    (mf, mg are monomials)."""
    c_neg = -c
    return Poly(f.ring, [*((mono_mul(m, mf), a) for m, a in f.terms.items()),
                         *((mono_mul(m, mg), a * c_neg)
                           for m, a in g.terms.items())])


def spolynomial(f: Poly, g: Poly) -> Poly:
    mf, cf = f.lead()
    mg, cg = g.lead()
    lcm = mono_lcm(mf, mg)
    return _spoly(f, mono_div(lcm, mf), g, mono_div(lcm, mg),
                  scalar_div(cf, cg))
