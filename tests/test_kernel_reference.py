"""Differential tests of the packed-monomial Groebner kernel.

`polyring` packs each monomial into one int (see its module docstring).
The code below is the earlier kernel on exponent tuples, kept verbatim as
the reference: `MonomialOrder` with its flat tuple key and `neg_key`, the
`mono_*` helpers, `PolyRing`, `Poly`, `reduce_full`, `GroebnerBasis`,
`buchberger`, `_interreduce` and `_spoly`.  On random grevlex and
elimination-order rings of 1 to 6 variables, with exponents up to 10^12,
the packed kernel must give the same remainders, quotients, reduced bases,
lifted cofactors and budget steps, term for term and in the same order,
once its monomials are unpacked.
"""

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import polyring  # noqa: E402
from expoly.errors import Budget, BudgetExceededError  # noqa: E402
from expoly.scalars import (as_scalar, gaussian, scalar_div,  # noqa: E402
                            scalar_inv)
from expoly.sparse import accumulate  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
# Steps one case may spend; both kernels must stop at the same step.
LIMIT = 150


# -- reference kernel -----------------------------------------------------

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

    def neg_key(self, mono):
        """The key with every entry negated, built directly: the heap of
        `reduce_full` pops the largest monomial first."""
        if not self.block:
            return (-sum(mono), *reversed(mono))
        front = [mono[i] for i in self._front]
        back = [mono[i] for i in self._back]
        return (-sum(front), *front, -sum(back), *back)


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


class Poly:
    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms):
        """Terms are a {mono: coeff} mapping or (mono, coeff) pairs;
        repeated monomials add up."""
        self.ring = ring
        self.terms = accumulate(terms)
        self._lead = None

    @classmethod
    def _folded(cls, ring: PolyRing, terms: dict) -> "Poly":
        """Wrap a term dict that is already folded: distinct monomials and
        no zero coefficient.  Nothing is checked."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._lead = None
        return self

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
    cancelled) is skipped.  Each quotient and the remainder get every
    monomial at most once and only nonzero coefficients, so they are
    wrapped as they are.
    """
    ring = p.ring
    neg_key = ring.order.neg_key
    quotients = [{} for _ in reducers]  # m only falls: no key repeats
    remainder = {}
    work = dict(p.terms)
    heap = [(neg_key(m), m) for m in work]
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
                        heappush(heap, (neg_key(sm), sm))
                accumulate(shifted, into=work)
                break
        else:
            remainder[m] = c
    return ([Poly._folded(ring, q) for q in quotients],
            Poly._folded(ring, remainder))


def _traced(nodes, quotients):
    """The nonzero (node, quotient) pairs of a division by `nodes`."""
    return [(n, q) for n, q in zip(nodes, quotients) if q]


class GroebnerBasis:
    """Reduced Groebner basis with the reduction trace of each element.

    A trace node (origin, quotients, scale) stands for scale * (origin -
    sum of q * node over its nonzero (node, q) quotients); origin is an
    input index or (node, monomial, coefficient) terms.  Inputs are the
    generators `input_gens` followed by the relations.  The representation
    elements[k] == sum_i reps[k][i] * input_gens[i], modulo the relations,
    is lifted on demand and memoized over the generators only: a relation
    input lifts to zero.  `cofactors` lifts only the elements its quotients
    use.  Normal forms spend from the step budget the basis was built with.
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
            generator = leaf and origin < len(self.input_gens)
            self._reps[id(node)] = self._combine(
                parts, {origin: {(0,) * self.ring.nvars: s}} if generator
                else {})

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
        """None if p is not in the ideal, else cofactors over the
        generators, exact modulo the relations."""
        quotients, remainder = self.normal_form(p)
        if not remainder.is_zero():
            return None
        used = [(n, q.terms.items())
                for n, q in _traced(self._nodes, quotients)]
        self._lift([n for n, _ in used])
        return self._dense(self._combine(used, {}))


def buchberger(gens, ring: PolyRing, budget: Budget | None = None,
               relations=()) -> GroebnerBasis:
    """Reduced Groebner basis of <gens, relations>, with a reduction trace.

    The inputs are the generators followed by the relations, and cofactors
    are lifted over the generators alone (see `GroebnerBasis`).  Each
    nonzero input, reduced against the inputs before it, enters the
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

    for i, g in enumerate([*gens, *relations]):
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
    # reducer already made monic only rescales its quotient.  A tail that
    # no other leading monomial divides is already reduced: it is skipped.
    final = []
    for i, (poly, node) in enumerate(kept):
        others = final + kept[i + 1:]
        leads = [p.lead()[0] for p, _ in others]
        quotients = ()
        if any(mono_divides(lead, m) for m in poly.terms for lead in leads):
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


# -- strategies -----------------------------------------------------------

BIG = 10 ** 12
# Small exponents make leading monomials divide one another; exponents
# near 10^12 make the same divisions at a scale far past a machine word.
EXPONENTS = st.one_of(st.integers(0, 2), st.integers(BIG - 2, BIG))
SCALARS = st.one_of(st.integers(-3, 3), st.builds(
    gaussian, st.integers(-2, 2), st.integers(-2, 2))).filter(bool)


@st.composite
def problems(draw):
    """(packed ring, reference ring, generators, queries) as exponent-tuple
    term dicts: a grevlex or elimination order on 1 to 6 variables, up to
    three generators of up to two terms, and queries that are random or
    multiples of the generators."""
    n = draw(st.integers(1, 6))
    block = draw(st.sets(st.integers(0, n - 1)))
    names = [f"x{i}" for i in range(n)]
    ring = polyring.PolyRing(names, polyring.MonomialOrder(n, block))
    ref_ring = PolyRing(names, MonomialOrder(n, block))
    monos = st.tuples(*[EXPONENTS] * n)
    polys = st.dictionaries(monos, SCALARS, min_size=1, max_size=3)
    binomials = st.dictionaries(monos, SCALARS, min_size=1, max_size=2)
    gens = draw(st.lists(binomials, min_size=1, max_size=3))
    queries = draw(st.lists(polys, max_size=2))
    for i, multiplier in draw(st.lists(st.tuples(
            st.integers(0, len(gens) - 1), polys), max_size=2)):
        product = Poly(ref_ring, gens[i]) * Poly(ref_ring, multiplier)
        queries.append(product.terms)
    return ring, ref_ring, gens, queries


def packed(ring, terms: dict):
    return polyring.Poly(ring, {ring.pack(m): c for m, c in terms.items()})


def unpacked(p) -> list:
    """The terms of a packed polynomial, in dict order, with tuple
    monomials."""
    return [(p.ring.unpack(m), c) for m, c in p.terms.items()]


def outcome(run, budget):
    """run()'s result, or None if it ran out of steps, and the steps."""
    try:
        return run(), budget.used
    except BudgetExceededError:
        return None, budget.used


# -- properties -----------------------------------------------------------

@PROPERTY
@given(problems())
def test_division_matches_the_tuple_kernel(problem):
    ring, ref_ring, gens, queries = problem
    reducers = [packed(ring, g) for g in gens]
    ref_reducers = [Poly(ref_ring, g) for g in gens]
    for q in queries:
        budget, ref_budget = Budget(LIMIT), Budget(LIMIT)
        got, used = outcome(lambda: polyring.reduce_full(
            packed(ring, q), reducers, budget), budget)
        want, ref_used = outcome(lambda: reduce_full(
            Poly(ref_ring, q), ref_reducers, ref_budget), ref_budget)
        assert used == ref_used
        assert (got is None) == (want is None)
        if got is not None:
            (quotients, rem), (ref_quotients, ref_rem) = got, want
            assert [unpacked(x) for x in quotients] == [
                list(x.terms.items()) for x in ref_quotients]
            assert unpacked(rem) == list(ref_rem.terms.items())


@PROPERTY
@given(problems())
def test_bases_and_cofactors_match_the_tuple_kernel(problem):
    ring, ref_ring, gens, queries = problem
    budget, ref_budget = Budget(LIMIT), Budget(LIMIT)
    gb, used = outcome(lambda: polyring.buchberger(
        [packed(ring, g) for g in gens], ring, budget), budget)
    ref_gb, ref_used = outcome(lambda: buchberger(
        [Poly(ref_ring, g) for g in gens], ref_ring, ref_budget), ref_budget)
    assert used == ref_used
    assert (gb is None) == (ref_gb is None)
    if gb is None:
        return
    assert [unpacked(e) for e in gb.elements] == [
        list(e.terms.items()) for e in ref_gb.elements]
    assert [[unpacked(r) for r in rep] for rep in gb.reps] == [
        [list(r.terms.items()) for r in rep] for rep in ref_gb.reps]
    for q in queries:
        cof, used = outcome(lambda: gb.cofactors(packed(ring, q)), budget)
        ref_cof, ref_used = outcome(
            lambda: ref_gb.cofactors(Poly(ref_ring, q)), ref_budget)
        assert used == ref_used
        if cof is None or ref_cof is None:
            assert cof is ref_cof
        else:
            assert [unpacked(c) for c in cof] == [
                list(c.terms.items()) for c in ref_cof]
