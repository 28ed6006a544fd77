"""Differential tests of tower rewriting and recursive membership.

The functions below are the earlier definitions, kept verbatim as the
reference: `TrackedDecomposition.split` building both span elements even
when the query meets no tracked coordinate, `in_span`, `rewrite` rebuilding
every carrier and multiplying by E(-fhat_lower) even when it is 1, and
`TowerIdeal.membership` testing every complement part with `in_span` and
rebuilding the image, and the augmentation that erased each exponent's
top-layer component term by term.  The only edits are that the methods
became functions of their former `self`, that the functions call one
another by their `ref_` names, and that the coordinates of a value p, once
`_epoly_coords(p)`, are spelled `_coords(p.terms)`.  The current code must
give the same verdicts, the same rewrite term lists and the same tracked
seeds after every query, and the same augmentation images and errors.
"""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from expoly import EPoly, IdealHandle, TowerIdeal  # noqa: E402
from expoly import tower as tower_module  # noqa: E402
from expoly.epoly import term_layer  # noqa: E402
from expoly.errors import InternalError, PreconditionError  # noqa: E402
from expoly.ideals import _coords, _coords_epoly  # noqa: E402
from expoly.tower import (RewriteTerm, TrackedDecomposition,  # noqa: E402
                          augmentation, rewrite)

from helpers import random_epoly  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference tower path ---------------------------------------------------

def ref_split(self, a: EPoly):
    """Decompose a pure layer-n exponent a = a0 + a1 with a0 in the
    tracked projection span; returns (a1, fhat, fhat_lower) where fhat
    is the unique tracked-span ideal element with projection a0."""
    residual, coeffs = self._echelon.reduce(_coords(a.terms))
    a1 = _coords_epoly(residual, self.nvars)
    scaled = [(self.seeds[idx], lam) for idx, lam in coeffs.items()]
    fhat = EPoly(self.nvars, ((k, c * lam) for seed, lam in scaled
                              for k, c in seed.element.terms))
    fhat_lower = EPoly(self.nvars, ((k, c * lam) for seed, lam in scaled
                                    for k, c in seed.lower.terms))
    return a1, fhat, fhat_lower


def ref_in_span(self, a: EPoly) -> bool:
    residual, _ = self._echelon.row_coords(_coords(a.terms))
    return not residual


def ref_rewrite(u: EPoly, dec: TrackedDecomposition) -> list[RewriteTerm]:
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
                rest = EPoly._canonical(
                    u.nvars, tuple((k, c) for k, c in exponent.terms
                                   if term_layer(k) != n)) or None
        groups.setdefault(key, []).append(((mono, rest), coeff))

    out = []
    zero = EPoly.zero(u.nvars)
    for key in sorted((k for k in groups if k is not None),
                      key=lambda k: k.sort_key):
        carrier = EPoly(u.nvars, groups[key])
        if carrier.is_zero():
            continue
        a1, fhat, fhat_lower = ref_split(dec, key)
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


def ref_membership(self, p: EPoly, level: int | None = None) -> bool:
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
        terms = ref_rewrite(p, dec)
        refreshed = False
        for term in terms:
            a1 = term.complement_part
            if a1.is_zero() or ref_in_span(dec, a1):
                continue
            # Lazy slice refresh: a complement direction that is itself
            # an ideal element belongs in the tracked span.
            if ref_membership(self, a1, level - 1):
                reason = dec.try_add(a1)
                refreshed = reason is None
                if refreshed:
                    break
        if not refreshed:
            break
    image = EPoly(p.nvars, (pair for term in terms
                            for pair in term.coefficient.terms))
    return ref_membership(self, image, level - 1)


def ref_augmentation(u: EPoly, layer: int) -> EPoly:
    """The coefficient-sum map on the layer's group part.

    Every group element t^a with a in the top layer collapses to 1: in flat
    form the layer-(layer-1) component of each exponent is erased.  Requires
    u in R_layer and layer >= 1.
    """
    if layer < 1:
        raise PreconditionError("augmentation needs a group layer >= 1")
    if u.height() > layer:
        raise PreconditionError(
            f"augmentation at layer {layer} needs input in R_{layer}, "
            f"got height {u.height()}")
    pairs = []
    for (mono, exponent), coeff in u.terms:
        if exponent is not None:
            component = exponent.layer_component(layer - 1)
            if component:
                exponent = ref_nonzero_or_none(exponent - component)
        pairs.append(((mono, exponent), coeff))
    return EPoly(u.nvars, pairs)


def ref_nonzero_or_none(p: EPoly):
    return None if p.is_zero() else p


# -- strategies -------------------------------------------------------------

def _rationals():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def values(draw, nvars, height, max_terms=3):
    """A value of height at most `height` with small monomials."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        mono = draw(st.tuples(*[st.integers(0, 2)] * nvars))
        exponent = None
        if height > 0 and draw(st.booleans()):
            inner = draw(values(nvars, draw(st.integers(0, height - 1)), 2))
            exponent = (inner - inner.constant_term()) or None
        terms.append(((mono, exponent), draw(_rationals())))
    return EPoly(nvars, terms)


def zero_const(nvars, height, max_terms=3):
    return values(nvars, height, max_terms).map(
        lambda p: p - p.constant_term()).filter(bool)


@st.composite
def layer_one_generators(draw, nvars):
    """A zero-constant value with a nonzero layer-1 part and, often, a
    layer-0 part: tracked at the base, its lower part is nonzero."""
    top = draw(values(nvars, 1, 2)).layer_component(1)
    assume(top)
    low = draw(values(nvars, 0, 2))
    return top + low - low.constant_term()


@st.composite
def towers(draw):
    """Base generators in 1 or 2 variables, of layer 0 or 1, and a query
    stream: random values, E(g) - 1 for generators g, multiples of
    generators and E(f) - 1 for random zero-constant f."""
    nvars = draw(st.integers(1, 2))
    gens = draw(st.lists(zero_const(nvars, 0, 2)
                         | layer_one_generators(nvars),
                         min_size=1, max_size=2))
    levels = draw(st.integers(1, 3))
    base = max(g.height() for g in gens)
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        level = draw(st.integers(base, base + levels))
        kind = draw(st.sampled_from(("random", "exp", "multiple", "orbit")))
        if kind == "exp":
            q = draw(st.sampled_from(gens)).exp() - 1
            level = draw(st.integers(q.height(), base + levels))
        elif kind == "multiple":
            g = draw(st.sampled_from(gens))
            q = g * draw(values(nvars, max(level - g.height(), 0), 2))
        elif kind == "orbit" and level > 0:
            f = draw(zero_const(nvars, level - 1, 2))
            q = f.exp() - 1
        else:
            q = draw(values(nvars, level))
        if q.height() <= level:
            queries.append((q, level))
    return gens, levels, queries


def _build(gens, levels):
    tower = TowerIdeal(IdealHandle(gens))
    try:
        tower.extend(levels)
    except PreconditionError:
        return None  # exp-compatibility fails at the base
    return tower


def _seeds(tower):
    return [list(dec.seeds) for dec in tower.decomps]


# -- properties -------------------------------------------------------------

@PROPERTY
@given(towers())
def test_tower_queries_match_reference(case):
    gens, levels, queries = case
    tower, ref = _build(gens, levels), _build(gens, levels)
    assume(tower is not None)
    assert _seeds(tower) == _seeds(ref)
    for q, level in queries:
        for layer in range(max(tower.base_layer, q.height() - 1),
                           tower.top_level):
            terms = rewrite(q, tower.decomposition(layer))
            ref_terms = ref_rewrite(q, ref.decomposition(layer))
            assert terms == ref_terms
        assert tower.membership(q, level) == ref_membership(ref, q, level)
        assert _seeds(tower) == _seeds(ref)
    assert (tower.base.presentation().describe()
            == ref.base.presentation().describe())


@PROPERTY
@given(towers(), st.randoms(use_true_random=False))
def test_memos_change_no_verdict(case, rng):
    """Queries asked again and in shuffled order get the verdicts and
    leave the tracked seeds that a tower with no memo gives."""
    gens, levels, queries = case
    tower = _build(gens, levels)
    assume(tower is not None)
    with mock.patch.object(tower_module, "_MEMO_LIMIT", 0):
        plain = _build(gens, levels)
    stream = queries + rng.sample(queries, len(queries)) + queries
    verdicts = [tower.membership(q, level) for q, level in stream]
    with mock.patch.object(tower_module, "_MEMO_LIMIT", 0):
        assert verdicts == [plain.membership(q, level) for q, level in stream]
    assert not plain._verdicts and not any(d._splits for d in plain.decomps)
    assert _seeds(tower) == _seeds(plain)


@st.composite
def splits(draw):
    """A decomposition at layer 0 or 1 with random tracked seeds, and a
    pure layer-n exponent: part tracked combination, part random."""
    nvars = draw(st.integers(1, 2))
    layer = draw(st.integers(0, 1))
    dec = TrackedDecomposition(layer, nvars)
    for f in draw(st.lists(zero_const(nvars, layer, 3), max_size=3)):
        dec.try_add(f)
    a = draw(values(nvars, layer)).layer_component(layer)
    for seed in dec.seeds:
        a = a + seed.element.layer_component(layer) * draw(_rationals())
    assume(a)
    return dec, a


@PROPERTY
@given(splits())
def test_split_matches_reference_and_leaves_no_span_part(case):
    dec, a = case
    a1, fhat, fhat_lower = ref_split(dec, a)
    assert dec.split(a) == (a1, fhat_lower)
    assert fhat.layer_component(dec.layer) + a1 == a
    assert fhat - fhat.layer_component(dec.layer) == fhat_lower
    if a1:
        # A nonzero complement part has no tracked-span component left:
        # row_coords returns it unchanged, so it is never in the span.
        coords = _coords(a1.terms)
        residual, row_coeffs = dec._echelon.row_coords(coords)
        assert residual == coords and not any(row_coeffs)
        assert not ref_in_span(dec, a1)


@st.composite
def augmentation_cases(draw):
    """A value with Gaussian coefficients and height up to 3, and a layer
    from -1 to 4: in range, below 1, or below the value's height."""
    rng = draw(st.randoms(use_true_random=False))
    u = random_epoly(rng, draw(st.integers(1, 2)),
                     height=draw(st.integers(0, 3)), gaussian_ok=True)
    return u, draw(st.integers(-1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(augmentation_cases())
def test_augmentation_matches_reference(case):
    u, layer = case
    try:
        expected = ref_augmentation(u, layer)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as info:
            augmentation(u, layer)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    image = augmentation(u, layer)
    assert image == expected and str(image) == str(expected)
