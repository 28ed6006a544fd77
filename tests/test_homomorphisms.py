"""Property tests for the ring maps: the Laurent encoding and the
exponential.  They sit next to the seeded sampling in `test_ideals.py` and
`test_epoly.py`, not in place of it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expoly import EPoly, gaussian, present  # noqa: E402

NVARS = 2
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
scalars = st.one_of(rationals, st.builds(gaussian, rationals, rationals))
monos = st.tuples(*[st.integers(0, 2)] * NVARS)


def _values(exponents, max_size=3):
    pairs = st.lists(st.tuples(st.tuples(monos, exponents), scalars),
                     max_size=max_size)
    return pairs.map(lambda pairs: EPoly(NVARS, pairs))


def _zero_constant(values):
    return values.map(lambda p: p - p.constant_term())


# Values of height up to 2 whose exponents carry Q(i) coefficients and
# nest one level deep.
_exp1 = _zero_constant(_values(st.none(), max_size=2)).map(
    lambda p: p or None)
_exp2 = _zero_constant(_values(st.one_of(st.none(), _exp1),
                               max_size=2)).map(lambda p: p or None)
epolys = _values(st.one_of(st.none(), _exp1, _exp2))


@PROPERTY
@given(epolys)
def test_laurent_round_trip(p):
    pres = present([p])
    assert pres.decode(pres.encode(p)) == p


@PROPERTY
@given(epolys, epolys)
def test_decode_is_a_ring_homomorphism(a, b):
    pres = present([a, b])
    ea, eb = pres.encode(a), pres.encode(b)
    assert pres.decode(ea * eb) == a * b
    assert pres.decode(ea + eb) == a + b


@PROPERTY
@given(_zero_constant(epolys), _zero_constant(epolys))
def test_exp_is_a_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()
    assert (-a).exp() * a.exp() == 1
