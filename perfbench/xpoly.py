"""Benchmark-local exponential polynomials, independent of `expoly`.

The benchmark builds its inputs and checks the library's answers with this
module, so no verdict is checked by the code that produced it.  A value in
n variables is a dict {(mono, exponent): coeff}: `mono` is a tuple of n
exponents, `exponent` is None or the frozen form of another value (its
argument under E), and `coeff` is an exact Gaussian rational stored as a
pair (re, im) of Fractions.  Values never hold zero coefficients, so two
values are equal exactly when their dicts are equal.

`parse` reads the term language the library prints and parses; `fmt`
writes it.  `SympyLattice` encodes values of height at most 1 over a fixed
coordinate lattice u = E(X^m / D), one pair of sympy variables per
exponent coordinate, for the sympy Groebner oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def c_add(a, b):
    if not (a[1] or b[1]):
        return (a[0] + b[0], a[1])
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    if not (a[1] or b[1]):
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scalar(re, im=0):
    return (Fraction(re), Fraction(im))


# -- values ---------------------------------------------------------------

def const(n, c):
    c = c if isinstance(c, tuple) else scalar(c)
    return {} if c == ZERO else {((0,) * n, None): c}


def var(n, j):
    mono = tuple(1 if k == j else 0 for k in range(n))
    return {(mono, None): ONE}


def _accumulate(acc, key, c):
    s = c_add(acc.get(key, ZERO), c)
    if s == ZERO:
        acc.pop(key, None)
    else:
        acc[key] = s


def add(a, b):
    out = dict(a)
    for k, c in b.items():
        _accumulate(out, k, c)
    return out


def scale(a, c):
    c = c if isinstance(c, tuple) else scalar(c)
    if c == ZERO:
        return {}
    return {k: c_mul(v, c) for k, v in a.items()}


def sub(a, b):
    return add(a, scale(b, -1))


def _exp_add(ea, eb):
    if ea is None:
        return eb
    if eb is None:
        return ea
    s = add(dict(ea), dict(eb))
    return frozenset(s.items()) if s else None


def mul(a, b):
    out = {}
    for (ma, ea), ca in a.items():
        for (mb, eb), cb in b.items():
            key = (tuple(x + y for x, y in zip(ma, mb)), _exp_add(ea, eb))
            _accumulate(out, key, c_mul(ca, cb))
    return out


def power(a, k, n):
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def constant_term(a, n):
    return a.get(((0,) * n, None), ZERO)


def exp(a, n):
    """E(a); the argument must have zero constant term."""
    if constant_term(a, n) != ZERO:
        raise ValueError("E needs a zero constant term")
    if not a:
        return const(n, 1)
    return {((0,) * n, frozenset(a.items())): ONE}


def height(a):
    return max((0 if e is None else 1 + height(dict(e)) for (_, e) in a),
               default=0)


def exponents(a):
    """Every exponent argument occurring at the top of a (as dicts)."""
    return [dict(e) for (_, e) in a if e is not None]


# -- text -----------------------------------------------------------------

def _fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _sort_key(item):
    return repr(item)


def fmt(a) -> str:
    """Text in the term language (any term order; the parser reduces)."""
    if not a:
        return "0"
    out = []
    for (mono, e), (re, im) in sorted(a.items(), key=_sort_key):
        factors = []
        for j, k in enumerate(mono):
            if k:
                factors.append(f"X{j + 1}" if k == 1 else f"X{j + 1}^{k}")
        if e is not None:
            factors.append(f"E({fmt(dict(e))})")
        if im:
            lit = f"(({_fmt_rat(re)})+({_fmt_rat(im)})i)"
            out.append(("+", "*".join([lit] + factors)))
            continue
        sign = "-" if re < 0 else "+"
        mag = abs(re)
        if factors and mag == 1:
            out.append((sign, "*".join(factors)))
        else:
            out.append((sign, "*".join([_fmt_rat(mag)] + factors)))
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


class _Parser:
    def __init__(self, text, n):
        self.s = text.replace(" ", "")
        self.i = 0
        self.n = n

    def peek(self):
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ValueError(f"expected {ch!r} at {self.i} in {self.s!r}")
        self.i += 1

    def number(self):
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i:
            raise ValueError(f"expected digits at {j} in {self.s!r}")
        return int(self.s[j:self.i])

    def rational(self):
        sign = 1
        if self.peek() == "-":
            self.i += 1
            sign = -1
        num = self.number()
        if self.peek() == "/":
            self.i += 1
            return Fraction(sign * num, self.number())
        return Fraction(sign * num)

    def gaussian(self):
        self.take("(")
        if self.peek() == "(":  # outer wrapping parens: "((a)+(b)i)"
            value = self.gaussian()
            self.take(")")
            return value
        re = self.rational()
        self.take(")")
        sign = 1 if self.peek() == "+" else -1
        self.i += 1
        self.take("(")
        im = self.rational()
        self.take(")")
        self.take("i")
        return (re, sign * im)

    def value(self):
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.i += 1
        out = scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.i += 1
            out = add(out, scale(self.term(), sign))
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.i += 1
            out = mul(out, self.factor())
        return out

    def factor(self):
        ch = self.peek()
        if ch == "X":
            self.i += 1
            j = self.number()
            base = var(self.n, j - 1)
            if self.peek() == "^":
                self.i += 1
                return power(base, self.number(), self.n)
            return base
        if ch == "E":
            self.i += 1
            self.take("(")
            arg = self.value()
            self.take(")")
            return exp(arg, self.n)
        if ch.isdigit():
            return const(self.n, self.rational())
        if ch == "i":
            self.i += 1
            return const(self.n, scalar(0, 1))
        if ch == "(":
            return const(self.n, self.gaussian())
        raise ValueError(f"unexpected {ch!r} at {self.i} in {self.s!r}")


def parse(text: str, n: int):
    p = _Parser(text, n)
    out = p.value()
    if p.i != len(p.s):
        raise ValueError(f"trailing input in {text!r}")
    return out


# -- sympy encoding over a fixed lattice -----------------------------------

class SympyLattice:
    """Fixed Laurent encoding of height-<=1 values for sympy.

    Every exponent of layer 0 is a polynomial in X; its Q-coordinates are
    (monomial, re/im part).  Coordinate c gets the unit u_c = E(basis_c/D_c)
    with D_c the least common denominator of that coordinate over every
    value passed at construction, so all of them encode exactly.  This
    lattice contains whatever lattice the library chooses, and Laurent
    extension is faithfully flat, so membership verdicts agree.
    """

    def __init__(self, values, n):
        import sympy
        self.n = n
        denoms = {}
        gaussian = False
        for v in values:
            for (_, e), c in v.items():
                gaussian = gaussian or c[1] != 0
                for coord, x in self._coords(e).items():
                    denoms[coord] = lcm(denoms.get(coord, 1), x.denominator)
                    gaussian = gaussian or coord[1] == 1
        self.coords = sorted(denoms, key=repr)
        self.denoms = denoms
        self.index = {c: k for k, c in enumerate(self.coords)}
        names = [f"X{j + 1}" for j in range(n)]
        for k in range(len(self.coords)):
            names += [f"u{k}", f"v{k}"]
        self.gens = sympy.symbols(names)
        self.domain = "QQ_I" if gaussian else "QQ"
        self._sympy = sympy

    @staticmethod
    def _coords(e):
        out = {}
        if e is None:
            return out
        for (mono, inner), (re, im) in e:
            if inner is not None:
                raise ValueError("sympy encoding needs height <= 1")
            if re:
                out[(mono, 0)] = re
            if im:
                out[(mono, 1)] = im
        return out

    def encode(self, a):
        sympy = self._sympy
        terms = {}
        width = self.n + 2 * len(self.coords)
        for (mono, e), (re, im) in a.items():
            full = list(mono) + [0] * (width - self.n)
            for coord, x in self._coords(e).items():
                k = x * self.denoms[coord]
                assert k.denominator == 1
                slot = self.n + 2 * self.index[coord]
                if k > 0:
                    full[slot] += int(k)
                else:
                    full[slot + 1] += int(-k)
            key = tuple(full)
            coeff = sympy.Rational(re.numerator, re.denominator) + \
                sympy.I * sympy.Rational(im.numerator, im.denominator)
            terms[key] = terms.get(key, 0) + coeff
        terms = {k: c for k, c in terms.items() if c != 0}
        return sympy.Poly(terms or {(0,) * width: 0}, *self.gens,
                          domain=self.domain)

    def relations(self):
        sympy = self._sympy
        width = self.n + 2 * len(self.coords)
        out = []
        for k in range(len(self.coords)):
            mono = [0] * width
            mono[self.n + 2 * k] = mono[self.n + 2 * k + 1] = 1
            out.append(sympy.Poly({tuple(mono): 1, (0,) * width: -1},
                                  *self.gens, domain=self.domain))
        return out

    def groebner(self, values):
        polys = [self.encode(v) for v in values] + self.relations()
        polys = [p for p in polys if not p.is_zero]
        return self._sympy.groebner(polys, *self.gens, order="grevlex",
                                    domain=self.domain)
