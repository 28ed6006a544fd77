"""The one sparse-accumulate rule shared by every finite sum in the package.

Exponential polynomials, their Laurent encodings, rational vectors and
Y-graded Rabinowitsch cofactors are all dicts from keys to nonzero
coefficients.  They are built by folding (key, coeff) pairs: equal keys add
up and a sum that is zero is dropped, so no stored coefficient is ever zero.
Coefficients only need `+` and truthiness (nonzero), which holds for exact
scalars and for exponential polynomials alike.  A sum of products of
exponential polynomials is built by `EPoly.combination`, the one way to
build one: all its product terms go through a single fold.
"""

from __future__ import annotations


def accumulate(pairs, into: dict | None = None) -> dict:
    """Fold (key, coeff) pairs, or a mapping, into `into` (a new dict by
    default) and return it: equal keys add, zero sums are removed."""
    acc = {} if into is None else into
    if isinstance(pairs, dict):
        pairs = pairs.items()
    for key, coeff in pairs:
        if key in acc:
            coeff = acc[key] + coeff
        if coeff:
            acc[key] = coeff
        else:
            acc.pop(key, None)
    return acc
