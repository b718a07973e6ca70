"""Exact term kernel shared by the series and polynomial types.

A term dict maps a key (an exponent tuple, a packed int, a word) to a
nonzero exact coefficient.  The helpers below coerce scalars exactly,
check exponents, add into and multiply term dicts, keep an echelon form
of them, and split them into integer numerators over one denominator.
The module imports nothing of the package, so a command that needs no
:class:`~curvelog.cpseries.TruncatedSeries` never loads ``cpseries``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

Exponent = tuple[int, ...]

_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``; a float or any other inexact value
    raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")


def _ratio(num, den) -> Fraction:
    """``num / den`` from the integer fields of a JSON coefficient; a zero
    denominator raises ValueError, a non-integer field TypeError."""
    if den == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def _exponent(exp, arity: int) -> Exponent:
    """``exp`` as a tuple of ``arity`` integers; any other length or a
    non-integral entry raises ValueError."""
    exp = tuple(exp)
    out = tuple(map(int, exp))
    if len(out) != arity or out != exp:
        raise ValueError(f"exponent {list(exp)} is not {arity} integers")
    return out


def _add_terms(terms: dict, pairs: Iterable[tuple[tuple, object]]) -> dict:
    """Add the ``(key, coefficient)`` pairs into the term dict ``terms``
    and return it; a sum that cancels leaves no zero behind."""
    for k, c in pairs:
        s = terms.get(k)
        if s is None:
            terms[k] = c
        elif s := s + c:
            terms[k] = s
        else:
            del terms[k]
    return terms


def _echelon_insert(pivots: dict, row: dict) -> None:
    """Reduce ``row`` by the echelon rows of ``pivots``, each stored under
    its smallest key with coefficient 1, and store any rest the same way."""
    while row:
        piv = min(row)
        c = _as_fraction(row.pop(piv))
        prow = pivots.get(piv)
        if prow is None:
            pivots[piv] = {piv: _ONE, **{w: q / c for w, q in row.items()}}
            return
        _add_terms(row, ((w, -c * q) for w, q in prow.items() if w != piv))


def _mul_terms(a: Mapping[tuple, Fraction],
               b: Mapping[tuple, Fraction]) -> dict[tuple, Fraction]:
    """The product of two term dicts of nonzero ``Fraction``s, storing no
    zero; keys add entrywise.  An operand of at most one term has its
    coefficients multiplied directly (no keys can collide); every other
    product runs on integer numerators."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        return {tuple(map(add, ka, kb)): ca * cb
                for ka, ca in a.items() for kb, cb in b.items()}
    (na, da), (nb, db) = _numerators(a), _numerators(b)
    acc: dict[tuple, int] = {}
    get = acc.get
    for ka, ca in na.items():
        for kb, cb in nb.items():
            k = tuple(map(add, ka, kb))
            acc[k] = get(k, 0) + ca * cb
    den = da * db
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def _numerators(terms: Mapping[tuple, Fraction]
                ) -> tuple[dict[tuple, int], int]:
    """The integer numerators of ``terms`` over ``den``, the lcm of their
    denominators, and ``den``; their gcd with ``den`` is 1."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


