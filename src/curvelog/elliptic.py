"""Residue letters and transport elements for a nodal one-holed torus.

The three marked directions on the standard three-punctured line carry
residues built from two letters T and A by Bernoulli-type operator
series: with ``f(x) = x / (e^x - 1)``,

* ``w_zero     = f(ad_T)(A)``
* ``w_one      = [T, A]``
* ``w_infinity = -f(-ad_T)(A)``

These satisfy, exactly at every truncation order,
``w_zero + w_one + w_infinity = 0`` and
``e^(ad_T)(w_zero) + w_infinity = 0``.

From them: the monodromy around the zero-direction puncture conjugates
the exponential of the residue by the associator, and the transport
between the two standard loop directions composes associators with a
half twist and the Dehn factor ``e^T``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .associator import kz_associator
from .constants import CONSTANTS, ConstantCombination
from .ncseries import NCSeries, RATIONAL

LETTERS = ("T", "A")


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n with B_1 = -1/2."""
    bs: list[Fraction] = []
    for m in range(n + 1):
        if m == 0:
            bs.append(Fraction(1))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return tuple(bs)


def _letters(trunc: int) -> tuple[NCSeries, NCSeries]:
    t = NCSeries.letter("T", LETTERS, trunc, RATIONAL)
    a = NCSeries.letter("A", LETTERS, trunc, RATIONAL)
    return t, a


def w_zero(trunc: int) -> NCSeries:
    t, a = _letters(trunc)
    bs = bernoulli_numbers(trunc)
    coeffs = [bs[n] / factorial(n) for n in range(trunc)]
    return t.ad_series(coeffs, a)


def w_one(trunc: int) -> NCSeries:
    t, a = _letters(trunc)
    return t.bracket(a)


def w_infinity(trunc: int) -> NCSeries:
    t, a = _letters(trunc)
    bs = bernoulli_numbers(trunc)
    coeffs = [-bs[n] * (-1) ** n / Fraction(factorial(n))
              for n in range(trunc)]
    return t.ad_series(coeffs, a)


def _assoc_at(trunc: int, first: NCSeries, second: NCSeries) -> NCSeries:
    """The associator at two rational residues, over the constants."""
    return kz_associator(trunc).substitute({"X0": first, "X1": second})


def monodromy_around_zero(trunc: int) -> NCSeries:
    """Conjugate of ``exp(2 i pi w_zero)`` by the associator at
    (w_zero, w_one); coefficients are exact period symbols."""
    w0 = w_zero(trunc).lift(CONSTANTS)
    phi = _assoc_at(trunc, w_zero(trunc), w_one(trunc))
    twist = w0.scale(ConstantCombination.ipi(1, 2)).exp()
    return phi * twist * phi.invert()


def a_to_b(trunc: int) -> NCSeries:
    """Transport between the two standard loop directions: half twist,
    associator at the far puncture, Dehn factor, inverse associator."""
    w1 = w_one(trunc).lift(CONSTANTS)
    t = _letters(trunc)[0].lift(CONSTANTS)
    half_twist = w1.scale(ConstantCombination.ipi(1, 1)).exp()
    phi_inf = _assoc_at(trunc, w_infinity(trunc), w_one(trunc))
    phi = _assoc_at(trunc, w_zero(trunc), w_one(trunc))
    return half_twist * phi_inf * t.exp() * phi.invert()
