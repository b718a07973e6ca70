"""Exact combinations of periods: rationals, powers of i*pi, zeta values.

A :class:`ConstantCombination` is a finite rational linear combination
of basis symbols ``(i*pi)**p * zeta(idx_1) * ... * zeta(idx_r)`` where
each ``idx`` is a convergent increasing-convention index tuple (last
entry >= 2).  It is the :class:`~curvelog.logpoly.LogPoly` over no
symbols: its terms map the period key ``(p, zetas)`` (``zetas`` the
sorted tuple of index tuples) to a nonzero ``Fraction``, and its
arithmetic is the ``LogPoly`` arithmetic.  In an operation with a
``LogPoly`` over symbols it lifts into that polynomial's symbol set.
Products of zeta symbols are stored as multisets and are NOT reduced
against zeta-value identities, so ``==`` means equality of
representations; use :meth:`numeric_eq` for equality of values.
:meth:`numeric` sums the term values with ``math.fsum``, so it depends
only on the exact combination.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .cpseries import _add_terms, _as_fraction, _exponent
from .logpoly import LogPoly
from .ncseries import Ring
from .polylog import check_indices, mzv_numeric

# basis key: (ipi_power, sorted tuple of zeta index tuples)
Key = tuple[int, tuple[tuple[int, ...], ...]]

_ONE_KEY: Key = (0, ())


class ConstantCombination(LogPoly):
    __slots__ = ()

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        self.vars = ()
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c := _as_fraction(c):
                    self.terms[key] = c

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ConstantCombination":
        return cls()

    @classmethod
    def rational(cls, q) -> "ConstantCombination":
        return cls({_ONE_KEY: q})

    @classmethod
    def one(cls) -> "ConstantCombination":
        return cls.rational(1)

    @classmethod
    def ipi(cls, power: int = 1, coeff=1) -> "ConstantCombination":
        (p,) = _exponent([power], 1)
        return cls({(p, ()): coeff})

    @classmethod
    def zeta(cls, *indices: int, coeff=1) -> "ConstantCombination":
        ks = check_indices(indices)
        if ks[-1] < 2:
            raise ValueError(f"zeta{ks} diverges; not a basis symbol")
        return cls({(0, (ks,)): coeff})

    # ------------------------------------------------------------------
    def is_rational(self) -> bool:
        return all(key == _ONE_KEY for key in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational combination")
        return self.terms.get(_ONE_KEY, Fraction(0))

    def is_integral(self) -> bool:
        """All basis coefficients are integers."""
        return all(c.denominator == 1 for c in self.terms.values())

    def weights(self) -> set[int]:
        """Weights present: ipi power plus total zeta weight per term."""
        return {p + sum(sum(idx) for idx in zs) for (p, zs) in self.terms}

    def numeric(self, prec: float = 1e-12) -> complex:
        return self.evaluate({}, prec)

    def numeric_eq(self, other, tol: float = 1e-9) -> bool:
        if not isinstance(other, LogPoly):
            other = ConstantCombination.rational(other)
        return abs(self.numeric() - other.numeric()) <= tol

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        items = [{"ipi_pow": p, "zeta_indices": [list(idx) for idx in zs],
                  "coeff": {"num": c.numerator, "den": c.denominator}}
                 for (p, zs), c in sorted(self.terms.items())]
        num = self.numeric()
        return {"terms": items, "numeric": {"re": num.real, "im": num.imag}}

    @classmethod
    def from_json(cls, data: dict) -> "ConstantCombination":
        terms: dict[Key, Fraction] = {}
        for t in data["terms"]:
            (p,) = _exponent([t["ipi_pow"]], 1)
            key = (p, tuple(sorted(check_indices(idx)
                                   for idx in t["zeta_indices"])))
            terms[key] = Fraction(t["coeff"]["num"], t["coeff"]["den"])
        return cls(terms)


# ---------------------------------------------------------------------------
# membership in the Z-span of products of (i*pi)-powers and zeta values
#
# Every convergent increasing-convention zeta word of weight <= 4 reduces
# exactly to q * (i*pi)^a * zeta(3)^b; the reductions are frozen below.
# After reduction, a combination lies in the Z-span of all products
# (i*pi)^p * zeta(w_1) * ... * zeta(w_r) iff each (a, b)-coordinate lies in
# the lattice generated by the reduced span monomials at that coordinate.
# zeta(3) factors reduce with unit coefficient, so the lattice depends only
# on the (i*pi)-exponent headroom `a`.

ZETA_REDUCTIONS: dict[tuple[int, ...], tuple[int, int, Fraction]] = {
    (2,): (2, 0, Fraction(-1, 6)),        # zeta(2) = -(i*pi)^2 / 6
    (3,): (0, 1, Fraction(1)),
    (1, 2): (0, 1, Fraction(1)),          # zeta(1,2) = zeta(3)
    (4,): (4, 0, Fraction(1, 90)),        # zeta(4) = (i*pi)^4 / 90
    (1, 3): (4, 0, Fraction(1, 360)),
    (2, 2): (4, 0, Fraction(1, 120)),
    (1, 1, 2): (4, 0, Fraction(1, 90)),   # dual to zeta(4)
}

_EVEN_GENERATORS = sorted({(a, r) for (a, b, r) in ZETA_REDUCTIONS.values()
                           if b == 0})


def _gcd_fraction(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(math.gcd(x.numerator * y.denominator,
                             y.numerator * x.denominator),
                    x.denominator * y.denominator)


@lru_cache(maxsize=None)
def span_lattice_gap(ipi_pow: int) -> Fraction:
    """Generator of the rational lattice at the (i*pi)^a coordinate.

    The lattice is spanned by the reduced coefficients of all products of
    even-weight zeta words whose total (i*pi)-exponent fits inside `a`.
    """
    if ipi_pow < 0:
        raise ValueError("negative (i*pi)-exponent")
    gap = Fraction(1)
    for a, r in _EVEN_GENERATORS:
        if a <= ipi_pow:
            gap = _gcd_fraction(gap, abs(r) * span_lattice_gap(ipi_pow - a))
    return gap


def span_coordinates(c: ConstantCombination):
    """Exact (ipi_pow, zeta3_pow) coordinates after weight<=4 reduction.

    Returns (coords, raw) where `raw` collects terms containing a zeta word
    outside the reduction table; those stay on their own basis monomial.
    """
    coords: dict[tuple[int, int], Fraction] = {}
    raw: dict[Key, Fraction] = {}
    for (p, zs), q in c.terms.items():
        if all(idx in ZETA_REDUCTIONS for idx in zs):
            a, b = p, 0
            for idx in zs:
                da, db, r = ZETA_REDUCTIONS[idx]
                a += da
                b += db
                q = q * r
            _add_terms(coords, (((a, b), q),))
        else:
            raw[(p, zs)] = q
    return coords, raw


_ZETA3 = 1.2020569031595943


def zeta_span_residual(c: ConstantCombination) -> float:
    """Numeric distance from `c` to the Z-span of (i*pi)/zeta products.

    Zero (exactly) when every reduced coordinate is an integer multiple of
    its lattice gap; otherwise the magnitude of the off-lattice part.
    """
    coords, raw = span_coordinates(c)
    off = 0.0
    for (a, b), q in coords.items():
        gap = span_lattice_gap(a)
        ratio = q / gap
        residue = abs(ratio - round(ratio)) * gap
        if residue:
            off += float(residue) * math.pi ** a * _ZETA3 ** b
    for (p, zs), q in raw.items():
        residue = abs(q - round(q))
        if residue:
            size = math.pi ** p
            for idx in zs:
                size *= abs(mzv_numeric(idx))
            off += float(residue) * size
    return off


def in_zeta_span(c: ConstantCombination, tol: float = 1e-6) -> bool:
    """Whether `c` is a Z-combination of (i*pi)-power x zeta-value products."""
    return zeta_span_residual(c) <= tol


CONSTANTS = Ring(
    "constants",
    ConstantCombination.zero(),
    ConstantCombination.one(),
    lambda q: ConstantCombination.rational(q),
    lambda c: c.to_json(),
    ConstantCombination.from_json,
    close=lambda a, b, tol: a.numeric_eq(b, tol),
)
