"""Exact combinations of periods: rationals, powers of i*pi, zeta values.

A :class:`ConstantCombination` is a finite rational linear combination
of basis symbols ``(i*pi)**p * zeta(idx_1) * ... * zeta(idx_r)`` where
each ``idx`` is a convergent increasing-convention index tuple (last
entry >= 2).  Products of zeta symbols are stored as multisets and are
NOT reduced against zeta-value identities, so ``==`` means equality of
representations; use :meth:`numeric_eq` for equality of values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .ncseries import Ring
from .polylog import check_indices, mzv_numeric

# basis key: (ipi_power, sorted tuple of zeta index tuples)
Key = tuple[int, tuple[tuple[int, ...], ...]]

_ONE_KEY: Key = (0, ())


class ConstantCombination:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def _raw(cls, terms: dict[Key, Fraction]) -> "ConstantCombination":
        """Wrap nonzero ``Fraction`` terms without normalizing them."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ConstantCombination":
        return cls()

    @classmethod
    def rational(cls, q) -> "ConstantCombination":
        return cls({_ONE_KEY: Fraction(q)})

    @classmethod
    def one(cls) -> "ConstantCombination":
        return cls.rational(1)

    @classmethod
    def ipi(cls, power: int = 1, coeff=1) -> "ConstantCombination":
        return cls({(int(power), ()): Fraction(coeff)})

    @classmethod
    def zeta(cls, *indices: int, coeff=1) -> "ConstantCombination":
        ks = check_indices(indices)
        if ks[-1] < 2:
            raise ValueError(f"zeta{ks} diverges; not a basis symbol")
        return cls({(0, (ks,)): Fraction(coeff)})

    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ConstantCombination):
            return other
        if isinstance(other, (int, Fraction)):
            return ConstantCombination.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return ConstantCombination._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return ConstantCombination._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Key, Fraction] = {}
        for (p1, z1), c1 in self.terms.items():
            for (p2, z2), c2 in other.terms.items():
                key = (p1 + p2, tuple(sorted(z1 + z2)))
                c = c1 * c2
                s = terms.get(key)
                s = c if s is None else s + c
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return ConstantCombination._raw(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        total = 0j
        for (p, zs), c in self.terms.items():
            val = complex(c) * (1j * math.pi) ** p
            for idx in zs:
                val *= mzv_numeric(idx, prec)
            total += val
        return total

    def numeric_eq(self, other, tol: float = 1e-9) -> bool:
        other = self._coerce(other)
        return abs(self.numeric() - other.numeric()) <= tol

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        items = []
        for (p, zs) in sorted(self.terms):
            c = self.terms[(p, zs)]
            items.append({"ipi_pow": p,
                          "zeta_indices": [list(idx) for idx in zs],
                          "coeff": {"num": c.numerator, "den": c.denominator}})
        num = self.numeric()
        return {"terms": items, "numeric": {"re": num.real, "im": num.imag}}

    @classmethod
    def from_json(cls, data: dict) -> "ConstantCombination":
        terms: dict[Key, Fraction] = {}
        for t in data["terms"]:
            key = (int(t["ipi_pow"]),
                   tuple(sorted(tuple(int(k) for k in idx)
                                for idx in t["zeta_indices"])))
            terms[key] = Fraction(t["coeff"]["num"], t["coeff"]["den"])
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "<cc 0>"
        bits = []
        for (p, zs), c in sorted(self.terms.items()):
            sym = [str(c)]
            if p:
                sym.append(f"(i*pi)^{p}" if p != 1 else "(i*pi)")
            sym.extend("zeta" + str(tuple(idx)) for idx in zs)
            bits.append("*".join(sym))
        return f"<cc {' + '.join(bits)}>"


def _close(a: ConstantCombination, b: ConstantCombination, tol: float) -> bool:
    return abs(a.numeric() - b.numeric()) <= tol


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
            s = coords.get((a, b), Fraction(0)) + q
            if s:
                coords[(a, b)] = s
            else:
                coords.pop((a, b), None)
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
    close=_close,
)
