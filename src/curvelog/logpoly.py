"""Sparse polynomials in named commuting symbols over period symbols.

A :class:`LogPoly` is a polynomial in a fixed tuple of commuting symbols
with rational coefficients on the period monomials ``(i*pi)**p *
zeta(idx_1) * ... * zeta(idx_r)``.  Its terms are one flat dict from the
key ``(e_1, ..., e_n, ipi_pow, zetas)`` (symbol exponents, then the
period key, ``zetas`` a sorted tuple of zeta index tuples) to a nonzero
``Fraction``.  In a product the exponents and ``ipi_pow`` add and the
zeta multisets merge, unreduced.  The sum and the exact coercion are
the term helpers of :mod:`curvelog.terms`, and the product its
tuple-key ``_mul_terms``; a product here truncates nothing.  Over no
symbols the key is the period key alone: that is
:class:`~curvelog.constants.ConstantCombination`, the type
:meth:`LogPoly.coefficients` gives per exponent.  The operands of a
sum, a product or ``==`` share one symbol set: a rational lifts into
any, but a polynomial over other symbols raises ``ValueError``, so a
``ConstantCombination`` enters a polynomial over symbols only as a
coefficient given to the constructor.

A ``LogPoly`` is the boundary type of the series rings
(:func:`logpoly_ring`, ``CONSTANTS``): inside an
:class:`~curvelog.ncseries.NCSeries` a coefficient is integer
numerators on interned keys over the series' one denominator, and
:func:`_codec` converts between the two.  The package uses one type
over three symbol sets:

* one symbol per graph edge, standing for ``log(y_edge) / (2 i pi)``:
  the coefficients of monodromy elements (:func:`logpoly_ring`), where
  crossing an edge contributes an exponential that is polynomial in the
  edge symbol at every word order;
* the sewing symbols ``("y", "l", "kappa")``: the deformation parameter,
  ``log(y) / (2 i pi)`` and the cut symbol ``log(cut)``
  (:data:`curvelog.sewing.SEW`);
* the sewing symbols followed by ``("w", "L")``, a zone variable and its
  logarithm (:data:`curvelog.sewing.ZONE`).  These polynomials are
  Laurent in ``w``: exponents may be negative.

Numeric values sum the term values with ``math.fsum`` (real and
imaginary parts apart), so they depend only on the exact polynomial.
The float factors of each period key, ``(i*pi)**p`` and then each zeta
value, are computed once and cached; a term's value is its coefficient
times these factors in that order, times the symbol values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .jsonio import json_list
from .ncseries import Ring, _monomials
from .polylog import mzv_numeric
from .terms import (_add_terms, _as_fraction, _exponent, _mul_terms,
                    _numerators)

Expo = tuple[int, ...]
# symbol exponents, then (i*pi)-power and sorted tuple of zeta index tuples
Key = tuple

_ONE = (0, ())      # period key of the rational unit
_ZETAS = itemgetter(-1)     # zeta multiset of a key


@lru_cache(maxsize=None)
def _period_factors(p: int, zetas: tuple, prec: float) -> tuple:
    """The float factors of the period key ``(p, zetas)``, in the order a
    term's value multiplies them: ``(i*pi)**p``, then each zeta value."""
    return ((1j * math.pi) ** p, *(mzv_numeric(idx, prec) for idx in zetas))


@lru_cache(maxsize=None)
def _constants():
    from .constants import ConstantCombination   # constants builds on this
    return ConstantCombination


class LogPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str],
                 terms: Mapping[Expo, object] | None = None):
        """``terms`` maps exponent tuples to ``int``, ``Fraction`` or
        ``ConstantCombination`` coefficients."""
        self.vars = tuple(vars)
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for e, c in terms.items():
                e = _exponent(e, len(self.vars))
                if isinstance(c, LogPoly):
                    if c.vars:
                        raise ValueError("coefficient carries symbols")
                    for per, q in c.terms.items():
                        self.terms[e + per] = q
                elif c := _as_fraction(c):
                    self.terms[e + _ONE] = c

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Key, Fraction]):
        """Wrap flat terms that are already free of zeros."""
        out = object.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LogPoly":
        return cls(vars)

    @classmethod
    def monomial(cls, vars: Sequence[str], expo: Sequence[int],
                 coeff=1) -> "LogPoly":
        """``coeff`` (int, Fraction or ConstantCombination) times the
        monomial with exponents ``expo``."""
        return cls(vars, {tuple(expo): coeff})

    @classmethod
    def constant(cls, vars: Sequence[str], value) -> "LogPoly":
        vars = tuple(vars)
        return cls.monomial(vars, (0,) * len(vars), value)

    @classmethod
    def symbol(cls, vars: Sequence[str], name: str, coeff=1) -> "LogPoly":
        vars = tuple(vars)
        expo = tuple(1 if v == name else 0 for v in vars)
        if sum(expo) != 1:
            raise ValueError(f"unknown symbol {name}")
        return cls.monomial(vars, expo, coeff)

    # ------------------------------------------------------------------
    def _align(self, other):
        """``(result class, other's terms)`` over this symbol set, or None
        for an operand of another type.  A rational lifts into the
        symbols; a polynomial over other symbols raises ValueError."""
        if isinstance(other, LogPoly):
            if other.vars != self.vars:
                raise ValueError("symbol set mismatch")
            return (type(self) if type(other) is type(self) else LogPoly,
                    other.terms)
        if not isinstance(other, (int, Fraction)):
            return None
        q = _as_fraction(other)
        return type(self), {(0,) * len(self.vars) + _ONE: q} if q else {}

    def __add__(self, other):
        op = self._align(other)
        if op is None:
            return NotImplemented
        cls, b = op
        return cls._raw(self.vars, _add_terms(dict(self.terms), b.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        op = self._align(other)
        if op is None:
            return NotImplemented
        cls, b = op
        return cls._raw(self.vars, _add_terms(
            dict(self.terms), ((k, -c) for k, c in b.items())))

    def __mul__(self, other):
        op = self._align(other)
        if op is None:
            return NotImplemented
        cls, b = op
        a = self.terms
        terms = _mul_terms(a, b)
        if any(map(_ZETAS, a)) and any(map(_ZETAS, b)):
            # the kernel concatenated the zeta multisets: sort each, and
            # sum the terms whose keys then agree
            terms = _add_terms({}, (((*k[:-1], tuple(sorted(k[-1]))), c)
                                    for k, c in terms.items()))
        return cls._raw(self.vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        op = self._align(other)
        if op is None:
            return NotImplemented
        return self.terms == op[1]

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    def coefficients(self) -> dict:
        """The coefficient of each exponent present, as a
        ``ConstantCombination``, in the order the terms were built."""
        n = len(self.vars)
        groups: dict[Expo, dict] = {}
        for k, c in self.terms.items():
            e = k[:n]
            g = groups.get(e)
            if g is None:
                groups[e] = g = {}
            g[k[n:]] = c
        cc = _constants()
        return {e: cc._raw((), g) for e, g in groups.items()}

    def evaluate(self, values: Mapping[str, complex],
                 prec: float = 1e-12) -> complex:
        """Numeric value with each symbol set to ``values[symbol]``."""
        n = len(self.vars)
        re, im = [], []
        for k, c in self.terms.items():
            # bit-identical to complex(c), without the numbers ABCs
            val = complex(c.numerator / c.denominator)
            for f in _period_factors(k[n], k[n + 1], prec):
                val *= f
            for v, e in zip(self.vars, k):
                if e:
                    val *= values[v] ** e
            re.append(val.real)
            im.append(val.imag)
        return complex(math.fsum(re), math.fsum(im))

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        coeffs = self.coefficients()
        return {"vars": list(self.vars),
                "terms": [{"exp": list(e), "coeff": coeffs[e].to_json()}
                          for e in sorted(coeffs)]}

    @classmethod
    def from_json(cls, data: dict) -> "LogPoly":
        cc = _constants()
        return cls(tuple(json_list(data, "vars")),
                   {tuple(json_list(t, "exp")): cc.from_json(t["coeff"])
                    for t in json_list(data, "terms")})

    def __repr__(self) -> str:
        n, bits = len(self.vars), []
        for k, c in sorted(self.terms.items()):
            sym = [str(c)]
            if k[n]:
                sym.append(f"(i*pi)^{k[n]}" if k[n] != 1 else "(i*pi)")
            sym.extend(f"zeta{idx}" for idx in k[n + 1])
            sym.extend(f"{v}^{e}" if e != 1 else v
                       for v, e in zip(self.vars, k) if e)
            bits.append("*".join(sym))
        return f"<{'lp' if n else 'cc'} {' + '.join(bits) or '0'}>"


def _codec(cls: type, vars: tuple[str, ...]) -> tuple[Callable, Callable,
                                                     object]:
    """``(split, join, table)`` of the series ring of ``cls`` over
    ``vars``: ``split`` gives a polynomial (or a rational, lifted) as
    integer numerators by monomial id of ``table`` over one denominator,
    and ``join`` builds the polynomial back."""
    table = _monomials(len(vars))
    intern, keys = table.intern, table.keys

    def split(p) -> tuple[dict[int, int], int]:
        if not isinstance(p, LogPoly):
            p = LogPoly.constant(vars, p)
        elif p.vars != vars:
            raise ValueError("symbol set mismatch")
        nums, den = _numerators(p.terms)
        return {intern(k): n for k, n in nums.items()}, den

    def join(m: dict[int, int], den: int) -> LogPoly:
        return cls._raw(vars, {keys[i]: Fraction(n, den)
                               for i, n in m.items()})

    return split, join, table


def logpoly_ring(vars: Sequence[str]) -> Ring:
    """The ring of ``LogPoly`` over ``vars``; its decoder refuses a
    polynomial over any other symbols."""
    vars = tuple(vars)

    def decode(data: dict) -> LogPoly:
        if tuple(json_list(data, "vars")) != vars:
            raise ValueError(f"coefficient over {list(data['vars'])}, "
                             f"not {list(vars)}")
        return LogPoly.from_json(data)

    return Ring(
        "logpoly[" + ",".join(vars) + "]",
        LogPoly.zero(vars),
        LogPoly.constant(vars, 1),
        lambda p: p.to_json(),
        decode,
        *_codec(LogPoly, vars),
        close=lambda a, b, tol: not any(
            c.normal_form() for c in (a - b).coefficients().values()),
    )
