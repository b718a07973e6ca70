"""Sparse polynomials in named commuting symbols over period combinations.

A :class:`LogPoly` is a polynomial in a fixed tuple of commuting symbols
whose coefficients are :class:`~curvelog.constants.ConstantCombination`
values.  The package uses one type over three symbol sets:

* one symbol per graph edge, standing for ``log(y_edge) / (2 i pi)``:
  the coefficients of monodromy elements (:func:`logpoly_ring`), where
  crossing an edge contributes an exponential that is polynomial in the
  edge symbol at every word order;
* the sewing symbols ``("y", "l", "kappa")``: the deformation parameter,
  ``log(y) / (2 i pi)`` and the cut symbol ``log(cut)``
  (:data:`curvelog.sewing.SEW`);
* the sewing symbols followed by ``("w", "L")``, a zone variable and its
  logarithm (:data:`curvelog.sewing.ZONE`).  These polynomials are
  Laurent in ``w``: exponents may be negative, and only :meth:`shift`
  insists on non-negative powers.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .constants import ConstantCombination
from .ncseries import Ring

Expo = tuple[int, ...]


class LogPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str],
                 terms: Mapping[Expo, ConstantCombination] | None = None):
        self.vars = tuple(vars)
        self.terms: dict[Expo, ConstantCombination] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(k) for k in e)
                if len(e) != len(self.vars):
                    raise ValueError("exponent arity mismatch")
                if c:
                    self.terms[e] = c

    @classmethod
    def _raw(cls, vars: tuple[str, ...],
             terms: dict[Expo, ConstantCombination]) -> "LogPoly":
        """Wrap terms that are already normalized and free of zeros."""
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
        if isinstance(coeff, (int, Fraction)):
            coeff = ConstantCombination.rational(coeff)
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
    def _coerce(self, other):
        if isinstance(other, LogPoly):
            if other.vars != self.vars:
                raise ValueError("symbol set mismatch")
            return other
        if isinstance(other, (int, Fraction, ConstantCombination)):
            return LogPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LogPoly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LogPoly._raw(self.vars,
                            {e: -c for e, c in self.terms.items()})

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
        terms: dict[Expo, ConstantCombination] = {}
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                s = terms.get(e)
                s = p if s is None else s + p
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LogPoly._raw(self.vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms)))

    # ------------------------------------------------------------------
    def shift(self, name: str, d: int) -> "LogPoly":
        """Multiply by ``name**d``; a negative power raises ValueError."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            k = e[i] + d
            if k < 0:
                raise ValueError(f"negative power of {name}")
            terms[e[:i] + (k,) + e[i + 1:]] = c
        return LogPoly._raw(self.vars, terms)

    def truncate(self, name: str, m: int) -> "LogPoly":
        """Drop the terms of degree above ``m`` in ``name``."""
        i = self.vars.index(name)
        return LogPoly._raw(self.vars, {e: c for e, c in self.terms.items()
                                        if e[i] <= m})

    def coefficient(self, expo: Sequence[int]) -> ConstantCombination:
        return self.terms.get(tuple(expo), ConstantCombination.zero())

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_part(self) -> ConstantCombination:
        return self.coefficient((0,) * len(self.vars))

    def evaluate(self, values: Mapping[str, complex],
                 prec: float = 1e-12) -> complex:
        """Numeric value with each symbol set to ``values[symbol]``."""
        total = 0j
        for e, c in self.terms.items():
            val = c.numeric(prec)
            for v, k in zip(self.vars, e):
                if k:
                    val *= values[v] ** k
            total += val
        return total

    def numeric_close(self, other: "LogPoly", tol: float) -> bool:
        other = self._coerce(other)
        keys = set(self.terms) | set(other.terms)
        zero = ConstantCombination.zero()
        return all(abs((self.terms.get(e, zero) -
                        other.terms.get(e, zero)).numeric()) <= tol
                   for e in keys)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        items = [{"exp": list(e), "coeff": self.terms[e].to_json()}
                 for e in sorted(self.terms)]
        return {"vars": list(self.vars), "terms": items}

    @classmethod
    def from_json(cls, data: dict) -> "LogPoly":
        return cls(tuple(data["vars"]),
                   {tuple(t["exp"]): ConstantCombination.from_json(t["coeff"])
                    for t in data["terms"]})

    def __repr__(self) -> str:
        if not self.terms:
            return "<lp 0>"
        bits = []
        for e in sorted(self.terms):
            mon = "*".join(f"{v}^{k}" if k != 1 else v
                           for v, k in zip(self.vars, e) if k)
            bits.append(f"({self.terms[e]!r})" + (f"*{mon}" if mon else ""))
        return f"<lp {' + '.join(bits)}>"


def logpoly_ring(vars: Sequence[str]) -> Ring:
    vars = tuple(vars)
    return Ring(
        "logpoly[" + ",".join(vars) + "]",
        LogPoly.zero(vars),
        LogPoly.constant(vars, 1),
        lambda q: LogPoly.constant(vars, q),
        lambda p: p.to_json(),
        LogPoly.from_json,
        close=lambda a, b, tol: a.numeric_close(b, tol),
    )
