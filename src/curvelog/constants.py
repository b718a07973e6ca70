"""Exact combinations of periods: rationals, powers of i*pi, zeta values.

A :class:`ConstantCombination` is a finite rational linear combination
of basis symbols ``(i*pi)**p * zeta(idx_1) * ... * zeta(idx_r)`` where
each ``idx`` is a convergent increasing-convention index tuple (last
entry >= 2).  It is the :class:`~curvelog.logpoly.LogPoly` over no
symbols: its terms map the period key ``(p, zetas)`` (``zetas`` the
sorted tuple of index tuples) to a nonzero ``Fraction``, and its
arithmetic is the ``LogPoly`` arithmetic.  It combines with rationals
and with other polynomials over no symbols; a ``LogPoly`` over symbols
takes it as a coefficient in its constructor.
Products of zeta symbols are stored as multisets and are NOT reduced
against zeta-value identities, so ``==`` means equality of
representations.  :meth:`numeric` sums the term values with
``math.fsum``, so it depends only on the exact combination.

Three caches keyed by the period key make a decomposition-table entry
cost one lookup per key in each step: :func:`_period_key`, the one
checking parser of JSON terms (shared by :meth:`from_json` and
:func:`curvelog.sheaf.reassemble_element`); :func:`_coordinates`, the
key's lattice coordinates as integer numerators over one denominator,
read by :func:`in_zeta_span`; and the key's float factors in
:mod:`curvelog.logpoly`, read by :meth:`numeric`.

Values compare by :meth:`normal_form`: zeta values modulo the
regularized double shuffle relations (Ihara-Kaneko-Zagier, Compositio
Math. 142 (2006)), products expanded by stuffle, ``(i*pi)**2 = -6
zeta(2)``; at weights 2-8 the basis has Zagier's d_k = 1, 1, 1, 2, 2,
3, 4 tuples.  Equal normal forms, like a True from the exact
:func:`in_zeta_span`, prove the fact; a False proves only if the basis
is independent over Q (Zagier's conjecture, open from weight 5).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Mapping

from .jsonio import json_list
from .logpoly import LogPoly, _codec
from .ncseries import Ring, shuffle_words
from .polylog import check_indices, indices_to_word, word_to_indices
from .terms import (_add_terms, _as_fraction, _echelon_insert, _exponent,
                    _ratio)

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
    def numeric(self, prec: float = 1e-12) -> complex:
        return self.evaluate({}, prec)

    def normal_form(self) -> dict:
        """The value as ``{(p % 2, idx): Fraction}``, each key standing
        for ``(i*pi)**(p % 2) * zeta(idx)`` on a non-pivot index tuple
        (``()`` for 1).  Equal normal forms prove equal values."""
        out: dict = {}
        for (p, zs), q in self.terms.items():
            _add_terms(out, (((p % 2, t), q * r)
                             for t, r in _key_form(p, zs)))
        return out

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        items = [{"ipi_pow": p, "zeta_indices": [list(idx) for idx in zs],
                  "coeff": {"num": c.numerator, "den": c.denominator}}
                 for (p, zs), c in sorted(self.terms.items())]
        num = self.numeric()
        return {"terms": items, "numeric": {"re": num.real, "im": num.imag}}

    @classmethod
    def from_json(cls, data: dict) -> "ConstantCombination":
        return cls(_json_terms(data))


@lru_cache(maxsize=None)
def _period_key(p, zetas: tuple) -> Key:
    """The period key of a JSON term from its ``ipi_pow`` and its
    ``zeta_indices`` (as tuples), checked and sorted."""
    (p,) = _exponent([p], 1)
    return p, tuple(sorted(check_indices(idx) for idx in zetas))


def _json_terms(data: dict, scale: int = 1) -> dict[Key, Fraction]:
    """The terms of a ``ConstantCombination`` JSON, each coefficient
    divided by the integer ``scale``: the one reader of period keys."""
    terms: dict[Key, Fraction] = {}
    for t in json_list(data, "terms"):
        c = t["coeff"]
        key = _period_key(t["ipi_pow"],
                          tuple(map(tuple, json_list(t, "zeta_indices"))))
        terms[key] = _ratio(c["num"], c["den"] * scale)
    return terms


# ---------------------------------------------------------------------------
# the normal form and the lattice, built one weight at a time


@lru_cache(maxsize=None)
def _stuffle(a: tuple, b: tuple) -> tuple:
    """Stuffle product of two index tuples: ``(tuple, multiplicity)``."""
    if not a or not b:
        return ((a + b, 1),)
    out: dict[tuple, int] = {}
    for u, v, last in ((a[:-1], b, a[-1]), (a, b[:-1], b[-1]),
                       (a[:-1], b[:-1], a[-1] + b[-1])):
        _add_terms(out, ((w + (last,), m) for w, m in _stuffle(u, v)))
    return tuple(out.items())


def _convergent(weight: int) -> tuple:
    """The convergent index tuples of ``weight`` (``()`` at weight 0)."""
    if weight < 2:
        return ((),) if weight == 0 else ()
    return tuple(word_to_indices((0, *mid, 1))
                 for mid in product((0, 1), repeat=weight - 2))


@lru_cache(maxsize=None)
def _pivots(weight: int) -> tuple:
    """``(pivot, row)`` pairs, by increasing pivot: the echelon form of
    stuffle minus shuffle of the convergent pairs and of ``(1)`` with each
    ``b`` (Hoffman), at ``weight``; the divergent terms cancel."""
    pivots: dict[tuple, dict] = {}
    for i in range(1, weight // 2 + 1):
        for a in _convergent(i) or ((1,),):    # i = 1: Hoffman's (1)
            for b in _convergent(weight - i):
                _echelon_insert(pivots, _add_terms(dict(_stuffle(a, b)), (
                    (word_to_indices(w), -m) for w, m in shuffle_words(
                        indices_to_word(a), indices_to_word(b)))))
    return tuple(sorted(pivots.items()))


@lru_cache(maxsize=None)
def _key_form(p: int, zetas: tuple) -> tuple:
    """Normal form of ``(i*pi)**(p - p % 2) * prod zeta(zetas)`` as
    ``(tuple, Fraction)`` pairs: the stuffle expansion, reduced."""
    if p < 0:
        raise ValueError("negative (i*pi)-exponent")
    terms = {(): Fraction((-6) ** (p // 2))}
    for idx in ((2,),) * (p // 2) + zetas:
        terms = _add_terms({}, ((w, c * m) for u, c in terms.items()
                                for w, m in _stuffle(u, idx)))
    for piv, row in _pivots(p - p % 2 + sum(map(sum, zetas))):
        if c := terms.get(piv):
            _add_terms(terms, ((w, -c * q) for w, q in row.items()))
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _lattice(weight: int) -> tuple:
    """Hermite basis, ``(column, row)`` pairs, of the Z-span of the normal
    forms of the convergent zeta values of ``weight``."""
    rows = [dict(_key_form(0, (s,))) for s in _convergent(weight)]
    basis = []
    while rows:
        j = min(map(min, rows))
        live = [r for r in rows if j in r]
        while len(live) > 1:            # Euclid on column j
            live.sort(key=lambda r: abs(r[j]))
            for r in live[1:]:
                n = r[j] // live[0][j]
                _add_terms(r, ((k, -n * q) for k, q in live[0].items()))
            live = [r for r in live if j in r]
        basis.append((j, live[0]))
        rows = [r for r in rows if r and j not in r]
    return tuple(basis)


@lru_cache(maxsize=None)
def _coordinates(p: int, zetas: tuple) -> tuple[int, tuple]:
    """``(den, pairs)``: the coordinates of ``(i*pi)**p * prod
    zeta(zetas)`` on the Hermite basis of its weight, as integer
    numerators over ``den``, keyed ``(p % 2, column)``."""
    x = dict(_key_form(p, zetas))
    out = []
    for j, row in _lattice(p - p % 2 + sum(map(sum, zetas))):
        if y := x.get(j):
            y /= row[j]
            _add_terms(x, ((k, -y * q) for k, q in row.items()))
            out.append(((p % 2, j), y))
    den = lcm(*(y.denominator for _, y in out))
    return den, tuple((i, y.numerator * (den // y.denominator))
                      for i, y in out)


def in_zeta_span(c: ConstantCombination) -> bool:
    """Whether ``c`` is a Z-combination of the products ``(i*pi)**p *
    zeta(idx_1) * ... * zeta(idx_r)``, exactly: True is a proof, False
    one only under Zagier's conjecture (module docstring).  The sum runs
    on integers over one common denominator."""
    parts = []
    for (p, zs), q in c.terms.items():
        d, pairs = _coordinates(p, zs)
        parts.append((q.numerator, q.denominator * d, pairs))
    den = lcm(*(d for _, d, _ in parts))
    if den == 1:
        return True
    total: dict = {}
    for n, d, pairs in parts:
        m = n * (den // d)
        for i, y in pairs:
            total[i] = total.get(i, 0) + m * y
    return all(v % den == 0 for v in total.values())


CONSTANTS = Ring(
    "constants",
    ConstantCombination.zero(),
    ConstantCombination.one(),
    lambda c: c.to_json(),
    ConstantCombination.from_json,
    *_codec(ConstantCombination, ()),
    close=lambda a, b, tol: not (a - b).normal_form(),
)
