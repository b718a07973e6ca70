"""Truncated multivariate power series with exact rational coefficients.

A series is truncated at a fixed total degree: terms of total degree
strictly above ``trunc`` are dropped by every operation.  Coefficients are
``fractions.Fraction`` throughout, so all arithmetic is exact.  Variables
are named; the variable tuple is part of the series and two series must
agree on it before they can be combined.

The representation is a sparse dict mapping exponent tuples to nonzero
coefficients.  Ring operations keep the invariant that no zero coefficient
is stored.

Coefficients are ``Fraction`` at the boundary: in ``terms``, the JSON and
every argument and result.  Products and the graded roots behind
:meth:`TruncatedSeries.invert` and :func:`solve_quadratic` work inside on
integer numerators over one common denominator per operand, and build
each result coefficient as a ``Fraction`` once, so they pay no gcd per
pair of terms.  One sum-of-products kernel, :func:`_sum_products`, serves
them and the fused ``a*b + c*d`` of :class:`curvelog.schottky.Moebius`.

:class:`curvelog.logpoly.LogPoly` shares the term kernel below: the exact
coercion, the exponent check, the sum and the product, whose keys add
entrywise.  Here a product drops the terms above the total degree; a
``LogPoly`` product truncates nothing.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
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


def _mul_terms(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction],
               cap: int | None = None) -> dict[tuple, Fraction]:
    """The product of two term dicts of nonzero ``Fraction``s, storing no
    zero; keys add entrywise, and with ``cap`` the pairs whose keys sum
    above ``cap`` are dropped.  Uncapped, an operand of at most one term
    has its coefficients multiplied directly (no keys can collide);
    every other product runs on integer numerators."""
    if len(a) > len(b):
        a, b = b, a
    if cap is None and len(a) <= 1:
        terms = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                terms[tuple(map(add, ka, kb))] = ca * cb
        return terms
    (na, da), (nb, db) = _numerators(a), _numerators(b)
    acc, den = _sum_products([(na, nb, da * db)], cap)
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def _sum_products(prods: Sequence[tuple[Mapping, Mapping, int]],
                  cap: int | None = None) -> tuple[dict[tuple, int], int]:
    """``Σ a * b / den`` over the ``(a, b, den)`` in ``prods`` (integer
    numerator dicts, a nonzero ``den`` of either sign) as numerators over
    the lcm of the ``den``s, and that lcm; ``cap`` as in :func:`_convolve`,
    and sums that cancel stay in as zeros."""
    den = math.lcm(*[c for _, _, c in prods])
    acc: dict[tuple, int] = {}
    for a, b, c in prods:
        _convolve(acc, a, b, den // c, cap)
    return acc, den


class TruncatedSeries:
    __slots__ = ("vars", "trunc", "terms")

    def __init__(self, vars: Iterable[str], trunc: int,
                 terms: Mapping[Exponent, Fraction] | None = None):
        self.vars = tuple(vars)
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        self.trunc = int(trunc)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exp, c in terms.items():
                exp = _exponent(exp, nv)
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent")
                c = _as_fraction(c)
                if c and sum(exp) <= self.trunc:
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def _raw(cls, vars: tuple[str, ...], trunc: int,
             terms: dict[Exponent, Fraction]) -> "TruncatedSeries":
        """Wrap clean terms: nonzero ``Fraction``s at valid exponents."""
        out = object.__new__(cls)
        out.vars, out.trunc, out.terms = vars, trunc, terms
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, vars: Iterable[str], trunc: int) -> "TruncatedSeries":
        vars = tuple(vars)
        c = _as_fraction(value)
        if c == 0:
            return cls(vars, trunc)
        return cls(vars, trunc, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name: str, vars: Iterable[str], trunc: int) -> "TruncatedSeries":
        vars = tuple(vars)
        idx = vars.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return cls(vars, trunc, {exp: _ONE})

    def copy(self) -> "TruncatedSeries":
        return self._raw(self.vars, self.trunc, dict(self.terms))

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), _ZERO)

    def is_unit(self) -> bool:
        return self.constant_term() != 0

    def order(self) -> int | float:
        """Minimal total degree of a nonzero term (``math.inf`` for 0)."""
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    def ideal_order(self, ideal_vars: Iterable[str]) -> int | float:
        """Minimal total degree counted on ``ideal_vars`` only;
        ``math.inf`` for the zero series."""
        if not self.terms:
            return math.inf
        idx = [i for i, v in enumerate(self.vars) if v in set(ideal_vars)]
        return min(sum(e[i] for i in idx) for e in self.terms)

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        terms = {e: c for e, c in self.terms.items() if sum(e) == degree}
        return TruncatedSeries(self.vars, self.trunc, terms)

    def lowest_part(self) -> "TruncatedSeries":
        d = self.order()
        if d is math.inf:
            return TruncatedSeries(self.vars, self.trunc)
        return self.homogeneous_part(int(d))

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), _ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.vars == other.vars and self.trunc == other.trunc
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TruncatedSeries is mutable-ish; not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "<series 0>"
        bits = []
        for exp in sorted(self.terms)[:6]:
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.vars, exp) if e)
            bits.append(f"{self.terms[exp]}{'*' + mono if mono else ''}")
        more = "+..." if len(self.terms) > 6 else ""
        return f"<series {' + '.join(bits)}{more} (D={self.trunc})>"

    # ------------------------------------------------------------------
    # ring operations

    def _check_compat(self, other: "TruncatedSeries") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.vars, self.trunc)
        self._check_compat(other)
        return self._raw(self.vars, self.trunc,
                         _add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, self.trunc,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "TruncatedSeries":
        c = _as_fraction(value)
        terms = {e: c * k for e, k in self.terms.items()} if c else {}
        return self._raw(self.vars, self.trunc, terms)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compat(other)
        return self._raw(self.vars, self.trunc,
                         _mul_terms(self.terms, other.terms, self.trunc))

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("series is not a unit (zero constant term)")
        inv0 = 1 / c0
        # the root of self*z - 1 = 0; a0 = -1 has no part above degree 0
        return _graded_root(self.vars, self.trunc, {}, _grade(self.terms), {},
                            inv0, inv0)

    def divide_monomial(self, exp: Exponent) -> "TruncatedSeries":
        """Exact division by ``x^exp``; every term must be divisible.

        A series exact to degree D determines the quotient only up to
        degree D - deg(exp), so the truncation drops accordingly; a
        monomial of degree above D raises ``ValueError``.
        """
        exp = tuple(exp)
        if sum(exp) > self.trunc:
            raise ValueError(f"monomial degree {sum(exp)} exceeds the "
                             f"truncation degree {self.trunc}")
        terms: dict[Exponent, Fraction] = {}
        for e, k in self.terms.items():
            ne = tuple(a - b for a, b in zip(e, exp))
            if any(x < 0 for x in ne):
                raise ValueError(f"term {e} not divisible by {exp}")
            terms[ne] = k
        return self._raw(self.vars, self.trunc - sum(exp), terms)

    # ------------------------------------------------------------------
    # structural operations

    def truncate(self, new_trunc: int) -> "TruncatedSeries":
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation (information lost)")
        if new_trunc == self.trunc:
            return self.copy()
        terms = {e: c for e, c in self.terms.items() if sum(e) <= new_trunc}
        return TruncatedSeries(self.vars, new_trunc, terms)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        items = []
        for e in sorted(self.terms):
            c = self.terms[e]
            items.append({"exp": list(e), "num": c.numerator, "den": c.denominator})
        return {"vars": list(self.vars), "trunc": self.trunc, "terms": items}


def _grade(terms: Mapping[Exponent, Fraction]) -> dict[int, dict[Exponent, Fraction]]:
    parts: dict[int, dict[Exponent, Fraction]] = {}
    for e, c in terms.items():
        parts.setdefault(sum(e), {})[e] = c
    return parts


def _numerators(terms: Mapping[Exponent, Fraction]
                ) -> tuple[dict[Exponent, int], int]:
    """The integer numerators of ``terms`` over ``den``, the lcm of their
    denominators, and ``den``."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


def _convolve(acc: dict[tuple, int], a: Mapping[tuple, int],
              b: Mapping[tuple, int], f: int = 1,
              cap: int | None = None) -> dict[tuple, int]:
    """Add ``f * a[ka] * b[kb]`` at the entrywise sum of ``ka`` and ``kb``
    into ``acc`` for every pair, or with ``cap`` for every pair whose keys
    sum to at most ``cap``, and return ``acc``; sums that cancel stay in
    as zeros."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    if cap is None:
        for ka, ca in a.items():
            ca *= f
            for kb, cb in b.items():
                k = tuple(map(add, ka, kb))
                acc[k] = get(k, 0) + ca * cb
        return acc
    bdeg = [(kb, sum(kb), cb) for kb, cb in b.items()]
    for ka, ca in a.items():
        room = cap - sum(ka)
        ca *= f
        for kb, deg, cb in bdeg:
            if deg <= room:
                k = tuple(map(add, ka, kb))
                acc[k] = get(k, 0) + ca * cb
    return acc


def solve_quadratic(a2: TruncatedSeries, a1: TruncatedSeries,
                    a0: TruncatedSeries, root0: Fraction) -> TruncatedSeries:
    """Solve ``a2*z^2 + a1*z + a0 = 0`` for the branch with constant term
    ``root0``, order by order in total degree.

    The linearization divisor ``2*a2(0)*root0 + a1(0)`` must be nonzero
    (simple root); otherwise ``ZeroDivisionError`` is raised.  All inputs
    must share variables and truncation.
    """
    a2._check_compat(a1)
    a2._check_compat(a0)
    vars, trunc = a2.vars, a2.trunc
    root0 = _as_fraction(root0)
    if a2.constant_term() * root0 ** 2 + a1.constant_term() * root0 \
            + a0.constant_term() != 0:
        raise ValueError("root0 does not solve the constant-term quadratic")
    div = 2 * a2.constant_term() * root0 + a1.constant_term()
    if div == 0:
        raise ZeroDivisionError("quadratic linearization is degenerate")
    return _graded_root(a2.vars, a2.trunc, _grade(a2.terms),
                        _grade(a1.terms), _grade(a0.terms), root0, 1 / div)


def _graded_root(vars: tuple[str, ...], trunc: int,
                 p2: Mapping[int, Mapping[Exponent, Fraction]],
                 p1: Mapping[int, Mapping[Exponent, Fraction]],
                 p0: Mapping[int, Mapping[Exponent, Fraction]],
                 root0: Fraction, inv_div: Fraction) -> TruncatedSeries:
    """Root of ``a2*z^2 + a1*z + a0`` with constant term ``root0``, given
    the graded parts ``p2``, ``p1``, ``p0`` of the coefficients and the
    inverse of the linearization divisor ``2*a2(0)*root0 + a1(0)``.

    The degree-d part of the quadratic is ``div * z_d`` plus terms in
    ``z_0 .. z_{d-1}`` only, which fixes ``z_d``.  Every part is carried
    as ``(integer numerators, denominator)``; a solved part ``z_d`` is
    divided by the gcd of its numerators and denominator, so its
    denominator is the lcm of its reduced coefficients' denominators.
    """
    a2 = {i: _numerators(t) for i, t in p2.items()}
    a1 = {i: _numerators(t) for i, t in p1.items()}
    a0 = {i: _numerators(t) for i, t in p0.items()}
    zero = (0,) * len(vars)
    one = {zero: 1}
    z_parts: dict[int, tuple[dict[Exponent, int], int]] = {}
    if root0 != 0:
        z_parts[0] = ({zero: root0.numerator}, root0.denominator)
    neg_num, div_den = -inv_div.numerator, inv_div.denominator
    for d in range(1, trunc + 1):
        # the degree-d contributions as products (a, b, den) of integer
        # numerators over a common denominator
        prods = []
        # a2 * z * z contributions of total degree d, excluding the term
        # containing z_d itself (i = 0 and one factor of degree d with the
        # other of degree 0 and a2 of degree 0)
        for i in range(0, d + 1):
            ai = a2.get(i)
            if ai is None:
                continue
            for j in range(0, d - i + 1):
                k = d - i - j
                if j == d or k == d:
                    # involves z_d; folded into the divisor
                    continue
                zj = z_parts.get(j)
                zk = z_parts.get(k)
                if zj is None or zk is None:
                    continue
                prods.append((ai[0], _convolve({}, zj[0], zk[0]),
                              ai[1] * zj[1] * zk[1]))
        for i in range(1, d + 1):
            ai = a1.get(i)
            zj = z_parts.get(d - i)
            if ai is not None and zj is not None:
                prods.append((ai[0], zj[0], ai[1] * zj[1]))
        if d in a0:
            nums, c = a0[d]
            prods.append((nums, one, c))
        # a1_0 * z_d + 2 a2_0 z_0 z_d + acc / den = 0
        acc, den = _sum_products(prods)
        part = {e: n * neg_num for e, n in acc.items() if n}
        if part:
            den *= div_den
            g = math.gcd(den, *part.values())
            z_parts[d] = ({e: n // g for e, n in part.items()}, den // g)
    terms: dict[Exponent, Fraction] = {}
    for nums, den in z_parts.values():
        for e, n in nums.items():
            terms[e] = Fraction(n, den)
    return TruncatedSeries._raw(vars, trunc, terms)
