"""Truncated multivariate power series with exact rational coefficients.

A series is truncated at a fixed total degree: terms of total degree
strictly above ``trunc`` are dropped by every operation, and all
arithmetic is exact.  Variables are named; the variable tuple is part of
the series and two series must agree on it before they can be combined.

A series holds integer numerators over one denominator: ``nums`` maps a
packed exponent key to a nonzero ``int`` and ``den`` is a positive
``int``, the coefficient at a key being ``nums[key] / den``.  The form
is canonical, ``gcd(den, *nums.values()) == 1`` and the zero series has
``den == 1``, so ``==`` compares the fields.

A key packs an exponent (Kronecker substitution): variable ``i`` has the
bit field at ``i * w`` with ``w = trunc.bit_length()``, wide enough for
any exponent of the series, and the total degree sits above them all, at
``shift = len(vars) * w``.  Adding two keys adds the exponents, the
degree is ``key >> shift``, and a sum of degree at most ``trunc`` is
exactly a sum below ``(trunc + 1) << shift``, since no field of such a
sum overflows.  Sorting keys sorts by degree first.  A new truncation
with another ``w`` repacks the keys.

``Fraction``s appear only at the boundary: the constructors and scalar
arguments, the read-only :attr:`TruncatedSeries.terms` (exponent tuples to
``Fraction``), ``coefficient``, ``constant_term``, ``to_json`` and
``repr``.  Everything else works on the numerators, and one
sum-of-products kernel, :func:`_sum_products`, serves the products, the
graded roots behind :meth:`TruncatedSeries.invert` and
:func:`solve_quadratic`, and the fused ``a*b + c*d`` of
:class:`curvelog.schottky.Moebius`.

The exact coercion and the exponent check come from the term kernel of
:mod:`curvelog.terms`, which :class:`curvelog.logpoly.LogPoly` and the
other exact types share; this module holds ``TruncatedSeries`` and its
graded roots only.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .terms import Exponent, _as_fraction, _exponent, _numerators

_ZERO = Fraction(0)


def _truncation(trunc: int) -> int:
    """``trunc`` as a truncation degree; a negative one raises
    ValueError."""
    if trunc < 0:
        raise ValueError("truncation degree must be >= 0")
    return int(trunc)


def _pack(exp: Exponent, w: int) -> int:
    """The key of ``exp`` with fields of ``w`` bits, its degree last."""
    return sum(e << i * w for i, e in enumerate((*exp, sum(exp))))


def _unpack(key: int, nv: int, w: int) -> Exponent:
    mask = (1 << w) - 1
    return tuple(key >> i * w & mask for i in range(nv))


def _repack(nums: dict[int, int], nv: int, w: int, new_w: int
            ) -> dict[int, int]:
    """``nums`` with its keys moved from ``w``-bit to ``new_w``-bit
    fields."""
    if w == new_w:
        return nums
    return {_pack(_unpack(k, nv, w), new_w): n for k, n in nums.items()}


def _reduce(acc: Mapping[int, int], den: int) -> tuple[dict[int, int], int]:
    """The canonical form of ``acc / den`` (``den > 0``): zeros dropped,
    the common factor of the numerators and ``den`` divided out."""
    nums = {k: n for k, n in acc.items() if n}
    if not nums:
        return nums, 1
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


def _convolve(acc: dict[int, int], a: Mapping[int, int],
              b: Mapping[int, int], f: int, bound: int) -> dict[int, int]:
    """Add ``f * a[ka] * b[kb]`` at ``ka + kb`` into ``acc`` for every
    pair of keys whose sum is below ``bound``, and return ``acc``; sums
    that cancel stay in as zeros.  The larger operand is walked in key
    order, up to the bound."""
    if len(a) > len(b):
        a, b = b, a
    bs = sorted(b.items())
    get = acc.get
    for ka, ca in a.items():
        room = bound - ka
        ca *= f
        for kb, cb in bs:
            if kb >= room:
                break
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _sum_products(prods: Sequence[tuple[Mapping, Mapping, int]],
                  bound: int) -> tuple[dict[int, int], int]:
    """``Σ a * b / den`` over the ``(a, b, den)`` in ``prods`` (numerator
    dicts, a nonzero ``den`` of either sign) as numerators over the lcm of
    the ``den``s, and that lcm; ``bound`` as in :func:`_convolve`, and
    sums that cancel stay in as zeros."""
    den = math.lcm(*[c for _, _, c in prods])
    acc: dict[int, int] = {}
    for a, b, c in prods:
        _convolve(acc, a, b, den // c, bound)
    return acc, den


class TruncatedSeries:
    __slots__ = ("vars", "trunc", "nums", "den")

    def __init__(self, vars: Iterable[str], trunc: int,
                 terms: Mapping[Exponent, Fraction] | None = None):
        self.vars = tuple(vars)
        self.trunc = _truncation(trunc)
        clean: dict[int, Fraction] = {}
        if terms:
            nv, w = len(self.vars), self.trunc.bit_length()
            for exp, c in terms.items():
                exp = _exponent(exp, nv)
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent")
                c = _as_fraction(c)
                if c and sum(exp) <= self.trunc:
                    clean[_pack(exp, w)] = c
        self.nums, self.den = _numerators(clean)

    @classmethod
    def _raw(cls, vars: tuple[str, ...], trunc: int, nums: dict[int, int],
             den: int) -> "TruncatedSeries":
        """Wrap a canonical ``(nums, den)`` packed for ``trunc``."""
        out = object.__new__(cls)
        out.vars, out.trunc, out.nums, out.den = vars, trunc, nums, den
        return out

    def _with(self, acc: Mapping[int, int], den: int) -> "TruncatedSeries":
        """A series in this ring from any numerators over ``den > 0``."""
        return self._raw(self.vars, self.trunc, *_reduce(acc, den))

    def _shift(self) -> int:
        """The bit offset of the degree field."""
        return len(self.vars) * self.trunc.bit_length()

    def _bound(self) -> int:
        """The least key of degree above the truncation."""
        return self.trunc + 1 << self._shift()

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, vars: Iterable[str], trunc: int) -> "TruncatedSeries":
        trunc = _truncation(trunc)
        c = _as_fraction(value)
        return cls._raw(tuple(vars), trunc, {0: c.numerator} if c else {},
                        c.denominator)

    @classmethod
    def variable(cls, name: str, vars: Iterable[str], trunc: int) -> "TruncatedSeries":
        vars = tuple(vars)
        idx = vars.index(name)
        trunc = _truncation(trunc)
        # degree 1 is above truncation 0
        exp = tuple(int(i == idx) for i in range(len(vars)))
        return cls._raw(vars, trunc, {_pack(exp, trunc.bit_length()): 1}
                        if trunc else {}, 1)

    def copy(self) -> "TruncatedSeries":
        return self._raw(self.vars, self.trunc, dict(self.nums), self.den)

    # ------------------------------------------------------------------
    # inspection

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A new dict from exponent tuples to the ``Fraction``
        coefficients; changing it leaves the series as it is."""
        nv, w, den = len(self.vars), self.trunc.bit_length(), self.den
        return {_unpack(k, nv, w): Fraction(n, den)
                for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        n = self.nums.get(0)
        return Fraction(n, self.den) if n else _ZERO

    def is_unit(self) -> bool:
        return 0 in self.nums

    def order(self) -> int | float:
        """Minimal total degree of a nonzero term (``math.inf`` for 0)."""
        if not self.nums:
            return math.inf
        return min(self.nums) >> self._shift()

    def ideal_order(self, ideal_vars: Iterable[str]) -> int | float:
        """Minimal total degree counted on ``ideal_vars`` only;
        ``math.inf`` for the zero series."""
        if not self.nums:
            return math.inf
        w = self.trunc.bit_length()
        mask = (1 << w) - 1
        ideal = set(ideal_vars)
        at = [i * w for i, v in enumerate(self.vars) if v in ideal]
        return min(sum(k >> s & mask for s in at) for k in self.nums)

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        shift = self._shift()
        return self._with({k: n for k, n in self.nums.items()
                           if k >> shift == degree}, self.den)

    def lowest_part(self) -> "TruncatedSeries":
        d = self.order()
        if d is math.inf:
            return TruncatedSeries(self.vars, self.trunc)
        return self.homogeneous_part(d)

    def coefficient(self, exp: Exponent) -> Fraction:
        exp = tuple(exp)
        if len(exp) != len(self.vars) or min(exp, default=0) < 0 \
                or sum(exp) > self.trunc:
            return _ZERO
        n = self.nums.get(_pack(exp, self.trunc.bit_length()))
        return Fraction(n, self.den) if n else _ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.vars == other.vars and self.trunc == other.trunc
                and self.den == other.den and self.nums == other.nums)

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "<series 0>"
        bits = []
        for exp in sorted(terms)[:6]:
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.vars, exp) if e)
            bits.append(f"{terms[exp]}{'*' + mono if mono else ''}")
        more = "+..." if len(terms) > 6 else ""
        return f"<series {' + '.join(bits)}{more} (D={self.trunc})>"

    # ------------------------------------------------------------------
    # ring operations

    def _check_compat(self, other: "TruncatedSeries") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")

    def _combine(self, other, sign: int) -> "TruncatedSeries":
        """``self + sign * other``, a scalar ``other`` lifted first."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.vars, self.trunc)
        self._check_compat(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        nums = {k: n * fa for k, n in self.nums.items()}
        get = nums.get
        for k, n in other.nums.items():
            nums[k] = get(k, 0) + n * fb
        return self._with(nums, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, self.trunc,
                         {k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, value) -> "TruncatedSeries":
        c = _as_fraction(value)
        return self._with({k: n * c.numerator for k, n in self.nums.items()},
                          self.den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compat(other)
        return self._with(*_sum_products(
            [(self.nums, other.nums, self.den * other.den)], self._bound()))

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("series is not a unit (zero constant term)")
        inv0 = 1 / c0
        # the root of self*z - 1 = 0; a0 = -1 has no part above degree 0
        return _graded_root(self, {}, _grade(self), {}, inv0, inv0)

    def divide_monomial(self, exp: Exponent) -> "TruncatedSeries":
        """Exact division by ``x^exp``; every term must be divisible.

        A series exact to degree D determines the quotient only up to
        degree D - deg(exp), so the truncation drops accordingly; a
        monomial of degree above D raises ``ValueError``.
        """
        nv, w = len(self.vars), self.trunc.bit_length()
        exp = _exponent(exp, nv)
        if sum(exp) > self.trunc:
            raise ValueError(f"monomial degree {sum(exp)} exceeds the "
                             f"truncation degree {self.trunc}")
        mask, sub = (1 << w) - 1, _pack(exp, w)
        at = [(i * w, x) for i, x in enumerate(exp) if x]
        nums: dict[int, int] = {}
        for k, n in self.nums.items():
            if any(k >> s & mask < x for s, x in at):
                raise ValueError(f"term {_unpack(k, nv, w)} not divisible "
                                 f"by {exp}")
            nums[k - sub] = n
        trunc = self.trunc - sum(exp)
        return self._raw(self.vars, trunc,
                         _repack(nums, nv, w, trunc.bit_length()), self.den)

    # ------------------------------------------------------------------
    # structural operations

    def truncate(self, new_trunc: int) -> "TruncatedSeries":
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation (information lost)")
        if new_trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        if new_trunc == self.trunc:
            return self.copy()
        bound = new_trunc + 1 << self._shift()
        nums, den = _reduce({k: n for k, n in self.nums.items()
                             if k < bound}, self.den)
        nv, w = len(self.vars), self.trunc.bit_length()
        return self._raw(self.vars, new_trunc,
                         _repack(nums, nv, w, new_trunc.bit_length()), den)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        terms = self.terms
        items = [{"exp": list(e), "num": terms[e].numerator,
                  "den": terms[e].denominator} for e in sorted(terms)]
        return {"vars": list(self.vars), "trunc": self.trunc, "terms": items}


def _grade(s: TruncatedSeries) -> dict[int, tuple[dict[int, int], int]]:
    """The homogeneous parts of ``s`` by degree, each as ``(numerators,
    den)`` over the series' ``den``."""
    shift = s._shift()
    parts: dict[int, dict[int, int]] = {}
    for k, n in s.nums.items():
        parts.setdefault(k >> shift, {})[k] = n
    return {d: (p, s.den) for d, p in parts.items()}


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
    root0 = _as_fraction(root0)
    if a2.constant_term() * root0 ** 2 + a1.constant_term() * root0 \
            + a0.constant_term() != 0:
        raise ValueError("root0 does not solve the constant-term quadratic")
    div = 2 * a2.constant_term() * root0 + a1.constant_term()
    if div == 0:
        raise ZeroDivisionError("quadratic linearization is degenerate")
    return _graded_root(a2, _grade(a2), _grade(a1), _grade(a0), root0,
                        1 / div)


def _graded_root(ring: TruncatedSeries,
                 a2: Mapping[int, tuple[dict[int, int], int]],
                 a1: Mapping[int, tuple[dict[int, int], int]],
                 a0: Mapping[int, tuple[dict[int, int], int]],
                 root0: Fraction, inv_div: Fraction) -> TruncatedSeries:
    """Root of ``a2*z^2 + a1*z + a0`` with constant term ``root0``, in the
    ring of ``ring``, given the graded parts ``a2``, ``a1``, ``a0`` of the
    coefficients (see :func:`_grade`) and the inverse of the
    linearization divisor ``2*a2(0)*root0 + a1(0)``.

    The degree-d part of the quadratic is ``div * z_d`` plus terms in
    ``z_0 .. z_{d-1}`` only, which fixes ``z_d``.  Every part is carried
    as ``(integer numerators, denominator)``; a solved part ``z_d`` is
    divided by the gcd of its numerators and denominator, so over the
    lcm of the parts' denominators the root is canonical at once.
    """
    trunc, bound = ring.trunc, ring._bound()
    one = {0: 1}
    z_parts: dict[int, tuple[dict[int, int], int]] = {}
    if root0 != 0:
        z_parts[0] = ({0: root0.numerator}, root0.denominator)
    neg_num, div_den = -inv_div.numerator, inv_div.denominator
    for d in range(1, trunc + 1):
        # the degree-d contributions as products (a, b, den) of integer
        # numerators over a common denominator; ``z_parts`` holds degrees
        # below d only, so no product involves z_d, which is folded into
        # the divisor, and z_j * z_k with j < k stands for both orders
        prods = []
        for i, (ai, ci) in a2.items():
            for j, (zj, cj) in z_parts.items():
                k = d - i - j
                if j <= k and k in z_parts:
                    zk, ck = z_parts[k]
                    prods.append((ai, _convolve({}, zj, zk, 1 + (j < k),
                                                bound), ci * cj * ck))
        for i, (ai, ci) in a1.items():
            zj = z_parts.get(d - i)
            if zj is not None:
                prods.append((ai, zj[0], ci * zj[1]))
        if d in a0:
            nums, c = a0[d]
            prods.append((nums, one, c))
        # a1_0 * z_d + 2 a2_0 z_0 z_d + acc / den = 0
        acc, den = _sum_products(prods, bound)
        part, den = _reduce({k: n * neg_num for k, n in acc.items()},
                            den * div_den)
        if part:
            z_parts[d] = part, den
    den = math.lcm(*[c for _, c in z_parts.values()])
    return TruncatedSeries._raw(ring.vars, trunc, {
        k: n * (den // c) for nums, c in z_parts.values()
        for k, n in nums.items()}, den)
