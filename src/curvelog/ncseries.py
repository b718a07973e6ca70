"""Truncated noncommutative power series with pluggable coefficients.

Words are tuples of letter indices; everything of length beyond the
truncation is dropped.  Coefficients live in a ring described by a small
:class:`Ring` record, so the same series type serves exact rational
computations, symbolic period combinations, log-polynomials, and complex
numerics.

A series holds ``nums``, a dict from each word to a dict from monomial
ids to nonzero numerators, over one denominator ``den``.  A monomial id
stands for a key ``(e_1, ..., e_n, ipi_pow, zetas)`` of
:mod:`curvelog.logpoly` (symbol exponents, then the period key, the
zeta multiset sorted and unreduced), interned in the table of the
ring's symbol count (:func:`_monomials`); id 0 is the unit.  Over an
exact ring the numerators are ``int``s and the form is canonical:
``gcd(den, *numerators) == 1`` and the zero series has ``den == 1``, so
``==`` compares fields.  ``RATIONAL`` uses the unit monomial alone and
``CONSTANTS`` the monomials over no symbols.  ``COMPLEX``, the ODE
oracle's ring, has the same layout with one ``complex`` numerator per
word on the unit monomial and ``den == 1``, so it never takes the gcd
step.

A product groups the right operand's words by length, so that only the
pairs within the truncation are visited, and convolves each pair's
monomial dicts on the numerators: the product of two ids is one lookup
in the table's product rows, which fill on first use.  Scaling by a
rational or by a ring element runs the same kernel; sums, negation,
:meth:`NCSeries.select` and :meth:`NCSeries.map_terms` work on the
numerators too.  ``exp`` and ``invert`` are one power sum
``sum_k x^k / w_k`` (``w_k = k!``, and ``w_k = 1`` on ``x = 1 - self``):
the powers are convolved on the numerators until one vanishes, then
summed over one common denominator, which an exact ring reduces once
and ``COMPLEX`` divides into its numerators.  Scalars are coerced, and
term dicts summed, by the helpers of :mod:`curvelog.terms`.

``substitute`` takes rational images only.  It reads each image once as
its ``(word, numerator)`` pairs by length over its denominator, and
multiplies them along each distinct prefix of the source words once, as
plain ``{word: numerator}`` dicts over the product of the images'
denominators, stopping each row at the truncation.  It then adds
``q * c`` for each source coefficient ``c`` and image coefficient ``q``
over the lcm of those denominators straight into the numerators of the
source series' ring, so the associator's period constants stay
constants; no ring hook takes part.  A caller that needs the
result in a larger exact ring lifts it once with
:meth:`NCSeries.lift`, the one exact re-key: it keeps the numerators
and inserts zero exponents for the symbols the source ring lacks.

Ring elements (``Fraction``, ``LogPoly``, ``ConstantCombination``,
``complex``) appear only at the boundary: the constructor and scalar
arguments, the read-only :attr:`NCSeries.terms` (a new dict from words
to ring elements), ``coefficient``, ``constant_term``,
``map_coefficients``, ``to_json``,
``from_json`` and ``repr``.

Group-likeness is the shuffle-relation test: an element with constant
term 1 is group-like iff ``c(u) c(v) = sum_w <u sh v, w> c(w)`` for all
word pairs inside the truncation, which is the coefficient form of
"coproduct of the element = element tensor element".
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

from .jsonio import frac_to_str, json_list
from .terms import _add_terms, _as_fraction, _exponent

Word = tuple[int, ...]


class _Row(dict):
    """``row[j]`` is the id of the product of the monomials ``i`` and
    ``j`` of ``table``, computed on the first lookup."""
    __slots__ = ("table", "i")

    def __init__(self, table: "_Monomials", i: int):
        self.table, self.i = table, i

    def __missing__(self, j: int) -> int:
        table = self.table
        a, b = table.keys[self.i], table.keys[j]
        za, zb = a[-1], b[-1]
        k = self[j] = table.rows[j][self.i] = table.intern(
            (*map(add, a[:-1], b[:-1]),
             tuple(sorted(za + zb)) if za and zb else za or zb))
        return k


class _Monomials:
    """The interned monomials over ``n`` symbols: id ``i`` stands for
    ``keys[i]`` and id 0 for the unit; ``rows[i]`` is the product row of
    ``i`` (:class:`_Row`).  Only monomials that some computation builds
    are interned."""
    __slots__ = ("n", "keys", "ids", "rows")

    def __init__(self, n: int):
        self.n = n
        self.keys: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.rows: list[_Row] = []
        self.intern((0,) * n + (0, ()))

    def intern(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(_Row(self, i))
        return i


_TABLES: dict[int, _Monomials] = {}


def _monomials(n: int) -> _Monomials:
    """The monomial table of the rings over ``n`` symbols.  Rings of one
    symbol count share it, so that rings of one name built apart (a
    ``logpoly_ring`` per calculator) give their series the same ids; a
    table only grows, and no output depends on the id values."""
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = _Monomials(n)
    return table


class Ring(NamedTuple):
    name: str
    zero: object
    one: object
    encode: Callable         # element -> JSON-able
    decode: Callable         # JSON-able -> element
    split: Callable          # element or rational -> ({id: numerator}, den)
    join: Callable           # ({monomial id: numerator}, den) -> element
    table: _Monomials        # the monomials of the ring's symbol count
    close: Callable = lambda a, b, tol: a == b   # equal values (COMPLEX: tol)
    exact: bool = True       # int numerators (COMPLEX: complex, den 1)


def _split_rational(q) -> tuple[dict[int, int], int]:
    q = _as_fraction(q)
    return ({0: q.numerator}, q.denominator) if q else ({}, 1)


RATIONAL = Ring("rational", Fraction(0), Fraction(1), frac_to_str,
                _as_fraction, _split_rational,
                lambda m, den: Fraction(m[0], den), _monomials(0))

COMPLEX = Ring("complex", complex(0), complex(1),
               lambda c: {"re": c.real, "im": c.imag},
               lambda d: complex(d["re"], d["im"]),
               lambda c: ({0: c} if c else {}, 1), lambda m, den: m[0],
               _monomials(0), close=lambda a, b, tol: abs(a - b) <= tol,
               exact=False)


def _canonical(nums: dict, den: int) -> tuple[dict, int]:
    """The canonical form of ``nums / den``: ``den > 0`` and ``nums``
    holds no zero numerator and no empty word."""
    if den == 1 or not nums:
        return nums, 1
    g = den
    for m in nums.values():
        g = gcd(g, *m.values())
        if g == 1:
            return nums, den
    return {w: {k: n // g for k, n in m.items()}
            for w, m in nums.items()}, den // g


def _product(a: Mapping, b: Mapping, trunc: int, rows: list) -> dict:
    """The numerators of ``a * b``, both word -> {monomial id ->
    numerator} dicts, on the words within ``trunc``; no zero is kept."""
    by_len: list[list] = [[] for _ in range(trunc + 1)]
    for w2, m2 in b.items():
        by_len[len(w2)].append((w2, tuple(m2.items())))
    out: dict[Word, dict] = {}
    for w1, m1 in a.items():
        m1 = [(rows[i], n) for i, n in m1.items()]
        for bucket in by_len[:trunc - len(w1) + 1]:
            for w2, m2 in bucket:
                w = w1 + w2
                acc = out.get(w)
                if acc is None:
                    acc = out[w] = {}
                get = acc.get
                for row, n1 in m1:
                    for j, n2 in m2:
                        k = row[j]
                        p = n1 * n2
                        s = get(k)
                        if s is None:
                            acc[k] = p
                        elif s := s + p:
                            acc[k] = s
                        else:
                            del acc[k]
                if not acc:
                    del out[w]
    return out


@lru_cache(maxsize=None)
def shuffle_words(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """Shuffle product of two words as (word, multiplicity) pairs."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[Word, int] = {}
    for w, m in shuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in shuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return tuple(sorted(out.items()))


class NCSeries:
    __slots__ = ("alphabet", "trunc", "ring", "nums", "den")

    def __init__(self, alphabet: Sequence[str], trunc: int, ring: Ring,
                 terms: Mapping[Word, object] | None = None):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters")
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        self.trunc = int(trunc)
        self.ring = ring
        parts = []
        for w, c in (terms or {}).items():
            if len(w) <= self.trunc and c:
                m, d = ring.split(c)
                if m:
                    parts.append((tuple(w), m, d))
        # each part is canonical, so over the lcm the whole form is
        self.den = den = lcm(*[d for _, _, d in parts])
        self.nums: dict[Word, dict] = {
            w: m if d == den else {k: n * (den // d) for k, n in m.items()}
            for w, m, d in parts}

    @classmethod
    def _raw(cls, alphabet: tuple, trunc: int, ring: Ring, nums: dict,
             den: int) -> "NCSeries":
        """Wrap a canonical ``(nums, den)``."""
        out = object.__new__(cls)
        out.alphabet, out.trunc, out.ring = alphabet, trunc, ring
        out.nums, out.den = nums, den
        return out

    def _like(self, nums: dict, den: int, ring: Ring | None = None
              ) -> "NCSeries":
        """A series on this one's letters and truncation from zero-free
        numerators over ``den > 0``."""
        return self._raw(self.alphabet, self.trunc, ring or self.ring,
                         *_canonical(nums, den))

    # ------------------------------------------------------------------
    # constructors and inspection

    @classmethod
    def zero(cls, alphabet, trunc, ring=RATIONAL) -> "NCSeries":
        return cls(alphabet, trunc, ring)

    @classmethod
    def unit(cls, alphabet, trunc, ring=RATIONAL) -> "NCSeries":
        return cls(alphabet, trunc, ring, {(): ring.one})

    @classmethod
    def letter(cls, name: str, alphabet, trunc, ring=RATIONAL) -> "NCSeries":
        i = tuple(alphabet).index(name)
        return cls(alphabet, trunc, ring, {(i,): ring.one})

    @property
    def terms(self) -> dict:
        """A new dict from words to ring elements; changing it leaves the
        series as it is."""
        join, den = self.ring.join, self.den
        return {w: join(m, den) for w, m in self.nums.items()}

    def coefficient(self, word: Sequence[str]):
        m = self.nums.get(tuple(self.alphabet.index(l) for l in word))
        return self.ring.zero if m is None else self.ring.join(m, self.den)

    def constant_term(self):
        m = self.nums.get(())
        return self.ring.zero if m is None else self.ring.join(m, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def order(self) -> int:
        if not self.nums:
            return self.trunc + 1
        return min(len(w) for w in self.nums)

    def map_coefficients(self, fn: Callable, ring: Ring) -> "NCSeries":
        """The series of ``fn`` of each coefficient, over ``ring``."""
        return NCSeries(self.alphabet, self.trunc, ring,
                        {w: fn(c) for w, c in self.terms.items()})

    def lift(self, ring: Ring) -> "NCSeries":
        """This series over the exact ``ring``, whose symbols begin with
        this ring's: each monomial gains zero exponents for the symbols
        after them, and the numerators stay as they are."""
        src = self.ring
        n = src.table.n
        if not (src.exact and ring.exact) or ring.table.n < n:
            raise ValueError(f"no lift from {src.name} to {ring.name}")
        keys, intern = src.table.keys, ring.table.intern
        pad = (0,) * (ring.table.n - n)
        return self._raw(self.alphabet, self.trunc, ring, {
            w: {intern(keys[i][:n] + pad + keys[i][n:]): c
                for i, c in m.items()}
            for w, m in self.nums.items()}, self.den)

    def select(self, keep: Callable[[tuple], bool]) -> "NCSeries":
        """The coefficient terms whose monomial key passes ``keep``."""
        keys, seen = self.ring.table.keys, {}
        out = {}
        for w, m in self.nums.items():
            kept = {}
            for i, n in m.items():
                ok = seen.get(i)
                if ok is None:
                    ok = seen[i] = keep(keys[i])
                if ok:
                    kept[i] = n
            if kept:
                out[w] = kept
        return self._like(out, self.den)

    def map_terms(self, term: Callable, ring: Ring) -> "NCSeries":
        """Send every coefficient term of monomial key ``k`` through
        ``term(k)``, which gives ``(key, factor)`` pairs over ``ring``
        with rational factors, and sum: the term maps of the sewing
        zones."""
        keys, intern = self.ring.table.keys, ring.table.intern
        images: dict[int, list] = {}
        for m in self.nums.values():
            for i in m:
                if i not in images:
                    images[i] = [(intern(k), _as_fraction(f))
                                 for k, f in term(keys[i])]
        den = lcm(*[f.denominator for pairs in images.values()
                    for _, f in pairs])
        for i, pairs in images.items():
            images[i] = [(k, f.numerator * (den // f.denominator))
                         for k, f in pairs if f]
        out = {}
        for w, m in self.nums.items():
            acc: dict[int, int] = {}
            for i, n in m.items():
                _add_terms(acc, ((k, n * f) for k, f in images[i]))
            if acc:
                out[w] = acc
        return self._like(out, self.den * den, ring)

    def _compat(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")
        if self.ring.name != other.ring.name:
            raise ValueError("coefficient ring mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.trunc == other.trunc
                and self.ring.name == other.ring.name
                and self.den == other.den and self.nums == other.nums)

    # ------------------------------------------------------------------
    # ring operations

    def _combine(self, other: "NCSeries", sign: int) -> "NCSeries":
        """``self + sign * other`` in one pass; sums that cancel leave no
        key."""
        self._compat(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        # word dicts are never changed in place, so this shares them
        out = dict(self.nums) if fa == 1 else {
            w: {k: n * fa for k, n in m.items()}
            for w, m in self.nums.items()}
        for w, m in other.nums.items():
            pairs = m.items() if fb == 1 else \
                [(k, -n) for k, n in m.items()] if fb == -1 else \
                [(k, n * fb) for k, n in m.items()]
            acc = out.get(w)
            if acc is None:
                out[w] = dict(pairs)
            elif acc := _add_terms(dict(acc) if fa == 1 else acc, pairs):
                out[w] = acc
            else:
                del out[w]
        return self._like(out, den)

    def __add__(self, other: "NCSeries") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self) -> "NCSeries":
        return self._raw(self.alphabet, self.trunc, self.ring,
                         {w: {k: -n for k, n in m.items()}
                          for w, m in self.nums.items()}, self.den)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        """``self + (-other)`` in one pass; equal coefficients cancel."""
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self._combine(other, -1)

    def scale(self, value) -> "NCSeries":
        """Multiply by a scalar: a rational or a ring element, as
        ``ring.split`` takes it."""
        ring = self.ring
        m, d = ring.split(value)
        return self._like(_product(self.nums, {(): m}, self.trunc,
                                   ring.table.rows), self.den * d)

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return NotImplemented
        self._compat(other)
        return self._like(_product(self.nums, other.nums, self.trunc,
                                   self.ring.table.rows),
                          self.den * other.den)

    def bracket(self, other: "NCSeries") -> "NCSeries":
        return self * other - other * self

    def _power_sum(self, weight: Callable[[int], int]) -> "NCSeries":
        """``sum_k self^k / weight(k)`` for a series of positive order: the
        powers are convolved on the numerators until one vanishes, summed
        over one common denominator and reduced once; an inexact ring
        divides its numerators by that denominator instead."""
        ring, nums, trunc = self.ring, self.nums, self.trunc
        powers = [{(): ring.split(ring.one)[0]}]
        while len(powers) <= trunc:
            power = _product(powers[-1], nums, trunc, ring.table.rows)
            if not power:
                break
            powers.append(power)
        top = len(powers) - 1
        weights = [weight(k) for k in range(top + 1)]
        w_den = lcm(*weights)
        # x^k / w_k over den^top * w_den
        out: dict[Word, dict] = {}
        for k, power in enumerate(powers):
            f = self.den ** (top - k) * (w_den // weights[k])
            for w, m in power.items():
                pairs = m.items() if f == 1 else \
                    [(i, n * f) for i, n in m.items()]
                acc = out.get(w)
                if acc is None:
                    out[w] = dict(pairs)
                elif not _add_terms(acc, pairs):
                    del out[w]
        den = self.den ** top * w_den
        if not ring.exact:
            return self._like({w: {i: n / den for i, n in m.items()}
                               for w, m in out.items()}, 1)
        return self._like(out, den)

    def exp(self) -> "NCSeries":
        if self.order() < 1:
            raise ValueError("exp needs a series without constant term")
        return self._power_sum(factorial)

    def invert(self) -> "NCSeries":
        """Inverse of a series with constant term one."""
        if self.nums.get(()) != {0: self.den}:
            raise ValueError("invert needs constant term one")
        return (NCSeries.unit(self.alphabet, self.trunc, self.ring)
                - self)._power_sum(lambda k: 1)

    def ad_series(self, coeffs: Sequence[Fraction],
                  arg: "NCSeries") -> "NCSeries":
        """Evaluate ``sum_n coeffs[n] ad_self^n(arg)``."""
        out = arg.scale(coeffs[0]) if coeffs else \
            NCSeries.zero(self.alphabet, self.trunc, self.ring)
        cur = arg
        for n in range(1, len(coeffs)):
            cur = self.bracket(cur)
            if cur.is_zero():
                break
            if coeffs[n]:
                out = out + cur.scale(coeffs[n])
        return out

    def substitute(self, images: Mapping[str, "NCSeries"]) -> "NCSeries":
        """Ring homomorphism sending each letter to a rational series of
        positive order; the result keeps this series' ring, which must be
        exact."""
        if not images:
            raise ValueError("no images")
        target = next(iter(images.values()))
        if target.ring.name != RATIONAL.name:
            raise ValueError("images must be rational series")
        for name in self.alphabet:
            if name not in images:
                raise ValueError(f"letter {name} has no image")
            img = images[name]
            if img.order() < 1:
                raise ValueError(f"image of {name} has a constant term")
            if (img.alphabet, img.trunc, img.ring.name) != \
                    (target.alphabet, target.trunc, target.ring.name):
                raise ValueError("images live in different rings")
        if not self.ring.exact:
            raise ValueError("substitute needs an exact coefficient ring")
        trunc = target.trunc
        imgs = [(sorted([(len(u), u, m[0]) for u, m in img.nums.items()]),
                 img.den) for img in map(images.get, self.alphabet)]
        # the product of the images along each prefix, built once as
        # {word: numerator} over the product of the images' denominators
        prefix = {(): ({(): 1}, 1)}
        used = []
        for w, m in self.nums.items():
            n = len(w)
            while w[:n] not in prefix:
                n -= 1
            p, d = prefix[w[:n]]
            for i in range(n, len(w)):
                pairs, di = imgs[w[i]]
                nxt: dict[Word, int] = {}
                for u, a in p.items():
                    room = trunc - len(u)
                    for k, v, b in pairs:
                        if k > room:
                            break
                        uv = u + v
                        nxt[uv] = nxt.get(uv, 0) + a * b
                p, d = {u: c for u, c in nxt.items() if c}, d * di
                prefix[w[:i + 1]] = p, d
            used.append((p, d, m))
        # sum q * c over one denominator; an image coefficient q sits on
        # the unit monomial
        den = lcm(*[d for _, d, _ in used])
        acc: dict[Word, dict] = {}
        for p, d, m in used:
            f = den // d
            for u, pu in p.items():
                q = pu * f
                a = acc.get(u)
                if a is None:
                    acc[u] = {k: n * q for k, n in m.items()}
                else:
                    for k, n in m.items():
                        a[k] = a.get(k, 0) + n * q
        nums = {}
        for u, a in acc.items():
            if a := {k: n for k, n in a.items() if n}:
                nums[u] = a
        return self._raw(target.alphabet, target.trunc, self.ring,
                         *_canonical(nums, den * self.den))

    def rename(self, mapping: Mapping[str, str]) -> "NCSeries":
        new_alpha = tuple(mapping.get(a, a) for a in self.alphabet)
        if len(set(new_alpha)) != len(new_alpha):
            raise ValueError("renaming collides")
        return self._raw(new_alpha, self.trunc, self.ring, self.nums,
                         self.den)

    def extend(self, alphabet: Sequence[str]) -> "NCSeries":
        out = NCSeries(alphabet, self.trunc, self.ring)
        pos = [out.alphabet.index(a) for a in self.alphabet]
        out.nums = {tuple(pos[i] for i in w): m for w, m in self.nums.items()}
        out.den = self.den
        return out

    # ------------------------------------------------------------------
    # structure tests

    def is_grouplike(self, tol: float = 0.0) -> bool:
        """Shuffle-relation test; coefficients compare by ``ring.close``,
        which sees the difference of the two sides only where their
        numerators differ."""
        ring = self.ring
        close = ring.close
        if not close(self.constant_term(), ring.one, tol):
            return False
        # relations must hold for every pair of nonempty words, including
        # pairs whose coefficient is zero; enumerate all words up to trunc
        letters = range(len(self.alphabet))
        universe: list[Word] = []
        for n in range(1, self.trunc + 1):
            universe.extend(product(letters, repeat=n))
        nums, den, rows = self.nums, self.den, ring.table.rows
        for i, u in enumerate(universe):
            mu = nums.get(u, {})
            for v in universe[i:]:
                if len(u) + len(v) > self.trunc:
                    continue
                # c(u) c(v) - sum_w <u sh v, w> c(w), over den**2
                diff: dict[int, object] = {}
                for a, x in mu.items():
                    row = rows[a]
                    _add_terms(diff, ((row[b], x * y)
                                      for b, y in nums.get(v, {}).items()))
                for w, mult in shuffle_words(u, v):
                    c = nums.get(w)
                    if c is not None:
                        f = -mult * den
                        _add_terms(diff, ((k, n * f) for k, n in c.items()))
                if diff and not close(ring.join(diff, den * den), ring.zero,
                                      tol):
                    return False
        return True

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        encode, join = self.ring.encode, self.ring.join
        items = []
        for w in sorted(self.nums, key=lambda w: (len(w), w)):
            items.append({"word": [self.alphabet[i] for i in w],
                          "coeff": encode(join(self.nums[w], self.den))})
        return {"alphabet": list(self.alphabet), "trunc": self.trunc,
                "ring": self.ring.name, "terms": items}

    @classmethod
    def from_json(cls, data: dict, ring: Ring) -> "NCSeries":
        if not isinstance(data, dict):
            raise ValueError("a series must be a JSON object")
        if data.get("ring", ring.name) != ring.name:
            raise ValueError("ring mismatch")
        alphabet = tuple(json_list(data, "alphabet"))
        idx = {a: i for i, a in enumerate(alphabet)}
        trunc = _exponent([data["trunc"]], 1)[0]
        terms = {tuple(idx[l] for l in json_list(t, "word")):
                 ring.decode(t["coeff"]) for t in json_list(data, "terms")}
        if any(len(w) > trunc for w in terms):
            raise ValueError(f"a word is longer than the truncation {trunc}")
        return cls(alphabet, trunc, ring, terms)

    def __repr__(self) -> str:
        terms = self.terms
        parts = [f"{terms[w]}*{''.join(self.alphabet[i] for i in w) or 1}"
                 for w in sorted(terms, key=lambda w: (len(w), w))[:6]]
        more = "+..." if len(terms) > 6 else ""
        return f"<nc {' + '.join(parts) or '0'}{more} (W={self.trunc})>"
