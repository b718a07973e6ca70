"""Truncated noncommutative power series with pluggable coefficients.

Words are tuples of letter indices; everything of length beyond the
truncation is dropped.  Coefficients live in a ring described by a small
:class:`Ring` record (zero, one, embedding of rationals, JSON codec, value
equality), so the same series type serves exact rational computations,
symbolic period combinations, log-polynomials, and complex numerics.

A product groups the right operand's words by length, so that only the
pairs within the truncation are visited, and multiplies their
coefficients pair by pair in every ring.

``substitute`` takes rational images only.  It multiplies them along
each distinct prefix of the source words once, and each target word's
coefficient is one rational linear combination ``sum_w q_w c_w`` in the
source series' own ring (the associator's period constants stay
constants), built by the ring's ``scaled_sum`` hook: ``*`` and ``+`` by
default, one flat term accumulation for the ``LogPoly`` rings.  A
caller that needs the result in a larger ring lifts it once with
:meth:`NCSeries.map_coefficients`.

Group-likeness is the shuffle-relation test: an element with constant
term 1 is group-like iff ``c(u) c(v) = sum_w <u sh v, w> c(w)`` for all
word pairs inside the truncation, which is the coefficient form of
"coproduct of the element = element tensor element".
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import add
from typing import Callable, Mapping, Sequence

from .cpseries import _add_terms, _as_fraction, _exponent
from .jsonio import frac_to_str

Word = tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    name: str
    zero: object
    one: object
    embed: Callable          # Fraction | int -> element
    encode: Callable         # element -> JSON-able
    decode: Callable         # JSON-able -> element
    close: Callable = lambda a, b, tol: a == b   # equal values (COMPLEX: tol)
    # nonempty [(q, c)], q rational -> sum of c * q
    scaled_sum: Callable = lambda pairs: reduce(add, (c * q for q, c in pairs))


RATIONAL = Ring("rational", Fraction(0), Fraction(1), _as_fraction,
                frac_to_str, _as_fraction)

COMPLEX = Ring("complex", complex(0), complex(1), complex,
               lambda c: {"re": c.real, "im": c.imag},
               lambda d: complex(d["re"], d["im"]),
               close=lambda a, b, tol: abs(a - b) <= tol)


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
    __slots__ = ("alphabet", "trunc", "ring", "terms")

    def __init__(self, alphabet: Sequence[str], trunc: int, ring: Ring,
                 terms: Mapping[Word, object] | None = None):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters")
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        self.trunc = int(trunc)
        self.ring = ring
        self.terms: dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if len(w) <= self.trunc and c:
                    self.terms[tuple(w)] = c

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

    def coefficient(self, word: Sequence[str]):
        idx = tuple(self.alphabet.index(l) for l in word)
        return self.terms.get(idx, self.ring.zero)

    def constant_term(self):
        return self.terms.get((), self.ring.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        if not self.terms:
            return self.trunc + 1
        return min(len(w) for w in self.terms)

    def map_coefficients(self, fn: Callable, ring: Ring) -> "NCSeries":
        return NCSeries(self.alphabet, self.trunc, ring,
                        {w: fn(c) for w, c in self.terms.items()})

    def _compat(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")
        if self.ring.name != other.ring.name:
            raise ValueError("coefficient ring mismatch")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._compat(other)
        return NCSeries(self.alphabet, self.trunc, self.ring,
                        _add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "NCSeries":
        return NCSeries(self.alphabet, self.trunc, self.ring,
                        {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        """``self + (-other)`` in one pass; equal coefficients cancel."""
        self._compat(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            if s is None:
                terms[w] = -c
            elif s == c:
                del terms[w]
            else:
                terms[w] = s - c
        return NCSeries(self.alphabet, self.trunc, self.ring, terms)

    def scale(self, value) -> "NCSeries":
        """Multiply by a scalar: a rational (embedded) or ring element."""
        if isinstance(value, (int, Fraction)) or self.ring is RATIONAL:
            value = self.ring.embed(value)
        if not value:
            return NCSeries.zero(self.alphabet, self.trunc, self.ring)
        return NCSeries(self.alphabet, self.trunc, self.ring,
                        {w: value * c for w, c in self.terms.items()})

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        self._compat(other)
        trunc = self.trunc
        by_len: list[list] = [[] for _ in range(trunc + 1)]
        for w2, c2 in other.terms.items():
            by_len[len(w2)].append((w2, c2))
        out: dict[Word, object] = {}
        for w1, c1 in self.terms.items():
            for bucket in by_len[:trunc - len(w1) + 1]:
                for w2, c2 in bucket:
                    w = w1 + w2
                    p = c1 * c2
                    s = out.get(w)
                    if s is None:
                        if p:
                            out[w] = p
                    elif s := s + p:
                        out[w] = s
                    else:
                        del out[w]
        return NCSeries(self.alphabet, trunc, self.ring, out)

    def bracket(self, other: "NCSeries") -> "NCSeries":
        return self * other - other * self

    def exp(self) -> "NCSeries":
        if self.order() < 1:
            raise ValueError("exp needs a series without constant term")
        out = NCSeries.unit(self.alphabet, self.trunc, self.ring)
        power = out
        fact = Fraction(1)
        for n in range(1, self.trunc + 1):
            power = power * self
            fact *= n
            out = out + power.scale(1 / fact)
        return out

    def invert(self) -> "NCSeries":
        """Inverse of a series with constant term one."""
        if self.constant_term() != self.ring.one:
            raise ValueError("invert needs constant term one")
        y = NCSeries.unit(self.alphabet, self.trunc, self.ring) - self
        out = NCSeries.unit(self.alphabet, self.trunc, self.ring)
        power = NCSeries.unit(self.alphabet, self.trunc, self.ring)
        for _ in range(self.trunc):
            power = power * y
            if power.is_zero():
                break
            out = out + power
        return out

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
        positive order; the result keeps this series' ring."""
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
        imgs = [images[name] for name in self.alphabet]
        # the product of the images along each prefix, built once
        prefix = {(): NCSeries.unit(target.alphabet, target.trunc)}
        sums: dict[Word, list] = {}
        for w, c in self.terms.items():
            n = len(w)
            while w[:n] not in prefix:
                n -= 1
            p = prefix[w[:n]]
            for i in range(n, len(w)):
                p = p * imgs[w[i]]
                prefix[w[:i + 1]] = p
            for u, q in p.terms.items():
                sums.setdefault(u, []).append((q, c))
        scaled_sum = self.ring.scaled_sum
        return NCSeries(target.alphabet, target.trunc, self.ring,
                        {u: scaled_sum(pairs) for u, pairs in sums.items()})

    def rename(self, mapping: Mapping[str, str]) -> "NCSeries":
        new_alpha = tuple(mapping.get(a, a) for a in self.alphabet)
        if len(set(new_alpha)) != len(new_alpha):
            raise ValueError("renaming collides")
        return NCSeries(new_alpha, self.trunc, self.ring, self.terms)

    def extend(self, alphabet: Sequence[str]) -> "NCSeries":
        alphabet = tuple(alphabet)
        pos = [alphabet.index(a) for a in self.alphabet]
        return NCSeries(alphabet, self.trunc, self.ring,
                        {tuple(pos[i] for i in w): c
                         for w, c in self.terms.items()})

    # ------------------------------------------------------------------
    # structure tests

    def is_grouplike(self, tol: float = 0.0) -> bool:
        """Shuffle-relation test; coefficients compare by ``ring.close``."""
        close = self.ring.close
        if not close(self.constant_term(), self.ring.one, tol):
            return False
        # relations must hold for every pair of nonempty words, including
        # pairs whose coefficient is zero; enumerate all words up to trunc
        letters = range(len(self.alphabet))
        universe: list[Word] = []
        for n in range(1, self.trunc + 1):
            universe.extend(product(letters, repeat=n))
        zero = self.ring.zero
        for i, u in enumerate(universe):
            for v in universe[i:]:
                if len(u) + len(v) > self.trunc:
                    continue
                lhs = self.terms.get(u, zero) * self.terms.get(v, zero)
                rhs = zero
                for w, m in shuffle_words(u, v):
                    c = self.terms.get(w)
                    if c is not None:
                        rhs = rhs + c * self.ring.embed(m)
                if not close(lhs, rhs, tol):
                    return False
        return True

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        items = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            items.append({"word": [self.alphabet[i] for i in w],
                          "coeff": self.ring.encode(self.terms[w])})
        return {"alphabet": list(self.alphabet), "trunc": self.trunc,
                "ring": self.ring.name, "terms": items}

    @classmethod
    def from_json(cls, data: dict, ring: Ring) -> "NCSeries":
        if data.get("ring", ring.name) != ring.name:
            raise ValueError("ring mismatch")
        alphabet = tuple(data["alphabet"])
        idx = {a: i for i, a in enumerate(alphabet)}
        trunc = _exponent([data["trunc"]], 1)[0]
        terms = {tuple(idx[l] for l in t["word"]): ring.decode(t["coeff"])
                 for t in data["terms"]}
        if any(len(w) > trunc for w in terms):
            raise ValueError(f"a word is longer than the truncation {trunc}")
        return cls(alphabet, trunc, ring, terms)

    def __repr__(self) -> str:
        parts = [f"{self.terms[w]}*{''.join(self.alphabet[i] for i in w) or 1}"
                 for w in sorted(self.terms, key=lambda w: (len(w), w))[:6]]
        more = "+..." if len(self.terms) > 6 else ""
        return f"<nc {' + '.join(parts) or '0'}{more} (W={self.trunc})>"
