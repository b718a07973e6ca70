"""Multiple polylogarithms: certified numerics and zeta values.

Conventions
-----------
Indices use the increasing-argument form: ``Li[(k1,...,km)](z)`` sums
``z**nm / (n1**k1 * ... * nm**km)`` over ``0 < n1 < ... < nm``; it
converges at ``z = 1`` iff ``km >= 2``, where it is the multiple zeta
value ``zeta(k1,...,km)``.

The letter encoding uses words over {0, 1} read with the leftmost
letter attached to the *upper* integration endpoint: the index tuple
``(k1,...,km)`` corresponds to the word
``0^(km-1) 1  0^(k(m-1)-1) 1  ...  0^(k1-1) 1``.

Zeta numerics use the convolution trick that splits the integration
path at 1/2: every multiple zeta value becomes a finite sum of products
of series values at ``z = 1/2``, which converge geometrically and admit
easy certified tail bounds.  Values are double precision; requested
tolerances below ~1e-13 are not meaningful.
"""
from __future__ import annotations

import math
from typing import Sequence

from .terms import _exponent

Indices = tuple[int, ...]
Word = tuple[int, ...]


class Divergent(ValueError):
    """The requested value diverges (trailing index 1 at z = 1)."""


def check_indices(indices: Sequence[int]) -> Indices:
    ks = _exponent(indices, len(indices))
    if not ks:
        raise ValueError("empty index tuple")
    if any(k < 1 for k in ks):
        raise ValueError(f"indices must be >= 1, got {ks}")
    return ks


def indices_to_word(indices: Sequence[int]) -> Word:
    """Word over {0,1}; leftmost letter is outermost at the endpoint."""
    ks = check_indices(indices)
    out: list[int] = []
    for k in reversed(ks):
        out.extend([0] * (k - 1))
        out.append(1)
    return tuple(out)


def word_to_indices(word: Sequence[int]) -> Indices:
    w = tuple(int(b) for b in word)
    if not w or any(b not in (0, 1) for b in w):
        raise ValueError(f"not a {{0,1}} word: {w}")
    if w[-1] != 1:
        raise ValueError("word has a trailing 0; no index form")
    ks: list[int] = []
    run = 0
    for b in w:
        if b == 0:
            run += 1
        else:
            ks.append(run + 1)
            run = 0
    return tuple(reversed(ks))


# ---------------------------------------------------------------------------
# certified numerics


def _tail_cutoff(r: float, depth: int, prec: float) -> int:
    """Smallest convenient N with sum_{n>N} r^n n^(depth-1)/(depth-1)! < prec."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need |z| < 1, got {r}")
    j = depth - 1
    fact = math.factorial(j)
    n = 32
    while True:
        ratio = r * math.exp(j / n)
        if ratio < 0.95:
            head = r ** (n + 1) * float(n + 1) ** j / fact
            if head / (1.0 - ratio) < prec:
                return n
        n *= 2
        if n > 1 << 22:
            raise ValueError("cannot certify tail; |z| too close to 1")


def li_numeric(indices: Sequence[int], z: complex, prec: float = 1e-12):
    """Series value with a certified truncation error below ``prec``.

    At exactly ``z == 1`` the computation is delegated to
    :func:`mzv_numeric` (raising :class:`Divergent` when appropriate).
    Points with ``|z| > 0.9`` other than 1 are refused: the geometric
    tail certificate degrades there.
    """
    ks = check_indices(indices)
    z = complex(z)
    if z == 1:
        return complex(mzv_numeric(ks, prec))
    r = abs(z)
    if r > 0.9:
        raise ValueError("certified evaluation needs |z| <= 0.9 or z == 1")
    if r == 0:
        return 0j
    cutoff = _tail_cutoff(r, len(ks), prec)
    prefix = [1.0] * (cutoff + 1)
    for k in ks[:-1]:
        new = [0.0] * (cutoff + 1)
        acc = 0.0
        for n in range(1, cutoff + 1):
            acc += prefix[n - 1] / float(n) ** k
            new[n] = acc
        prefix = new
    total = 0j
    zp = 1.0 + 0j
    k_last = ks[-1]
    for n in range(1, cutoff + 1):
        zp *= z
        total += prefix[n - 1] * zp / float(n) ** k_last
    return total


def _half_value(word: Word, prec: float) -> float:
    if not word:
        return 1.0
    return li_numeric(word_to_indices(word), 0.5, prec).real


_MZV_CACHE: dict[Indices, float] = {}
_MZV_INTERNAL_PREC = 1e-15


def mzv_numeric(indices: Sequence[int], prec: float = 1e-12) -> float:
    """Multiple zeta value via path splitting at 1/2.

    The word ``w`` of the value factors over all splits ``w = u v`` into
    products of two series values at 1/2 (the left factor reversed and
    with letters swapped).  Every piece converges geometrically, so the
    whole sum carries a certified truncation bound; the result is cached
    at full double precision independent of ``prec``.
    """
    ks = check_indices(indices)
    if ks[-1] < 2:
        raise Divergent(f"zeta{ks} diverges (last index 1)")
    cached = _MZV_CACHE.get(ks)
    if cached is None:
        w = indices_to_word(ks)
        piece_prec = _MZV_INTERNAL_PREC / (2 * (len(w) + 1))
        total = 0.0
        for i in range(len(w) + 1):
            u, v = w[:i], w[i:]
            swapped = tuple(1 - b for b in reversed(u))
            total += _half_value(swapped, piece_prec) * _half_value(v, piece_prec)
        _MZV_CACHE[ks] = cached = total
    if prec < 1e-13:
        raise ValueError("double precision cannot certify below 1e-13")
    return cached
