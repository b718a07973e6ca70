"""Shuffle regularization of divergent iterated-integral words.

Words over {0, 1} (leftmost letter at the upper endpoint) span a
shuffle algebra that is a polynomial ring over its convergent
subalgebra (words starting with 0 and ending with 1) in the two
single-letter words.  ``decompose`` writes any word in that form;
setting both single-letter symbols to zero and reading convergent
words as zeta values gives the regularized value.

The decomposition is computed by peeling: if ``w = 1·u`` has ``s+1``
leading ones, then ``1 sh u = (s+1) w + (words with s leading ones)``,
so ``w`` is solved for recursively; trailing zeros peel the same way
from the right.  Exactness is witnessed by :func:`reassemble`, which
must reproduce the original word on the nose.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .constants import ConstantCombination
from .ncseries import shuffle_words
from .polylog import word_to_indices

Word = tuple[int, ...]
# polynomial in the two regularization symbols: (pow_at_1, pow_at_0) ->
# combination of convergent words
Decomposition = dict[tuple[int, int], dict[Word, Fraction]]


def is_convergent_word(w: Word) -> bool:
    return not w or (w[0] == 0 and w[-1] == 1)


def _insertions(u: Word, letter: int) -> dict[Word, int]:
    out: dict[Word, int] = {}
    for k in range(len(u) + 1):
        w = u[:k] + (letter,) + u[k:]
        out[w] = out.get(w, 0) + 1
    return out


def _add_into(acc: Decomposition, other: Decomposition, factor: Fraction,
              shift: tuple[int, int] = (0, 0)) -> None:
    for (a, b), combo in other.items():
        key = (a + shift[0], b + shift[1])
        slot = acc.setdefault(key, {})
        for w, c in combo.items():
            s = slot.get(w, Fraction(0)) + factor * c
            if s:
                slot[w] = s
            else:
                slot.pop(w, None)


@lru_cache(maxsize=None)
def decompose(word: Word) -> "tuple":
    """Decomposition of ``word``; returned frozen as nested tuples."""
    return _freeze(_decompose(tuple(word)))


def _decompose(w: Word) -> Decomposition:
    if is_convergent_word(w):
        return {(0, 0): {w: Fraction(1)}}
    if w[0] == 1:
        u = w[1:]
        s = 0
        while s < len(u) and u[s] == 1:
            s += 1
        acc: Decomposition = {}
        _add_into(acc, _decompose(u), Fraction(1), shift=(1, 0))
        for w2, mult in _insertions(u, 1).items():
            if w2 == w:
                continue
            _add_into(acc, _decompose(w2), Fraction(-mult))
        _scale(acc, Fraction(1, s + 1))
        return acc
    # trailing zero
    u = w[:-1]
    t = 0
    while t < len(u) and u[-1 - t] == 0:
        t += 1
    acc = {}
    _add_into(acc, _decompose(u), Fraction(1), shift=(0, 1))
    for w2, mult in _insertions(u, 0).items():
        if w2 == w:
            continue
        _add_into(acc, _decompose(w2), Fraction(-mult))
    _scale(acc, Fraction(1, t + 1))
    return acc


def _scale(acc: Decomposition, factor: Fraction) -> None:
    for combo in acc.values():
        for w in list(combo):
            combo[w] *= factor


def _freeze(d: Decomposition):
    return tuple(sorted(
        (key, tuple(sorted(combo.items())))
        for key, combo in d.items() if combo))


def components(word: Word) -> Decomposition:
    return {key: dict(combo) for key, combo in decompose(tuple(word))}


def _shuffle_power(letter: int, n: int) -> dict[Word, Fraction]:
    """n-fold shuffle power of a single letter (factorial included)."""
    out: dict[Word, Fraction] = {(): Fraction(1)}
    for _ in range(n):
        new: dict[Word, Fraction] = {}
        for w, c in out.items():
            for w2, m in shuffle_words(w, (letter,)):
                new[w2] = new.get(w2, Fraction(0)) + c * m
        out = new
    return out


def reassemble(decomp: Decomposition) -> dict[Word, Fraction]:
    """Shuffle the components back together; inverse of :func:`decompose`.

    The stored coefficients are plain polynomial coefficients in the two
    boundary symbols, so no factorial normalization appears here: the
    shuffle powers of the single letters carry the factorials themselves.
    """
    total: dict[Word, Fraction] = {}
    for (a, b), combo in decomp.items():
        left = _shuffle_power(1, a)
        right = _shuffle_power(0, b)
        for w1, c1 in left.items():
            for wc, cc in combo.items():
                for wm, m1 in shuffle_words(w1, wc):
                    for w2, c2 in right.items():
                        for w, m2 in shuffle_words(wm, w2):
                            s = total.get(w, Fraction(0)) + \
                                c1 * cc * c2 * m1 * m2
                            if s:
                                total[w] = s
                            else:
                                total.pop(w, None)
    return total


def reg_value(word: Word) -> ConstantCombination:
    """Shuffle-regularized zeta value (both boundary symbols to zero)."""
    combo = components(word).get((0, 0), {})
    total = ConstantCombination.zero()
    for w, c in combo.items():
        if not w:
            total = total + ConstantCombination.rational(c)
        else:
            total = total + ConstantCombination.zeta(*word_to_indices(w),
                                                     coeff=c)
    return total
