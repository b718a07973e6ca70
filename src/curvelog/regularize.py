"""Shuffle regularization of divergent iterated-integral words.

Words over {0, 1} (leftmost letter at the upper endpoint 1) span a
shuffle algebra that is the polynomial ring in the two single-letter
words over its convergent subalgebra (the empty word and the words
starting with 0 and ending with 1).  The regularized value is therefore
the only linear map that fixes every convergent word and sends every
shuffle ``e sh u`` with a single letter ``e`` to zero; convergent words
are then read as zeta values.

It has a closed form.  Divergence comes from leading 1s and trailing
0s, and each side is removed in one step:

* ``1^r 0 v`` (r >= 0) goes to ``(-1)^r 0 (1^r sh v)``, a sum of words
  starting with 0;
* each such word ``z 1 0^s`` goes to ``(-1)^s (z sh 0^s) 1``;
* the empty word gives 1, and ``1^r``, ``0^k`` (r, k >= 1) give 0.
"""
from __future__ import annotations

from .constants import ConstantCombination
from .ncseries import shuffle_words
from .polylog import word_to_indices

Word = tuple[int, ...]


def _leading(w: Word, letter: int) -> int:
    """Number of copies of ``letter`` at the start of ``w``."""
    n = 0
    while n < len(w) and w[n] == letter:
        n += 1
    return n


def reg_value(word: Word) -> ConstantCombination:
    """Shuffle-regularized zeta value of ``word`` (closed form above)."""
    w = tuple(word)
    if not w:
        return ConstantCombination.one()
    r = _leading(w, 1)
    if r == len(w):
        return ConstantCombination.zero()
    out: dict[Word, int] = {}
    for u, m in shuffle_words((1,) * r, w[r + 1:]):
        u = (0,) + u
        s = _leading(u[::-1], 0)
        if s == len(u):
            continue
        c = (-1) ** (r + s) * m
        for x, k in shuffle_words(u[:-s - 1], (0,) * s):
            out[x] = out.get(x, 0) + c * k
    total = ConstantCombination.zero()
    for x, c in out.items():
        if c:
            total = total + ConstantCombination.zeta(
                *word_to_indices(x + (1,)), coeff=c)
    return total
