"""Shuffle regularization: the closed form against its characterization."""
from fractions import Fraction as F
from itertools import product

from curvelog.constants import ConstantCombination as CC
from curvelog.ncseries import shuffle_words
from curvelog.polylog import mzv_numeric, word_to_indices
from curvelog.regularize import reg_value


def _words(max_len):
    for n in range(max_len + 1):
        yield from product((0, 1), repeat=n)


def test_reg_values_frozen():
    assert reg_value((0, 1)) == CC.zeta(2)
    assert reg_value((1, 0)) == CC.zeta(2, coeff=-1)
    assert reg_value((0, 1, 1)) == CC.zeta(1, 2)
    assert reg_value((1, 1, 0)) == CC.zeta(1, 2)
    assert reg_value((1, 0, 1)) == CC.zeta(1, 2, coeff=-2)
    # pure boundary letters regularize to zero
    assert reg_value((1,)) == CC.zero()
    assert reg_value((0,)) == CC.zero()


def _shuffle_reg(u, v):
    out = CC.zero()
    for w, mult in shuffle_words(u, v):
        out = out + reg_value(w) * F(mult)
    return out


def test_reg_kills_boundary_letter_shuffles():
    # reg(e sh u) = reg(e)*reg(u) = 0 for a single letter e, and the
    # cancellation is exact at the symbol level
    for u in _words(6):
        for e in ((0,), (1,)):
            assert _shuffle_reg(e, u) == CC.zero()


def test_reg_fixes_convergent_words():
    # with the test above this pins reg_value on every word of length
    # <= 7: the shuffle algebra is the polynomial ring in the two single
    # letters over the convergent words
    assert reg_value(()) == CC.one()
    for w in _words(7):
        if w and w[0] == 0 and w[-1] == 1:   # convergent
            assert reg_value(w) == CC.zeta(*word_to_indices(w))


def test_reg_shuffle_homomorphism_numeric():
    # convergent pairs: formal zeta products are kept unexpanded, so
    # the homomorphism is an identity of values, which the normal forms
    # show (e.g. Euler's zeta(2)^2 = 4 zeta(1,3) + 2 zeta(2,2))
    for u, v in [((0, 1), (0, 1)), ((0, 1), (0, 0, 1))]:
        lhs = _shuffle_reg(u, v)
        rhs = reg_value(u) * reg_value(v)
        assert lhs != rhs and lhs.normal_form() == rhs.normal_form()


def test_reg_matches_numerics_on_convergent_words():
    for w in [(0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 1, 1)]:
        expect = mzv_numeric(word_to_indices(w))
        assert abs(reg_value(w).numeric() - expect) < 1e-10
