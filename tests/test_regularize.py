"""Shuffle regularization: decomposition, reassembly, frozen values."""
from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings, strategies as st

from curvelog.constants import ConstantCombination as CC
from curvelog.ncseries import shuffle_words
from curvelog.polylog import mzv_numeric, word_to_indices
from curvelog.regularize import (components, decompose, is_convergent_word,
                                 reassemble, reg_value)


def test_convergent_words_decompose_to_themselves():
    for w in [(0, 1), (0, 0, 1), (0, 1, 1)]:
        assert components(w) == {(0, 0): {w: F(1)}}


def test_reassembly_exhaustive_small():
    for n in range(1, 6):
        for w in product((0, 1), repeat=n):
            assert reassemble(components(w)) == {w: F(1)}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=7))
def test_reassembly_property(bits):
    w = tuple(bits)
    assert reassemble(components(w)) == {w: F(1)}


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
    # reg(u sh v) = reg(u)*reg(v); with a boundary letter the product
    # vanishes, and the cancellation is exact at the symbol level
    for u, v in [((1,), (0, 1)), ((0,), (0, 1)), ((1,), (0, 1, 1)),
                 ((0,), (0, 0, 1))]:
        assert _shuffle_reg(u, v) == CC.zero()


def test_reg_shuffle_homomorphism_numeric():
    # convergent pairs: formal zeta products are kept unexpanded, so
    # the homomorphism is a numeric identity (e.g. Euler's
    # zeta(2)^2 = 4 zeta(1,3) + 2 zeta(2,2))
    for u, v in [((0, 1), (0, 1)), ((0, 1), (0, 0, 1))]:
        lhs = _shuffle_reg(u, v)
        rhs = reg_value(u) * reg_value(v)
        assert lhs.numeric_eq(rhs, tol=1e-10)


def test_reg_matches_numerics_on_convergent_words():
    for w in [(0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 1, 1)]:
        expect = mzv_numeric(word_to_indices(w))
        assert abs(reg_value(w).numeric() - expect) < 1e-10


def test_is_convergent_word():
    assert is_convergent_word((0, 1))
    assert not is_convergent_word((1, 0))
    assert not is_convergent_word((0,))


def test_decompose_is_frozen_view_of_components():
    frozen = decompose((1, 0, 1))
    thawed = {key: dict(combo) for key, combo in frozen}
    assert thawed == components((1, 0, 1))
