"""Polylogarithm and zeta numerics against independent values."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curvelog.cpseries import TruncatedSeries
from curvelog.polylog import (Divergent, check_indices, indices_to_word,
                              li_numeric, mzv_numeric, word_to_indices)


def li_series(indices, n_terms):
    """Exact power series in ``z`` through degree ``n_terms``: the
    reference that ``li_numeric`` is checked against."""
    ks = check_indices(indices)
    # prefix[t] = sum over n1<...<n_{i} <= t of the partial products
    prefix = [F(1)] * (n_terms + 1)
    for k in ks[:-1]:
        new = [F(0)] * (n_terms + 1)
        acc = F(0)
        for n in range(1, n_terms + 1):
            acc += prefix[n - 1] / F(n) ** k
            new[n] = acc
        prefix = new
    coeffs = {}
    for n in range(1, n_terms + 1):
        if c := prefix[n - 1] / F(n) ** ks[-1]:
            coeffs[(n,)] = c
    return TruncatedSeries(("z",), n_terms, coeffs)


def test_word_encoding_frozen():
    # inner-to-outer exponents; the outermost block is written first
    assert indices_to_word((2,)) == (0, 1)
    assert indices_to_word((3,)) == (0, 0, 1)
    assert indices_to_word((1, 2)) == (0, 1, 1)
    assert indices_to_word((2, 3)) == (0, 0, 1, 0, 1)


def test_word_roundtrip():
    for idx in [(2,), (1, 2), (3, 1, 2), (1, 1, 4)]:
        assert word_to_indices(indices_to_word(idx)) == idx


def test_li_series_frozen_coefficients():
    s = li_series((2,), 5)
    assert s.terms[(1,)] == F(1) and s.terms[(4,)] == F(1, 16)
    s = li_series((1, 2), 5)
    assert s.terms[(2,)] == F(1, 4)
    assert s.terms[(3,)] == F(1, 6)
    assert s.terms[(4,)] == F(11, 96)
    assert s.terms[(5,)] == F(1, 12)


def test_li_series_depth_one_is_classical():
    s = li_series((1,), 6)
    for n in range(1, 7):
        assert s.terms[(n,)] == F(1, n)


def test_li_numeric_closed_forms():
    # dilogarithm at one half
    expect = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert abs(li_numeric((2,), 0.5) - expect) < 1e-12
    assert abs(li_numeric((1,), 0.5) - math.log(2)) < 1e-12


def test_mzv_closed_forms():
    assert abs(mzv_numeric((2,)) - math.pi ** 2 / 6) < 1e-9
    assert abs(mzv_numeric((3,)) - 1.2020569031595942) < 1e-9
    assert abs(mzv_numeric((4,)) - math.pi ** 4 / 90) < 1e-9
    # depth-two identity: zeta(1,2) = zeta(3)
    assert abs(mzv_numeric((1, 2)) - mzv_numeric((3,))) < 1e-9


def test_mzv_stuffle_cross_check():
    # independent of the evaluation path: z2*z3 = z(2,3)+z(3,2)+z(5)
    lhs = mzv_numeric((2,)) * mzv_numeric((3,))
    rhs = mzv_numeric((2, 3)) + mzv_numeric((3, 2)) + mzv_numeric((5,))
    assert abs(lhs - rhs) < 1e-10


def test_mzv_against_direct_summation():
    # slow double sum with the increasing convention as a second oracle
    direct = sum(1.0 / (n1 * n2 ** 3)
                 for n2 in range(2, 300) for n1 in range(1, n2))
    assert abs(mzv_numeric((1, 3)) - direct) < 1e-4


def test_divergent_raises():
    with pytest.raises(Divergent):
        mzv_numeric((1,))
    with pytest.raises(Divergent):
        mzv_numeric((2, 1))
    with pytest.raises(Divergent):
        li_numeric((1,), 1.0)
    # boundary convergence: the dilogarithm extends to z = 1
    assert abs(li_numeric((2,), 1.0) - math.pi ** 2 / 6) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(2, 3))
def test_li_series_matches_numeric(head, last):
    idx = tuple(head) + (last,)
    z = 0.25
    series = li_series(idx, 60)
    val = sum(float(c) * z ** e[0] for e, c in series.terms.items())
    assert abs(val - li_numeric(idx, z)) < 1e-12
