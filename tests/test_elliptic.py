"""Degenerate elliptic frame: node letters, identities, monodromies."""
import hashlib
from fractions import Fraction as F

from curvelog.constants import ConstantCombination as CC
from curvelog.elliptic import (a_to_b, bernoulli_numbers,
                               monodromy_around_zero, w_infinity, w_one,
                               w_zero)
from curvelog.jsonio import canonical_dumps
from curvelog.ncseries import NCSeries


def test_bernoulli_numbers_frozen():
    b = bernoulli_numbers(8)
    assert b[0] == 1 and b[1] == F(-1, 2)
    assert b[2] == F(1, 6) and b[4] == F(-1, 30)
    assert b[3] == 0 and b[5] == 0 and b[7] == 0
    assert b[8] == F(-1, 30)


def test_letter_sum_identity_exact():
    w = 8
    total = w_zero(w) + w_one(w) + w_infinity(w)
    assert total.is_zero()


def test_transition_twist_identity_exact():
    w = 8
    t = NCSeries.letter("T", ("T", "A"), w)
    coeffs = [F(1)]
    fact = F(1)
    for k in range(1, w + 1):
        fact *= k
        coeffs.append(1 / fact)
    twisted = t.ad_series(coeffs, w_zero(w))   # e^{ad_T} applied
    assert (twisted + w_infinity(w)).is_zero()


def test_low_weight_parts():
    w = 4
    w0 = w_zero(w)
    assert w0.coefficient(("A",)) == F(1)
    # degree-two part is -[T,A]/2
    assert w0.coefficient(("T", "A")) == F(-1, 2)
    assert w0.coefficient(("A", "T")) == F(1, 2)
    w1 = w_one(w)
    assert w1.coefficient(("T", "A")) == F(1)
    assert w1.coefficient(("A", "T")) == F(-1)
    assert w1.coefficient(("A",)) == F(0)


def test_monodromy_around_zero_frozen_coefficients():
    m0 = monodromy_around_zero(3)
    assert m0.coefficient(("A",)) == CC.ipi(1, 2)
    assert m0.coefficient(("T",)) == CC.zero()
    assert m0.coefficient(("T", "T", "A")) == CC.ipi(1, F(1, 6))


def test_a_to_b_frozen_coefficients():
    ab = a_to_b(3)
    assert ab.coefficient(("T",)) == CC.one()
    assert ab.coefficient(("A",)) == CC.zero()
    assert ab.coefficient(("T", "T")) == CC.rational(F(1, 2))
    assert ab.coefficient(("T", "A")) == CC.ipi()
    assert ab.coefficient(("A", "T")) == CC.ipi(1, -1)


def test_monodromies_grouplike():
    for w in range(1, 6):
        assert monodromy_around_zero(w).is_grouplike(), w
        assert a_to_b(w).is_grouplike(), w


# sha256 of the weight-5 dumps: both substitute the associator over the
# period constants, and the dump carries every numeric value too
ELLIPTIC_SHA256 = {
    monodromy_around_zero:
        "0d93d169f443da1a9efe9ab894ccca0321b16b6a69a3d413d78366f5de989f9e",
    a_to_b:
        "df93d6151ed38337f8091502cbf7ee3cdf4eda6ebbb8cb0c361fb2b38326da75",
}


def test_weight_five_elements_are_pinned():
    for fn, digest in ELLIPTIC_SHA256.items():
        text = canonical_dumps(fn(5).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fn
