"""Exact period combinations: arithmetic, numerics, span membership."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curvelog.constants import (CONSTANTS, ConstantCombination as CC,
                                in_zeta_span)
from curvelog.polylog import mzv_numeric


def test_rational_arithmetic():
    x = CC.rational(F(2, 3)) + CC.rational(F(1, 3))
    assert x == CC.one()
    assert not (x - x)
    assert (x - x) == CC.zero()


def test_is_the_logpoly_over_no_symbols():
    # one coefficient algebra: no arithmetic of its own, Fraction values
    from curvelog.logpoly import LogPoly
    assert issubclass(CC, LogPoly) and CC().vars == ()
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "_coerce",
                 "_raw", "__eq__", "__hash__"):
        assert name not in vars(CC), name
    x = CC.zeta(2) * CC.ipi(1, F(1, 2)) + 3
    assert type(x) is CC
    assert all(type(c) is F for c in x.terms.values())


def test_monomial_products_add_exponents():
    z2 = CC.zeta(2)
    ip = CC.ipi()
    prod = ip * ip * z2
    # one term: (i pi)^2 * zeta(2)
    ((key, coeff),) = prod.terms.items()
    ipi_pow, zetas = key
    assert ipi_pow == 2 and zetas == ((2,),)
    assert coeff == 1


def test_zeta_product_is_formal_not_expanded():
    p = CC.zeta(2) * CC.zeta(3)
    ((key, _),) = p.terms.items()
    assert key[1] == ((2,), (3,))  # kept as an unordered product basis


def test_numeric_values():
    assert abs(CC.zeta(2).numeric() - math.pi ** 2 / 6) < 1e-12
    assert abs(CC.zeta(3).numeric() - 1.2020569031595942) < 1e-12
    assert abs(CC.ipi(2).numeric() + math.pi ** 2) < 1e-12
    # increasing convention: the inner exponent comes first
    assert abs(CC.zeta(1, 2).numeric() - 1.2020569031595942) < 1e-12
    assert CC.zeta(1, 2).normal_form() == CC.zeta(3).normal_form()


def test_numeric_is_independent_of_term_order():
    # fsum over the term values: the same exact combination built in two
    # orders gives the same float, to the last bit
    terms = [CC.rational(1), CC.zeta(3), CC.ipi(2, F(1, 7))]
    forward = terms[0] + terms[1] + terms[2]
    backward = terms[2] + terms[1] + terms[0]
    assert list(forward.terms) != list(backward.terms)
    assert forward.numeric() == backward.numeric()
    assert forward.to_json() == backward.to_json()


def test_normal_form_distinguishes():
    assert CC.zeta(2).normal_form() != CC.zeta(3).normal_form()
    assert CC.zeta(5).normal_form() != (CC.zeta(2) * CC.zeta(3)).normal_form()
    assert CC.ipi(1).normal_form() != CC.one().normal_form()
    assert not CONSTANTS.close(CC.zeta(4), CC.zeta(2, 2), 1.0)


def test_divergent_zeta_rejected():
    with pytest.raises(ValueError):
        CC.zeta(2, 1)  # last index 1 diverges


def test_non_integral_powers_rejected():
    for make in (lambda: CC.ipi(1.5), lambda: CC.zeta(1, 2.5)):
        with pytest.raises(ValueError):
            make()


def test_json_roundtrip():
    x = CC.zeta(2, 3, coeff=F(-7, 2)) + CC.ipi(3) + CC.rational(F(1, 6))
    back = CC.from_json(x.to_json())
    assert back == x


def test_from_json_rejects_a_zero_denominator():
    data = (CC.zeta(3) + CC.rational(F(1, 6))).to_json()
    data["terms"][-1]["coeff"]["den"] = 0
    with pytest.raises(ValueError, match="zero denominator"):
        CC.from_json(data)


def test_ring_contract():
    assert CONSTANTS.zero == CC.zero()
    assert CONSTANTS.one == CC.one()
    # a rational scalar splits as its constant combination does
    assert CONSTANTS.split(F(1, 2)) == CONSTANTS.split(CC.rational(F(1, 2)))
    # value equality: the tolerance is not read
    assert CONSTANTS.close(CC.zeta(1, 2), CC.zeta(3), 0.0)
    assert CONSTANTS.close(CC.zeta(2), CC.ipi(2, F(-1, 6)), None)


# every convergent zeta word of weight <= 4 as q * (i*pi)^a * zeta(3)^b,
# the reductions an earlier weight-4 table held
ZETA_REDUCTIONS = {
    (2,): (2, 0, F(-1, 6)),        # zeta(2) = -(i*pi)^2 / 6
    (3,): (0, 1, F(1)),
    (1, 2): (0, 1, F(1)),          # zeta(1,2) = zeta(3)
    (4,): (4, 0, F(1, 90)),        # zeta(4) = (i*pi)^4 / 90
    (1, 3): (4, 0, F(1, 360)),
    (2, 2): (4, 0, F(1, 120)),
    (1, 1, 2): (4, 0, F(1, 90)),   # dual to zeta(4)
}


def test_zeta_reductions_are_numerically_exact():
    for word, (a, b, r) in ZETA_REDUCTIONS.items():
        reduced = CC.ipi(a, r) * (CC.zeta(3) if b else 1)
        assert CC.zeta(*word).normal_form() == reduced.normal_form(), word
        assert abs(CC.zeta(*word).numeric() - reduced.numeric()) < 1e-13


def _convergent(weight):
    # compositions of `weight` whose last part is at least 2
    if weight < 2:
        return [()] if weight == 0 else []
    return [c + (k,) for k in range(2, weight + 1)
            for c in _compositions(weight - k)]


def _compositions(n):
    return [()] if n == 0 else [c + (k,) for k in range(1, n + 1)
                                for c in _compositions(n - k)]


def test_normal_form_dimensions_are_zagiers():
    # the normal forms of weight k span d_k = d_(k-2) + d_(k-3)
    # dimensions, an upper bound for the zeta values (Terasoma)
    dims = []
    for k in range(2, 9):
        keys = set()
        for idx in _convergent(k):
            keys.update(CC.zeta(*idx).normal_form())
        dims.append(len(keys))
    assert dims == [1, 1, 1, 2, 2, 3, 4]


def test_normal_forms_agree_with_the_numerics():
    for k in range(2, 9):
        for idx in _convergent(k):
            form = CC.zeta(*idx).normal_form()
            value = sum(q * mzv_numeric(t) for (_, t), q in form.items())
            assert abs(value - mzv_numeric(idx)) < 1e-13, idx


def test_products_reduce_by_stuffle():
    z2, z3 = CC.zeta(2), CC.zeta(3)
    assert CONSTANTS.close(z2 * z3, CC.zeta(2, 3) + CC.zeta(3, 2)
                           + CC.zeta(5), 0)
    # Euler: zeta(2)^2 = 4 zeta(1, 3) + 2 zeta(2, 2)
    assert CONSTANTS.close(z2 * z2, CC.zeta(1, 3, coeff=4)
                           + CC.zeta(2, 2, coeff=2), 0)
    assert CONSTANTS.close(CC.ipi(4), z2 * z2 * 36, 0)
    assert CONSTANTS.close(CC.ipi(3) * z3, CC.ipi(1) * z2 * z3 * -6, 0)
    with pytest.raises(ValueError):
        CC.ipi(-2).normal_form()


def test_weight_six_values_in_the_span():
    # 3/16 zeta(6) = zeta(2, 2, 2), and -(i*pi)^6 / 945 = zeta(6)
    assert CONSTANTS.close(CC.zeta(6, coeff=F(3, 16)), CC.zeta(2, 2, 2), 0)
    assert in_zeta_span(CC.zeta(6, coeff=F(3, 16)))
    assert in_zeta_span(CC.zeta(2, 2, 2))
    assert CONSTANTS.close(CC.ipi(6, F(-1, 945)), CC.zeta(6), 0)
    assert in_zeta_span(CC.ipi(6, F(-1, 945)))


def test_span_lattice_gaps():
    # generator of the lattice on each (i*pi)-power: one zeta(2) factor
    # fits from exponent 2, zeta(1, 3) = zeta(4) / 4 from 4, and the
    # weight-6 relations refine it again
    gaps = [F(1), F(1), F(1, 6), F(1, 6), F(1, 360), F(1, 360),
            F(1, 45360), F(1, 45360)]
    for a, gap in enumerate(gaps):
        assert in_zeta_span(CC.ipi(a, gap)), a
        for prime in (2, 3, 5, 7):
            assert not in_zeta_span(CC.ipi(a, gap / prime)), (a, prime)


def test_span_membership_frozen_cases():
    inside = [
        CC.one(),
        CC.ipi(3, F(8, 6)),                    # (2 i pi)^3 / 3!
        CC.ipi(4, F(16, 24)),                  # (2 i pi)^4 / 4!
        CC.zeta(1, 1, 2, coeff=3),
        CC.zeta(2) * CC.zeta(3),
        CC.zeta(1, 2, coeff=F(3, 2)) - CC.zeta(3, coeff=F(3, 2)),  # value 0
        CC.zeta(1, 3, coeff=7) - CC.zeta(2, 2),
        CC.ipi(5, F(1, 360)),
        CC.ipi(6, F(1, 2160)),
    ]
    outside = [
        CC.rational(F(1, 2)),
        CC.ipi(1, F(1, 6)),
        CC.zeta(2, coeff=F(1, 2)),
        CC.zeta(2) * CC.zeta(3) * F(1, 6),
        CC.ipi(5, F(1, 720)),
    ]
    for c in inside:
        assert in_zeta_span(c)
    for c in outside:
        assert not in_zeta_span(c)


def test_span_membership_up_to_the_missing_part():
    # an off-lattice combination joins the span once its distance to the
    # nearest lattice member is taken away, in each weight apart
    for c, missing in [(CC.rational(F(5, 2)), CC.rational(F(1, 2))),
                       (CC.ipi(1, F(7, 6)), CC.ipi(1, F(1, 6))),
                       (CC.zeta(2, 3, coeff=F(1, 2)) + CC.zeta(3, 2),
                        CC.zeta(2, 3, coeff=F(1, 2)))]:
        assert not in_zeta_span(c) and not in_zeta_span(missing)
        assert in_zeta_span(c - missing)
        assert not in_zeta_span(c - missing + CC.zeta(5, coeff=F(1, 3)))


_ZETAS = ((), ((2,),), ((3,),), ((2,), (3,)), ((1, 2),), ((2,), (2,)))


@st.composite
def combinations(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.sampled_from(_ZETAS)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=5))
    return CC(terms)


def _normalized(x: CC) -> bool:
    return all(type(c) is F and c for c in x.terms.values())


@settings(max_examples=80, deadline=None)
@given(combinations(), combinations(), combinations(),
       st.integers(-3, 3))
def test_ring_laws_over_mixed_keys(a, b, c, n):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).terms == {}
    assert a + n == n + a and a * n == n * a
    for x in (a + b, a - b, -a, a * b, (a + b) * c, a * n, a + n):
        assert _normalized(x)
