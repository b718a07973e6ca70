"""Polynomials in edge-log symbols over period combinations."""
import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curvelog.constants import ConstantCombination as CC
from curvelog.logpoly import LogPoly, logpoly_ring
from curvelog.sewing import SEW

VARS = ("u", "v")
SEW_VARS = ("y", "l", "kappa")


def test_constructors_and_access():
    c = LogPoly.constant(VARS, CC.zeta(2))
    u = LogPoly.symbol(VARS, "u")
    assert c.coefficients() == {(0, 0): CC.zeta(2)}
    assert u.coefficients() == {(1, 0): CC.one()}
    with pytest.raises(ValueError):
        LogPoly.symbol(VARS, "w")


def test_arithmetic():
    u = LogPoly.symbol(VARS, "u")
    v = LogPoly.symbol(VARS, "v", CC.rational(F(2)))
    p = (u + v) * u
    assert p.coefficients() == {(2, 0): CC.one(), (1, 1): CC.rational(F(2))}
    zero = p - p
    assert not zero.terms


def test_evaluate_matches_direct_substitution():
    u = LogPoly.symbol(VARS, "u")
    v = LogPoly.symbol(VARS, "v")
    p = u * u + v * LogPoly.constant(VARS, CC.zeta(2)) \
        + LogPoly.constant(VARS, CC.one())
    vals = {"u": 0.5 + 0.25j, "v": -2.0 + 0j}
    got = p.evaluate(vals, 1e-12)
    expect = vals["u"] ** 2 + vals["v"] * (cmath.pi ** 2 / 6) + 1
    assert abs(got - expect) < 1e-12


def test_evaluate_is_independent_of_term_order():
    # fsum over the term values: two insertion orders, one float
    items = [((0, 0), CC.rational(1)), ((1, 0), CC.zeta(3)),
             ((0, 2), CC.ipi(2, F(1, 7))), ((1, 1), CC.zeta(2, coeff=-3))]
    forward = LogPoly(VARS, dict(items))
    backward = LogPoly(VARS, dict(reversed(items)))
    assert list(forward.terms) != list(backward.terms)
    vals = {"u": 0.5, "v": 0.25}     # summed in either order, these differ
    assert forward.evaluate(vals) == backward.evaluate(vals)


def test_constants_lift_into_the_symbols():
    # a constant enters through the constructor, a rational also through
    # the operators; another symbol set, even none, raises
    u = LogPoly.symbol(VARS, "u")
    got = LogPoly.symbol(VARS, "u", CC.zeta(2))
    assert type(got) is LogPoly and got.vars == VARS
    assert got == u * LogPoly.constant(VARS, CC.zeta(2))
    assert u + 1 == 1 + u == u + LogPoly.constant(VARS, 1)
    assert u * F(2, 3) == LogPoly.symbol(VARS, "u", F(2, 3))
    assert LogPoly.constant(VARS, F(2, 3)) == F(2, 3)
    assert LogPoly.zero(VARS) == 0 and CC.one() == 1
    for op in (lambda: CC.zeta(2) * u, lambda: u * CC.zeta(2),
               lambda: CC.ipi() + u, lambda: u - CC.one(),
               lambda: LogPoly.constant(VARS, CC.zeta(3)) == CC.zeta(3),
               lambda: u + LogPoly.symbol(("w",), "w")):
        with pytest.raises(ValueError, match="symbol set mismatch"):
            op()


def test_equal_values_compare_normal_forms():
    close = logpoly_ring(VARS).close
    a = LogPoly.constant(VARS, CC.zeta(1, 2))
    b = LogPoly.constant(VARS, CC.zeta(3))
    assert a != b and close(a, b, 0.0)
    assert not close(a, b + LogPoly.symbol(VARS, "u"), 1.0)
    assert close(LogPoly.symbol(VARS, "u", CC.zeta(2) * CC.zeta(2)),
                 LogPoly.symbol(VARS, "u", CC.zeta(1, 3, coeff=4)
                                + CC.zeta(2, 2, coeff=2)), None)
    assert not close(LogPoly.symbol(VARS, "u", CC.zeta(2)),
                     LogPoly.symbol(VARS, "v", CC.zeta(2)), None)
    sew = SEW.zero.vars
    assert SEW.close(LogPoly.constant(sew, CC.zeta(1, 2)),
                     LogPoly.constant(sew, CC.zeta(3)), 0.0)


def test_json_roundtrip():
    u = LogPoly.symbol(VARS, "u", CC.ipi())
    p = u * u + LogPoly.constant(VARS, CC.zeta(2, coeff=F(-3, 2)))
    assert LogPoly.from_json(p.to_json()) == p


def test_ring_contract():
    ring = logpoly_ring(VARS)
    assert ring.zero == LogPoly.zero(VARS)
    assert ring.one == LogPoly.constant(VARS, CC.one())
    # a rational scalar splits as its constant polynomial does
    assert ring.split(F(1, 2)) == ring.split(
        LogPoly.constant(VARS, CC.rational(F(1, 2))))
    a = LogPoly.constant(VARS, CC.zeta(1, 2))
    b = LogPoly.constant(VARS, CC.zeta(3))
    assert ring.close(a, b, 0.0)
    assert ring.decode(ring.encode(a)) == a
    # a coefficient over other symbols is refused, not relabelled
    for vars in (("u",), ("v", "u"), ("u", "w")):
        with pytest.raises(ValueError, match="not \\['u', 'v'\\]"):
            ring.decode(LogPoly.constant(vars, CC.zeta(3)).to_json())


def test_from_json_rejects_bad_exponents():
    good = LogPoly.symbol(VARS, "u", CC.zeta(2)).to_json()
    coeff = good["terms"][0]["coeff"]
    for exp in ([1, 0, 0], [1], ["x", 0], [1.5, 0]):
        bad = {"vars": list(VARS), "terms": [{"exp": exp, "coeff": coeff}]}
        with pytest.raises(ValueError):
            LogPoly.from_json(bad)
    # the period key of a coefficient is integral too
    period = coeff["terms"][0]
    for change in ({"ipi_pow": 0.5}, {"zeta_indices": [[2.5]]}):
        bad_coeff = dict(coeff, terms=[dict(period, **change)])
        bad = {"vars": list(VARS),
               "terms": [{"exp": [1, 0], "coeff": bad_coeff}]}
        with pytest.raises(ValueError):
            LogPoly.from_json(bad)


def test_inexact_coefficients_are_rejected():
    u = LogPoly.symbol(VARS, "u")
    for make in (lambda: LogPoly(("u",), {(1,): 0.1}),
                 lambda: LogPoly.constant(VARS, 0.5),
                 lambda: CC({(0, ()): 0.5}), lambda: CC.rational(0.5),
                 lambda: CC.zeta(3, coeff=0.5), lambda: u + 0.5,
                 lambda: 0.5 * u):
        with pytest.raises(TypeError):
            make()


_BASIS = (CC.one(), CC.ipi(), CC.zeta(2), CC.zeta(3),
          CC.zeta(2) * CC.zeta(3), CC.zeta(1, 2), CC.ipi(2))


@st.composite
def sew_polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(-4, 4), st.integers(1, 3),
                  st.integers(0, len(_BASIS) - 1)),
        max_size=4))
    return LogPoly(SEW_VARS, {e: _BASIS[i] * F(n, d)
                              for e, (n, d, i) in terms.items()})


_VALUES = {"y": 0.03, "l": cmath.log(0.03) / (2j * math.pi),
           "kappa": math.log(0.5)}


def _size(p: LogPoly) -> float:
    return sum(abs(c.numeric()) * math.prod(abs(_VALUES[v]) ** k
                                            for v, k in zip(p.vars, e))
               for e, c in p.coefficients().items())


@settings(max_examples=60, deadline=None)
@given(sew_polys(), sew_polys(), sew_polys())
def test_sew_symbols_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a - a).terms == {} and a + b - b == a
    for x in (a + b, a - b, -a, a * b, (a + b) * c):
        assert all(type(q) is F and q for q in x.terms.values())
    got = (a * b).evaluate(_VALUES)
    expect = a.evaluate(_VALUES) * b.evaluate(_VALUES)
    assert abs(got - expect) <= 1e-12 * (1 + _size(a) * _size(b))
    for e, cc in a.coefficients().items():
        assert LogPoly(SEW_VARS, {e: cc}).coefficients() == {e: cc}
    assert SEW.decode(SEW.encode(a)) == a
