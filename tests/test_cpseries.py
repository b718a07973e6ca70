"""Exact truncated multivariate series: ring laws and solvers."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curvelog.cpseries import TruncatedSeries as TS, solve_quadratic

VARS = ("x", "y")
D = 4


def const(c, trunc=D):
    return TS.constant(F(c), VARS, trunc)


def var(name, trunc=D):
    return TS.variable(name, VARS, trunc)


@st.composite
def small_series(draw, unit=False):
    terms = {}
    n_terms = draw(st.integers(0, 4))
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 2)) for _ in VARS)
        if sum(e) > D:
            continue
        terms[e] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if unit:
        terms[(0,) * len(VARS)] = F(draw(st.sampled_from([1, -1, 2, 3])))
    return TS(VARS, D, {e: c for e, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_laws(a, b, c):
    assert ((a + b) + c).terms == (a + (b + c)).terms
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms
    assert (a * (b + c)).terms == (a * b + a * c).terms
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_series(unit=True))
def test_invert_is_inverse(a):
    assert (a * a.invert() - const(1)).is_zero()


@settings(max_examples=30, deadline=None)
@given(small_series(), st.integers(0, 4))
def test_pow_matches_repeated_mul(a, n):
    p = const(1)
    for _ in range(n):
        p = p * a
    assert (a ** n).terms == p.terms


def test_truncation_drops_high_degree():
    x, y = var("x"), var("y")
    p = (x + y) ** 4
    assert p.coefficient((4, 0)) == 1
    q = ((x + y) ** 3) * (x + y)
    assert p.terms == q.terms
    r = (x ** 3) * (y ** 3)
    assert r.is_zero()


def test_geometric_inverse():
    x = var("x")
    s = (const(1) - x).invert()
    for k in range(D + 1):
        assert s.coefficient((k, 0)) == 1


def test_solve_quadratic_catalan():
    # z = (-1 + sqrt(1+4x)) / 2 solves z^2 + z - x = 0, z(0) = 0;
    # coefficients are signed Catalan numbers.
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    z = solve_quadratic(one, one, -x, F(0))
    expect = [0, 1, -1, 2, -5, 14, -42]
    got = [z.coefficient((k,)) for k in range(7)]
    assert got == [F(v) for v in expect]
    assert (z * z + z - x).is_zero()


def test_solve_quadratic_rejects_bad_seed():
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    with pytest.raises(ValueError):
        solve_quadratic(one, one, -x, F(1))


def test_solve_quadratic_nonzero_root0():
    # (z - 2)(z - (3 + x)) = 0 near z = 2: root is exactly 2 ... plus
    # corrections: z = 2 has a0(x) dependence; solve and verify residual.
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    a1 = -(TS.constant(F(5), vs, 6) + x)
    a0 = TS.constant(F(6), vs, 6) + F(2) * x
    z = solve_quadratic(one, a1, a0, F(2))
    assert (z * z + a1 * z + a0).is_zero()
    assert z.constant_term() == 2


def test_ideal_order():
    x, y = var("x"), var("y")
    s = x * x * y + x ** 4
    assert s.order() == 3
    assert s.ideal_order(("x",)) == 2
    assert s.ideal_order(("y",)) == 0
    assert const(0).ideal_order(("x",)) >= D + 1


def test_divide_monomial():
    x, y = var("x"), var("y")
    s = x * x * y + x ** 3
    q = s.divide_monomial((2, 0))
    assert q.terms == (y + x).terms
    assert q.trunc == D - 2
    with pytest.raises(ValueError):
        (x + y).divide_monomial((2, 0))


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        var("x").invert()


def test_json_round_trip_bit_exact():
    x, y = var("x"), var("y")
    s = F(3, 7) * x * y - y ** 2 + const(F(-2, 5))
    text = s.dumps()
    t = TS.loads(text)
    assert t.dumps() == text
    assert t.terms == s.terms and t.vars == s.vars and t.trunc == s.trunc
