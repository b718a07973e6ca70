"""Deformation expansion of the neck transport and its building blocks."""
import cmath
import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from curvelog.associator import ode_transport
from curvelog.catalog import stable_graphs
from curvelog.constants import ConstantCombination as CC
from curvelog.logpoly import LogPoly
from curvelog.ncseries import COMPLEX, RATIONAL, NCSeries
from curvelog.jsonio import canonical_dumps
from curvelog.sewing import (SEW, SEW_VARS, ZONE_VARS, _lift, antiderivative,
                             clean, dressed_neck_transport, eval_cut,
                             eval_y_over_cut, frame_series, kappa_residual,
                             log_conjugate, ordered_exp, sew_specialize)
from curvelog.sheaf import MonodromyCalculator, build_sheaf


def strip_kappa(series):
    """Drop every cut-symbol term: the negative control of the dressed
    transport, which needs the cut symbol at y-degree >= 1."""
    kappa = SEW_VARS.index("kappa")
    return series.select(lambda k: k[kappa] == 0)


def sew(c, dy=0, dl=0, dk=0):
    return LogPoly.monomial(SEW_VARS, (dy, dl, dk), c)


def zone(s, p=0, q=0):
    """The sew or rational series ``s`` times ``w^p L^q``, as a zone
    element."""
    return _lift(s, p).scale(LogPoly.monomial(ZONE_VARS, (0, 0, 0, 0, q)))


def test_sew_ring_algebra():
    a = sew(Fraction(3), dy=1)
    b = sew(Fraction(2), dl=1)
    s = a + b
    assert s.coefficients() == {(1, 0, 0): CC.rational(3),
                                (0, 1, 0): CC.rational(2)}
    prod = a * b
    assert prod.coefficients() == {(1, 1, 0): CC.rational(6)}
    assert not (a - a)
    mixed = LogPoly(SEW_VARS, {(0, 0, 1): CC.rational(1),
                               (2, 0, 0): CC.rational(5)})
    # degree caps filter the monomial keys of a series: (dy, dl, dk, ...)
    held = NCSeries(("x",), 0, SEW, {(): mixed})
    assert held.select(lambda k: k[0] <= 1).constant_term() \
        .coefficients() == {(0, 0, 1): CC.rational(1)}
    assert held.select(lambda k: k[2] == 0).constant_term() \
        .coefficients() == {(2, 0, 0): CC.rational(5)}


def test_sew_ring_evaluate_and_json():
    c = LogPoly(SEW_VARS, {(1, 1, 1): CC.rational(2)})
    y = 0.03
    expect = 2 * y * (cmath.log(y) / (2j * math.pi)) * math.log(0.5)
    values = {"y": y, "l": cmath.log(y) / (2j * math.pi),
              "kappa": math.log(0.5)}
    assert abs(c.evaluate(values) - expect) < 1e-14
    got = sew_specialize(NCSeries.unit(("x",), 1, SEW).scale(c), y)
    assert abs(got.constant_term() - expect) < 1e-14
    assert SEW.encode(c) == [{"y": 1, "l": 1, "kappa": 1,
                              "coeff": CC.rational(2).to_json()}]
    assert SEW.decode(SEW.encode(c)) == c
    assert SEW.decode(SEW.encode(SEW.zero)) == SEW.zero
    mixed = sew(CC.ipi(1, 2), dl=1) + sew(3, dy=2)
    assert [(t["y"], t["l"], t["kappa"]) for t in SEW.encode(mixed)] == \
        [(0, 1, 0), (2, 0, 0)]
    assert SEW.decode(SEW.encode(mixed)) == mixed


def _unit_series():
    return NCSeries.unit(("x",), 4, SEW)


def test_zone_antiderivative_frozen():
    s = _unit_series()
    # d/dw of w^(p+1)/(p+1) = w^p
    z = antiderivative(zone(s, 2, 0))
    assert (z - zone(s.scale(sew(Fraction(1, 3))), 3, 0)).is_zero()
    # d/dw of log(w)^(q+1)/(q+1) = log(w)^q / w
    z = antiderivative(zone(s, -1, 1))
    assert (z - zone(s.scale(sew(Fraction(1, 2))), 0, 2)).is_zero()
    # d/dw of (w log w - w) = log w
    z = antiderivative(zone(s, 0, 1))
    assert (z - zone(s, 1, 1) + zone(s, 1, 0)).is_zero()
    # d/dw of -w^(-2)/2 = w^(-3)
    z = antiderivative(zone(s, -3, 0))
    assert (z - zone(s.scale(sew(Fraction(-1, 2))), -2, 0)).is_zero()


def test_zone_bound_evaluations():
    s = _unit_series()
    # at the cut w = 1/2: w^p -> (1/2)^p, log w -> kappa
    got = eval_cut(zone(s, 1, 1))
    expect = s.scale(sew(Fraction(1, 2), dk=1))
    assert (got - expect).is_zero()
    # at w = y/(1/2): w^p -> 2^p y^p, log w -> 2 i pi l - kappa
    got = eval_y_over_cut(zone(s, 1, 0))
    assert (got - s.scale(sew(2, dy=1))).is_zero()
    got = eval_y_over_cut(zone(s, 0, 1))
    expect = s.scale(sew(CC.ipi(1, 2), dl=1) + sew(-1, dk=1))
    assert (got - expect).is_zero()
    got = eval_y_over_cut(zone(s.scale(sew(1, dy=1)), -1, 0))
    assert (got - s.scale(sew(Fraction(1, 2)))).is_zero()
    with pytest.raises(ValueError):
        eval_y_over_cut(zone(s, -1, 0))


def test_zone_clean_bounds_the_reachable_y_degree():
    s = _unit_series()
    kept = zone(s.scale(sew(1, dy=3)), -2, 0)     # y^3 w^-2 reaches y^1
    z = zone(s.scale(sew(1, dy=2)), 1, 0) + kept
    assert (clean(z, 2) - z).is_zero()
    assert (clean(z, 1) - kept).is_zero()
    assert clean(z, 0).is_zero()


def test_log_conjugate_expands_in_brackets():
    alpha = ("a", "b")
    a = NCSeries.letter("a", alpha, 3, SEW)
    b = NCSeries.letter("b", alpha, 3, SEW)
    ab = a.bracket(b)
    aab = a.bracket(ab).scale(sew(Fraction(1, 2)))
    conj = log_conjugate(a, zone(b), +1)
    assert (conj - zone(b) - zone(ab, 0, 1) - zone(aab, 0, 2)).is_zero()
    # opposite sign flips the odd layers
    back = log_conjugate(a, zone(b), -1)
    assert (back - zone(b) + zone(ab, 0, 1) - zone(aab, 0, 2)).is_zero()


def test_frame_series_satisfies_its_recursion():
    alpha = ("x", "u", "v")
    x = NCSeries.letter("x", alpha, 3, RATIONAL)
    u = NCSeries.letter("u", alpha, 3, RATIONAL)
    v = NCSeries.letter("v", alpha, 3, RATIONAL)
    other = u + v.scale(Fraction(2)) + u * v
    hs = frame_series(x, other, 5)
    assert (hs[0] - NCSeries.unit(alpha, 3, RATIONAL)).is_zero()
    assert not hs[5].is_zero()
    # B(w) = -other sum_j w^j: the tail of every order is -other
    tails = [-other] * 5
    for m in range(1, 6):
        rhs = NCSeries.zero(alpha, 3, RATIONAL)
        for j in range(min(m, len(tails))):
            rhs = rhs + tails[j] * hs[m - 1 - j]
        lhs = hs[m].scale(Fraction(m)) - x.bracket(hs[m])
        assert (lhs - rhs).is_zero()


def test_ordered_exp_constant_kernel():
    x = NCSeries.letter("x", ("x",), 4, SEW)
    got = ordered_exp(zone(x), ymax=0)
    expect = x.scale(sew(Fraction(1, 2))).exp()
    assert (got - expect).is_zero()


def test_ordered_exp_log_kernel():
    x = NCSeries.letter("x", ("x",), 4, SEW)
    got = ordered_exp(zone(x, -1, 0), 4, eval_y_over_cut)
    # integral of dw/w from y/(1/2) to 1/2 is -log y - 2 log 2,
    # i.e. 2 kappa - 2 i pi l
    expect = x.scale(sew(CC.ipi(1, -2), dl=1) + sew(2, dk=1)).exp()
    assert (got - expect).is_zero()
    # sanity: wrong lower bound does not collapse to the same element
    assert not (got - x.scale(sew(CC.ipi(1, -2), dl=1)).exp()).is_zero()


@pytest.mark.parametrize("p, q", [(-1, 0), (-1, 1), (-2, 0)],
                         ids=["w^-1", "w^-1 L", "w^-2"])
def test_ordered_exp_from_zero_rejects_a_singular_integral(p, q):
    # the antiderivatives L, L^2 / 2 and -w^-1 have no limit at w = 0
    x = NCSeries.letter("x", ("x",), 4, SEW)
    with pytest.raises(ValueError, match="singular at 0"):
        ordered_exp(zone(x, p, q), ymax=4)


def _letters(ring):
    alpha = ("A", "B", "C")
    return alpha, tuple(NCSeries.letter(x, alpha, 2, ring) for x in alpha)


def test_dressed_transport_matches_direct_integration():
    alpha, (A, B, C) = _letters(RATIONAL)
    _, (An, Bn, Cn) = _letters(COMPLEX)
    y = 1 / 64
    oracle = ode_transport({0.0: An, y: Bn, 1.0: Cn}, y, 1.0,
                           scale_src=y, scale_dst=1.0, delta=y / 4)

    def err(ydeg):
        d = dressed_neck_transport(A, B, C, ydeg=ydeg, xorder=24, kmax=18)
        n = sew_specialize(d, y, 1e-12)
        return max(abs(n.coefficient(w) - oracle.coefficient(w))
                   for k in range(3)
                   for w in itertools.product(alpha, repeat=k)), d

    e0, _ = err(0)
    e1, _ = err(1)
    e2, d2 = err(2)
    assert e2 < 5e-5
    # one more order in y buys roughly a factor of y
    assert e1 < e0 / 20
    assert e2 < e1 / 20
    # the y-constant layer carries no cut symbol beyond truncation dust
    assert kappa_residual(d2) < 1e-6
    # but the correction layers do: the cut symbol is load-bearing there
    kappa_terms = [c for coeff in d2.terms.values()
                   for (dy, dl, dk), c in coeff.coefficients().items()
                   if dk > 0 and dy > 0]
    assert kappa_terms
    stripped = sew_specialize(strip_kappa(d2), y, 1e-12)
    worst_stripped = max(
        abs(stripped.coefficient(w) - oracle.coefficient(w))
        for k in range(3) for w in itertools.product(alpha, repeat=k))
    assert worst_stripped > 100 * e2


def test_constant_layer_is_the_undeformed_product():
    alpha, (A, B, C) = _letters(RATIONAL)
    d0 = dressed_neck_transport(A, B, C, ydeg=0, xorder=24, kmax=18)
    # y-constant layer at y -> specialization must be grouplike
    y = 1 / 64
    assert sew_specialize(d0, y, 1e-12).is_grouplike(tol=1e-5)
    # the residues are rational; sew-ring residues are refused
    with pytest.raises(ValueError, match="rational"):
        dressed_neck_transport(*_letters(SEW)[1], ydeg=0, xorder=4, kmax=2)


def _tail_transport_digest(ydeg: int) -> str:
    """sha256 of the exact sew-ring transport t1 -> t3 on the one-edge
    (0,4) tree at words 3, xorder 12, kmax 8."""
    graph = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    calc = MonodromyCalculator(build_sheaf(graph, 3))
    dumped = canonical_dumps(calc.dressed_tail_transport(
        "t1", "t3", ydeg=ydeg, xorder=12, kmax=8).to_json())
    return hashlib.sha256(dumped.encode()).hexdigest()


def test_tail_transport_words3_is_pinned():
    assert _tail_transport_digest(2) == \
        "f5ddb26f001acb22181f19b900557c6170f4b04cca3bd475fe5d0a69621151d1"


@pytest.mark.parametrize("ydeg, digest", [
    (0, "c9b103f562c1175dac24a3f0798c2425d5d3cc3e4124d3e309524516185c327c"),
    (1, "3565dca3e1ecb5553f29cf779d0ec3acf325fd6ee8c368330421660c11844d23"),
])
def test_low_ydeg_tail_transport_is_pinned(ydeg, digest):
    assert _tail_transport_digest(ydeg) == digest
