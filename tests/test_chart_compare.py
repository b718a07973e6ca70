"""Vertex-expansion parameter transport and its loop invariants.

The (0,4) oracle is fixed by hand: with the bubble carrying points a, b
and the new-edge branch at m on the bubble line, and r, p, q on the base
line, the two moved points land at r + s/(a-m) and r + s/(b-m).  For
the chart (a,b,m | r,p,q) = (1,2,3 | 0,5,7) the four-point cross-ratio
is ((5+s/2)(7+s)) / ((7+s/2)(5+s)) = 1 - s/35 + 19 s^2/2450 - ...
"""
import hashlib
import itertools
from fractions import Fraction as F

import pytest

from curvelog import chart_compare
from curvelog.catalog import stable_graphs
from curvelog.chart_compare import (ChartComparison, NoWitnessLoops,
                                    expand_and_compare)
from curvelog.cpseries import TruncatedSeries as TS
from curvelog.jsonio import canonical_dumps
from curvelog.schottky import (DegenerateWord, Moebius,
                               require_cyclically_reduced)
from curvelog.stable_graph import Chart, Edge, StableGraph, Tail

from test_schottky import cross_ratio, vieta_checked


def four_point_refinement():
    g = StableGraph(
        ["v0", "w"], [Edge("e0", "v0", 0, "w", 0)],
        [Tail("t1", "w", 1), Tail("t2", "w", 2),
         Tail("t3", "v0", 3), Tail("t4", "v0", 4)],
        Chart({"t1": F(1), "t2": F(2), "e0+": F(3),
               "e0-": F(0), "t3": F(5), "t4": F(7)}))
    g.validate(expect=(0, 4))
    return g


def loop_refinement():
    """Bubble carrying both halves of a loop: the (1,2) chain graph."""
    g = StableGraph(
        ["v0", "w"],
        [Edge("f", "w", 0, "w", 1), Edge("e0", "v0", 0, "w", 2)],
        [Tail("t1", "v0", 1), Tail("t2", "v0", 2)],
        Chart({"f+": F(1), "f-": F(2), "e0+": F(3),
               "e0-": F(0), "t1": F(5), "t2": F(7)}))
    g.validate(expect=(1, 2))
    return g


def test_four_point_positions_and_frozen_cross_ratio():
    cmp = ChartComparison(four_point_refinement(), "e0", trunc=6)
    s = TS.variable("e0", ("e0",), 6)
    # moved tails: r + s/(a-m) with (a, m) = (1, 3) and (2, 3)
    assert (cmp.positions["t1"] - s * F(-1, 2)).is_zero()
    assert (cmp.positions["t2"] + s).is_zero()
    assert (cmp.positions["t3"] - TS.constant(5, ("e0",), 6)).is_zero()
    lam = cross_ratio(cmp.positions["t1"], cmp.positions["t2"],
                      cmp.positions["t3"], cmp.positions["t4"])
    assert lam.coefficient((0,)) == 1
    assert lam.coefficient((1,)) == F(-1, 35)
    assert lam.coefficient((2,)) == F(19, 2450)
    # full comparison against the hand-derived rational function
    num = (TS.constant(5, ("e0",), 6) + s * F(1, 2)) \
        * (TS.constant(7, ("e0",), 6) + s)
    den = (TS.constant(7, ("e0",), 6) + s * F(1, 2)) \
        * (TS.constant(5, ("e0",), 6) + s)
    assert (lam - num * den.invert()).is_zero()


def test_four_point_report_passes_and_no_loops():
    cmp = ChartComparison(four_point_refinement(), "e0", trunc=5)
    rep = cmp.check_multipliers(3)
    assert rep["n_words"] == 0 and rep["pass"]
    points = cmp.check_points()
    assert points["pass"] and points["n_checked"] == 4  # the four tails
    assert cmp.report()["pass"]


def test_loop_case_extracted_parameters():
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    vars = cmp.vars  # ("e0", "f")
    a, b, m = F(1), F(2), F(3)
    # loop-edge parameter gains two orders in s0: s0^2 yf / ((a-m)(b-m))^2
    yf1 = cmp.edge_params["f"]
    low = yf1.lowest_part()
    exp = tuple(2 if v == "e0" else 1 for v in vars)
    assert set(low.terms) == {exp}
    assert low.terms[exp] == 1 / ((a - m) * (b - m)) ** 2
    # moved loop branches collide at rate s0 (b-a)/((a-m)(b-m))
    gap = cmp.positions["f+"] - cmp.positions["f-"]
    exp1 = tuple(1 if v == "e0" else 0 for v in vars)
    assert gap.lowest_part().terms == {exp1: (b - a) / ((a - m) * (b - m))}
    # unmoved tails keep their chart values
    assert cmp.positions["t1"].constant_term() == F(5)
    assert len(cmp.positions["t1"].terms) == 1


def test_loop_case_multiplier_and_fixed_points():
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    assert cmp.check_multiplier(["f+"])
    alpha, alpha_p = cmp.fixed_points1(["f+"])
    m = cmp.word_matrix1(["f+"])
    for z in (alpha, alpha_p):
        res = (m.c * z + (m.d - m.a)) * z - m.b
        assert res.is_zero()
    gap = alpha - alpha_p
    assert gap.order() >= 1 and not gap.is_zero()
    rep = cmp.report(loops_len=2, points_len=1)
    assert rep["pass"]
    assert rep["multipliers"]["n_words"] >= 2
    assert rep["points"]["pass"]


@pytest.mark.parametrize("n", [2, 3])
def test_loop_case_proper_powers(n):
    # M^n = U M + V I, and at the loop corner U vanishes with s0: the
    # power's quadratic carries a common factor of s0 that must be divided
    # out before the blow-up (points_len=1 above never forms a power)
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    power = ["f+"] * n
    m = cmp.word_matrix1(power)
    assert min(q.ideal_order(["e0"]) for q in (m.c, m.d - m.a, m.b)) >= 1
    alpha, alpha_p = cmp.fixed_points1(power)
    assert (alpha, alpha_p) == cmp.fixed_points1(["f+"])
    for z in (alpha, alpha_p):
        res = (m.c * z + (m.d - m.a)) * z - m.b
        assert res.is_zero()


def test_loop_case_report_with_powers():
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    rep = cmp.report(loops_len=3, points_len=2)
    assert rep["pass"], rep
    assert rep["points"]["n_checked"] > 0


def test_loop_case_degenerate_after_common_factor(monkeypatch):
    # a common factor e0*f is not a power of e0 times a unit: dividing
    # out e0 leaves every constant term zero, a double root at s0 = 0
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    plain = cmp._word_matrix_at

    def scaled(word, tr):
        m = plain(word, tr)
        u = TS.variable("e0", cmp.vars, tr) * TS.variable("f", cmp.vars, tr)
        return Moebius(u * m.a, u * m.b, u * m.c, u * m.d)

    monkeypatch.setattr(cmp, "_word_matrix_at", scaled)
    with pytest.raises(DegenerateWord):
        cmp.fixed_points1(["f+"])


def test_generic_expansion_two_loops():
    g1 = StableGraph(["v0"],
                     [Edge("f", "v0", 0, "v0", 1), Edge("g", "v0", 2, "v0", 3)],
                     [])
    assert g1.validate() == (2, 0)
    cmp = expand_and_compare(g1, "v0", "f+", "g+", trunc=4, seed=2)
    assert cmp.delta2.is_trivalent()
    rep = cmp.check_multipliers(3)
    assert rep["pass"] and rep["n_words"] > 4
    pts = cmp.marked_points(max_len=1)
    assert len(pts) == 8  # alpha and alpha' for f+, f-, g+, g-
    points = cmp.check_points(max_len=1)
    assert points["pass"] and points["n_checked"] == 8


def test_no_witness_loops_raised():
    g1 = StableGraph(["v0"],
                     [Edge("f", "v0", 0, "v0", 1), Edge("g", "v0", 2, "v0", 3)],
                     [])
    cmp = expand_and_compare(g1, "v0", "f+", "g-", trunc=3, seed=4)
    with pytest.raises(NoWitnessLoops):
        cmp.check_points(max_len=0)


def test_tail_and_half_edge_mixed_expansion():
    g1 = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                     [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    cmp = expand_and_compare(g1, "v0", "f+", "t1", trunc=4, seed=9)
    assert cmp.delta2.is_trivalent()
    assert cmp.report(loops_len=2, points_len=1)["pass"]
    # moved tail follows the bubble; its position picks up s0 corrections
    assert len(cmp.positions["t1"].terms) > 1
    assert len(cmp.positions["t2"].terms) == 1


def test_point_check_fails_on_a_perturbed_position():
    star = StableGraph(["v0"], [], [Tail(f"t{i}", "v0", i)
                                    for i in range(1, 5)])
    cmp = expand_and_compare(star, "v0", "t1", "t2", trunc=4, seed=3)
    assert cmp.check_points()["pass"] and cmp.report()["pass"]
    v = TS.variable(cmp.vars[0], cmp.vars, cmp.trunc)
    cmp.positions["t1"] = cmp.positions["t1"] + v * v
    points = cmp.check_points()["points"]
    assert points == {"tail:t1": False, "tail:t2": True,
                      "tail:t3": True, "tail:t4": True}
    assert not cmp.report()["pass"]


def test_multiplier_check_fails_on_a_perturbed_refined_chart_value():
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    # this also extracts the original parameters at the padded degrees
    # the proper powers need, so they come from the chart before the move
    assert cmp.check_points(3)["pass"]
    cmp.delta2.chart.finite["f+"] = F(11, 10)
    assert not cmp.check_multiplier(["f+"])
    assert not cmp.report(loops_len=2, points_len=1)["pass"]
    # the proper powers' multipliers miss the moved value, but their
    # fixed points do not
    assert cmp.check_multiplier(["f+", "f+"])
    assert cmp.check_multiplier(["f+", "f+", "f+"])
    points = cmp.check_points(3)["points"]
    for word in ("f+ f+", "f+ f+ f+"):
        assert points[f"alpha:{word}"] is False
        assert points[f"alpha':{word}"] is False


def test_report_after_a_moved_chart_fails():
    # the refined generators are kept by the chart values they read, so
    # a second report sees the moved value, not the first report's
    g1 = StableGraph(["v0"],
                     [Edge("f", "v0", 0, "v0", 1), Edge("g", "v0", 2, "v0", 3)],
                     [])
    cmp = expand_and_compare(g1, "v0", "f+", "g+", trunc=4, seed=2)
    assert cmp.report()["pass"]
    cmp.delta2.chart.finite["f+"] += F(1, 10)
    again = cmp.report()
    assert not again["multipliers"]["pass"] and not again["pass"]
    assert not cmp.check_multiplier(["f+"])


def test_chart_moved_before_any_power_is_checked():
    # the original side is extracted from the chart as constructed, at
    # every truncation, so the proper powers (which need a higher one)
    # do not mix the moved chart into it: the report fails, it does not
    # raise
    cmp = ChartComparison(loop_refinement(), "e0", trunc=5)
    cmp.delta2.chart.finite["f+"] = F(11, 10)
    points = cmp.check_points(3)
    assert not points["pass"]
    for word in ("f+", "f+ f+", "f+ f+ f+", "f- f-"):
        assert points["points"][f"alpha:{word}"] is False
        assert points["points"][f"alpha':{word}"] is False
    assert not cmp.check_multiplier(["f+"])
    assert not cmp.report(loops_len=2, points_len=3)["pass"]


# sha256 of the canonical report() of the 37 comparisons the
# schottky-catalog benchmark runs (every branch pair at a valence-4 vertex
# of the full (0,4), (0,5), (1,2), (1,3) catalogs, plus every loop corner),
# at truncation 4 and seeds 300, 301, ...
CATALOG_COMPARISONS_SHA256 = \
    "cadd614a6df72a627f3e3ec14804471816788144171d22f444e1e63346694525"


def catalog_comparisons():
    """The 37 comparisons of the schottky-catalog benchmark, in order."""
    comparisons = []
    for gn in [(0, 4), (0, 5), (1, 2), (1, 3)]:
        for graph in stable_graphs(*gn, trivalent_only=False):
            for v in graph.vertices:
                branches = graph.branches_at(v)
                if len(branches) < 4:
                    continue
                for b1, b2 in itertools.combinations(branches, 2):
                    loop_corner = b1[:-1] == b2[:-1] and b1[:-1] in graph.edges
                    if len(branches) != 4 and not loop_corner:
                        continue
                    comparisons.append(expand_and_compare(
                        graph, v, b1, b2, trunc=4,
                        seed=300 + len(comparisons)))
    return comparisons


def test_catalog_comparison_reports_are_pinned():
    reports = [cmp.report() for cmp in catalog_comparisons()]
    assert len(reports) == 37 and all(r["pass"] for r in reports)
    assert hashlib.sha256(canonical_dumps(reports).encode()).hexdigest() \
        == CATALOG_COMPARISONS_SHA256


def test_second_fixed_points_equal_simple_root_on_both_sides(monkeypatch):
    # each fixed_points call of a comparison, on the extracted side
    # (fixed_points1, with the Newton-Puiseux s) and on the refined side
    # (_refined_fixed_points, without), returns as its second root the
    # one simple_root solves from the second seed
    checked = vieta_checked(monkeypatch)
    monkeypatch.setattr(chart_compare, "fixed_points", checked)
    loop = ChartComparison(loop_refinement(), "e0", trunc=5)
    points = loop.marked_points(3)   # proper powers: a common order of s
    for cmp in catalog_comparisons():
        points += cmp.marked_points()
    loops = [p for p in points if not p[0].startswith("tail:")]
    assert checked.calls == len(loops) == 140


@pytest.mark.parametrize("gn", [(0, 5), (1, 2), (1, 3), (2, 0)], ids=str)
def test_closed_words_lift_to_cyclically_reduced_words(gn):
    # the refined fixed points are solved from the lifted word itself: it
    # begins with word[0] and ends with word[-1] or a half of the new
    # edge, so it needs no conjugation.  Every rotation of every closed
    # word covers the based loops of each comparison, at chart seeds 0-1
    lifted = 0
    for graph in stable_graphs(*gn, trivalent_only=False):
        for v in graph.vertices:
            branches = graph.branches_at(v)
            if len(branches) < 4:
                continue
            for b1, b2 in itertools.combinations(branches, 2):
                for seed in (0, 1):
                    comp = expand_and_compare(graph, v, b1, b2, trunc=1,
                                              seed=seed)
                    for word in comp.delta1.closed_words(3):
                        for i in range(len(word)):
                            require_cyclically_reduced(
                                comp.delta2,
                                comp.lift_word(word[i:] + word[:i]))
                            lifted += 1
    # genus 0 has no closed word, so no refined fixed point to solve
    assert (lifted > 0) == (gn[0] > 0)
