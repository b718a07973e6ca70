"""Acceptance suite: one test per stated end-to-end criterion.

Each test prints a single summary line on success; tolerances, seeds and
runtime budgets are stated inline.  Criterion 9's arithmeticity check is
scoped per the measured classification recorded in the decisions ledger:
genus-0 constants lie in the Z-span outright, while node-sector entries
at genus >= 1 carry the documented factorial denominators and must be
surfaced (never silently passed) by the decomposition report.
"""
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from curvelog.associator import kz_associator, ode_transport
from curvelog.catalog import stable_graphs
from curvelog.chart_compare import expand_and_compare
from curvelog.constants import ConstantCombination as CC, in_zeta_span
from curvelog.cpseries import TruncatedSeries as TS
from curvelog.elliptic import (a_to_b, monodromy_around_zero, w_infinity,
                               w_one, w_zero)
from curvelog.logpoly import LogPoly
from curvelog.ncseries import COMPLEX, NCSeries, shuffle_words
from curvelog.polylog import indices_to_word, li_numeric, mzv_numeric, word_to_indices
from curvelog.schottky import (multiplier_data, phi_matrix, verify_graph,
                               verify_word)
from curvelog.sewing import sew_specialize
from curvelog.sheaf import (MonodromyCalculator, build_sheaf,
                            decompose_element, reassemble_element)
from curvelog.stable_graph import Chart, Edge, StableGraph, Tail

from test_schottky import random_closed_word


class NonIntegralCoefficient(ValueError):
    """A decomposition entry leaves the integral span of the basis."""


def assert_integral(report: dict) -> None:
    """Raise on a decomposition report with flagged entries: criterion
    09 asks that they be surfaced, never passed silently."""
    if not report["all_integral"]:
        bad = [report["entries"][i] for i in report["violations"][:3]]
        raise NonIntegralCoefficient(
            f"{len(report['violations'])} entries leave the integral span; "
            f"first: {bad}")


def _charted_catalog(g_max, n_max, seed0=100):
    """Every trivalent catalog graph with g <= g_max, n <= n_max, charted
    with a deterministic per-graph seed."""
    out = []
    i = 0
    for g in range(g_max + 1):
        for n in range(n_max + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for graph in stable_graphs(g, n):
                out.append(graph.specialize_chart(seed=seed0 + i))
                i += 1
    return out


def test_criterion_01_loop_normal_form_orders():
    t0 = time.time()
    graphs = _charted_catalog(3, 2)
    n_words = 0
    for charted in graphs:
        rep = verify_graph(charted, max_len=4, trunc=6)
        assert rep["pass"], (charted.gn_type(), rep)
        n_words += rep["n_words"]
    dt = time.time() - t0
    assert dt < 15.0
    print(f"[criterion 01] PASS — {len(graphs)} graphs, {n_words} closed "
          f"words: divisibility orders >= 1 and multiplier lowest monomial "
          f"= unit * product(y) at degree 6 ({dt:.1f}s < 15s)")


def test_criterion_02_moebius_action_fixes_alpha():
    rng = random.Random(20260815)
    pool = [g for g in _charted_catalog(2, 2) if g.gn_type()[0] >= 1]
    checked = 0
    while checked < 100:
        graph = pool[checked % len(pool)]
        word = None
        while word is None:
            try:  # not every graph has closed words of every length
                word = random_closed_word(graph, rng, rng.randint(1, 4))
            except ValueError:
                pass
        rep = verify_word(graph, word, trunc=6)
        # the residual check substitutes both fixed-point series into the
        # exact word map, independent of how the solver found them
        assert rep["checks"]["residual"], (graph.gn_type(), word)
        checked += 1
    print(f"[criterion 02] PASS — {checked} random closed words: the word's "
          f"fractional-linear action reproduces both fixed points exactly "
          f"at degree 6")


def test_criterion_03_single_loop_scaling_chart():
    g = StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)],
                    [Tail("t1", "v0", 1)])
    g = g.with_chart(Chart({"e0+": F(0), "t1": F(1)}, ["e0-"]))
    m = phi_matrix(g, "e0+", ("e0",), trunc=6)
    y = TS.variable("e0", ("e0",), 6)
    # phi(z) = y*z: entries are exact monomials, so equality at the working
    # truncation is equality at all orders
    assert (m.a - y).is_zero() and m.b.is_zero() and m.c.is_zero()
    assert m.d.constant_term() == 1 and len(m.d.terms) == 1
    d = multiplier_data(g, ["e0+"], trunc=6)
    assert (d.beta - y).is_zero()
    print("[criterion 03] PASS — single-loop chart: phi(z) = y*z and "
          "multiplier = y exactly (all orders)")


def test_criterion_04_refinement_matching_equations():
    t0 = time.time()
    # four-point star: the refined chart must reproduce all four marked
    # points exactly (no loops exist, so the multiplier equations are
    # vacuous here)
    star = StableGraph(["v0"], [], [Tail(f"t{i}", "v0", i)
                                    for i in range(1, 5)])
    cmp_star = expand_and_compare(star, "v0", "t1", "t2", trunc=4, seed=7)
    rep_star = cmp_star.report(loops_len=3, points_len=2)
    assert rep_star["pass"], rep_star["points"]
    assert rep_star["points"]["n_checked"] == 4
    assert rep_star["points"]["pass"]
    assert not rep_star["edge_params"]  # no original edges on a star

    # loop corner (both branches of one edge): multiplier equations carry
    # the content, and the original edge parameter factors as
    # unit * (new edge)^2 * (old edge)
    looped = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                         [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    cmp_loop = expand_and_compare(looped, "v0", "f+", "f-", trunc=4, seed=9)
    rep_loop = cmp_loop.report(loops_len=3, points_len=2)
    assert rep_loop["pass"], rep_loop
    assert rep_loop["multipliers"]["n_words"] > 0
    low = cmp_loop.edge_params["f"].lowest_part()
    ((expo, coeff),) = low.terms.items()
    assert dict(zip(low.vars, expo)) == {"e0": 2, "f": 1} and coeff
    dt = time.time() - t0
    assert dt < 30.0
    print(f"[criterion 04] PASS — star and loop-corner refinements: unit "
          f"reparameterizations, multiplier and point equations hold "
          f"to s-degree 4 ({dt:.1f}s < 30s)")


def _random_convergent_indices(rng, weight):
    """Random increasing-convention exponents of the given total weight
    with a convergent last entry."""
    while True:
        parts = []
        left = weight
        while left:
            k = rng.randint(1, left)
            parts.append(k)
            left -= k
        if parts[-1] >= 2:
            return tuple(parts)


def test_criterion_05_polylog_numerics_and_shuffle():
    assert abs(mzv_numeric((2,)) - math.pi ** 2 / 6) < 1e-9
    assert abs(mzv_numeric((1, 2)) - mzv_numeric((3,))) < 1e-9
    rng = random.Random(5)
    z = 1 / 3
    for n in range(20):
        wu = rng.randint(2, 3)
        wv = rng.randint(2, 5 - wu)
        u = _random_convergent_indices(rng, wu)
        v = _random_convergent_indices(rng, wv)
        lhs = li_numeric(u, z) * li_numeric(v, z)
        rhs = sum(mult * li_numeric(word_to_indices(w), z)
                  for w, mult in shuffle_words(indices_to_word(u),
                                               indices_to_word(v)))
        assert abs(lhs - rhs) < 1e-9, (u, v)
    print("[criterion 05] PASS — zeta(2), zeta(1,2)=zeta(3) to 1e-9; "
          "20 random shuffle identities at z=1/3 to 1e-9")


def test_criterion_06_associator_against_transport():
    phi = kz_associator(4)
    # the KZ connection integrated numerically, unit tangential frames
    x0 = NCSeries.letter("X0", ("X0", "X1"), 4, COMPLEX)
    x1 = NCSeries.letter("X1", ("X0", "X1"), 4, COMPLEX)
    oracle = ode_transport({0.0: x0, 1.0: x1}, 0.0, 1.0)
    worst = 0.0
    for n in range(5):
        for w in itertools.product(("X0", "X1"), repeat=n):
            diff = phi.coefficient(w).numeric(1e-12) - oracle.coefficient(w)
            worst = max(worst, abs(diff))
    assert worst < 1e-6
    assert phi.is_grouplike()
    assert not phi.coefficient(("X0",)) and not phi.coefficient(("X1",))
    print(f"[criterion 06] PASS — series vs regularized transport to "
          f"{worst:.1e} (< 1e-6); grouplike; linear part zero")


def test_criterion_07_elliptic_residue_identities():
    w = 8
    assert (w_zero(w) + w_one(w) + w_infinity(w)).is_zero()
    t = NCSeries.letter("T", ("T", "A"), w)
    coeffs, fact = [F(1)], F(1)
    for k in range(1, w + 1):
        fact *= k
        coeffs.append(1 / fact)
    assert (t.ad_series(coeffs, w_zero(w)) + w_infinity(w)).is_zero()
    m0 = monodromy_around_zero(4)
    mab = a_to_b(4)
    assert m0.is_grouplike() and mab.is_grouplike()
    assert m0.coefficient(("A",)) == CC.ipi(1, 2)   # 2*pi*i
    assert not m0.coefficient(("T",))
    assert mab.coefficient(("T",)) == CC.one()
    assert not mab.coefficient(("A",))
    print("[criterion 07] PASS — residue-sum and twist identities exact at "
          "order 8; both chart monodromies grouplike at order 4 with the "
          "stated weight-1 parts")


def test_criterion_08_sheaf_reductions():
    trunc = 4
    calc3 = MonodromyCalculator(build_sheaf(stable_graphs(0, 3)[0], trunc))
    elem = calc3.path(calc3.tail_path_moves("t1", "t2"))
    expect = kz_associator(trunc).map_coefficients(
        lambda c: LogPoly.constant(calc3.lvars, c), calc3.ring).rename(
        {"X0": "X_t1", "X1": "X_t2"}).extend(calc3.sheaf.alphabet)
    assert (elem - expect).is_zero()

    calc1 = MonodromyCalculator(build_sheaf(stable_graphs(1, 1)[0], trunc))
    got = calc1.path([("local", "v0", "t1", "e0+"), ("turn", "v0", "e0+"),
                      ("local", "v0", "e0+", "t1")])
    ref = monodromy_around_zero(trunc).rename(
        {"T": "T_e0", "A": "A_e0"}).extend(calc1.sheaf.alphabet)
    log_free = (0,) * len(calc1.lvars)
    worst = 0.0
    for n in range(trunc + 1):
        for word in itertools.product(calc1.sheaf.alphabet, repeat=n):
            diff = got.coefficient(word).coefficients().get(
                log_free, CC.zero()).numeric(1e-12) \
                - ref.coefficient(word).numeric(1e-12)
            worst = max(worst, abs(diff))
    assert worst < 1e-9
    print(f"[criterion 08] PASS — three-tail transport is the KZ associator "
          f"(exact); one-loop turn monodromy matches the elliptic chart "
          f"monodromy to {worst:.1e} (< 1e-9)")


def _cycle_word(calc, edge):
    g = calc.graph
    h = edge + "+"
    if g.origin(h) == g.terminus(h):
        return [h]
    return [h] + g.tree_path(g.terminus(h), g.origin(h),
                             list(calc.sheaf.tree_edges))


def test_criterion_09_decomposition_tables_and_arithmeticity():
    t0 = time.time()
    trunc = 4
    n_elems = n_entries = 0
    genus0_violations = 0
    bad = []           # (genus, entry) for every flagged coefficient
    flagged_report = None
    for gn in [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]:
        for graph in stable_graphs(*gn):
            calc = MonodromyCalculator(build_sheaf(graph, trunc))
            tails = sorted(graph.tails)
            jobs = [calc.tail_path_moves(s, d)
                    for s, d in itertools.combinations(tails, 2)]
            jobs += [calc.loop_moves(_cycle_word(calc, e))
                     for e in sorted(calc.sheaf.cycle_edges)]
            for moves in jobs:
                elem = calc.path(moves)
                rep = decompose_element(elem)
                # finite table with the displayed factorial normalization,
                # reassembling exactly to the element
                assert rep["max_log_degree"] <= trunc
                assert (reassemble_element(rep, calc.ring) - elem).is_zero()
                n_elems += 1
                n_entries += rep["n_entries"]
                for i in rep["violations"]:
                    bad.append((gn[0], rep["entries"][i]))
                if gn[0] == 0:
                    genus0_violations += len(rep["violations"])
                elif rep["violations"] and flagged_report is None:
                    flagged_report = rep
    # genus 0: every constant is a Z-combination of (i*pi)-powers and
    # zeta-value products
    assert genus0_violations == 0
    # genus >= 1: the node-sector denominators are real, classified, and
    # surfaced — every flagged word carries a node letter, a single
    # factorial scale (4! at this truncation) clears all of them, and the
    # report machinery refuses to pass them silently
    assert bad, "expected node-sector denominators at genus >= 1"
    for _, entry in bad:
        assert any(l.startswith(("T_", "A_")) for l in entry["word"]), entry
        assert in_zeta_span(CC.from_json(entry["coeff"]) * 24), entry
    with pytest.raises(NonIntegralCoefficient):
        assert_integral(flagged_report)
    dt = time.time() - t0
    assert dt < 60.0
    print(f"[criterion 09] PASS — {n_elems} monodromies, {n_entries} table "
          f"entries, exact reassembly; genus-0 constants all in the Z-span; "
          f"{len(bad)} genus>=1 node-sector entries flagged (all cleared "
          f"by 4!), surfaced via NonIntegralCoefficient ({dt:.1f}s < 60s)")


def _words_sweep(types, trunc, reassemble=False):
    """Criterion 09's sweep at ``trunc``: every tail path and cycle loop
    of every trivalent graph of ``types``, decomposed (and, with
    ``reassemble``, reassembled exactly).  Genus-0 tables must be all
    integral and every flagged entry carries a node letter; returns the
    numbers of entries and of flagged entries."""
    n_entries = n_flagged = 0
    for gn in types:
        for graph in stable_graphs(*gn):
            calc = MonodromyCalculator(build_sheaf(graph, trunc))
            jobs = [calc.tail_path_moves(s, d) for s, d in
                    itertools.combinations(sorted(graph.tails), 2)]
            jobs += [calc.loop_moves(_cycle_word(calc, e))
                     for e in sorted(calc.sheaf.cycle_edges)]
            for moves in jobs:
                elem = calc.path(moves)
                rep = decompose_element(elem)
                if reassemble:
                    assert (reassemble_element(rep, calc.ring)
                            - elem).is_zero()
                n_entries += rep["n_entries"]
                n_flagged += len(rep["violations"])
                if gn[0] == 0:
                    assert rep["all_integral"], gn
                for i in rep["violations"]:
                    entry = rep["entries"][i]
                    assert any(l.startswith(("T_", "A_"))
                               for l in entry["word"]), entry
    return n_entries, n_flagged


def test_criterion_09_words_five_sweep():
    # words 5 reach weight-5 constants, where the span test needs the
    # double shuffle relations beyond the weight-4 evaluations
    t0 = time.time()
    n_entries, n_flagged = _words_sweep(
        [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0)], 5)
    assert n_flagged
    dt = time.time() - t0
    assert dt < 60.0
    print(f"[criterion 09, words 5] PASS — {n_entries} table entries; "
          f"genus-0 constants all in the Z-span; {n_flagged} genus>=1 "
          f"entries flagged, each on a node letter ({dt:.1f}s < 60s)")


def test_criterion_09_words_six_sweep():
    # words 6 reach weight-6 constants; the counts are the sums over the
    # seven types of the ROADMAP's words-6 table
    t0 = time.time()
    n_entries, n_flagged = _words_sweep(
        [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0)], 6)
    assert n_entries == 280474 and n_flagged == 9007
    dt = time.time() - t0
    assert dt < 60.0
    print(f"[criterion 09, words 6] PASS — {n_entries} table entries; "
          f"genus-0 constants all in the Z-span; {n_flagged} genus>=1 "
          f"entries flagged, each on a node letter ({dt:.1f}s < 60s)")


def test_criterion_09_words_five_sweep_on_six_points():
    # (0,6) at words 5: 2 graphs, 30 tail paths, each table reassembled
    # exactly, every constant in the Z-span; a budget of its own
    t0 = time.time()
    n_entries, n_flagged = _words_sweep([(0, 6)], 5, reassemble=True)
    assert n_entries == 364129 and n_flagged == 0
    dt = time.time() - t0
    assert dt < 60.0
    print(f"[criterion 09, words 5, (0,6)] PASS — {n_entries} table "
          f"entries, exact reassembly; all in the Z-span ({dt:.1f}s < 60s)")


def test_criterion_10_deformed_transport_against_ode():
    t0 = time.time()
    trunc = 3
    graph = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    calc = MonodromyCalculator(build_sheaf(graph, trunc))
    dressed = calc.dressed_tail_transport("t1", "t3", ydeg=3,
                                          xorder=36, kmax=26)
    y = 1 / 64
    got = sew_specialize(dressed, y, 1e-12)
    alphabet = calc.sheaf.alphabet
    mk = {a: NCSeries.letter(a, alphabet, trunc, COMPLEX) for a in alphabet}
    # destination-chart picture: spectator at 0, source tail at y,
    # destination tail at 1; the source frame is scaled by y
    oracle = ode_transport({0.0: mk["X_t2"], y: mk["X_t1"], 1.0: mk["X_t3"]},
                           y, 1.0, scale_src=y, scale_dst=1.0, delta=y / 4)
    worst = max(abs(got.coefficient(w) - oracle.coefficient(w))
                for n in range(trunc + 1)
                for w in itertools.product(alphabet, repeat=n))
    assert worst < 1e-5
    dt = time.time() - t0
    assert dt < 60.0
    print(f"[criterion 10] PASS — four-point transport at y=1/64 vs direct "
          f"ODE integration: {worst:.2e} (< 1e-5) at order {trunc} "
          f"({dt:.0f}s < 60s)")
