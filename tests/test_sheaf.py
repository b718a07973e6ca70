"""Residue sheaves and the monodromy move calculus on stable graphs."""
import cmath
import hashlib
import itertools
import time

import pytest

from curvelog.associator import kz_associator
from curvelog.catalog import stable_graphs
from curvelog.constants import ConstantCombination as CC
from curvelog.elliptic import monodromy_around_zero
from curvelog.jsonio import canonical_dumps
from curvelog.logpoly import LogPoly, logpoly_ring
from curvelog.ncseries import COMPLEX, NCSeries
from curvelog.sheaf import (GlueInconsistent, MonodromyCalculator,
                            UnsupportedDressing, build_sheaf,
                            decompose_element, log_symbol,
                            reassemble_element)
from curvelog.stable_graph import half

GENUS_TAILS = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0)]
GRAPH_COUNTS = {(0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 2,
                (1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 0): 2}


def specialize_logs(elem, edge_values, prec):
    """Numeric specialization: every edge symbol becomes
    ``log(y_edge) / (2 i pi)`` for the supplied gluing values."""
    values = {log_symbol(e): cmath.log(complex(y)) / (2j * cmath.pi)
              for e, y in edge_values.items()}
    return elem.map_coefficients(lambda p: p.evaluate(values, prec), COMPLEX)


def _four_tails_calculator(trunc):
    graph = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    return MonodromyCalculator(build_sheaf(graph, trunc))


def test_invariants_hold_across_catalog():
    for g, n in GENUS_TAILS:
        graphs = stable_graphs(g, n)
        assert len(graphs) == GRAPH_COUNTS[(g, n)]
        for graph in graphs:
            sheaf = build_sheaf(graph, 3)  # raises if any invariant fails
            assert set(sheaf.tree_edges) | set(sheaf.cycle_edges) \
                == set(graph.edges)
            assert not set(sheaf.tree_edges) & set(sheaf.cycle_edges)
            n_tails = len(graph.tails)
            expected_letters = (n_tails - 1 if n_tails else 0) \
                + 2 * len(sheaf.cycle_edges)
            assert len(sheaf.alphabet) == expected_letters


@pytest.mark.parametrize("words", [2, 3, 4, 5])
def test_tail_free_root_sums_to_minus_the_relation(words):
    for graph in stable_graphs(2, 0):
        sheaf = build_sheaf(graph, words)
        root, *others = graph.vertices
        relation = sheaf.relation()
        assert relation.order() == 2 and not relation.is_zero()
        assert sheaf.vertex_sum(root) == -relation
        assert all(sheaf.vertex_sum(v).is_zero() for v in others)


def test_root_sum_other_than_minus_the_relation_raises():
    # doubling every residue keeps the node identities, the opposite tree
    # halves and the zero vertex sums, and takes the root sum to -2 times
    # the relation: in the ideal of the relation, but not minus it
    for graph in stable_graphs(2, 0):
        sheaf = build_sheaf(graph, 4)
        sheaf.residues = {b: r.scale(2) for b, r in sheaf.residues.items()}
        assert sheaf.vertex_sum(graph.vertices[0]) \
            == sheaf.relation().scale(-2)
        with pytest.raises(GlueInconsistent, match="minus the relation"):
            sheaf.check_invariants()


def test_scaled_tree_edge_residue_raises():
    for graph in stable_graphs(1, 2):
        sheaf = build_sheaf(graph, 3)
        assert sheaf.tree_edges
        for eid in sheaf.tree_edges:
            h = half(eid, "+")
            kept = sheaf.residues[h]
            sheaf.residues[h] = kept.scale(2)
            with pytest.raises(GlueInconsistent):
                sheaf.check_invariants()
            sheaf.residues[h] = kept
            sheaf.check_invariants()


def test_three_tails_local_move_is_the_kz_associator():
    calc = MonodromyCalculator(build_sheaf(stable_graphs(0, 3)[0], 3))
    elem = calc.path(calc.tail_path_moves("t1", "t2"))
    expect = kz_associator(3).map_coefficients(
        lambda c: LogPoly.constant(calc.lvars, c), calc.ring) \
        .rename({"X0": "X_t1", "X1": "X_t2"}).extend(calc.sheaf.alphabet)
    assert (elem - expect).is_zero()


def test_one_loop_recipe_matches_elliptic_monodromy():
    trunc = 4
    graph = stable_graphs(1, 1)[0]
    calc = MonodromyCalculator(build_sheaf(graph, trunc))
    recipe = [("local", "v0", "t1", "e0+"), ("turn", "v0", "e0+"),
              ("local", "v0", "e0+", "t1")]
    got = calc.path(recipe)
    ref = monodromy_around_zero(trunc).rename(
        {"T": "T_e0", "A": "A_e0"}).extend(calc.sheaf.alphabet)
    log_free = (0,) * len(calc.lvars)
    worst = 0.0
    for n in range(trunc + 1):
        for word in itertools.product(calc.sheaf.alphabet, repeat=n):
            poly = got.coefficient(word)
            for expo, comb in poly.coefficients().items():
                if any(expo):  # the loop never crosses an edge: log-free
                    assert abs(comb.numeric(1e-12)) < 1e-12
            diff = poly.coefficients().get(log_free, CC.zero()).numeric(1e-12) \
                - ref.coefficient(word).numeric(1e-12)
            worst = max(worst, abs(diff))
    assert worst < 1e-9


def test_four_tails_path_decomposition_table():
    calc = _four_tails_calculator(4)
    elem = calc.path(calc.tail_path_moves("t1", "t3"))
    report = decompose_element(elem)
    assert report["n_entries"] == 223
    assert report["max_log_degree"] == 4
    assert report["all_integral"] is True
    assert report["violations"] == []
    back = reassemble_element(report, calc.ring)
    assert (back - elem).is_zero()
    assert elem.is_grouplike()
    # the only letters with a linear term are the two on the starting
    # chart, carried by the edge-crossing factor
    assert elem.coefficient(("X_t1",)).coefficients() == {(1,): CC.ipi(1, -2)}
    assert elem.coefficient(("X_t2",)).coefficients() == {(1,): CC.ipi(1, -2)}
    assert not elem.coefficient(("X_t3",))


def test_zero_element_table_keeps_the_ring_symbols():
    ring = logpoly_ring((log_symbol("e0"),))
    zero = NCSeries(("X_t1", "X_t2"), 3, ring)
    report = decompose_element(zero)
    assert report["lvars"] == ["l_e0"] and report["n_entries"] == 0
    back = reassemble_element(report, ring)
    assert back.is_zero() and back == zero


def _paths_and_loops(g, n, trunc):
    """The monodromy element of every tail pair and every fundamental
    loop over the (g, n) catalog."""
    for graph in stable_graphs(g, n):
        calc = MonodromyCalculator(build_sheaf(graph, trunc))
        for s, d in itertools.combinations(sorted(graph.tails), 2):
            yield calc.path(calc.tail_path_moves(s, d))
        for e in sorted(calc.sheaf.cycle_edges):
            h = e + "+"
            word = [h] if graph.origin(h) == graph.terminus(h) else \
                [h] + graph.tree_path(graph.terminus(h), graph.origin(h),
                                      list(calc.sheaf.tree_edges))
            yield calc.path(calc.loop_moves(word))


def test_monodromy_elements_are_exactly_grouplike():
    # the residues are primitive, so every transport is group-like; the
    # check compares normal forms, with the edge symbols left free
    t0 = time.time()
    elems = [elem for gn in [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1),
                             (1, 2), (1, 3), (2, 0)]
             for elem in _paths_and_loops(*gn, 4)]
    assert len(elems) == 70
    for elem in elems:
        assert elem.is_grouplike()
    six = [elem for elem in elems if len(elem.alphabet) == 5]
    assert len(six) == 30   # the (0,6) tail paths: five letters each
    for elem in (elems[0], six[-1]):
        terms = dict(elem.terms)
        word = max(terms, key=len)
        terms[word] = terms[word] + 1
        bent = NCSeries(elem.alphabet, elem.trunc, elem.ring, terms)
        assert not bent.is_grouplike()
    dt = time.time() - t0
    assert dt < 60.0


# sha256 of the canonical decomposition tables of every tail path and
# cycle loop of a type, one table per line.  The tables carry the
# `numeric` bits of every entry and its `integral` verdict.
DECOMPOSE_SHA256 = {
    ((0, 4), 4): "4922387317812905a9cf70776a3ba9efd788ec1050791f068307165f6d5bdb23",
    ((1, 1), 4): "284eccbddf2c6e2f77be00a592793f612695e9f6ba2311695f29e34f46c4162d",
    ((1, 2), 4): "0b121cb3e2f0a86700ed9d9876a4f123e389b6e48978dc396a57e73cef08cd2b",
    ((2, 0), 4): "07b1a980716a1f6867e136c795c6ded47a6a4d892735e203f28125d87d16cac7",
    ((1, 1), 5): "5647a31f69e847b329868642eff5ceb19aba6ff0bd5f8673d9bf1483dbe530e0",
}


@pytest.mark.parametrize("gn,words", sorted(DECOMPOSE_SHA256), ids=str)
def test_decomposition_tables_are_pinned(gn, words):
    text = "\n".join(canonical_dumps(decompose_element(elem))
                     for elem in _paths_and_loops(*gn, words))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DECOMPOSE_SHA256[(gn, words)]


FARTHEST_TAILS_SHA256 = {
    "words3": (3, "57e6c5e145913d98c5a9404499d0b0274c9f0f3c0b77b196acd4d57456ac288d"),
    "words4": (4, "f59d32175860a920aaaec4aa858c72dc5bafd56f13c21738df75170dad665cf3"),
}


@pytest.mark.parametrize("name", sorted(FARTHEST_TAILS_SHA256))
def test_farthest_tails_path_is_pinned(name):
    # t2 and t4 sit two edges apart on the (0, 5) caterpillar.  The dump
    # carries the numeric value of every coefficient, so a change in the
    # order in which residue terms are summed shows too.
    words, digest = FARTHEST_TAILS_SHA256[name]
    graph = stable_graphs(0, 5)[0]
    calc = MonodromyCalculator(build_sheaf(graph, words))
    assert len(graph.tree_path(graph.tails["t2"].vertex,
                               graph.tails["t4"].vertex,
                               list(calc.sheaf.tree_edges))) == 2
    text = canonical_dumps(
        calc.path(calc.tail_path_moves("t2", "t4")).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the words-4 fundamental loop of e1 (through the tree edge e0)
# on the second graph of each type: a genus-1 cycle edge with two tails,
# and a genus-2 graph without tails, whose element is computed in the
# free algebra (its root sum is checked against the global relation
# exactly, and nothing is reduced modulo it)
CYCLE_LOOP_SHA256 = {
    (1, 2): "9097ea254bf4d93b9bf151617143eed99feefb42313a56fb8a6b254d37bde774",
    (2, 0): "278bff0ef242a8845735572d9c226d4d2898541817bd781ed8161670f1020e46",
}


@pytest.mark.parametrize("gn", sorted(CYCLE_LOOP_SHA256), ids=str)
def test_cycle_edge_loop_is_pinned(gn):
    graph = stable_graphs(*gn)[1]
    calc = MonodromyCalculator(build_sheaf(graph, 4))
    word = ["e1+"] + graph.tree_path(graph.terminus("e1+"),
                                     graph.origin("e1+"),
                                     list(calc.sheaf.tree_edges))
    assert word == ["e1+", "e0-"]
    text = canonical_dumps(calc.path(calc.loop_moves(word)).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == CYCLE_LOOP_SHA256[gn]


def _lifted_local(calc, src, dst):
    """The local move as it was built before: both residues lifted into
    the log ring, then one product of images per word of the associator."""
    phi = kz_associator(calc.trunc)
    images = {"X0": calc.residues[src], "X1": calc.residues[dst]}
    out = NCSeries.zero(calc.sheaf.alphabet, calc.trunc, calc.ring)
    for w, c in phi.terms.items():
        piece = calc.unit()
        for i in w:
            piece = piece * images[phi.alphabet[i]]
        out = out + piece.scale(LogPoly.constant(calc.lvars, c))
    return out


def test_local_moves_match_the_lifted_substitution():
    # the associator is substituted over the period constants at the
    # rational residues and lifted once; every branch pair of the
    # criterion-09 types at words 4 gives the lifted-image result
    n_pairs = 0
    for gn in GENUS_TAILS:
        for graph in stable_graphs(*gn):
            calc = MonodromyCalculator(build_sheaf(graph, 4))
            for v in graph.vertices:
                for src, dst in itertools.permutations(
                        graph.branches_at(v), 2):
                    got = calc.local(v, src, dst)
                    assert got.ring is calc.ring
                    assert got.terms == _lifted_local(calc, src, dst).terms
                    n_pairs += 1
    assert n_pairs == 192


def test_path_validates_chart_states():
    calc = _four_tails_calculator(2)
    with pytest.raises(ValueError):
        # after the local move the path sits on e0-, not on t2
        calc.path([("local", "v0", "t1", "e0-"), ("local", "v0", "t2", "t1")])
    with pytest.raises(ValueError):
        # crossing e0- departs from e0+ over at v1, not from v0
        calc.path([("local", "v0", "t1", "e0-"), ("cross", "e0-")])
    with pytest.raises(ValueError):
        calc.turn("v0", "t3")  # t3 lives on the other chart


def test_homotopy_invariance_under_backtracking():
    calc = _four_tails_calculator(3)
    base = calc.tail_path_moves("t1", "t3")
    elem = calc.path(base)
    # retrace the edge: cross back and forth once more
    retraced = base[:2] + [("cross", "e0-"), ("cross", "e0+")] + base[2:]
    assert (calc.path(retraced) - elem).is_zero()
    # a full turn and its inverse cancel exactly
    turned = base[:2] + [("turn", "v1", "e0+", 1),
                         ("turn", "v1", "e0+", -1)] + base[2:]
    assert (calc.path(turned) - elem).is_zero()


def test_dressing_refuses_unsupported_shapes():
    calc = _four_tails_calculator(2)
    with pytest.raises(UnsupportedDressing):
        calc.dressed_tail_transport("t1", "t4", ydeg=1)
    with pytest.raises(UnsupportedDressing):
        calc.dressed_tail_transport("t2", "t3", ydeg=1)
    with pytest.raises(UnsupportedDressing):
        calc.dressed_tail_transport("t1", "t2", ydeg=1)
    loop = MonodromyCalculator(build_sheaf(stable_graphs(1, 1)[0], 2))
    with pytest.raises(UnsupportedDressing):
        loop.dressed_tail_transport("t1", "t1", ydeg=1)


def test_dressed_constant_layer_matches_move_pipeline():
    from curvelog.sewing import sew_specialize

    calc = _four_tails_calculator(2)
    dressed = calc.dressed_tail_transport("t1", "t3", ydeg=0,
                                          xorder=24, kmax=18)
    pipeline = calc.path(calc.tail_path_moves("t1", "t3"))
    yval = 1 / 64
    num_dressed = sew_specialize(dressed, yval, 1e-12)
    num_pipe = specialize_logs(pipeline, {"e0": yval}, 1e-12)
    worst = max(abs(num_dressed.coefficient(w) - num_pipe.coefficient(w))
                for n in range(3)
                for w in itertools.product(calc.sheaf.alphabet, repeat=n))
    assert worst < 1e-5
