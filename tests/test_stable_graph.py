"""Stable graph structure, trees, loops, alterations, serialization."""
import hashlib
import itertools
import json
from fractions import Fraction as F

import pytest

from curvelog.catalog import stable_graphs
from curvelog.jsonio import canonical_dumps
from curvelog.ncseries import RATIONAL, Ring
from curvelog.schottky import DegenerateWord, require_cyclically_reduced
from curvelog.stable_graph import (Chart, Edge, GraphInvalid, NotComposable,
                                   NotReduced, StableGraph, Tail, flip, half)


def one_loop_one_tail():
    """Genus-one graph: one vertex, a loop, one tail."""
    return StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)],
                       [Tail("t1", "v0", 1)])


def theta():
    """Two vertices joined by three parallel edges: type (2, 0)."""
    return StableGraph(["v0", "v1"],
                       [Edge("e0", "v0", 0, "v1", 0),
                        Edge("e1", "v0", 1, "v1", 1),
                        Edge("e2", "v0", 2, "v1", 2)], [])


def dumbbell():
    """Two loops joined by a bridge: type (2, 0)."""
    return StableGraph(["v0", "v1"],
                       [Edge("e0", "v0", 0, "v0", 1),
                        Edge("e1", "v0", 2, "v1", 0),
                        Edge("e2", "v1", 1, "v1", 2)], [])


def star(n):
    """One vertex with n numbered tails: type (0, n)."""
    return StableGraph(["v0"], [],
                       [Tail(f"t{i}", "v0", i) for i in range(1, n + 1)])


def test_types_and_validate():
    assert one_loop_one_tail().validate() == (1, 1)
    assert theta().validate() == (2, 0)
    assert dumbbell().validate() == (2, 0)
    assert star(3).validate() == (0, 3)
    assert star(4).validate(expect=(0, 4)) == (0, 4)
    assert theta().is_trivalent()
    assert not star(4).is_trivalent()


def test_validate_rejects_bad_graphs():
    with pytest.raises(GraphInvalid):  # valence 2
        StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)], []).validate()
    with pytest.raises(GraphInvalid):  # disconnected
        StableGraph(["a", "b"],
                    [Edge("e0", "a", 0, "a", 1), Edge("e1", "b", 0, "b", 1)],
                    [Tail("t1", "a", 1), Tail("t2", "b", 2)]).validate()
    with pytest.raises(GraphInvalid):  # nu not 1..n
        StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)],
                    [Tail("t1", "v0", 2)]).validate()
    with pytest.raises(GraphInvalid):  # duplicate slot
        StableGraph(["v0", "v1"],
                    [Edge("e0", "v0", 0, "v1", 0),
                     Edge("e1", "v0", 0, "v1", 1),
                     Edge("e2", "v0", 2, "v1", 2)], []).validate()
    with pytest.raises(GraphInvalid):  # unstable type (0, 2)
        StableGraph(["v0"], [],
                    [Tail("t1", "v0", 1), Tail("t2", "v0", 2),
                     Tail("t3", "v0", 3)]).validate(expect=(0, 2))


def test_validate_counts_a_loop_twice():
    # one loop gives its vertex two branches, a tail makes three
    with pytest.raises(GraphInvalid, match="fewer than 3 branches"):
        StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)], []).validate()
    assert one_loop_one_tail().validate() == (1, 1)
    with pytest.raises(GraphInvalid, match="vertex v0 has fewer than 3"):
        StableGraph(["v0", "v1"], [Edge("e0", "v0", 0, "v1", 0),
                                   Edge("e1", "v0", 1, "v1", 1)],
                    []).validate()


@pytest.mark.parametrize("kind", ["vertex", "edge", "tail"])
def test_duplicate_ids_are_rejected(kind):
    # without the check, the second item of a name would replace the first
    vertices = ["v0", "v1"] + (["v1"] if kind == "vertex" else [])
    edges = [Edge("e0", "v0", 0, "v1", 0), Edge("e1", "v0", 1, "v1", 1),
             Edge("e0" if kind == "edge" else "e2", "v0", 2, "v1", 2)]
    tails = [Tail("t1", "v0", 1), Tail("t1" if kind == "tail" else "t2",
                                        "v1", 2)]
    name = {"vertex": "v1", "edge": "e0", "tail": "t1"}[kind]
    with pytest.raises(GraphInvalid, match=f"duplicate {kind} .*{name}"):
        StableGraph(vertices, edges, tails)


def test_chart_invariants():
    g = one_loop_one_tail()
    ok = Chart({"e0+": F(0), "t1": F(1)}, ["e0-"])
    g.with_chart(ok).validate()
    with pytest.raises(GraphInvalid):  # collision at the vertex
        g.with_chart(Chart({"e0+": F(1), "t1": F(1), "e0-": F(2)}, []))
    with pytest.raises(GraphInvalid):  # both halves of e0 infinite
        g.with_chart(Chart({"t1": F(1)}, ["e0+", "e0-"]))
    with pytest.raises(GraphInvalid):  # missing branch
        g.with_chart(Chart({"e0+": F(0)}, ["e0-"]))
    th = theta()
    with pytest.raises(GraphInvalid):  # two infinite branches at v0
        th.with_chart(Chart({"e2+": F(1), "e2-": F(2),
                             "e0-": F(3), "e1-": F(4)}, ["e0+", "e1+"]))


def test_specialize_chart_deterministic_and_generic():
    g = theta().specialize_chart(seed=7)
    g.validate()
    vals = list(g.chart.finite.values())
    assert len(set(vals)) == len(vals) == 6
    h = theta().specialize_chart(seed=7)
    assert g.to_json() == h.to_json()
    k = theta().specialize_chart(seed=8)
    assert k.to_json() != g.to_json()
    gi = theta().specialize_chart(seed=7, infinite=["e0-"])
    assert gi.chart.x("e0-") is None


def free_reduce(word):
    """``word`` with every backtrack ``h, flip(h)`` cancelled."""
    out = []
    for h in word:
        if out and out[-1] == flip(h):
            out.pop()
        else:
            out.append(h)
    return out


def pi1_loops(g, base=None):
    """Loop generators of the fundamental group, one per cycle edge: from
    the base vertex through the spanning tree, across the cycle edge in
    its positive orientation, and back, freely reduced."""
    tree, cycle = g.maximal_subtree()
    if base is None:
        base = g.vertices[0]
    loops = []
    for eid in cycle:
        h = half(eid, g.edges[eid].oriented)
        word = free_reduce(g.tree_path(base, g.origin(h), tree) + [h]
                           + g.tree_path(g.terminus(h), base, tree))
        g.check_path(word, closed=True, reduced=True)
        loops.append(word)
    return loops


def test_maximal_subtree_and_loops():
    tree, cycle = theta().maximal_subtree()
    assert len(tree) == 1 and len(cycle) == 2
    loops = pi1_loops(theta())
    assert len(loops) == 2
    g = dumbbell()
    tree, cycle = g.maximal_subtree()
    assert tree == ["e1"] and cycle == ["e0", "e2"]
    loops = pi1_loops(g, base="v0")
    assert loops[0] == ["e0+"]
    assert loops[1] == ["e1+", "e2+", "e1-"]
    for w in loops:
        g.check_path(w, closed=True, reduced=True)


# sha256 of the trees, loops and tree paths of every stable graph of a
# type; a spanning tree is not unique, so these pin the walk order
WALK_PINS = {
    (1, 3): "3949973d0b5ed0644207d524034348f370ecb774b5ca54c40012be11573fc49c",
    (2, 1): "d6f77cab703254f2576513634f582e1e6200e2cf4f611b54715c1725bbc87cc9",
    (3, 0): "ff6625c7cbc69eb042a2e57df1f7c3ed573e37ab76db5f621b966694952a8558",
}


@pytest.mark.parametrize("gn", sorted(WALK_PINS),
                         ids=lambda gn: f"g{gn[0]}n{gn[1]}")
def test_spanning_tree_walk_is_pinned(gn):
    data = [{"tree": g.maximal_subtree(), "loops": pi1_loops(g),
             "paths": [g.tree_path(u, v, g.maximal_subtree()[0])
                       for u in g.vertices for v in g.vertices]}
            for g in stable_graphs(*gn, trivalent_only=False)]
    digest = hashlib.sha256(canonical_dumps(data).encode()).hexdigest()
    assert digest == WALK_PINS[gn]


def test_free_and_cyclic_reduce():
    g = dumbbell()
    assert free_reduce(["e1+", "e1-", "e0+"]) == ["e0+"]
    assert free_reduce(["e1+", "e2+", "e2-", "e1-"]) == []
    # a conjugated loop is freely reduced but not cyclically reduced
    w = ["e1+", "e2+", "e1-"]
    assert free_reduce(w) == w
    with pytest.raises(DegenerateWord):
        require_cyclically_reduced(g, w)
    require_cyclically_reduced(g, ["e0+"])


def test_check_path_errors():
    g = dumbbell()
    with pytest.raises(NotComposable):
        g.check_path(["e0+", "e2+"])
    with pytest.raises(NotReduced):
        g.check_path(["e1+", "e1-"])
    with pytest.raises(NotComposable):
        g.check_path(["e0+"], closed=False)
        g.check_path(["e1+"], closed=True)


def test_closed_words_theta():
    g = theta()
    words = g.closed_words(2)
    assert all(len(w) == 2 for w in words)
    assert len(words) == 6
    for w in words:
        g.check_path(w, closed=True, reduced=True)
        assert w[0] != flip(w[-1])
    w4 = g.closed_words(4)
    assert all(len(w) in (2, 4) for w in w4)
    assert len(set(map(tuple, w4))) == len(w4)


def brute_force_closed_words(g, max_len):
    """Every closed, cyclically reduced word up to ``max_len``, the first
    in product order of each rotation class, sorted by the class's least
    rotation: the order :meth:`StableGraph.closed_words` promises."""
    found = {}
    for n in range(1, max_len + 1):
        for word in itertools.product(g.half_edges(), repeat=n):
            try:
                g.check_path(word, closed=True, reduced=True)
            except (NotComposable, NotReduced):
                continue
            if word[0] == flip(word[-1]):
                continue
            key = min(word[i:] + word[:i] for i in range(n))
            found.setdefault(key, list(word))
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("gn", [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)],
                         ids=str)
def test_closed_words_match_a_brute_force_enumeration(gn):
    for g in stable_graphs(*gn, trivalent_only=False):
        assert g.closed_words(4) == brute_force_closed_words(g, 4)


def test_closed_words_include_loop_edges():
    g = one_loop_one_tail()
    words = g.closed_words(1)
    assert sorted(map(tuple, words)) == [("e0+",), ("e0-",)]


def test_expand_contract_round_trip():
    g = star(4)
    g2 = g.expand_vertex("v0", "t1", "t2")
    assert g2.validate() == (0, 4)
    assert g2.is_trivalent()
    eid = next(iter(g2.edges))
    g3 = g2.contract_edge(eid)
    assert g3.validate() == (0, 4)
    assert g3.to_json() == g.to_json()


def test_expand_loop_branches():
    # moving both halves of a loop makes a bubble carrying the loop
    g = StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)],
                    [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    assert g.validate() == (1, 2)
    g2 = g.expand_vertex("v0", "e0+", "e0-", new_edge="b")
    assert g2.validate() == (1, 2)
    assert g2.is_trivalent()
    (w,) = set(g2.vertices) - set(g.vertices)
    e0 = g2.edges["e0"]
    assert e0.from_vertex == e0.to_vertex == w
    assert g2.terminus("b+") == w


def test_expand_keeps_chart_away_from_site():
    g = star(4).specialize_chart(seed=3)
    x3 = g.chart.x("t3")
    g2 = g.expand_vertex("v0", "t1", "t2", seed=5)
    g2.validate()
    assert g2.chart.x("t3") == x3
    assert g2.chart.x("t1") != g.chart.x("t1") or True  # fresh draw allowed
    vals = list(g2.chart.finite.values())
    assert len(set(vals)) == len(vals)


def test_expand_rejects_small_vertex():
    with pytest.raises(GraphInvalid):
        one_loop_one_tail().expand_vertex("v0", "e0+", "t1")


def test_contract_rejects_loop():
    with pytest.raises(GraphInvalid):
        one_loop_one_tail().contract_edge("e0")


def test_contract_theta_gives_two_loops():
    g = theta().contract_edge("e0")
    assert g.validate() == (2, 0)
    assert len(g.vertices) == 1 and len(g.edges) == 2
    assert all(e.from_vertex == e.to_vertex for e in g.edges.values())


def test_json_round_trip_bit_exact():
    for g in (one_loop_one_tail(), theta().specialize_chart(seed=2),
              dumbbell(), star(5).specialize_chart(seed=1, infinite=["t5"])):
        text = canonical_dumps(g.to_json())
        h = StableGraph.from_json(json.loads(text))
        assert canonical_dumps(h.to_json()) == text
        h.validate()


def test_records_are_immutable_values():
    edge = Edge("e0", "v0", 0, "v1", 1)
    same = Edge(id="e0", from_vertex="v0", from_slot=0, to_vertex="v1",
                to_slot=1, oriented="+")
    tail, ring = Tail("t1", "v0", 1), Ring(*RATIONAL)
    for a, b in ((edge, same), (tail, Tail(id="t1", vertex="v0", nu=1)),
                 (ring, RATIONAL)):
        assert a == b and a is not b and hash(a) == hash(b)
    assert len({edge, same, Edge("e0", "v0", 0, "v1", 1, "-")}) == 2
    for record, name in ((edge, "id"), (tail, "nu"), (ring, "name")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    other = RATIONAL._replace(name="other")
    assert other != RATIONAL and other.name == "other"
    assert other.split is RATIONAL.split and RATIONAL.name == "rational"
