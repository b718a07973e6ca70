"""Graph catalogs: enumeration counts, isomorphism, move connectivity."""
import hashlib
import itertools

import pytest

from curvelog import catalog
from curvelog.catalog import (_build, _canonical, _compositions, _connected,
                              _multigraphs, stable_graphs)
from curvelog.jsonio import canonical_dumps
from curvelog.stable_graph import Edge, GraphInvalid, StableGraph


def canonical_key(graph):
    """Isomorphism invariant of any stable graph (tail numbering ignored),
    in the encoding that keys the catalog."""
    idx = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(idx[e.from_vertex], idx[e.to_vertex])
             for e in graph.edges.values()]
    tails = [0] * len(graph.vertices)
    for t in graph.tails.values():
        tails[idx[t.vertex]] += 1
    return _canonical(len(graph.vertices), edges, tails)


def whitehead_neighbors(graph):
    """Canonical keys of all trivalent graphs reachable by contracting a
    non-loop edge and re-expanding the merged vertex."""
    out = set()
    for eid, e in graph.edges.items():
        if e.from_vertex == e.to_vertex:
            continue
        merged = graph.contract_edge(eid)
        v = e.from_vertex
        for b1, b2 in itertools.combinations(merged.branches_at(v), 2):
            expanded = merged.expand_vertex(v, b1, b2)
            if expanded.is_trivalent():
                out.add(canonical_key(expanded))
    return out


def moves_connected(graphs):
    """True when contract/expand moves connect the whole catalog."""
    index = {canonical_key(g): i for i, g in enumerate(graphs)}
    seen = {0}
    stack = [0]
    while stack:
        for k in whitehead_neighbors(graphs[stack.pop()]):
            j = index.get(k)
            if j is not None and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(graphs)


def count_multigraphs(deg):
    return sum(1 for _ in _multigraphs(list(deg)))


def test_multigraph_enumeration_small():
    # (3,3): triple edge, or edge plus a loop at each end
    assert count_multigraphs([3, 3]) == 2
    # (2,2): double edge, or two loops
    assert count_multigraphs([2, 2]) == 2
    # (4,): two loops at one vertex
    assert count_multigraphs([4]) == 1
    # (2,1,1): {v0v1, v0v2}, or {loop v0, v1v2} (disconnected but the raw
    # enumerator does not filter connectivity)
    assert count_multigraphs([2, 1, 1]) == 2


# Small counts verified by hand (see each type's listing); larger ones are
# regression pins produced by the same enumerator.
# (2,0), (3,0), (4,0) = 2, 5, 17 are the connected cubic multigraphs with
# loops on 2, 4, 6 vertices (OEIS A005967).
TRIVALENT_COUNTS = {(1, 1): 1, (1, 2): 2, (2, 0): 2, (2, 1): 3,
                    (2, 2): 9, (3, 0): 5, (3, 1): 12, (3, 2): 49, (4, 0): 17}
STABLE_COUNTS = {(0, 3): 1, (0, 4): 2, (0, 5): 3, (0, 6): 7,
                 (1, 1): 1, (1, 2): 3, (1, 3): 7, (2, 0): 3}


@pytest.mark.parametrize("gn", sorted(TRIVALENT_COUNTS))
def test_trivalent_counts(gn):
    cat = stable_graphs(*gn)
    assert len(cat) == TRIVALENT_COUNTS[gn]
    for gr in cat:
        assert gr.validate() == gn
        assert gr.is_trivalent()
        g, n = gn
        assert len(gr.vertices) == 2 * g - 2 + n
        assert len(gr.edges) == 3 * g - 3 + n


@pytest.mark.parametrize("gn", sorted(STABLE_COUNTS))
def test_stable_counts(gn):
    cat = stable_graphs(*gn, trivalent_only=False)
    assert len(cat) == STABLE_COUNTS[gn]
    for gr in cat:
        assert gr.validate() == gn


# sha256 of the canonical JSON of whole catalogs, graph order included;
# values from the enumeration over every tail vector in every vertex order
CATALOG_SHA256 = {
    "g3n2": ((3, 2, True),
             "deb1c309832aac757f2304ae8049e8617139685be28a2e257edf1d02a0c87f3a"),
    "g2n3-all": ((2, 3, False),
                 "56afbf820239755c7b0af3b739c5ab94f84f82f0d4463551b0d5991930bbe75f"),
    "g3n1-all": ((3, 1, False),
                 "f9e03f4b929eb747fa910696a321ea65ba4fcf7f8ce70e05d74cddc94aa96b9f"),
    "g4n0": ((4, 0, True),
             "4cf26519cdb97b30ea68216a22063d42e1b222517ef0aa35179d0ef06b335e30"),
}


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_bytes_are_pinned(name):
    gnt, expected = CATALOG_SHA256[name]
    data = [gr.to_json() for gr in stable_graphs(*gnt)]
    assert hashlib.sha256(canonical_dumps(data).encode()).hexdigest() == expected


def _brute_force_keys(g, n, trivalent_only):
    """Canonical keys of every labelled multigraph over every tail and
    degree vector, in any vertex order, that is a stable graph of the
    type (trivalent when asked)."""
    keys = set()
    max_v = 2 * g - 2 + n
    for nv in range(1, max_v + 1):
        stubs = 2 * (g + nv - 1)
        for tails in itertools.product(range(n + 1), repeat=nv):
            if sum(tails) != n:
                continue
            for deg in itertools.product(range(stubs + 1), repeat=nv):
                if sum(deg) != stubs:
                    continue
                for edges in _multigraphs(list(deg)):
                    gr = _build((tuple(edges), tails))
                    try:
                        gr_type = gr.validate()
                    except GraphInvalid:
                        continue
                    assert gr_type == (g, n)
                    if trivalent_only and not gr.is_trivalent():
                        continue
                    keys.add(canonical_key(gr))
    return keys


def _per_multigraph_keys(g, n, trivalent_only):
    """The key of every connected multigraph of every (tails, deg) vector
    that the catalog generates, one key search per multigraph: the
    enumeration without the orbit skip."""
    keys = set()
    max_v = 2 * g - 2 + n
    for nv in [max_v] if trivalent_only else range(1, max_v + 1):
        stubs = 2 * (g + nv - 1)
        for tails in _compositions(n, [0] * nv, [n] * nv):
            for deg in _compositions(stubs, [max(0, 3 - c) for c in tails],
                                     [stubs] * nv):
                pairs = list(zip(tails, deg))
                if pairs != sorted(pairs, reverse=True):
                    continue
                if trivalent_only and any(c + d != 3 for c, d in pairs):
                    continue
                keys.update(_canonical(nv, edges, tails)
                            for edges in _multigraphs(list(deg))
                            if _connected(nv, edges))
    return keys


# every type the schottky-catalog benchmark enumerates or compares
ORBIT_SKIP_TYPES = ([(g, n, True) for g in range(1, 4) for n in range(3)
                     if 2 * g - 2 + n > 0]
                    + [(0, 4, False), (0, 5, False), (1, 2, False),
                       (1, 3, False)])


@pytest.mark.parametrize("gnt", ORBIT_SKIP_TYPES, ids=lambda t: "g{}n{}{}".format(
    t[0], t[1], "" if t[2] else "-all"))
def test_orbit_skip_keeps_every_key(gnt):
    keys = [canonical_key(gr) for gr in stable_graphs(*gnt)]
    assert set(keys) == _per_multigraph_keys(*gnt)


@pytest.mark.parametrize("gn", [(3, 2), (4, 0)])
def test_one_key_search_per_isomorphism_class(gn, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _canonical(*args)

    monkeypatch.setattr(catalog, "_canonical", counted)
    assert len(stable_graphs(*gn)) == len(calls) == TRIVALENT_COUNTS[gn]


def _exhaustive_count(g, n):
    """Labelled multigraphs over the vectors of the trivalent catalog,
    each twin class left unpruned."""
    nv = 2 * g - 2 + n
    return sum(count_multigraphs([3 - c for c in tails])
               for tails in _compositions(n, [0] * nv, [3] * nv)
               if list(tails) == sorted(tails, reverse=True))


@pytest.mark.parametrize("gn, exhaustive", [((3, 2), 3173), ((4, 0), 4720)])
def test_twin_pruning_generates_far_fewer_multigraphs(gn, exhaustive,
                                                      monkeypatch):
    # the catalog tests connectivity once per labelled multigraph it
    # generates
    calls = []

    def counted(*args):
        calls.append(args)
        return _connected(*args)

    monkeypatch.setattr(catalog, "_connected", counted)
    assert len(stable_graphs(*gn)) == TRIVALENT_COUNTS[gn]
    assert _exhaustive_count(*gn) == exhaustive
    assert 10 * len(calls) < exhaustive


@pytest.mark.parametrize("gn", [(-1, 5), (-2, 7), (2, -1), (0, 2), (1, 0)])
def test_negative_or_unstable_types_raise(gn):
    with pytest.raises(ValueError):
        stable_graphs(*gn)
    with pytest.raises(ValueError):
        stable_graphs(*gn, trivalent_only=False)


@pytest.mark.parametrize("gn", [(g, n) for g in range(4) for n in range(7)
                                if 0 < 2 * g - 2 + n <= 4],
                         ids=lambda gn: f"g{gn[0]}n{gn[1]}")
def test_catalog_matches_brute_force(gn):
    # generating only non-increasing (tails, deg) vectors loses no class
    for trivalent_only in (True, False):
        cat = stable_graphs(*gn, trivalent_only=trivalent_only)
        keys = [canonical_key(gr) for gr in cat]
        assert len(set(keys)) == len(keys)
        assert set(keys) == _brute_force_keys(*gn, trivalent_only)


def test_theta_and_dumbbell_in_catalog():
    theta = StableGraph(["v0", "v1"],
                        [Edge("e0", "v0", 0, "v1", 0),
                         Edge("e1", "v0", 1, "v1", 1),
                         Edge("e2", "v0", 2, "v1", 2)], [])
    dumbbell = StableGraph(["a", "b"],
                           [Edge("x", "a", 0, "a", 1),
                            Edge("y", "a", 2, "b", 0),
                            Edge("z", "b", 1, "b", 2)], [])
    cat = stable_graphs(2, 0)
    keys = {canonical_key(g) for g in cat}
    assert canonical_key(theta) in keys and canonical_key(dumbbell) in keys
    assert canonical_key(theta) != canonical_key(dumbbell)


def test_canonical_key_is_relabeling_invariant():
    g1 = StableGraph(["p", "q"],
                     [Edge("a", "p", 0, "q", 0), Edge("b", "q", 1, "p", 1),
                      Edge("c", "p", 2, "q", 2)], [])
    g2 = StableGraph(["v0", "v1"],
                     [Edge("e0", "v1", 0, "v0", 0), Edge("e1", "v0", 1, "v1", 1),
                      Edge("e2", "v1", 2, "v0", 2)], [])
    assert canonical_key(g1) == canonical_key(g2)


def test_whitehead_moves_connect_small_catalogs():
    for gn in [(2, 0), (1, 2), (2, 1), (0, 4), (0, 5)]:
        cat = stable_graphs(*gn)
        assert moves_connected(cat), gn


def test_theta_dumbbell_are_whitehead_neighbors():
    cat = stable_graphs(2, 0)
    keys = {canonical_key(g) for g in cat}
    nbrs = whitehead_neighbors(cat[0])
    assert keys <= nbrs | {canonical_key(cat[0])}
