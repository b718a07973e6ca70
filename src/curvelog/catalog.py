"""Enumeration of stable graphs of a given type up to isomorphism.

Graphs are generated as labeled multigraphs (stub matching per vertex,
loops allowed) plus a tail-count vector, then deduplicated by the
minimum of the encoding over all vertex permutations.  That key ignores
labels, so only one (tails, deg) vector per relabelling orbit is used:
the one whose per-vertex pairs are non-increasing.  Tail numbering is
not part of the isomorphism class: the catalog assigns ``nu`` in vertex
order, so two graphs differing only by renumbered tails are listed once.

Within one vector, isomorphic multigraphs form one orbit of the
relabellings that keep each vertex's (tails, deg) pair.  Generation
breaks that symmetry as it goes: when a vertex resolves its stubs, two
later vertices with the same pair and the same edge counts from every
vertex resolved so far are twins, and a choice that gives a twin fewer
edges than the next twin of its class is skipped.  Every orbit keeps its
member with the largest decision sequence (see :func:`_multigraphs`).
The first connected member generated marks its whole orbit as seen, so
the key search runs once per isomorphism class; disconnected members
are not marked, since connectivity holds for a whole orbit and is cheap
to test again.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .stable_graph import Edge, StableGraph, Tail

EdgePair = tuple[int, int]
Encoding = tuple[tuple[EdgePair, ...], tuple[int, ...]]


def _multigraphs(deg: list[int], classes: Sequence | None = None,
                 start: int = 0) -> Iterator[list[EdgePair]]:
    """Multigraphs on labeled vertices with the given stub degrees.

    Each multigraph (edge multiset) is produced once at most: vertex i's
    stubs are resolved before vertex i+1's, into loops and connections to
    later vertices only.  Without ``classes`` every multigraph is
    produced.

    With ``classes`` (one label per vertex; relabellings that keep the
    labels form the group G), two later vertices are twins at step i
    when they have the same label and the same edge counts from every
    vertex resolved before i; a choice at step i that gives a twin fewer
    edges to i than the next twin of its class gets is skipped.  No
    G-orbit is lost: take the member whose sequence of decisions
    (loops, then edges to each later vertex, step by step) is largest.
    Had it given a twin j fewer edges at step i than the next twin k,
    swapping j and k would be a relabelling in G, would leave every
    earlier decision the same (j and k have equal counts from each
    earlier vertex) and would make step i larger, contradicting the
    choice.
    """
    i = start
    while i < len(deg) and deg[i] == 0:
        i += 1
    if i == len(deg):
        yield []
        return
    later = list(range(i + 1, len(deg)))
    twin = [] if classes is None else [classes[j] == classes[j + 1]
                                       for j in later[:-1]]
    for loops in range(deg[i] // 2 + 1):
        rest = deg[i] - 2 * loops
        for combo in _compositions(rest, [0] * len(later),
                                   [deg[j] for j in later]):
            if any(t and a < b for t, a, b in zip(twin, combo, combo[1:])):
                continue
            nd = list(deg)
            nd[i] = 0
            nc = None if classes is None else list(classes)
            for j, m in zip(later, combo):
                nd[j] -= m
                if nc is not None:
                    nc[j] = (nc[j], m)
            head = [(i, i)] * loops + [x for j, m in zip(later, combo)
                                       for x in [(i, j)] * m]
            for tail_part in _multigraphs(nd, nc, i + 1):
                yield head + tail_part


def _compositions(total: int, lower: Sequence[int],
                  upper: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Vectors summing to ``total`` whose part ``i`` lies in
    ``[lower[i], upper[i]]``, in lexicographic order."""
    if not lower:
        if total == 0:
            yield ()
        return
    for m in range(lower[0], min(total, upper[0]) + 1):
        for rest in _compositions(total - m, lower[1:], upper[1:]):
            yield (m,) + rest


def _connected(n_vertices: int, edges: Sequence[EdgePair]) -> bool:
    if n_vertices == 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(n_vertices)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_vertices


def _canonical(n_vertices: int, edges: Sequence[EdgePair],
               tails: Sequence[int]) -> Encoding:
    """Minimum encoding over vertex relabelings.

    Only permutations preserving the local invariant (tail count, degree,
    loop count) can realize the minimum, so the search runs within those
    classes; class blocks are laid out in sorted order, which is itself
    permutation invariant, and so is the tail vector it induces.
    """
    deg = [0] * n_vertices
    loops = [0] * n_vertices
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
        if i == j:
            loops[i] += 1
    cls = [(tails[i], deg[i], loops[i]) for i in range(n_vertices)]
    order = sorted(range(n_vertices), key=lambda i: cls[i])
    groups = [list(grp) for _, grp in
              itertools.groupby(order, key=lambda i: cls[i])]
    pt = tuple(cls[v][0] for v in order)
    best: Encoding | None = None
    for parts in itertools.product(*[itertools.permutations(g) for g in groups]):
        perm = [0] * n_vertices
        for k, v in enumerate(itertools.chain(*parts)):
            perm[v] = k
        pe = tuple(sorted((a, b) if a <= b else (b, a) for a, b in
                          ((perm[i], perm[j]) for i, j in edges)))
        enc = (pe, pt)
        if best is None or enc < best:
            best = enc
    assert best is not None
    return best


def _build(encoding: Encoding) -> StableGraph:
    edges_enc, tails_enc = encoding
    n_vertices = len(tails_enc)
    vertices = [f"v{i}" for i in range(n_vertices)]
    slot = {v: -1 for v in vertices}

    def next_slot(v: str) -> int:
        slot[v] += 1
        return slot[v]

    edges = []
    for k, (i, j) in enumerate(edges_enc):
        vi, vj = vertices[i], vertices[j]
        edges.append(Edge(f"e{k}", vi, next_slot(vi), vj, next_slot(vj)))
    tails = []
    nu = 1
    for i, c in enumerate(tails_enc):
        for _ in range(c):
            tails.append(Tail(f"t{nu}", vertices[i], nu))
            nu += 1
    return StableGraph(vertices, edges, tails)


def stable_graphs(g: int, n: int, trivalent_only: bool = True) -> list[StableGraph]:
    """All stable graphs of type (g, n) up to isomorphism.

    A stable graph here has first Betti number g, n tails, and valence
    at least three everywhere (exactly three when ``trivalent_only``).
    """
    if g < 0 or n < 0:
        raise ValueError("negative genus or tail count")
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable type")
    out: dict[Encoding, StableGraph] = {}
    max_v = 2 * g - 2 + n
    v_range = [max_v] if trivalent_only else range(1, max_v + 1)
    for nv in v_range:
        ne = g + nv - 1
        for tails in _compositions(n, [0] * nv, [n] * nv):
            if trivalent_only:
                deg = [3 - c for c in tails]
                if any(d < 0 for d in deg) or sum(deg) != 2 * ne:
                    continue
                deg_choices = [deg]
            else:
                # valence >= 3 once the tails are added
                deg_choices = list(_compositions(
                    2 * ne, [max(0, 3 - c) for c in tails], [2 * ne] * nv))
            for deg in deg_choices:
                pairs = list(zip(tails, deg))
                if pairs != sorted(pairs, reverse=True):
                    continue
                # the relabellings within runs of equal pairs; a multigraph
                # packs into one int: a multiplicity field per vertex pair
                group = [list(itertools.chain(*p)) for p in itertools.product(
                    *[itertools.permutations(r) for _, r in
                      itertools.groupby(range(nv), pairs.__getitem__)])]
                bit = [[1 << ne.bit_length() * (nv * min(i, j) + max(i, j))
                        for j in range(nv)] for i in range(nv)]
                seen: set[int] = set()
                for edges in _multigraphs(list(deg), pairs):
                    if not _connected(nv, edges) or \
                            sum(bit[i][j] for i, j in edges) in seen:
                        continue
                    seen.update(sum(bit[p[i]][p[j]] for i, j in edges)
                                for p in group)
                    key = _canonical(nv, edges, tails)
                    gr = _build(key)
                    gr.validate(expect=(g, n))
                    out[key] = gr
    return [out[k] for k in sorted(out)]
