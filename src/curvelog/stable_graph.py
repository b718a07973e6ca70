"""Stable graphs with numbered tails, orientation data, and point charts.

A graph is stored with explicit half-edges: every edge ``e`` has two
halves ``e+`` and ``e-``.  The half ``e+`` is the orientation of ``e``
that points at ``e.to``; ``e-`` points at ``e.from``.  A branch at a
vertex ``v`` is either a half-edge terminating at ``v`` or a tail
attached to ``v``; loops contribute both halves, so they count twice
toward valence.

A chart assigns to every branch a coordinate: an exact rational, or the
point at infinity for branches listed as infinite.  Chart genericity
(distinct coordinates among the branches of one vertex, and distinct
coordinates for the two halves of one edge) is what makes the Moebius
normal forms in :mod:`curvelog.schottky` well defined.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .jsonio import frac_to_str
from .terms import _as_fraction, _exponent


class GraphInvalid(ValueError):
    """The graph violates a structural or chart invariant."""


class NotComposable(ValueError):
    """Half-edge word is not a composable path."""


class NotReduced(ValueError):
    """Half-edge word backtracks."""


class Edge(NamedTuple):
    id: str
    from_vertex: str
    from_slot: int
    to_vertex: str
    to_slot: int
    oriented: str = "+"


class Tail(NamedTuple):
    id: str
    vertex: str
    nu: int


class Chart:
    def __init__(self, finite: dict[str, Fraction] | None = None,
                 infinite: list[str] | None = None):
        self.finite = {} if finite is None else finite
        self.infinite = [] if infinite is None else infinite

    def copy(self) -> "Chart":
        return Chart(dict(self.finite), list(self.infinite))

    def x(self, branch: str) -> Fraction | None:
        """Coordinate of a finite branch, ``None`` when at infinity."""
        if branch in self.finite:
            return self.finite[branch]
        if branch in self.infinite:
            return None
        raise KeyError(f"branch {branch} has no chart value")

    def forget(self, branches: Iterable[str]) -> None:
        for b in branches:
            self.finite.pop(b, None)
            if b in self.infinite:
                self.infinite.remove(b)

    def redraw(self, branches: Sequence[str], seed: int) -> None:
        """Give ``branches``, in order, fresh finite values in 1..999 that
        no other branch holds."""
        self.forget(branches)
        taken = set(self.finite.values())
        rng = random.Random(seed)
        for b in branches:
            x = Fraction(rng.randrange(1, 1000))
            while x in taken:
                x = Fraction(rng.randrange(1, 1000))
            taken.add(x)
            self.finite[b] = x


def half(edge_id: str, sign: str) -> str:
    return edge_id + sign


def flip(h: str) -> str:
    if h.endswith("+"):
        return h[:-1] + "-"
    if h.endswith("-"):
        return h[:-1] + "+"
    raise ValueError(f"not a half-edge: {h}")


def edge_of(h: str) -> str:
    return h[:-1]


def _by_id(kind: str, items: Iterable) -> dict:
    out = {}
    for x in items:
        if x.id in out:
            raise GraphInvalid(f"duplicate {kind} id {x.id}")
        out[x.id] = x
    return out


class StableGraph:
    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge],
                 tails: Iterable[Tail], chart: Chart | None = None):
        self.vertices: tuple[str, ...] = tuple(sorted(vertices))
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise GraphInvalid(f"duplicate vertex name {a}")
        self.edges: dict[str, Edge] = _by_id("edge", edges)
        self.tails: dict[str, Tail] = _by_id("tail", tails)
        self.chart = chart

    # ------------------------------------------------------------------
    # incidence

    def half_edges(self) -> list[str]:
        out = []
        for eid in sorted(self.edges):
            out.append(half(eid, "+"))
            out.append(half(eid, "-"))
        return out

    def terminus(self, h: str) -> str:
        """Vertex the oriented half-edge points at (``v_h``)."""
        e = self.edges[edge_of(h)]
        return e.to_vertex if h.endswith("+") else e.from_vertex

    def origin(self, h: str) -> str:
        return self.terminus(flip(h))

    def branch_vertex(self, branch: str) -> str:
        """The vertex a branch is attached to (terminus for half-edges)."""
        if branch in self.tails:
            return self.tails[branch].vertex
        return self.terminus(branch)

    def branches_at(self, v: str) -> list[str]:
        """All branches at ``v`` in canonical (sorted) order."""
        out = [h for h in self.half_edges() if self.terminus(h) == v]
        out.extend(t for t in sorted(self.tails) if self.tails[t].vertex == v)
        return sorted(out)

    def valence(self, v: str) -> int:
        return len(self.branches_at(v))

    def genus(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def n_tails(self) -> int:
        return len(self.tails)

    def gn_type(self) -> tuple[int, int]:
        return self.genus(), self.n_tails()

    # ------------------------------------------------------------------
    # validation

    def validate(self, expect: tuple[int, int] | None = None) -> tuple[int, int]:
        """Check all structural invariants; returns the (g, n) type."""
        if not self.vertices:
            raise GraphInvalid("no vertices")
        vset = set(self.vertices)
        for e in self.edges.values():
            if e.from_vertex not in vset or e.to_vertex not in vset:
                raise GraphInvalid(f"edge {e.id} touches unknown vertex")
            if e.oriented not in ("+", "-"):
                raise GraphInvalid(f"edge {e.id} has bad orientation flag")
        for t in self.tails.values():
            if t.vertex not in vset:
                raise GraphInvalid(f"tail {t.id} at unknown vertex")
        # slots must separate the edge-ends at each vertex
        slot_seen: set[tuple[str, int]] = set()
        for e in self.edges.values():
            for v, s in ((e.from_vertex, e.from_slot), (e.to_vertex, e.to_slot)):
                key = (v, s)
                if key in slot_seen:
                    raise GraphInvalid(f"duplicate slot {s} at vertex {v}")
                slot_seen.add(key)
        reached, _ = self.walk(self.vertices[0], self.edges)
        if len(reached) != len(self.vertices):
            raise GraphInvalid("graph is not connected")
        nus = sorted(t.nu for t in self.tails.values())
        if nus != list(range(1, len(nus) + 1)):
            raise GraphInvalid("tail numbering is not a bijection onto 1..n")
        valence = dict.fromkeys(self.vertices, 0)
        for e in self.edges.values():
            valence[e.from_vertex] += 1
            valence[e.to_vertex] += 1
        for t in self.tails.values():
            valence[t.vertex] += 1
        for v in self.vertices:
            if valence[v] < 3:
                raise GraphInvalid(f"vertex {v} has fewer than 3 branches")
        g, n = self.gn_type()
        if 2 * g - 2 + n <= 0:
            raise GraphInvalid("unstable type")
        if expect is not None and (g, n) != tuple(expect):
            raise GraphInvalid(f"type {(g, n)} differs from expected {expect}")
        if self.chart is not None:
            self._validate_chart()
        return g, n

    def _validate_chart(self) -> None:
        chart = self.chart
        assert chart is not None
        branches = set(self.half_edges()) | set(self.tails)
        covered = set(chart.finite) | set(chart.infinite)
        if covered != branches:
            missing = branches - covered
            extra = covered - branches
            raise GraphInvalid(f"chart covers wrong branches "
                               f"(missing {sorted(missing)}, extra {sorted(extra)})")
        if set(chart.finite) & set(chart.infinite):
            raise GraphInvalid("branch both finite and infinite")
        # at most one infinite branch per vertex
        inf_vertices: set[str] = set()
        for b in chart.infinite:
            v = self.branch_vertex(b)
            if v in inf_vertices:
                raise GraphInvalid(f"two infinite branches at vertex {v}")
            inf_vertices.add(v)
        # no edge with both halves infinite
        for eid in self.edges:
            if half(eid, "+") in chart.infinite and half(eid, "-") in chart.infinite:
                raise GraphInvalid(f"edge {eid} infinite at both halves")
        # same-vertex genericity
        for v in self.vertices:
            vals: dict[Fraction, str] = {}
            for b in self.branches_at(v):
                if b in chart.infinite:
                    continue
                x = chart.finite[b]
                if x in vals:
                    raise GraphInvalid(
                        f"chart collision at {v}: {b} and {vals[x]} share {x}")
                vals[x] = b
        # the two halves of one edge must differ when both finite
        for eid in self.edges:
            hp, hm = half(eid, "+"), half(eid, "-")
            if hp in chart.finite and hm in chart.finite:
                if chart.finite[hp] == chart.finite[hm]:
                    raise GraphInvalid(f"edge {eid} halves share a coordinate")

    def is_trivalent(self) -> bool:
        return all(self.valence(v) == 3 for v in self.vertices)

    # ------------------------------------------------------------------
    # trees and loops

    def walk(self, root: str, edge_ids: Iterable[str]
             ) -> tuple[list[str], dict[str, str]]:
        """Breadth-first walk from ``root`` over the edges ``edge_ids``.

        Returns ``(order, parent_half)``: the vertices reached, in visit
        order starting with ``root``, and for each of them but ``root``
        the half-edge that first reached it (its origin is the parent,
        its terminus the vertex).  At each vertex the half-edges leaving
        it are tried in the order of ``edge_ids``, ``e+`` before ``e-``;
        a spanning tree is not unique, and this order fixes which one
        :meth:`maximal_subtree` returns.
        """
        out: dict[str, list[str]] = {}
        for eid in edge_ids:
            for h in (half(eid, "+"), half(eid, "-")):
                out.setdefault(self.origin(h), []).append(h)
        order = [root]
        parent_half: dict[str, str] = {}
        for v in order:
            for h in out.get(v, ()):
                w = self.terminus(h)
                if w != root and w not in parent_half:
                    parent_half[w] = h
                    order.append(w)
        return order, parent_half

    def maximal_subtree(self) -> tuple[list[str], list[str]]:
        """Deterministic spanning tree.

        Returns ``(tree_edges, cycle_edges)``; the complement is sorted by
        edge id and its length equals the genus.
        """
        _, parent_half = self.walk(self.vertices[0], sorted(self.edges))
        tree = {edge_of(h) for h in parent_half.values()}
        return sorted(tree), sorted(set(self.edges) - tree)

    def tree_path(self, u: str, v: str,
                  tree_edges: Sequence[str]) -> list[str]:
        """Half-edge walk from ``u`` to ``v`` inside the spanning tree
        with edges ``tree_edges``."""
        if u == v:
            return []
        _, parent_half = self.walk(u, tree_edges)
        if v not in parent_half:
            raise GraphInvalid("tree does not span")
        path: list[str] = []
        cur = v
        while cur != u:
            h = parent_half[cur]
            path.append(h)
            cur = self.origin(h)
        path.reverse()
        return path

    def check_path(self, word: Sequence[str], closed: bool = False,
                   reduced: bool = True) -> None:
        """Validate a half-edge word as a (reduced) path."""
        if not word:
            return
        for h in word:
            if edge_of(h) not in self.edges or h[-1] not in "+-":
                raise NotComposable(f"unknown half-edge {h}")
        for a, b in zip(word, word[1:]):
            if self.terminus(a) != self.origin(b):
                raise NotComposable(f"{a} then {b} do not compose")
        if closed and self.terminus(word[-1]) != self.origin(word[0]):
            raise NotComposable("path is not closed")
        if reduced:
            for a, b in zip(word, word[1:]):
                if b == flip(a):
                    raise NotReduced(f"backtrack at {a},{b}")

    def closed_words(self, max_len: int) -> list[list[str]]:
        """All cyclically reduced closed half-edge words of length 1..max_len.

        Only one representative per rotation class is kept (rotations
        are conjugate loops).  Inverse words are kept:
        they carry independent data (multiplier inverts, fixed points swap).
        """
        if max_len < 1:
            return []
        halves = self.half_edges()
        terminus = {h: self.terminus(h) for h in halves}
        # the half-edges leaving each vertex, in half_edges() order
        leaving: dict[str, list[str]] = {}
        for h in halves:
            leaving.setdefault(terminus[flip(h)], []).append(h)
        found: dict[tuple[str, ...], list[str]] = {}

        def extend(path: list[str]) -> None:
            end, back = terminus[path[-1]], flip(path[-1])
            if end == terminus[flip(path[0])] and path[0] != back:
                key = min(tuple(path[i:] + path[:i])
                          for i in range(len(path)))
                found.setdefault(key, list(path))
            if len(path) >= max_len:
                return
            for h in leaving[end]:
                if h != back:
                    path.append(h)
                    extend(path)
                    path.pop()

        for h in halves:
            extend([h])
        return [found[k] for k in sorted(found)]

    # ------------------------------------------------------------------
    # alterations

    def expand_vertex(self, v0: str, b1: str, b2: str,
                      new_edge: str | None = None,
                      seed: int = 0) -> "StableGraph":
        """Split ``v0``: a new vertex takes branches ``b1``, ``b2`` and is
        joined to ``v0`` by a new edge whose positive half points at the
        new vertex.

        ``v0`` must keep at least two branches, so it needs valence >= 4
        (branches are counted with loops twice).  When the graph carries a
        chart, coordinates away from ``v0`` are kept and fresh generic
        values are drawn for the new vertex and the new edge halves.
        """
        if b1 == b2:
            raise GraphInvalid("the two branches must differ")
        for b in (b1, b2):
            if self.branch_vertex(b) != v0:
                raise GraphInvalid(f"branch {b} is not at {v0}")
        if self.valence(v0) < 4:
            raise GraphInvalid("vertex must have at least 4 branches")
        w = self._fresh_vertex_name()
        eid = new_edge or self._fresh_edge_name()
        if w in self.vertices:
            raise GraphInvalid(f"vertex {w} already exists")
        if eid in self.edges:
            raise GraphInvalid(f"edge {eid} already exists")
        moved = {b1, b2}
        used_slots = [s for e in self.edges.values()
                      for v, s in ((e.from_vertex, e.from_slot),
                                   (e.to_vertex, e.to_slot)) if v == v0]
        next_slot = max(used_slots, default=-1) + 1
        edges: list[Edge] = []
        for e in sorted(self.edges.values(), key=lambda e: e.id):
            fv, fs, tv, ts = e.from_vertex, e.from_slot, e.to_vertex, e.to_slot
            if half(e.id, "-") in moved:
                fv, fs = w, 0 if half(e.id, "-") == b1 else 1
            if half(e.id, "+") in moved:
                tv, ts = w, 0 if half(e.id, "+") == b1 else 1
            edges.append(Edge(e.id, fv, fs, tv, ts, e.oriented))
        edges.append(Edge(eid, v0, next_slot, w, 2))
        tails = []
        for t in sorted(self.tails.values(), key=lambda t: t.id):
            if t.id in moved:
                tails.append(Tail(t.id, w, t.nu))
            else:
                tails.append(t)
        chart = None
        if self.chart is not None:
            chart = self.chart.copy()
            chart.redraw(sorted(moved | {half(eid, "+"), half(eid, "-")}),
                         seed)
        out = StableGraph(tuple(self.vertices) + (w,), edges, tails, chart)
        out.validate()
        return out

    def contract_edge(self, eid: str, seed: int = 0) -> "StableGraph":
        """Contract a non-loop edge, merging its head into its tail vertex.

        Inverse of :meth:`expand_vertex` up to isomorphism.  Chart values
        at the merged vertex are re-drawn (the two merged projective lines
        have unrelated coordinates), all others are kept.
        """
        if eid not in self.edges:
            raise GraphInvalid(f"no edge {eid}")
        e = self.edges[eid]
        if e.from_vertex == e.to_vertex:
            raise GraphInvalid("cannot contract a loop")
        keep, gone = e.from_vertex, e.to_vertex
        edges = []
        for o in sorted(self.edges.values(), key=lambda x: x.id):
            if o.id == eid:
                continue
            fv = keep if o.from_vertex == gone else o.from_vertex
            tv = keep if o.to_vertex == gone else o.to_vertex
            edges.append(Edge(o.id, fv, o.from_slot, tv, o.to_slot, o.oriented))
        # slots may now collide at the merged vertex; renumber deterministically
        edges = _renumber_slots(edges)
        tails = [Tail(t.id, keep if t.vertex == gone else t.vertex, t.nu)
                 for t in sorted(self.tails.values(), key=lambda t: t.id)]
        vertices = tuple(v for v in self.vertices if v != gone)
        chart = self.chart.copy() if self.chart is not None else None
        out = StableGraph(vertices, edges, tails, chart)
        if chart is not None:
            chart.forget((half(eid, "+"), half(eid, "-")))
            chart.redraw(out.branches_at(keep), seed)
        out.validate()
        return out

    def _fresh_vertex_name(self) -> str:
        i = 0
        while f"v{i}" in self.vertices:
            i += 1
        return f"v{i}"

    def _fresh_edge_name(self) -> str:
        i = 0
        while f"e{i}" in self.edges:
            i += 1
        return f"e{i}"

    # ------------------------------------------------------------------
    # chart helpers

    def with_chart(self, chart: Chart) -> "StableGraph":
        out = StableGraph(self.vertices, self.edges.values(),
                          self.tails.values(), chart)
        out.validate()
        return out

    def specialize_chart(self, seed: int = 0,
                         infinite: Sequence[str] = ()) -> "StableGraph":
        """Assign globally distinct small integer coordinates to every
        branch not listed in ``infinite``.

        Global distinctness implies every genericity constraint; the
        assignment is a deterministic function of the branch ids and the
        seed.
        """
        branches = sorted(set(self.half_edges()) | set(self.tails))
        inf = list(infinite)
        finite_branches = [b for b in branches if b not in inf]
        rng = random.Random(seed)
        values = rng.sample(range(1, max(10, 4 * len(finite_branches))),
                            len(finite_branches))
        chart = Chart({b: Fraction(v) for b, v in zip(finite_branches, values)},
                      inf)
        return self.with_chart(chart)

    # ------------------------------------------------------------------
    # serialization (bit-exact round trip)

    def to_json(self) -> dict:
        data: dict = {
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id,
                 "from": {"vertex": e.from_vertex, "slot": e.from_slot},
                 "to": {"vertex": e.to_vertex, "slot": e.to_slot},
                 "oriented": e.oriented}
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
            "tails": [
                {"id": t.id, "vertex": t.vertex, "nu": t.nu}
                for t in sorted(self.tails.values(), key=lambda t: t.id)
            ],
        }
        if self.chart is not None:
            data["chart"] = {
                "finite": {b: frac_to_str(x)
                           for b, x in sorted(self.chart.finite.items())},
                "infinite": sorted(self.chart.infinite),
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "StableGraph":
        # slots and tail labels are integers, chart values exact (an int
        # or a "p/q" string); anything else, or a zero denominator, raises
        edges = [Edge(e["id"], e["from"]["vertex"],
                      _exponent([e["from"]["slot"]], 1)[0],
                      e["to"]["vertex"], _exponent([e["to"]["slot"]], 1)[0],
                      e.get("oriented", "+"))
                 for e in data["edges"]]
        tails = [Tail(t["id"], t["vertex"], _exponent([t["nu"]], 1)[0])
                 for t in data["tails"]]
        chart = None
        if "chart" in data:
            chart = Chart({b: _as_fraction(x)
                           for b, x in data["chart"]["finite"].items()},
                          list(data["chart"]["infinite"]))
        return cls(data["vertices"], edges, tails, chart)


def _renumber_slots(edges: list[Edge]) -> list[Edge]:
    counter: dict[str, int] = {}

    def nxt(v: str) -> int:
        counter[v] = counter.get(v, -1) + 1
        return counter[v]

    out = []
    for e in sorted(edges, key=lambda e: e.id):
        out.append(Edge(e.id, e.from_vertex, nxt(e.from_vertex),
                        e.to_vertex, nxt(e.to_vertex), e.oriented))
    return out
