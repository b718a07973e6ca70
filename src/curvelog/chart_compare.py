"""Parameter comparison across a vertex expansion.

Expanding a vertex refines a degeneration: the refined graph has a new
bubble vertex, a new edge (parameter ``s0``), and its own chart.  Every
generator of the refined graph, gauged through the new edge's crossing
map on the bubble side, is again a normal-form generator; reading off

    x_h = a / c,   x_{-h} = -d / c,   y_e = -det / c^2

from the gauged matrix expresses all original positions and edge
parameters as exact series in the refined parameters.  Two checks
test the transport independently of the gauge bookkeeping:

* multipliers: the original-word matrix built from extracted parameters
  must have the same ``det / trace^2`` as the lifted word computed
  directly in the refined graph (compared cross-multiplied, so collapsed
  traces in the loop case need no division);
* points: every marked point on the original base line (a tail, or the
  attracting or repelling fixed point of a based loop) must equal its
  refined counterpart as an exact series.  Both sides live in one
  coordinate, that of the original base line: the refined side is moved
  there by the crossing gauge, so equality is exact, not up to a
  Moebius map, and it implies every cross-ratio equality of the points.
  A based loop lifts to a cyclically reduced word of the refined graph,
  whose fixed points are solved directly, with no conjugation.

Fixed-point seeds meet when both end branches of a word moved onto the
bubble; :func:`schottky.fixed_points` separates them along ``s0``.

A comparison builds each generator once and keeps it for its lifetime.
On the original side a generator is kept per half-edge and truncation;
it reads only the parameters extracted from the chart as constructed.
On the refined side the generators of ``delta2`` are kept in a table
keyed by the chart values they are built from, so a chart moved between
calls (a perturbation test) is read afresh.
"""
from __future__ import annotations

from typing import Sequence

from .cpseries import TruncatedSeries as TS
from .schottky import (Moebius, chart_seeds, edge_moebius, fixed_points,
                       phi_matrix, require_cyclically_reduced, word_matrix)
from .stable_graph import StableGraph, edge_of, flip


class NoWitnessLoops(ValueError):
    """No marked point on the original base line to compare."""


class ChartComparison:
    def __init__(self, delta2: StableGraph, edge0: str, trunc: int):
        if delta2.chart is None or delta2.chart.infinite:
            raise ValueError("comparison requires an all-finite chart")
        delta2.validate()
        self.delta2, self.edge0, self.trunc = delta2, edge0, trunc
        self.h0 = edge0 + "+"
        self.bubble = delta2.terminus(self.h0)
        self.base = delta2.origin(self.h0)
        if self.bubble == self.base:
            raise ValueError("new edge must not be a loop")
        self.delta1 = delta2.contract_edge(edge0)
        self.vars = tuple(sorted(delta2.edges))
        # internal padded-truncation data for fixed-point work
        self._tr_full = trunc + 2
        # the refined graph with its chart as constructed: every
        # extraction, at any truncation, reads this one chart
        self._frozen = StableGraph(delta2.vertices, delta2.edges.values(),
                                   delta2.tails.values(), delta2.chart.copy())
        self._gauge = phi_matrix(self._frozen, flip(self.h0), self.vars,
                                 self._tr_full)
        pos, par = self._extract(self._tr_full)
        self.positions = {b: s.truncate(trunc) for b, s in pos.items()}
        self.edge_params = {e: s.truncate(trunc) for e, s in par.items()}
        # extracted (positions, edge parameters), by truncation
        self._extracted = {self._tr_full: (pos, par),
                           trunc: (self.positions, self.edge_params)}
        # original-side generators from the extracted parameters, by
        # (half-edge, truncation)
        self._moebius: dict[tuple[str, int], Moebius] = {}
        # refined-side generators of delta2, keyed by the chart values read
        self._refined: dict = {}

    # ------------------------------------------------------------------
    # parameter extraction

    def _extract(self, tr: int) -> tuple[dict[str, TS], dict[str, TS]]:
        """Original positions and edge parameters, exact to degree ``tr``,
        from the chart as it was at construction."""
        g2 = self._frozen
        gauge = self._gauge if tr == self._tr_full else \
            phi_matrix(g2, flip(self.h0), self.vars, tr)
        pos: dict[str, TS] = {}
        par: dict[str, TS] = {}
        for eid in sorted(self.delta1.edges):
            # generator of the refined graph in original coordinates
            h = eid + "+"
            psi = phi_matrix(g2, h, self.vars, tr)
            if g2.terminus(h) == self.bubble:
                psi = gauge @ psi
            if g2.origin(h) == self.bubble:
                psi = psi @ gauge.adjugate()
            cinv = psi.c.invert()
            pos[eid + "+"] = psi.a * cinv
            pos[eid + "-"] = -(psi.d * cinv)
            par[eid] = -(psi.det() * cinv * cinv)
        for t in sorted(self.delta1.tails):
            x = TS.constant(g2.chart.x(t), self.vars, tr)
            if g2.tails[t].vertex == self.bubble:
                x = gauge.apply(x)
            pos[t] = x
        return pos, par

    def _params(self, tr: int) -> tuple[dict[str, TS], dict[str, TS]]:
        if tr not in self._extracted:
            self._extracted[tr] = self._extract(tr)
        return self._extracted[tr]

    # ------------------------------------------------------------------
    # original-side matrices and fixed points

    def _moebius_at(self, h: str, tr: int) -> Moebius:
        m = self._moebius.get((h, tr))
        if m is None:
            pos, par = self._params(tr)
            m = self._moebius[h, tr] = edge_moebius(pos[h], pos[flip(h)],
                                                    par[edge_of(h)])
        return m

    def word_matrix1(self, word: Sequence[str]) -> Moebius:
        return self._word_matrix_at(word, self.trunc)

    def _word_matrix_at(self, word: Sequence[str], tr: int) -> Moebius:
        self.delta1.check_path(word, closed=False, reduced=True)
        m = self._moebius_at(word[0], tr)
        for h in word[1:]:
            m = self._moebius_at(h, tr) @ m
        return m

    def lift_word(self, word: Sequence[str]) -> list[str]:
        """Closed word of the original graph as a closed path in the
        refined graph, crossing the new edge where incidences differ.

        The lifted word begins with ``word[0]`` and ends with ``word[-1]``
        or a half of the new edge, so a cyclically reduced ``word`` lifts
        to a cyclically reduced path."""
        g2 = self.delta2
        out: list[str] = []
        n = len(word)
        for i, h in enumerate(word):
            out.append(h)
            a = g2.terminus(h)
            b = g2.origin(word[(i + 1) % n])
            if a != b:
                if {a, b} != {self.base, self.bubble}:
                    raise ValueError("word does not lift across the new edge")
                out.append(self.h0 if a == self.base else flip(self.h0))
        g2.check_path(out, closed=True, reduced=True)
        return out

    def fixed_points1(self, word: Sequence[str]) -> tuple[TS, TS]:
        """Attractive and repulsive fixed points of an original closed
        word, as series in the refined parameters, solved from the
        extracted-parameter matrix only, seeded at the extracted ends."""
        require_cyclically_reduced(self.delta1, word)
        return fixed_points(lambda tr: self._word_matrix_at(word, tr),
                            (self.positions[word[-1]],
                             self.positions[flip(word[0])]),
                            self.trunc, s=self.edge0)

    # ------------------------------------------------------------------
    # residual checks

    def check_multiplier(self, word: Sequence[str]) -> bool:
        """Cross-multiplied equality of det / trace^2 between the
        original-word matrix (from extracted parameters) and the lifted
        word computed directly in the refined graph."""
        m1 = self.word_matrix1(word)
        m2 = word_matrix(self.delta2, self.lift_word(word), self.vars,
                         self.trunc, _generators=self._refined)
        lhs = m1.det() * (m2.trace() * m2.trace())
        rhs = m2.det() * (m1.trace() * m1.trace())
        return (lhs - rhs).is_zero()

    def check_multipliers(self, max_len: int = 3) -> dict:
        words = self.delta1.closed_words(max_len)
        results = {" ".join(w): self.check_multiplier(w) for w in words}
        return {"n_words": len(words),
                "pass": all(results.values()),
                "words": results}

    def marked_points(self, max_len: int = 2) -> list[tuple[str, TS, TS]]:
        """Labelled marked points on the original base line: tails and
        fixed points of based loops, with their refined counterparts."""
        g2 = self.delta2
        pts: list[tuple[str, TS, TS]] = []
        for t in sorted(self.delta1.tails):
            if self.delta1.tails[t].vertex != self.base:
                continue
            x2 = TS.constant(g2.chart.x(t), self.vars, self.trunc)
            if g2.tails[t].vertex == self.bubble:
                x2 = self._gauge.apply(
                    TS.constant(g2.chart.x(t), self.vars, self._tr_full)
                ).truncate(self.trunc)
            pts.append((f"tail:{t}", self.positions[t], x2))
        for word in self.delta1.closed_words(max_len):
            based = None
            for i in range(len(word)):
                if self.delta1.origin(word[i]) == self.base:
                    based = word[i:] + word[:i]
                    break
            if based is None:
                continue
            a1, p1 = self.fixed_points1(based)
            a2s, p2s = self._refined_fixed_points(based)
            name = " ".join(based)
            pts.append((f"alpha:{name}", a1, a2s))
            pts.append((f"alpha':{name}", p1, p2s))
        return pts

    def _refined_fixed_points(self, word: Sequence[str]) -> tuple[TS, TS]:
        """Fixed points of the lifted word on the refined side, moved to
        the original base line by the crossing gauge where the word
        starts on the bubble.  The lifted word is cyclically reduced, as
        ``word`` is (see :meth:`lift_word`), so it is solved as it is."""
        lifted = self.lift_word(word)
        alpha, alpha_p = fixed_points(
            lambda tr: word_matrix(self.delta2, lifted, self.vars, tr,
                                   _generators=self._refined),
            chart_seeds(self.delta2, lifted, self.vars, self._tr_full),
            self._tr_full)
        if self.delta2.origin(word[0]) == self.bubble:
            # the original word starts on the bubble line; its base line
            # in original coordinates is reached through the crossing map
            alpha, alpha_p = self._gauge.apply(alpha), self._gauge.apply(alpha_p)
        return alpha.truncate(self.trunc), alpha_p.truncate(self.trunc)

    def check_points(self, max_len: int = 2) -> dict:
        """Each marked point equals its refined counterpart exactly."""
        pts = self.marked_points(max_len)
        if not pts:
            raise NoWitnessLoops("no marked point on the base line")
        results = {name: (p1 - p2).is_zero() for name, p1, p2 in pts}
        return {"n_checked": len(results),
                "pass": all(results.values()),
                "points": results}

    def report(self, loops_len: int = 3, points_len: int = 2) -> dict:
        mult = self.check_multipliers(loops_len)
        points = self.check_points(points_len)
        return {
            "refined": self.delta2.to_json(),
            "new_edge": self.edge0,
            "positions": {b: s.to_json() for b, s in self.positions.items()},
            "edge_params": {e: s.to_json() for e, s in self.edge_params.items()},
            "multipliers": mult,
            "points": points,
            "pass": mult["pass"] and points["pass"],
        }


def expand_and_compare(delta1: StableGraph, v0: str, b1: str, b2: str,
                       trunc: int = 6, seed: int = 0) -> ChartComparison:
    """Expand ``v0`` moving branches ``b1``, ``b2`` to a bubble, chart the
    result generically, and compare parameters across the new edge."""
    charted = delta1 if delta1.chart is not None else \
        delta1.specialize_chart(seed=seed)
    new_edge = charted._fresh_edge_name()
    delta2 = charted.expand_vertex(v0, b1, b2, new_edge=new_edge, seed=seed + 1)
    return ChartComparison(delta2, new_edge, trunc)
