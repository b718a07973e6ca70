"""Parameter comparison across a vertex expansion.

Expanding a vertex refines a degeneration: the refined graph has a new
bubble vertex, a new edge (parameter ``s0``), and its own chart.  Every
generator of the refined graph, gauged through the new edge's crossing
map on the bubble side, is again a normal-form generator; reading off

    x_h = a / c,   x_{-h} = -d / c,   y_e = -det / c^2

from the gauged matrix expresses all original positions and edge
parameters as exact series in the refined parameters.  Two loop
invariants check the transport independently of the gauge bookkeeping:

* multipliers: the original-word matrix built from extracted parameters
  must have the same ``det / trace^2`` as the lifted word computed
  directly in the refined graph (compared cross-multiplied, so collapsed
  traces in the loop case need no division);
* cross-ratios: marked points on the original base line (tails and
  fixed points of based loops) must have the same cross-ratios as their
  refined counterparts.

Fixed-point seeds collide exactly when both end branches of a word were
moved onto the bubble; the roots then separate at first order in the
new edge parameter and are found by solving the blown-up quadratic.
A proper power M^n = U M + V I of a collapsing loop has a common factor
U in all coefficients of its fixed-point quadratic, and U vanishes with
the new edge parameter; its order in that parameter is divided out
before the blow-up.  What stays degenerate after that raises
:class:`DegenerateWord`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .cpseries import TruncatedSeries as TS, solve_quadratic
from .schottky import (DegenerateWord, Moebius, edge_moebius,
                       fixed_points_multiplier, phi_matrix, word_matrix)
from .stable_graph import StableGraph, edge_of, flip


class NoWitnessLoops(ValueError):
    """Not enough marked points for a cross-ratio comparison."""


def inverse_word(word: Sequence[str]) -> list[str]:
    return [flip(h) for h in reversed(word)]


@dataclass
class ChartComparison:
    delta2: StableGraph
    edge0: str
    trunc: int
    delta1: StableGraph = field(init=False)
    h0: str = field(init=False)
    bubble: str = field(init=False)
    base: str = field(init=False)
    vars: tuple[str, ...] = field(init=False)
    positions: dict[str, TS] = field(init=False)
    edge_params: dict[str, TS] = field(init=False)

    # internal padded-truncation data for fixed-point work
    _tr_full: int = field(init=False)
    _gauge: Moebius = field(init=False)
    # extracted (positions, edge parameters), by truncation
    _extracted: dict[int, tuple[dict[str, TS], dict[str, TS]]] = \
        field(init=False)

    def __post_init__(self):
        g2 = self.delta2
        if g2.chart is None or g2.chart.infinite:
            raise ValueError("comparison requires an all-finite chart")
        g2.validate()
        self.h0 = self.edge0 + "+"
        self.bubble = g2.terminus(self.h0)
        self.base = g2.origin(self.h0)
        if self.bubble == self.base:
            raise ValueError("new edge must not be a loop")
        self.delta1 = g2.contract_edge(self.edge0)
        self.vars = tuple(sorted(g2.edges))
        self._tr_full = self.trunc + 2
        self._gauge = phi_matrix(g2, flip(self.h0), self.vars, self._tr_full)
        pos, par = self._extract(self._tr_full)
        self.positions = {b: s.truncate(self.trunc) for b, s in pos.items()}
        self.edge_params = {e: s.truncate(self.trunc) for e, s in par.items()}
        self._extracted = {self._tr_full: (pos, par),
                           self.trunc: (self.positions, self.edge_params)}

    # ------------------------------------------------------------------
    # parameter extraction

    def _extract(self, tr: int) -> tuple[dict[str, TS], dict[str, TS]]:
        """Original positions and edge parameters, exact to degree ``tr``."""
        g2 = self.delta2
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
        pos, par = self._params(tr)
        return edge_moebius(pos[h], pos[flip(h)], par[edge_of(h)])

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
        refined graph, crossing the new edge where incidences differ."""
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
        extracted-parameter matrix only.

        Raises :class:`DegenerateWord` when the fixed points are not
        simple roots that this solve can separate."""
        self.delta1.check_path(word, closed=True, reduced=True)
        if len(word) >= 2 and word[0] == flip(word[-1]):
            raise DegenerateWord("word is not cyclically reduced")
        a2, a1, a0 = self._fixed_point_quadratic(word)
        pos, _ = self._params(self._tr_full)
        sa = pos[word[-1]]
        sr = pos[flip(word[0])]
        if sa.constant_term() != sr.constant_term():
            alpha = _simple_root(a2, a1, a0, sa.constant_term())
            alpha_p = _simple_root(a2, a1, a0, sr.constant_term())
            return alpha.truncate(self.trunc), alpha_p.truncate(self.trunc)
        # collapsed seeds: both end branches sit on the bubble and meet at
        # the same point at s0 = 0.  With any common factor s0^k already
        # divided out, blow up z = r + s0 Z and solve for Z.
        r = sa.constant_term()
        pivot = tuple(1 if v == self.edge0 else 0 for v in self.vars)
        zr = TS.constant(r, self.vars, self._tr_full)
        f_r = (a2 * zr + a1) * zr + a0
        fp_r = 2 * (a2 * zr) + a1
        b2 = a2.truncate(self._tr_full - 2)
        b1 = fp_r.divide_monomial(pivot).truncate(self._tr_full - 2)
        b0 = f_r.divide_monomial(pivot).divide_monomial(pivot)
        seed_a = sa.coefficient(pivot)
        seed_r = sr.coefficient(pivot)
        if seed_a == seed_r:
            raise DegenerateWord("fixed-point seeds collide beyond first order")
        s0 = TS.variable(self.edge0, self.vars, self._tr_full - 2)
        za = _simple_root(b2, b1, b0, seed_a)
        zp = _simple_root(b2, b1, b0, seed_r)
        alpha = zr.truncate(self._tr_full - 2) + s0 * za
        alpha_p = zr.truncate(self._tr_full - 2) + s0 * zp
        return alpha.truncate(self.trunc), alpha_p.truncate(self.trunc)

    def _fixed_point_quadratic(self, word: Sequence[str]
                               ) -> tuple[TS, TS, TS]:
        """Coefficients of ``c z^2 + (d - a) z - b = 0`` for the word
        matrix, exact to degree ``_tr_full``, with their common order ``k``
        in the new edge parameter divided out.

        A proper power M^n = U M + V I shares the factor U between ``c``,
        ``d - a`` and ``b``; for a collapsing loop U vanishes at s0 = 0.
        The quadratic is homogeneous in its coefficients, so dividing by
        s0^k keeps its roots; the matrix is rebuilt k degrees higher so
        the quotient stays exact.  Words with k = 0 pay nothing extra."""
        tr = self._tr_full
        k = 0
        while True:
            m = self._word_matrix_at(word, tr + k)
            coeffs = (m.c, m.d - m.a, -m.b)
            order = min(q.ideal_order((self.edge0,)) for q in coeffs)
            if order == math.inf:
                raise DegenerateWord("word matrix is scalar to this order")
            # orders read at a higher truncation can only drop, so this
            # stops at the first rebuild
            if order <= k:
                break
            k = order
        if k == 0:
            return coeffs
        common = tuple(order if v == self.edge0 else 0 for v in self.vars)
        return tuple(q.divide_monomial(common).truncate(tr) for q in coeffs)

    # ------------------------------------------------------------------
    # residual checks

    def check_multiplier(self, word: Sequence[str]) -> bool:
        """Cross-multiplied equality of det / trace^2 between the
        original-word matrix (from extracted parameters) and the lifted
        word computed directly in the refined graph."""
        m1 = self.word_matrix1(word)
        m2 = word_matrix(self.delta2, self.lift_word(word),
                         self.vars, self.trunc)
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
        the original base line by the crossing gauge where conjugation
        demands it."""
        lifted = self.lift_word(word)
        core, pre = StableGraph.cyclic_reduce(lifted)
        data = fixed_points_multiplier(self.delta2, core, self._tr_full)
        alpha = data.alpha.extend(self.vars)
        alpha_p = data.alpha_prime.extend(self.vars)
        if pre:
            c = word_matrix(self.delta2, inverse_word(pre),
                            self.vars, self._tr_full)
            alpha, alpha_p = c.apply(alpha), c.apply(alpha_p)
        if self.delta2.origin(word[0]) == self.bubble:
            # the original word starts on the bubble line; its base line
            # in original coordinates is reached through the crossing map
            alpha, alpha_p = self._gauge.apply(alpha), self._gauge.apply(alpha_p)
        return alpha.truncate(self.trunc), alpha_p.truncate(self.trunc)

    def check_cross_ratios(self, max_len: int = 2) -> dict:
        """[a, b; c, d] = (a-c)(b-d) / ((a-d)(b-c)) agrees on both sides
        wherever both denominators are units; with unit denominators the
        cross-multiplied comparison is exact, so nothing is inverted."""
        pts = self.marked_points(max_len)
        if len(pts) < 4:
            raise NoWitnessLoops(
                f"only {len(pts)} marked points on the base line")
        diff = {(i, j): (pts[i][1] - pts[j][1], pts[i][2] - pts[j][2])
                for i, j in combinations(range(len(pts)), 2)}
        results: dict[str, bool] = {}
        for a, b, c, d in combinations(range(len(pts)), 4):
            (ac1, ac2), (bd1, bd2) = diff[a, c], diff[b, d]
            (ad1, ad2), (bc1, bc2) = diff[a, d], diff[b, c]
            if all(x.is_unit() for x in (ad1, bc1, ad2, bc2)):
                names = ",".join(pts[i][0] for i in (a, b, c, d))
                results[f"[{names}]"] = (ac1 * bd1 * (ad2 * bc2)
                                         - ac2 * bd2 * (ad1 * bc1)).is_zero()
        if not results:
            raise NoWitnessLoops("no cross-ratio with unit denominators")
        return {"n_checked": len(results),
                "pass": all(results.values()),
                "ratios": results}

    def report(self, loops_len: int = 3, ratios_len: int = 2) -> dict:
        mult = self.check_multipliers(loops_len)
        try:
            ratios = self.check_cross_ratios(ratios_len)
            ratios_pass = ratios["pass"]
        except NoWitnessLoops as exc:
            ratios = {"skipped": str(exc)}
            ratios_pass = True
        return {
            "refined": self.delta2.to_json(),
            "new_edge": self.edge0,
            "positions": {b: s.to_json() for b, s in self.positions.items()},
            "edge_params": {e: s.to_json() for e, s in self.edge_params.items()},
            "multipliers": mult,
            "cross_ratios": ratios,
            "pass": mult["pass"] and ratios_pass,
        }


def _simple_root(a2: TS, a1: TS, a0: TS, root0: Fraction) -> TS:
    try:
        return solve_quadratic(a2, a1, a0, root0)
    except ZeroDivisionError as exc:
        raise DegenerateWord(f"fixed point {root0} is not a simple root "
                             "of the word's quadratic") from exc


def compare_parameters(delta2: StableGraph, edge0: str,
                       trunc: int = 6) -> ChartComparison:
    """Compare original and refined parameters across expansion edge
    ``edge0`` of the charted refined graph ``delta2``."""
    return ChartComparison(delta2, edge0, trunc)


def expand_and_compare(delta1: StableGraph, v0: str, b1: str, b2: str,
                       trunc: int = 6, seed: int = 0) -> ChartComparison:
    """Expand ``v0`` moving branches ``b1``, ``b2`` to a bubble, chart the
    result generically, and compare parameters across the new edge."""
    charted = delta1 if delta1.chart is not None else \
        delta1.specialize_chart(seed=seed)
    new_edge = charted._fresh_edge_name()
    delta2 = charted.expand_vertex(v0, b1, b2, new_edge=new_edge, seed=seed + 1)
    return ChartComparison(delta2, new_edge, trunc)
