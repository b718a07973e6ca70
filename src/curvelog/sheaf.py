"""Residue assignments on stable graphs and their monodromy calculus.

Every branch of a stable graph (tails and half-edges) carries a residue
element in a free Lie-exponential algebra: tails are letters, the two
halves of each cycle edge carry the Bernoulli-type elements built from
a dedicated letter pair, the halves of tree edges are opposite, and the
branches at each vertex sum to zero.  These constraints have a unique
solution once one distinguished tail is eliminated (leaf-to-root along
the spanning tree).  On a graph without tails the letters carry one
global relation, the sum of the node-letter brackets ``[T_e, A_e]``:
the branches at the root (the first vertex) sum to minus it, exactly,
and every other vertex sum is zero.  Elements are computed in the free
algebra; nothing is reduced modulo the relation.

On top of the residues, paths on the graph generate monodromy elements
by three moves: transporting between two branches at a vertex (an
associator in the two residues), turning around a branch (exponential
of 2 i pi times its residue), and crossing an edge (exponential of the
edge-log symbol times the residue for tree edges; the node factor for
cycle edges).  Coefficients are polynomials in the normalized edge
logarithms over exact period combinations, and every element admits a
finite tabular decomposition whose entries absorb the factorials of the
log exponents.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .associator import kz_associator
from .constants import ConstantCombination, _json_terms, in_zeta_span
from .elliptic import w_infinity, w_zero
from .logpoly import LogPoly, logpoly_ring
from .ncseries import NCSeries, RATIONAL, Ring, _canonical
from .stable_graph import StableGraph, edge_of, flip, half
from .terms import _add_terms, _exponent

Word = tuple[int, ...]


class GlueInconsistent(ValueError):
    """The residue constraints admit no solution."""


class UnsupportedDressing(ValueError):
    """Deformation corrections are not implemented for this layout."""


def tail_letter(tail_id: str) -> str:
    return f"X_{tail_id}"


def node_letters(edge_id: str) -> tuple[str, str]:
    return f"T_{edge_id}", f"A_{edge_id}"


# ---------------------------------------------------------------------------
# the residue sheaf


class ResidueSheaf:
    def __init__(self, graph: StableGraph, trunc: int,
                 alphabet: tuple[str, ...], residues: dict[str, NCSeries],
                 tree_edges: tuple[str, ...], cycle_edges: tuple[str, ...]):
        self.graph, self.trunc, self.alphabet = graph, trunc, alphabet
        self.residues = residues
        self.tree_edges, self.cycle_edges = tree_edges, cycle_edges

    def vertex_sum(self, v: str) -> NCSeries:
        total = NCSeries.zero(self.alphabet, self.trunc, RATIONAL)
        for b in self.graph.branches_at(v):
            total = total + self.residues[b]
        return total

    def relation(self) -> NCSeries:
        """The sum of the node-letter brackets ``[T_e, A_e]``."""
        total = NCSeries.zero(self.alphabet, self.trunc, RATIONAL)
        for eid in self.cycle_edges:
            t, a = (NCSeries.letter(x, self.alphabet, self.trunc, RATIONAL)
                    for x in node_letters(eid))
            total = total + t.bracket(a)
        return total

    def check_invariants(self) -> None:
        g = self.graph
        # the root of a graph without tails carries minus the relation
        root = None if g.tails else g.vertices[0]
        for v in g.vertices:
            total = self.vertex_sum(v)
            if v == root:
                total = total + self.relation()
            if not total.is_zero():
                raise GlueInconsistent(
                    f"branches at {v} do not sum to "
                    f"{'minus the relation' if v == root else 'zero'}")
        for eid in self.tree_edges:
            s = self.residues[half(eid, "+")] + self.residues[half(eid, "-")]
            if not s.is_zero():
                raise GlueInconsistent(f"halves of tree edge {eid} not opposite")
        for eid in self.cycle_edges:
            t_name, _ = node_letters(eid)
            t = NCSeries.letter(t_name, self.alphabet, self.trunc, RATIONAL)
            coeffs = [Fraction(1, factorial(n)) for n in range(self.trunc)]
            twisted = t.ad_series(coeffs, self.residues[half(eid, "+")])
            if not (twisted + self.residues[half(eid, "-")]).is_zero():
                raise GlueInconsistent(f"node identity fails at {eid}")


def build_sheaf(graph: StableGraph, trunc: int) -> ResidueSheaf:
    tree, cycle = graph.maximal_subtree()
    tails = sorted(graph.tails.values(), key=lambda t: t.nu)
    dropped = tails[-1].id if tails else None
    kept = [t.id for t in tails[:-1]] if tails else []

    alphabet = tuple(tail_letter(t) for t in kept) + tuple(
        name for eid in cycle for name in node_letters(eid))
    if not alphabet:
        raise GlueInconsistent("graph carries no letters (no tails, genus 0?)")

    residues: dict[str, NCSeries] = {}
    for t in kept:
        residues[t] = NCSeries.letter(tail_letter(t), alphabet, trunc, RATIONAL)
    for eid in cycle:
        t_name, a_name = node_letters(eid)
        ren = {"T": t_name, "A": a_name}
        residues[half(eid, "+")] = \
            w_zero(trunc).rename(ren).extend(alphabet)
        residues[half(eid, "-")] = \
            w_infinity(trunc).rename(ren).extend(alphabet)

    root = graph.tails[dropped].vertex if dropped else graph.vertices[0]

    # leaf-to-root order along the tree.  A half-edge sits at its
    # terminus, so the branch at a child vertex w is the half from its
    # parent to w.
    order, parent_branch = graph.walk(root, tree)
    if len(order) != len(graph.vertices):
        raise GlueInconsistent("spanning tree does not reach every vertex")

    for v in reversed(order[1:]):
        up = parent_branch[v]
        total = NCSeries.zero(alphabet, trunc, RATIONAL)
        for b in graph.branches_at(v):
            if b != up:
                total = total + residues[b]
        residues[up] = -total
        residues[flip(up)] = total

    if dropped is not None:
        root_sum = NCSeries.zero(alphabet, trunc, RATIONAL)
        for b in graph.branches_at(root):
            if b != dropped:
                root_sum = root_sum + residues[b]
        residues[dropped] = -root_sum

    sheaf = ResidueSheaf(graph, trunc, alphabet, residues,
                         tuple(tree), tuple(cycle))
    sheaf.check_invariants()
    return sheaf


# ---------------------------------------------------------------------------
# monodromy moves

Move = tuple


def log_symbol(edge_id: str) -> str:
    return f"l_{edge_id}"


class MonodromyCalculator:
    """Composes path-grammar moves into monodromy elements."""

    def __init__(self, sheaf: ResidueSheaf):
        self.sheaf = sheaf
        self.graph = sheaf.graph
        self.trunc = sheaf.trunc
        self.lvars = tuple(log_symbol(e) for e in sorted(self.graph.edges))
        self.ring: Ring = logpoly_ring(self.lvars)
        self.residues = {b: s.lift(self.ring)
                         for b, s in sheaf.residues.items()}
        self._local_cache: dict[tuple[str, str], NCSeries] = {}

    def unit(self) -> NCSeries:
        return NCSeries.unit(self.sheaf.alphabet, self.trunc, self.ring)

    # -- the three move kinds ------------------------------------------

    def local(self, vertex: str, src: str, dst: str) -> NCSeries:
        branches = self.graph.branches_at(vertex)
        if src not in branches or dst not in branches or src == dst:
            raise ValueError(f"bad local move at {vertex}: {src} -> {dst}")
        key = (src, dst)
        cached = self._local_cache.get(key)
        if cached is None:
            # the residues are rational: substitute over the period
            # constants of the associator, then lift once
            res = self.sheaf.residues
            cached = kz_associator(self.trunc).substitute(
                {"X0": res[src], "X1": res[dst]}).lift(self.ring)
            self._local_cache[key] = cached
        return cached

    def turn(self, vertex: str, branch: str, k: int = 1) -> NCSeries:
        if branch not in self.graph.branches_at(vertex):
            raise ValueError(f"{branch} is not a branch at {vertex}")
        factor = LogPoly.constant(self.lvars, ConstantCombination.ipi(1, 2 * k))
        return self.residues[branch].scale(factor).exp()

    def cross(self, h: str) -> NCSeries:
        eid = edge_of(h)
        two_ipi_log = LogPoly.symbol(self.lvars, log_symbol(eid),
                                     ConstantCombination.ipi(1, 2))
        if eid in self.sheaf.tree_edges:
            # Crossing along h lands at the vertex of h; the deformation
            # factor y^X carries the residue of the departing branch, so
            # that the arrival chart sees its node letter with weight -1.
            return self.residues[flip(h)].scale(two_ipi_log).exp()
        if eid not in self.sheaf.cycle_edges:
            raise ValueError(f"{eid} is not an edge")
        t_name, _ = node_letters(eid)
        t = NCSeries.letter(t_name, self.sheaf.alphabet, self.trunc, self.ring)
        w_inf = self.residues[half(eid, "-")]
        if h.endswith("+"):
            return w_inf.scale(-two_ipi_log).exp() * t.exp()
        return (-t).exp() * w_inf.scale(two_ipi_log).exp()

    # -- path composition ----------------------------------------------

    def _step(self, move: Move) -> tuple[NCSeries, tuple, tuple]:
        kind = move[0]
        if kind == "local":
            _, v, src, dst = move
            return self.local(v, src, dst), (v, src), (v, dst)
        if kind == "turn":
            _, v, b = move[:3]
            k = move[3] if len(move) > 3 else 1
            return self.turn(v, b, k), (v, b), (v, b)
        if kind == "cross":
            # traverse the edge along h: depart from the branch flip(h)
            # at origin(h), arrive on the branch h at terminus(h)
            _, h = move
            start = (self.graph.origin(h), flip(h))
            end = (self.graph.terminus(h), h)
            return self.cross(h), start, end
        raise ValueError(f"unknown move {move!r}")

    def path(self, moves: Sequence[Move]) -> NCSeries:
        """Monodromy of a move sequence (composed in traversal order)."""
        total = self.unit()
        state: tuple | None = None
        for move in moves:
            matrix, start, end = self._step(move)
            if state is not None and state != start:
                raise ValueError(
                    f"move {move!r} starts at {start}, path is at {state}")
            state = end
            total = matrix * total
        return total

    # -- standard paths --------------------------------------------------

    def tail_path_moves(self, src_tail: str, dst_tail: str) -> list[Move]:
        """Moves for the spanning-tree path between two tails."""
        g = self.graph
        v0 = g.tails[src_tail].vertex
        v1 = g.tails[dst_tail].vertex
        walk = g.tree_path(v0, v1, list(self.sheaf.tree_edges))
        moves: list[Move] = []
        at_branch = src_tail
        at_vertex = v0
        for h in walk:
            moves.append(("local", at_vertex, at_branch, flip(h)))
            moves.append(("cross", h))
            at_branch = h
            at_vertex = g.terminus(h)
        moves.append(("local", at_vertex, at_branch, dst_tail))
        return moves

    def loop_moves(self, word: Sequence[str]) -> list[Move]:
        """Moves for a closed half-edge word, based at the departure
        branch of its first step.  Arriving and departing on the same
        branch (a cyclically unreduced corner) is an identity transport
        and contributes no move."""
        g = self.graph
        g.check_path(list(word), closed=True, reduced=True)
        moves: list[Move] = []
        for i, h in enumerate(word):
            if i and word[i - 1] != flip(h):
                moves.append(("local", g.origin(h), word[i - 1], flip(h)))
            moves.append(("cross", h))
        if word[-1] != flip(word[0]):
            moves.append(("local", g.origin(word[0]), word[-1],
                          flip(word[0])))
        return moves

    # -- deformation corrections -----------------------------------------

    def dressed_tail_transport(self, src_tail: str, dst_tail: str, *,
                               ydeg: int, xorder: int = 36,
                               kmax: int = 26) -> NCSeries:
        """Tail-to-tail transport with corrections up to ``y^ydeg`` in
        the edge parameter, for a two-vertex tree whose path tails sit
        at the middle slot of both charts.

        Coefficients live in the sew ring (powers of ``y``, of
        ``log(y) / (2 i pi)`` and of the internal cut symbol); the
        ``y``-constant layer agrees with :meth:`path` over the moves of
        :meth:`tail_path_moves` on the same tails.
        """
        from .sewing import dressed_neck_transport

        g = self.graph
        if len(g.edges) != 1 or self.sheaf.cycle_edges:
            raise UnsupportedDressing(
                "deformation corrections need a single tree edge")
        v_src = g.tails[src_tail].vertex
        v_dst = g.tails[dst_tail].vertex
        if v_src == v_dst:
            raise UnsupportedDressing(
                "the path tails must sit on opposite charts")
        src_branches = g.branches_at(v_src)
        dst_branches = g.branches_at(v_dst)
        if src_branches[1] != src_tail or dst_branches[1] != dst_tail:
            raise UnsupportedDressing(
                "the path tails must occupy the middle chart slot")

        res = self.sheaf.residues
        return dressed_neck_transport(
            res[src_branches[2]], res[src_tail], res[dst_tail],
            ydeg=ydeg, xorder=xorder, kmax=kmax)


# ---------------------------------------------------------------------------
# tabular decomposition of monodromy elements


def _factorials(e: tuple[int, ...]) -> int:
    """The product of the factorials of the log exponents ``e``."""
    scale = 1
    for k in e:
        scale *= factorial(k)
    return scale


def decompose_element(elem: NCSeries) -> dict:
    """Entry table of a monodromy element.

    The entry at (word, log-exponent e) is the coefficient of the
    corresponding monomial multiplied by the factorials of the
    exponents; ``reassemble_element`` inverts this exactly.  Each entry
    also records whether its value lies in the Z-span of products of
    (i*pi)-powers and zeta values (:func:`curvelog.constants.in_zeta_span`):
    true is a proof, false one only under Zagier's conjecture.

    Each word's monomials are grouped by exponent in one pass over the
    element's numerators.  Within one call, each monomial id is split
    into its log exponent and period key once, each exponent's factorial
    scale and degree are taken once, and each word's letter list is
    built once and copied into each of its entries.  Each distinct pair
    of factorial scale and period numerators (in their order) is scaled,
    written as JSON and span-tested once; the entries that repeat it
    share one ``coeff`` dict, which callers treat as read-only.  Per
    period key, the span test reads its cached lattice coordinates
    (:mod:`curvelog.constants`) and the ``numeric`` field its cached
    float factors (:mod:`curvelog.logpoly`).
    """
    entries = []
    violations = []
    max_deg = 0
    lvars = elem.ring.one.vars
    n, keys, den = len(lvars), elem.ring.table.keys, elem.den
    alphabet = elem.alphabet
    # monomial id -> (exponent, period key); exponent -> (scale, degree)
    parts = {i: (keys[i][:n], keys[i][n:])
             for i in {i for m in elem.nums.values() for i in m}}
    exps = {e: (_factorials(e), sum(e))
            for e in {e for e, _ in parts.values()}}
    done: dict = {}     # (scale, period numerators) -> (coeff JSON, integral)
    for w in sorted(elem.nums, key=lambda w: (len(w), w)):
        groups: dict[tuple, dict] = {}
        for i, c in elem.nums[w].items():
            e, p = parts[i]
            g = groups.get(e)
            if g is None:
                groups[e] = g = {}
            g[p] = c
        word = [alphabet[i] for i in w]
        for e in sorted(groups):
            per = groups[e]
            scale, deg = exps[e]
            key = (scale, tuple(per.items()))
            result = done.get(key)
            if result is None:
                entry = ConstantCombination._raw(
                    (), {p: Fraction(c * scale, den) for p, c in per.items()})
                result = done[key] = (entry.to_json(), in_zeta_span(entry))
            coeff, ok = result
            if not ok:
                violations.append(len(entries))
            entries.append({
                "word": word.copy(),
                "log_exp": list(e),
                "coeff": coeff,
                "integral": ok,
            })
            if deg > max_deg:
                max_deg = deg
    return {
        "alphabet": list(elem.alphabet),
        "lvars": list(lvars),
        "trunc": elem.trunc,
        "entries": entries,
        "n_entries": len(entries),
        "max_log_degree": max_deg,
        "all_integral": not violations,
        "violations": violations,
    }


def reassemble_element(report: dict, ring: Ring) -> NCSeries:
    """The element of a decomposition table: each entry's period terms,
    read by the one period-key reader, divided by its factorials.

    Within one call each distinct ``coeff`` dict is parsed once (the
    entries that :func:`decompose_element` gives one shared dict read it
    once), each distinct exponent is checked and its factorials taken
    once, and the element is built on integer numerators over one
    denominator."""
    alphabet = tuple(report["alphabet"])
    lvars = tuple(report["lvars"])
    if lvars != ring.one.vars:
        raise ValueError(f"table over {list(lvars)}, not the ring's "
                         f"{list(ring.one.vars)}")
    letter = {a: i for i, a in enumerate(alphabet)}.__getitem__
    intern = ring.table.intern
    exps: dict[tuple, tuple] = {}      # log_exp -> (e, factorial scale)
    parsed: dict[int, dict] = {}       # id of a coeff dict -> its terms
    placed: dict[tuple, list] = {}     # (id of coeff, e) -> [(id, q)]
    rows = []
    for entry in report["entries"]:
        w = tuple(map(letter, entry["word"]))
        raw = tuple(entry["log_exp"])
        es = exps.get(raw)
        if es is None:
            e = _exponent(raw, len(lvars))
            es = exps[raw] = e, _factorials(e)
        e, scale = es
        coeff = entry["coeff"]
        pairs = placed.get((id(coeff), e))
        if pairs is None:
            terms = parsed.get(id(coeff))
            if terms is None:
                terms = parsed[id(coeff)] = _json_terms(coeff)
            pairs = placed[id(coeff), e] = [
                (intern(e + per), q / scale) for per, q in terms.items() if q]
        rows.append((w, pairs))
    # every placed list to integer numerators over one denominator, in
    # place, so that the rows read the numerators
    den = lcm(*[q.denominator for pairs in placed.values() for _, q in pairs])
    for pairs in placed.values():
        pairs[:] = [(k, q.numerator * (den // q.denominator))
                    for k, q in pairs]
    flat: dict[Word, dict] = {}
    for w, pairs in rows:
        _add_terms(flat.setdefault(w, {}), pairs)
    out = NCSeries(alphabet, report["trunc"], ring)
    out.nums, out.den = _canonical(
        {w: m for w, m in flat.items() if m and len(w) <= out.trunc}, den)
    return out
