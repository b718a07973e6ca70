"""Moebius normal forms, word matrices, fixed points, multipliers."""
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curvelog import schottky
from curvelog.catalog import stable_graphs
from curvelog.cpseries import TruncatedSeries as TS, solve_quadratic
from curvelog.jsonio import canonical_dumps
from curvelog.schottky import (DegenerateWord, FractionalRoot, Moebius,
                               chart_seeds, edge_moebius, fixed_points,
                               fixed_points_multiplier, multiplier_data,
                               phi_matrix, simple_root, verify_graph,
                               verify_word, word_matrix, word_vars)
from curvelog.stable_graph import (Chart, Edge, NotComposable, NotReduced,
                                   StableGraph, Tail, edge_of, flip)


def random_closed_word(graph, rng, length):
    """Random cyclically reduced closed word of exactly this length."""
    halves = graph.half_edges()
    terminus = {h: graph.terminus(h) for h in halves}
    origin = {h: terminus[flip(h)] for h in halves}
    # outgoing half-edges per vertex, in half_edges() order
    leaving = {}
    for h in halves:
        leaving.setdefault(origin[h], []).append(h)
    for _ in range(20000):
        word = [rng.choice(halves)]
        while len(word) < length:
            back = flip(word[-1])
            opts = [h for h in leaving[terminus[word[-1]]] if h != back]
            if not opts:
                break
            word.append(rng.choice(opts))
        if len(word) != length:
            continue
        if origin[word[0]] != terminus[word[-1]]:
            continue
        if length >= 2 and word[0] == flip(word[-1]):
            continue
        return word
    raise ValueError(f"no closed word of length {length} found")


def cross_ratio(a, b, c, d):
    """[a, b; c, d] = (a-c)(b-d) / ((a-d)(b-c)); denominator must be a unit."""
    return (a - c) * (b - d) * ((a - d) * (b - c)).invert()


def tate_curve():
    g = StableGraph(["v0"], [Edge("e0", "v0", 0, "v0", 1)],
                    [Tail("t1", "v0", 1)])
    return g.with_chart(Chart({"e0+": F(0), "t1": F(1)}, ["e0-"]))


def dumbbell_charted(seed=5):
    g = StableGraph(["v0", "v1"],
                    [Edge("e0", "v0", 0, "v0", 1),
                     Edge("e1", "v0", 2, "v1", 0),
                     Edge("e2", "v1", 1, "v1", 2)], [])
    return g.specialize_chart(seed=seed)


def test_tate_generator_is_scaling():
    g = tate_curve()
    m = phi_matrix(g, "e0+", ("e0",), trunc=6)
    y = TS.variable("e0", ("e0",), 6)
    assert (m.a - y).is_zero() and m.b.is_zero() and m.c.is_zero()
    assert m.d.constant_term() == 1 and len(m.d.terms) == 1


def test_tate_multiplier_exact():
    d = multiplier_data(tate_curve(), ["e0+"], trunc=6)
    y = TS.variable("e0", ("e0",), 6)
    assert (d.beta - y).is_zero()
    assert (d.x - TS.constant(1, ("e0",), 6)).is_zero()


def test_half_edge_inverse_pair():
    g = dumbbell_charted()
    vs = tuple(sorted(g.edges))
    m = phi_matrix(g, "e1+", vs, trunc=4)
    mi = phi_matrix(g, "e1-", vs, trunc=4)
    prod = mi @ m
    y = TS.variable("e1", vs, 4)
    assert (prod.a - y).is_zero() and (prod.d - y).is_zero()
    assert prod.b.is_zero() and prod.c.is_zero()
    assert (m.det() + y).is_zero()  # finite-finite determinant is -y


def test_word_matrix_composition_and_errors():
    g = dumbbell_charted()
    w = ["e1+", "e2+", "e1-"]
    vs = tuple(sorted(g.edges))
    m = word_matrix(g, w, vars=vs, trunc=4)
    m2 = word_matrix(g, ["e2+", "e1-"], vars=vs, trunc=4)
    m1 = word_matrix(g, ["e1+"], vars=vs, trunc=4)
    comp = m2 @ m1
    for p, q in zip((m.a, m.b, m.c, m.d), (comp.a, comp.b, comp.c, comp.d)):
        assert (p - q).is_zero()
    with pytest.raises(NotReduced):
        word_matrix(g, ["e1+", "e1-"], vs, trunc=4)
    with pytest.raises(NotComposable):
        word_matrix(g, ["e0+", "e2+"], vs, trunc=4)


def random_series(rng, vars, trunc):
    """A sparse series with mixed denominators, zero one time in four,
    with terms up to degree trunc + 2 (the constructor drops those above
    trunc)."""
    if rng.random() < 0.25:
        return TS(vars, trunc)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.randint(0, 3) for _ in vars)
        if sum(exp) <= trunc + 2:
            terms[exp] = F(rng.randint(-4, 4), rng.choice([1, 2, 3, 6, 35]))
    return TS(vars, trunc, terms)


def entrywise_product(m, n):
    return (m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
            m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("trunc", [4, 6])
def test_moebius_product_equals_entrywise_arithmetic(nvars, trunc,
                                                     monkeypatch):
    vars = ("y0", "y1", "y2")[:nvars]
    rng = random.Random(100 * nvars + trunc)
    pairs = [(Moebius(*(random_series(rng, vars, trunc) for _ in range(4))),
              Moebius(*(random_series(rng, vars, trunc) for _ in range(4))))
             for _ in range(40)]
    expected = [(entrywise_product(m, n), m.a * m.d - m.b * m.c)
                for m, n in pairs]

    def forbidden(*args):
        raise AssertionError("series arithmetic in a fused product")

    monkeypatch.setattr(TS, "__mul__", forbidden)
    monkeypatch.setattr(TS, "__add__", forbidden)
    for (m, n), (prod, det) in zip(pairs, expected):
        mn = m @ n
        assert (mn.a, mn.b, mn.c, mn.d) == prod
        assert m.det() == det
        for s in (mn.a, mn.b, mn.c, mn.d, m.det()):
            assert all(s.terms.values())
            assert all(sum(e) <= trunc for e in s.terms)


def test_moebius_product_drops_cancelled_and_truncated_terms():
    vars = ("y0", "y1")
    x, y = (TS.variable(v, vars, 4) for v in vars)
    one = TS.constant(1, vars, 4)
    zero = TS(vars, 4)
    # (1 + x/2) * y + (-1) * (x*y/2) = y: the x*y coefficient cancels;
    # x^3 * x^3 lies above the truncation degree
    m = Moebius(one + x.scale(F(1, 2)), -one, x * x * x, zero)
    n = Moebius(y, x * x * x, (x * y).scale(F(1, 2)), y * y)
    mn = m @ n
    assert mn.a.terms == {(0, 1): 1}
    assert mn.b.terms == {(3, 0): 1, (4, 0): F(1, 2), (0, 2): -1}
    assert mn.c.terms == {(3, 1): 1}
    assert mn.d.is_zero()
    # (1 + x/2) * 0 - (-1) * x^3 = x^3
    assert m.det().terms == {(3, 0): 1}
    assert Moebius(x, y, y, x).det().terms == {(2, 0): 1, (0, 2): -1}


def test_moebius_product_rejects_mixed_rings():
    m = Moebius(*(TS.constant(k, ("y0",), 4) for k in (1, 2, 3, 4)))
    n = Moebius(*(TS.constant(k, ("y0",), 5) for k in (1, 2, 3, 4)))
    with pytest.raises(ValueError, match="truncation mismatch"):
        m @ n


def test_multiplier_requires_cyclically_reduced():
    g = dumbbell_charted()
    with pytest.raises(DegenerateWord):
        multiplier_data(g, ["e1+", "e2+", "e1-"])  # conjugated loop
    with pytest.raises(NotComposable):
        multiplier_data(g, ["e1+"])  # not closed


def test_eigen_relations_exact():
    g = dumbbell_charted()
    d = multiplier_data(g, ["e0+"], trunc=6)
    assert (d.x + d.x_prime - d.trace).is_zero()
    assert (d.x * d.x_prime - d.det).is_zero()
    # x is the unit eigenvalue, x' the one of positive order
    assert d.x.constant_term() == d.trace.constant_term()
    assert d.x_prime.constant_term() == 0
    assert (d.beta * d.x - d.x_prime).is_zero()


def test_fixed_points_residual_and_orders():
    g = dumbbell_charted()
    rep = verify_word(g, ["e0+"], trunc=6)
    assert rep["pass"]
    assert rep["orders"]["beta"] == {"e0": 1}
    rep = verify_word(g, ["e0+", "e1+", "e2+", "e1-"], trunc=6)
    assert rep["pass"]
    assert rep["orders"]["beta"] == {"e0": 1, "e1": 2, "e2": 1}
    assert rep["orders"]["alpha"] >= 1 and rep["orders"]["alpha_prime"] >= 1


def test_fixed_point_at_infinity_raises():
    with pytest.raises(DegenerateWord):
        fixed_points_multiplier(tate_curve(), ["e0-"], trunc=4)


def test_attractive_seed_is_incoming_branch():
    g = dumbbell_charted()
    d = fixed_points_multiplier(g, ["e2+"], trunc=5)
    assert d.alpha.constant_term() == g.chart.x("e2+")
    assert d.alpha_prime.constant_term() == g.chart.x("e2-")


def test_inverse_word_swaps_fixed_points():
    g = dumbbell_charted()
    w = ["e1+", "e2+", "e1-", "e0+"]
    d = fixed_points_multiplier(g, w, trunc=5)
    wi = [h[:-1] + ("-" if h.endswith("+") else "+") for h in reversed(w)]
    di = fixed_points_multiplier(g, wi, trunc=5)
    assert (d.alpha - di.alpha_prime).is_zero()
    assert (d.alpha_prime - di.alpha).is_zero()


ST = ("s", "t")


def quadratic(a2, a1, a0):
    """A matrix callable whose fixed-point quadratic is ``a2 z^2 + a1 z +
    a0``, each coefficient a function of (s, t, trunc) giving a series;
    it records the truncations it was built at."""
    built = []

    def matrix(tr):
        built.append(tr)
        s, t = (TS.variable(v, ST, tr) for v in ST)
        zero = TS(ST, tr)
        return Moebius(zero, -a0(s, t), a2(s, t), a1(s, t))
    matrix.built = built
    return matrix


def seed(terms, trunc=4):
    return TS(ST, trunc, terms)


def vieta_checked(monkeypatch):
    """:func:`fixed_points`, checking each second root it returns: the
    second seed is solved by :func:`simple_root` on the quadratic the
    first one was solved on (after the blow-ups), then lifted by the same
    shifts, and must equal the root from Vieta's formula.  The wrapper's
    ``calls`` counts the calls it checked."""
    solved = []

    def spy(*args):
        solved.append(args)
        return simple_root(*args)

    monkeypatch.setattr(schottky, "simple_root", spy)

    def checked(matrix, seeds, trunc, s=None):
        solved.clear()
        alpha, alpha_p = fixed_points(matrix, seeds, trunc, s)
        (a2, a1, a0, root0), = solved  # one quadratic solve per call
        pivot = [int(v == s) for v in seeds[0].vars]

        def coeff(q, j):
            return q.coefficient([j * e for e in pivot])

        meets = 0
        while s is not None and coeff(seeds[0], meets) == coeff(seeds[1],
                                                              meets):
            meets += 1
        assert root0 == coeff(seeds[0], meets)
        z = simple_root(a2, a1, a0, coeff(seeds[1], meets))
        for j in reversed(range(meets)):
            z = TS.variable(s, z.vars, z.trunc) * z + coeff(seeds[0], j)
        assert alpha_p == z.truncate(trunc)
        checked.calls += 1
        return alpha, alpha_p

    checked.calls = 0
    return checked


@pytest.fixture
def solve(monkeypatch):
    return vieta_checked(monkeypatch)


def test_solver_separates_seeds_after_one_blow_up(solve):
    # (z - s)(z - 2s): both roots vanish at s = 0, apart at order s
    m = quadratic(lambda s, t: 1 + 0 * s, lambda s, t: -3 * s,
                  lambda s, t: 2 * s * s)
    alpha, alpha_p = solve(m, (seed({(1, 0): 1}),
                               seed({(1, 0): 2})), 4, s="s")
    assert alpha == 1 * TS.variable("s", ST, 4)
    assert alpha_p == 2 * TS.variable("s", ST, 4)
    assert m.built == [6]  # one blow-up costs two degrees


def test_solver_separates_seeds_after_two_blow_ups(solve):
    # (z - s^2 - s^2 t)(z + s^2): the seeds agree to first order in s
    root = lambda s, t: s * s + s * s * t
    m = quadratic(lambda s, t: 1 + 0 * s,
                  lambda s, t: s * s - root(s, t),
                  lambda s, t: -root(s, t) * s * s)
    alpha, alpha_p = solve(m, (seed({(2, 0): 1, (2, 1): 1}),
                               seed({(2, 0): -1})), 4, s="s")
    s, t = (TS.variable(v, ST, 4) for v in ST)
    assert alpha == root(s, t) and alpha_p == -(s * s)
    assert m.built == [8]
    for z in (alpha, alpha_p):
        assert (z - root(s, t)) * (z + s * s) == TS(ST, 4)


def test_solver_divides_out_a_common_order_and_rebuilds(solve):
    # s (z - 1)(z - 2 - t): the common factor s costs one degree
    m = quadratic(lambda s, t: s, lambda s, t: -s * (3 + t),
                  lambda s, t: s * (2 + t))
    alpha, alpha_p = solve(m, (seed({(0, 0): 1}),
                               seed({(0, 0): 2})), 4, s="s")
    assert alpha == TS.constant(1, ST, 4)
    assert alpha_p == 2 + TS.variable("t", ST, 4)
    assert m.built == [4, 5]
    assert solve.calls == 1


@pytest.mark.parametrize("s", ["s", None])
@pytest.mark.parametrize("a2, seeds, match", [
    # t z^2 - z: the second root is 1/t, at infinity at t = 0
    (lambda s, t: t, (0, 2), "infinity"),
    # (1 + t) z^2 - z: neither seed 2 nor seed 3 solves z^2 - z at t = 0
    (lambda s, t: 1 + t, (0, 2), "misses its seed"),
    (lambda s, t: 1 + t, (3, 1), "not a simple root"),
], ids=["infinity", "second-seed", "first-seed"])
def test_solver_raises_typed_errors_on_a_seed_off_the_roots(a2, seeds,
                                                             match, s):
    m = quadratic(a2, lambda s, t: -1 + 0 * s, lambda s, t: 0 * s)
    with pytest.raises(DegenerateWord, match=match):
        fixed_points(m, tuple(seed({(0, 0): q}) for q in seeds), 4, s=s)


@pytest.mark.parametrize("power", [1, 3])
def test_solver_raises_fractional_root(power):
    # z^2 - s^power: the roots are +-s^(power/2)
    m = quadratic(lambda s, t: 1 + 0 * s, lambda s, t: 0 * s,
                  lambda s, t: -math.prod([s] * power))
    with pytest.raises(FractionalRoot):
        fixed_points(m, (seed({}), seed({})), 4, s="s")


def test_solver_raises_on_a_scalar_matrix():
    zero = lambda s, t: 0 * s
    m = quadratic(zero, zero, zero)
    with pytest.raises(DegenerateWord, match="scalar"):
        fixed_points(m, (seed({(0, 0): 1}), seed({(0, 0): 2})), 4, s="s")


@pytest.mark.parametrize("a1, a0, seeds, match", [
    # z^2: a double root, so the seeds never separate
    (lambda s, t: 0 * s, lambda s, t: 0 * s, ({}, {}), "agree"),
    # (z - s)(z - 2s) with seeds that agree at order s
    (lambda s, t: -3 * s, lambda s, t: 2 * s * s,
     ({(1, 0): 1}, {(1, 0): 1}), "do not separate"),
])
def test_solver_raises_when_seeds_do_not_separate(a1, a0, seeds, match):
    m = quadratic(lambda s, t: 1 + 0 * s, a1, a0)
    with pytest.raises(DegenerateWord, match=match):
        fixed_points(m, tuple(seed(q) for q in seeds), 4, s="s")


def test_cross_ratio_matches_rationals():
    vs = ("z",)
    c = lambda v: TS.constant(F(v), vs, 3)
    got = cross_ratio(c(2), c(3), c(5), c(7))
    expect = F((2 - 5) * (3 - 7), (2 - 7) * (3 - 5))
    assert got.constant_term() == expect and len(got.terms) == 1


def test_verify_graph_theta():
    g = StableGraph(["v0", "v1"],
                    [Edge("e0", "v0", 0, "v1", 0),
                     Edge("e1", "v0", 1, "v1", 1),
                     Edge("e2", "v0", 2, "v1", 2)], []).specialize_chart(seed=3)
    rep = verify_graph(g, max_len=4, trunc=6)
    assert rep["pass"] and rep["n_words"] == 18


# sha256 of the canonical verify_graph(max_len=4, trunc=6) reports of the
# 22 trivalent graphs with g <= 2, n <= 2 or (g, n) = (3, 0), the graphs
# the schottky-catalog benchmark verifies, charted at seeds 200, 201, ...
CATALOG_REPORTS_SHA256 = \
    "e05615862232591d3f3f0ca693f6bbc1248f8c91d83d3091a7709b6e8a5207e9"


def test_catalog_reports_at_length_4_are_pinned():
    types = [(g, n) for g in range(3) for n in range(3)
             if 2 * g - 2 + n > 0] + [(3, 0)]
    graphs = [graph for g, n in types for graph in stable_graphs(g, n)]
    reports = [verify_graph(graph.specialize_chart(seed=200 + i),
                            max_len=4, trunc=6)
               for i, graph in enumerate(graphs)]
    assert len(reports) == 22 and all(r["pass"] for r in reports)
    assert sum(r["n_words"] for r in reports) == 280
    assert hashlib.sha256(canonical_dumps(reports).encode()).hexdigest() \
        == CATALOG_REPORTS_SHA256


def fresh_word_matrix(graph, word, vars, trunc):
    """The word's matrix as the plain product of generators built anew
    from the chart, one per letter."""
    m = None
    for h in word:
        y = TS.variable(edge_of(h), vars, trunc)
        gen = edge_moebius(graph.chart.x(h), graph.chart.x(flip(h)), y)
        m = gen if m is None else gen @ m
    return m


@pytest.mark.parametrize("graph", [tate_curve(), dumbbell_charted(seed=9)],
                         ids=["tate", "dumbbell"])
def test_shared_generators_give_the_fresh_products(graph):
    table = {}
    rings = set()
    for trunc in (3, 5):
        for word in graph.closed_words(4):
            vars = word_vars(word)
            m = word_matrix(graph, word, vars, trunc, _generators=table)
            assert m == fresh_word_matrix(graph, word, vars, trunc)
            rings |= {(h, vars, trunc) for h in word}
    # one generator per half-edge and ring, however many words read it
    assert len(table) == len(rings)


def test_generator_table_reads_a_moved_chart_afresh():
    g = dumbbell_charted(seed=9)
    vs, table = ("e0",), {}
    before = word_matrix(g, ["e0+"], vs, 4, _generators=table)
    g.chart.finite["e0+"] += 1
    after = word_matrix(g, ["e0+"], vs, 4, _generators=table)
    assert after != before
    assert after == fresh_word_matrix(g, ["e0+"], vs, 4)


def test_verify_graph_shares_no_mutated_series():
    # the words of one call share generators; a second call, and each
    # word verified alone with generators of its own, report the same
    g = dumbbell_charted(seed=9)
    first = verify_graph(g, max_len=4, trunc=5)
    assert first["pass"]
    assert verify_graph(g, max_len=4, trunc=5) == first
    assert [verify_word(g, w, trunc=5) for w in g.closed_words(4)] == \
        first["words"]


def test_residual_check_sees_a_point_that_is_not_fixed():
    g = dumbbell_charted(seed=9)
    data = fixed_points_multiplier(g, ["e0+", "e1+", "e2+", "e1-"], 5)
    m = data.matrix
    assert m._fixes(data.alpha) and m._fixes(data.alpha_prime)
    # moved in the top degree only, or in the constant term
    y = TS.variable("e0", data.alpha.vars, 5)
    assert not m._fixes(data.alpha + y * y * y * y * y)
    assert not m._fixes(data.alpha_prime + 1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_random_word_residuals(seed, length):
    g = dumbbell_charted(seed=9)
    rng = random.Random(seed)
    w = random_closed_word(g, rng, length)
    rep = verify_word(g, w, trunc=5)
    assert rep["pass"], (w, rep)


def test_random_closed_words_are_pinned():
    # the words one seed draws, in order: the rng calls must not change
    theta = StableGraph(["v0", "v1"],
                        [Edge("e0", "v0", 0, "v1", 0),
                         Edge("e1", "v0", 1, "v1", 1),
                         Edge("e2", "v0", 2, "v1", 2)], [])
    rng = random.Random(20260815)
    words = [random_closed_word(dumbbell_charted(), rng, n)
             for n in (1, 2, 3, 4, 5, 6)]
    words += [random_closed_word(theta, rng, n) for n in (2, 4, 6, 8)]
    assert words == [
        ["e0+"], ["e0-", "e0-"], ["e2+", "e2+", "e2+"],
        ["e2+", "e1-", "e0+", "e1+"], ["e0+", "e1+", "e2-", "e2-", "e1-"],
        ["e2+", "e1-", "e0-", "e0-", "e1+", "e2+"],
        ["e1-", "e2+"], ["e1+", "e2-", "e1+", "e0-"],
        ["e1-", "e2+", "e1-", "e2+", "e1-", "e0+"],
        ["e2-", "e0+", "e1-", "e2+", "e0-", "e1+", "e2-", "e0+"]]


def conjugated_word_matrix(monkeypatch, p):
    """Make :mod:`schottky` see every word matrix ``M`` as ``P M adj(P)``,
    ``p(x_last)`` giving the entries of ``P``: the trace is multiplied by
    ``det P`` and the determinant by ``det P ** 2``."""
    plain = schottky.word_matrix

    def conjugated(graph, word, vars, trunc, **kw):
        m = plain(graph, word, vars, trunc, **kw)
        q = Moebius(*(TS.constant(e, vars, trunc)
                      for e in p(graph.chart.x(word[-1]))))
        return q @ m @ q.adjugate()

    monkeypatch.setattr(schottky, "word_matrix", conjugated)


@pytest.mark.parametrize("p, match", [
    # z -> z + 1 moves both fixed points off their chart seeds
    (lambda x: (1, 1, 0, 1), "miss their chart seeds"),
    # P (x_last, 1) = (1, 0): the conjugate's c vanishes at y = 0
    (lambda x: (0, 1, 1, -x), r"c\(0\) = 0"),
], ids=["translated", "c-vanishes"])
def test_fixed_points_multiplier_raises_typed_errors(monkeypatch, p, match):
    g = dumbbell_charted(seed=9)
    conjugated_word_matrix(monkeypatch, p)
    for word in (["e0+"], ["e0+", "e1+", "e2+", "e1-"]):
        with pytest.raises(DegenerateWord, match=match):
            fixed_points_multiplier(g, word, 5)


def verify_catalog():
    """The 22 trivalent graphs the schottky-catalog benchmark verifies
    (g <= 2, n <= 2, and (3, 0)), charted at the acceptance suite's
    seeds 100, 101, ..."""
    types = [(g, n) for g in range(3) for n in range(3)
             if 2 * g - 2 + n > 0] + [(3, 0)]
    graphs = [graph for g, n in types for graph in stable_graphs(g, n)]
    return [graph.specialize_chart(seed=100 + i)
            for i, graph in enumerate(graphs)]


def test_eigenvalue_fixed_points_equal_the_quadratic_roots(monkeypatch):
    # alpha and alpha' from (x - d)/c and (x' - d)/c are the roots that
    # simple_root solves from the word's quadratic at each chart seed,
    # and x is exactly the inverse of the one series solved per word
    solved = []

    def recording(*args):
        solved.append(solve_quadratic(*args))
        return solved[-1]

    monkeypatch.setattr(schottky, "solve_quadratic", recording)
    graphs = verify_catalog()
    n_words = 0
    for graph in graphs:
        for word in graph.closed_words(4):
            solved.clear()
            data = fixed_points_multiplier(graph, word, 6)
            (u,) = solved
            assert data.x * u == TS.constant(1, u.vars, 6)
            m = data.matrix
            quad = m.c, m.d - m.a, -m.b
            for z, q in zip((data.alpha, data.alpha_prime),
                            chart_seeds(graph, word, u.vars, 6)):
                assert z == simple_root(*quad, q.constant_term())
            n_words += 1
    assert len(graphs) == 22 and n_words == 280


@pytest.mark.parametrize("degree", [0, 1])
def test_verify_word_sees_a_bent_reciprocal(monkeypatch, degree):
    # one coefficient of u = 1/x bent: x, x' and both fixed points follow
    # it, so the exact checks must fail rather than agree by construction
    def bent(*args):
        u = solve_quadratic(*args)
        y = TS.variable(u.vars[0], u.vars, u.trunc)
        return u + (y if degree else 1) * F(1, 7)

    g = dumbbell_charted(seed=9)
    words = g.closed_words(3)
    assert all(verify_word(g, w, trunc=6)["pass"] for w in words)
    monkeypatch.setattr(schottky, "solve_quadratic", bent)
    for w in words:
        checks = verify_word(g, w, trunc=6)["checks"]
        assert not checks["eigen_split"] and not checks["residual"], w
