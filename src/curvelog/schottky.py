"""Moebius generators over exact series rings and their fixed-point data.

Every half-edge ``h`` of a charted graph carries a Moebius matrix in the
edge parameters ``y_e``.  When both endpoint coordinates are finite the
normal form is

    phi_h = [[x_h, -x_h*x_{-h} + y], [1, -x_{-h}]],

the unique map with ``(phi(z) - x_h) * (z - x_{-h}) = y``: it sends a
neighbourhood of the source branch point to a neighbourhood of the
target branch point, with the edge parameter as the coupling constant.
When an endpoint sits at infinity the same bilinear relation (with local
coordinate ``1/z``) gives the degenerate normal forms; both halves at
infinity is excluded by the chart invariants.

Matrices act on the left, so the walk ``h1 then h2`` has matrix
``phi_{h2} @ phi_{h1}``.  At ``y = 0`` every generator is rank one, so a
closed word's matrix is ``K (x_{h_last}, 1)^T (1, -x_{-h_first})``: its
trace ``K (x_{h_last} - x_{-h_first})`` is a unit exactly when the word
is cyclically reduced, and then so is ``c(0) = K``.  A fixed point ``z``
spans an eigenvector ``(z, 1)``, so ``c z + d`` is its eigenvalue, and
the second root of ``c z^2 + (d - a) z - b`` is ``(a - d)/c`` minus the
first (Vieta's formula).

:func:`verify_graph` builds each generator once per ring ``(vars,
trunc)`` and shares it among all the words of that one call, through a
table it hands to :func:`verify_word`, :func:`fixed_points_multiplier`,
:func:`multiplier_data` and :func:`word_matrix` (their ``_generators``).
The table is keyed by the chart values a generator is built from, so a
chart moved while it lives is read afresh; it is dropped when the call
returns, and nothing is cached between calls.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Sequence

from .cpseries import TruncatedSeries as TS, _sum_products, solve_quadratic
from .stable_graph import StableGraph, edge_of, flip


class DegenerateWord(ValueError):
    """The word has no loxodromic normal form in this chart."""


class FractionalRoot(DegenerateWord):
    """A fixed point has a fractional exponent in the blow-up variable."""


class Moebius:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: TS, b: TS, c: TS, d: TS):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Moebius):
            return NotImplemented
        return [self.a, self.b, self.c, self.d] == \
            [other.a, other.b, other.c, other.d]

    def __matmul__(self, o: "Moebius") -> "Moebius":
        (a, b, c, d), (p, q, r, s) = (m._entries(self.a) for m in (self, o))
        return Moebius(self._dot(a, p, b, r), self._dot(a, q, b, s),
                       self._dot(c, p, d, r), self._dot(c, q, d, s))

    def det(self) -> TS:
        a, b, c, d = self._entries(self.a)
        return self._dot(a, d, b, c, -1)

    def _entries(self, ring: TS) -> list[TS]:
        """The four entries, each checked to lie in ``ring``."""
        for x in (self.a, self.b, self.c, self.d):
            ring._check_compat(x)
        return [self.a, self.b, self.c, self.d]

    def _dot(self, w: TS, x: TS, y: TS, z: TS, sign: int = 1) -> TS:
        """``w*x + sign*y*z`` as one capped sum over the entries'
        numerators."""
        prods = [(w.nums, x.nums, w.den * x.den),
                 (y.nums, z.nums, sign * y.den * z.den)]
        return w._with(*_sum_products(prods, w._bound()))

    def _fixes(self, z: TS) -> bool:
        """Whether the map fixes ``z`` exactly: ``a z + b - z (c z + d)``
        vanishes.  By Horner's rule it is ``((a - d) - c z) z + b``, two
        capped sums over the entries' numerators, neither reduced."""
        a, b, c, d = self._entries(z)
        one, bound = {0: 1}, z._bound()
        inner, den = _sum_products([(a.nums, one, a.den),
                                    (d.nums, one, -d.den),
                                    (c.nums, z.nums, -c.den * z.den)], bound)
        acc, _ = _sum_products([(inner, z.nums, den * z.den),
                                (b.nums, one, b.den)], bound)
        return not any(acc.values())

    def trace(self) -> TS:
        return self.a + self.d

    def adjugate(self) -> "Moebius":
        """Projective inverse: ``M @ M.adjugate() = det(M) * Id``."""
        return Moebius(self.d, -self.b, -self.c, self.a)

    def apply(self, z: TS) -> TS:
        """Evaluate the fractional-linear map at a series point.

        When the denominator vanishes at the origin but is a monomial
        times a unit, and the numerator shares that monomial (the point
        approaches the pole no faster than it must), the common factor
        cancels exactly; the result loses that much truncation order.
        """
        num = self.a * z + self.b
        den = self.c * z + self.d
        if den.is_unit():
            return num * den.invert()
        low = den.lowest_part()
        if len(low.terms) != 1:
            raise DegenerateWord("image of point is not a series")
        (exp,) = low.terms
        num = num.divide_monomial(exp)
        den = den.divide_monomial(exp)
        if not den.is_unit():
            raise DegenerateWord("image of point is not a series")
        return num * den.invert()


def _as_series(x, vars: tuple[str, ...], trunc: int) -> TS:
    if isinstance(x, TS):
        if x.vars != vars or x.trunc != trunc:
            raise ValueError("series chart value has wrong ring")
        return x
    return TS.constant(Fraction(x), vars, trunc)


def edge_moebius(x_h, x_mh, y: TS) -> Moebius:
    """Normal form for one half-edge.

    ``x_h`` / ``x_mh`` are the target / source branch coordinates, each a
    rational, a series, or ``None`` for the point at infinity; ``y`` is
    the edge parameter as a series.
    """
    vars, trunc = y.vars, y.trunc
    one = TS.constant(1, vars, trunc)
    zero = TS.constant(0, vars, trunc)
    if x_h is None and x_mh is None:
        raise DegenerateWord("both endpoints at infinity")
    if x_h is None:
        return Moebius(one, -_as_series(x_mh, vars, trunc), zero, y)
    if x_mh is None:
        return Moebius(y, _as_series(x_h, vars, trunc), zero, one)
    xh = _as_series(x_h, vars, trunc)
    xm = _as_series(x_mh, vars, trunc)
    return Moebius(xh, -(xh * xm) + y, one, -xm)


def word_vars(word: Sequence[str]) -> tuple[str, ...]:
    """Edge-parameter variables appearing in a word, in canonical order."""
    return tuple(sorted({edge_of(h) for h in word}))


def phi_matrix(graph: StableGraph, h: str, vars: tuple[str, ...],
               trunc: int) -> Moebius:
    """Generator matrix for half-edge ``h`` in the graph's chart, over
    the edge-parameter variables ``vars``."""
    if graph.chart is None:
        raise ValueError("graph has no chart")
    e = edge_of(h)
    if e not in vars:
        raise ValueError(f"variable ring misses edge {e}")
    y = TS.variable(e, vars, trunc)
    return edge_moebius(graph.chart.x(h), graph.chart.x(flip(h)), y)


def _generator(graph: StableGraph, h: str, vars: tuple[str, ...],
               trunc: int, table: dict | None) -> Moebius:
    """:func:`phi_matrix`, kept in ``table`` (when given) under the chart
    values and ring it is built from."""
    if table is None or graph.chart is None:
        return phi_matrix(graph, h, vars, trunc)
    key = h, graph.chart.x(h), graph.chart.x(flip(h)), vars, trunc
    m = table.get(key)
    if m is None:
        m = table[key] = phi_matrix(graph, h, vars, trunc)
    return m


def word_matrix(graph: StableGraph, word: Sequence[str],
                vars: tuple[str, ...], trunc: int, *,
                _generators: dict | None = None) -> Moebius:
    """Matrix of the composite map along a reduced path (applied left to
    right, so the first step's matrix sits rightmost), over the
    edge-parameter variables ``vars``."""
    if not word:
        raise ValueError("empty word")
    graph.check_path(word, closed=False, reduced=True)
    m = _generator(graph, word[0], vars, trunc, _generators)
    for h in word[1:]:
        m = _generator(graph, h, vars, trunc, _generators) @ m
    return m


class FixedPointData:
    def __init__(self, word: list[str], matrix: Moebius, trace: TS,
                 det: TS, x: TS, x_prime: TS, beta: TS):
        self.word, self.matrix, self.trace, self.det = word, matrix, trace, det
        self.x = x                  # unit eigenvalue
        self.x_prime = x_prime      # complementary eigenvalue (positive order)
        self.beta = beta            # multiplier x_prime / x
        self.alpha: TS | None = None        # attractive fixed point
        self.alpha_prime: TS | None = None  # repulsive fixed point


def require_cyclically_reduced(graph: StableGraph,
                               word: Sequence[str]) -> None:
    """Raise unless ``word`` is a closed, cyclically reduced path."""
    graph.check_path(word, closed=True, reduced=True)
    if len(word) >= 2 and word[0] == flip(word[-1]):
        raise DegenerateWord("word is not cyclically reduced")


def multiplier_data(graph: StableGraph, word: Sequence[str],
                    trunc: int = 6, *,
                    _generators: dict | None = None) -> FixedPointData:
    """Eigenvalue split and multiplier of a closed cyclically reduced word.

    The trace is a unit exactly because the word is cyclically reduced
    and the chart is generic; the two eigenvalues are separated by their
    orders (unit vs. positive order) and the multiplier is their ratio.
    The determinant is the monomial ``+-prod y_e^mult``, so ``u = 1/x``
    is the root of ``det u^2 - tr u + 1`` at ``1/tr(0)``, with divisor
    ``-tr(0)``; then ``x' = det u``, ``x = tr - x'``, ``beta = x' u``.
    """
    require_cyclically_reduced(graph, word)
    vars = word_vars(word)
    m = word_matrix(graph, word, vars, trunc, _generators=_generators)
    tr = m.trace()
    t0 = tr.constant_term()
    if t0 == 0:
        raise DegenerateWord("trace vanishes at the origin")
    det = m.det()
    u = solve_quadratic(det, -tr, TS.constant(1, vars, trunc), 1 / t0)
    x_prime = det * u
    return FixedPointData(list(word), m, tr, det, tr - x_prime, x_prime,
                          x_prime * u)


def fixed_points_multiplier(graph: StableGraph, word: Sequence[str],
                            trunc: int = 6, *,
                            _generators: dict | None = None
                            ) -> FixedPointData:
    """Multiplier plus attractive/repulsive fixed points as series, seeded
    at the chart coordinates of ``x_{h_last}`` and ``x_{-h_first}``:
    ``alpha = (x - d)/c`` and ``alpha' = (x' - d)/c``, since ``c z + d``
    is the eigenvalue of the eigenvector ``(z, 1)`` (module docstring).
    """
    data = multiplier_data(graph, word, trunc, _generators=_generators)
    m = data.matrix
    seeds = chart_seeds(graph, word, m.c.vars, trunc)
    if not m.c.is_unit():
        raise DegenerateWord("word matrix has c(0) = 0")
    c_inv = m.c.invert()
    roots = [(lam - m.d) * c_inv for lam in (data.x, data.x_prime)]
    if any((z - q).constant_term() for z, q in zip(roots, seeds)):
        raise DegenerateWord("fixed points miss their chart seeds")
    data.alpha, data.alpha_prime = roots
    return data


def chart_seeds(graph: StableGraph, word: Sequence[str],
                vars: tuple[str, ...], trunc: int) -> tuple[TS, TS]:
    """Chart coordinates of ``x_{h_last}`` and ``x_{-h_first}``, which
    must be finite (re-chart the graph otherwise)."""
    seeds = graph.chart.x(word[-1]), graph.chart.x(flip(word[0]))
    if None in seeds:
        raise DegenerateWord("fixed point at infinity in this chart")
    return tuple(TS.constant(x, vars, trunc) for x in seeds)


def fixed_points(matrix: Callable[[int], Moebius], seeds: tuple[TS, TS],
                 trunc: int, s: str | None = None) -> tuple[TS, TS]:
    """Attractive and repulsive fixed points, exact to degree ``trunc``:
    the roots of ``c z^2 + (d - a) z - b`` for ``matrix(tr)``, the word
    matrix exact to degree ``tr``, with the constant terms of ``seeds``.
    Only the first is solved; the second is ``-a1/a2 - z1`` (Vieta), so
    ``a2`` must be a unit: neither fixed point lies at infinity.

    With ``s``, one Newton–Puiseux loop in ``s`` (Walker, *Algebraic
    Curves*, 1950, ch. IV; Duval, Compositio Math. 70, 1989) divides out
    the common ``s``-order k of the coefficients (a proper power M^n =
    U M + V I shares U, which may vanish with ``s``), then, while the
    seeds' coefficients of ``s^0, s^1, ...`` meet at ``r``, blows up
    ``z = r + s Z`` and moves them to ``(seed - r) / s``.  That costs k
    and two degrees per blow-up: the matrix is rebuilt as much higher.
    A Newton-polygon edge of half-integer slope raises
    :class:`FractionalRoot`.
    """
    pivot = tuple(int(v == s) for v in seeds[0].vars)

    def coeff(seed: TS, j: int) -> Fraction:
        return seed.coefficient(tuple(j * e for e in pivot))

    meets, last = 0, min(q.trunc for q in seeds)  # blow-ups to come
    while s is not None and meets <= last and \
            coeff(seeds[0], meets) == coeff(seeds[1], meets):
        meets += 1
    tr = trunc + 2 * meets
    while True:
        m = matrix(tr)
        quad = (m.c, m.d - m.a, -m.b)
        k = 0 if s is None else min(q.ideal_order((s,)) for q in quad)
        if k == math.inf:
            raise DegenerateWord("word matrix is scalar to this order")
        # orders at a higher truncation only drop: one rebuild at most
        if tr - k - 2 * meets >= trunc:
            break
        tr = trunc + k + 2 * meets
    if k:
        quad = tuple(q.divide_monomial(tuple(k * e for e in pivot))
                     for q in quad)
    shifts = [coeff(seeds[0], j) for j in range(meets)]
    for r in shifts:
        a2, a1, a0 = quad
        f1, f0 = 2 * (a2 * r) + a1, (a2 * r + a1) * r + a0
        v2, v1, v0 = (q.ideal_order((s,)) for q in (a2, f1, f0))
        if max(v2, v0) < math.inf and 2 * v1 > v0 + v2 and (v0 - v2) % 2:
            raise FractionalRoot(f"a fixed point is a series in {s}^(1/2)")
        if v1 < 1 or v0 < 2:
            raise DegenerateWord(f"fixed points do not separate along {s}")
        deg = a2.trunc - 2
        quad = (a2.truncate(deg), f1.divide_monomial(pivot).truncate(deg),
                f0.divide_monomial(tuple(2 * e for e in pivot)))
    if meets > last:
        raise DegenerateWord("fixed-point seeds agree to their degree")
    if not quad[0].is_unit():
        raise DegenerateWord("a fixed point lies at infinity")
    z = simple_root(*quad, coeff(seeds[0], meets))
    roots = [z, -(quad[1] * quad[0].invert()) - z]
    if roots[1].constant_term() != coeff(seeds[1], meets):
        raise DegenerateWord("the second fixed point misses its seed")
    for r in reversed(shifts):
        roots = [TS.variable(s, z.vars, z.trunc) * z + r for z in roots]
    return roots[0].truncate(trunc), roots[1].truncate(trunc)


def simple_root(a2: TS, a1: TS, a0: TS, root0: Fraction) -> TS:
    """:func:`solve_quadratic`, with a seed that is not a simple root
    (a double root, or no root at all) raised as :class:`DegenerateWord`."""
    try:
        return solve_quadratic(a2, a1, a0, root0)
    except (ZeroDivisionError, ValueError) as exc:
        raise DegenerateWord(f"fixed point {root0} is not a simple root "
                             "of the word's quadratic") from exc


def verify_word(graph: StableGraph, word: Sequence[str],
                trunc: int = 6, *, _generators: dict | None = None) -> dict:
    """Check the normal-form predictions for one closed word.

    * ``alpha``: the attractive fixed point differs from the incoming
      branch coordinate by a multiple of the last edge's parameter;
    * ``alpha_prime``: symmetrically, by a multiple of the first edge's;
    * ``beta``: the multiplier's lowest part is a single monomial whose
      exponent vector is the edge multiplicity of the word;
    * ``residual``: both fixed points are exactly fixed by the word map.

    The multiplier of a word of length L starts in degree L, so a
    truncation below L raises ValueError.
    """
    if trunc < len(word):
        raise ValueError(f"truncation {trunc} is below the word length "
                         f"{len(word)}, where the multiplier starts")
    data = fixed_points_multiplier(graph, word, trunc,
                                   _generators=_generators)
    vars = data.x.vars
    last_edge = edge_of(word[-1])
    first_edge = edge_of(word[0])
    xa, xr = chart_seeds(graph, word, vars, trunc)
    da = data.alpha - xa
    dr = data.alpha_prime - xr
    ord_a = da.ideal_order((last_edge,))
    ord_r = dr.ideal_order((first_edge,))
    mult = Counter(map(edge_of, word))
    low = data.beta.lowest_part()
    expect_exp = tuple(mult.get(v, 0) for v in vars)
    beta_ok = (len(low.terms) == 1 and expect_exp in low.terms)
    checks = {
        "alpha_divisible": ord_a >= 1,
        "alpha_prime_divisible": ord_r >= 1,
        "beta_monomial": beta_ok,
        "residual": (data.matrix._fixes(data.alpha)
                     and data.matrix._fixes(data.alpha_prime)),
        "eigen_split": (data.x * data.x_prime - data.det).is_zero(),
    }
    return {
        "word": list(word),
        "orders": {
            "alpha": ord_a,
            "alpha_prime": ord_r,
            "beta": {e: mult[e] for e in sorted(mult)},
        },
        "checks": checks,
        "pass": all(checks.values()),
    }


def verify_graph(graph: StableGraph, max_len: int = 4,
                 trunc: int = 6) -> dict:
    """Run :func:`verify_word` over every cyclically reduced closed word
    up to the given length (one representative per rotation class),
    each generator built once per ring for all of them."""
    words = graph.closed_words(max_len)
    table: dict = {}
    reports = [verify_word(graph, w, trunc, _generators=table)
               for w in words]
    return {
        "type": list(graph.gn_type()),
        "n_words": len(reports),
        "pass": all(r["pass"] for r in reports),
        "words": reports,
    }
