"""The flat-connection associator and a numeric transport oracle.

``kz_associator`` builds the regularized transport series of the
two-point logarithmic connection ``d - (X0/z + X1/(z-1)) dz`` from 0 to
1 with unit tangential frames: the coefficient of a word is the
shuffle-regularized zeta value of that word (letters read left =
endpoint 1), with a sign per occurrence of the second letter.

``ode_transport`` is the independent numeric oracle: it integrates the
same connection (any finite set of first-order poles with nilpotent
residue series) along a straight segment with high-order local
expansions at both endpoints to realize the regularized limits, and
returns the transport as a complex-coefficient series.  Between the
endpoint frames a Taylor stepper does the integration: the connection
raises word length, so on the truncation every coefficient is a finite
iterated integral of the ``1/(z - p)``, analytic away from the poles
(Chen, "Iterated path integrals", Bull. AMS 83, 1977).  The frames and
the stepper both work on dense lists of ``complex`` over the words;
``NCSeries`` serves only to read the residues and to hold the result,
so the oracle runs no arithmetic of the exact layers it checks, and the
whole oracle needs only the standard library.  Conventions:

* the local coordinate at the source is ``(z - src) / scale_src`` and
  the one at the destination is ``(dst - z) / scale_dst``;
* logarithms are principal; paths in the tests run along directions
  where the arguments stay on the positive real axis.
"""
from __future__ import annotations

import cmath
from itertools import product as iter_product

from .constants import CONSTANTS, ConstantCombination
from .ncseries import NCSeries
from .regularize import reg_value

_ASSOC_CACHE: dict[int, NCSeries] = {}
_MAX_ORDER = 400
_LOCAL_ORDER = 16    # terms of a tangential frame's local series


def kz_associator(trunc: int) -> NCSeries:
    """Transport series from 0 to 1 in the letters ``X0``, ``X1``;
    coefficients are exact period symbols."""
    cached = _ASSOC_CACHE.get(trunc)
    if cached is not None:
        return cached
    terms: dict[tuple[int, ...], ConstantCombination] = {
        (): ConstantCombination.one()}
    for n in range(1, trunc + 1):
        for w in iter_product((0, 1), repeat=n):
            val = reg_value(w)
            if sum(w) % 2:
                val = -val
            if val:
                terms[w] = val
    out = NCSeries(("X0", "X1"), trunc, CONSTANTS, terms)
    _ASSOC_CACHE[trunc] = out
    return out


# ---------------------------------------------------------------------------
# numeric oracle


def _nilpotent_check(series: NCSeries) -> None:
    if series.ring.name != "complex":
        raise ValueError("residues must have complex coefficients")
    if series.order() < 1 and not series.is_zero():
        raise ValueError("residue series has a constant term")


def ode_transport(residues: dict[complex, NCSeries], src: complex,
                  dst: complex, *, scale_src: float = 1.0,
                  scale_dst: float = 1.0, delta: float = 0.05,
                  tol: float = 1e-16,
                  src_tangential: bool = True,
                  dst_tangential: bool = True) -> NCSeries:
    """Regularized transport of ``d - sum_p R_p/(z-p) dz`` from ``src``
    to ``dst`` along the straight segment, as a complex series.

    A tangential endpoint must be a pole; its regularized frame is the
    local solution ``H(t) t^X`` in the scaled coordinate, evaluated at
    distance ``delta`` from the pole.  A plain endpoint must not be a
    pole; the transport starts (or ends) with the identity there.
    ``ValueError`` is raised when there are no residues, when ``src ==
    dst``, when ``delta <= 0``, and when the frames leave no segment:
    ``delta`` at least the length with one tangential end, at least half
    of it with two.

    Both frames are dense vectors over the words.  The coefficients of
    ``H`` come order by order from ``m H_m - [x, H_m] = sum_j b_j
    H_{m-1-j}``, with ``(m - ad_x)`` inverted by its finite series, and
    ``H(t0)`` is summed as they come; ``t0^x`` is a truncated
    exponential, and the destination applies ``H(t0)^-1`` by forward
    substitution.  ``H`` is summed through ``t^16`` (``_LOCAL_ORDER``),
    a fixed order that no tail bound derives.  It is the oracle's
    largest float error: on the one-edge (0,4) tail transport at words 3
    with ``delta = y/4`` the result moves by 4.3e-11 at y = 1/64
    (2.7e-11 at y = 1/16) when ``H`` is summed through ``t^40`` instead,
    far above ``tol``, and order 40 adds about 9 ms to a call of 20-28
    ms (one CPU of a 2-core x86-64 VM, CPython 3.11.7).

    Between the frames a Taylor stepper integrates ``G' = sum_p f_p R_p
    G``, ``f_p = direction / (z - p)``, in the arc length ``s``.  Each
    step expands at the current point ``z0`` and goes ``h = min(rho/2,
    s_end - s)``, where ``rho`` is the distance from ``z0`` to the
    nearest pole, so the terms shrink roughly like ``2^-m``.  With
    ``b_p = h * direction / (z0 - p)`` and ``G(s + h u) = sum_m g_m
    u^m``, the order-``m`` partial convolutions ``S_{p,m} = b_p (g_m -
    S_{p,m-1})`` give ``g_{m+1} = sum_p R_p S_{p,m} / (m + 1)``.  The
    order grows until two consecutive terms ``g_m`` have every
    coefficient below ``tol`` in absolute value; a step that needs more
    than 400 orders raises ``RuntimeError``.
    """
    points = {complex(p): r for p, r in residues.items()}
    src, dst = complex(src), complex(dst)
    if src_tangential and src not in points:
        raise ValueError("tangential src must carry a residue")
    if dst_tangential and dst not in points:
        raise ValueError("tangential dst must carry a residue")
    if not src_tangential and src in points:
        raise ValueError("plain src sits on a pole")
    if not dst_tangential and dst in points:
        raise ValueError("plain dst sits on a pole")
    if not points:
        raise ValueError("no residues")
    any_r = next(iter(points.values()))
    alphabet, trunc, ring = any_r.alphabet, any_r.trunc, any_r.ring
    for r in points.values():
        _nilpotent_check(r)
        if (r.alphabet, r.trunc) != (alphabet, trunc):
            raise ValueError("residues live in different algebras")

    seg = dst - src
    length = abs(seg)
    if length == 0:
        raise ValueError("src and dst coincide")
    if not delta > 0:
        raise ValueError("delta must be positive")
    ends = src_tangential + dst_tangential
    if delta * ends >= length:
        raise ValueError("delta leaves no segment to integrate")
    direction = seg / length
    for p in points:
        if p in (src, dst):
            continue
        # reject poles on the open segment
        s = ((p - src) / direction).real
        off = abs(p - (src + s * direction))
        if 0 < s < length and off < 1e-12 * length:
            raise ValueError(f"pole {p} lies on the integration segment")

    words: list[tuple[int, ...]] = [()]
    for n in range(1, trunc + 1):
        words.extend(iter_product(range(len(alphabet)), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    unit = [1 + 0j] + [0j] * (dim - 1)
    # the (prefix, suffix) index pairs of every split of each word, the
    # empty prefix first; words come by length, so every other suffix
    # precedes its word
    cuts = [[(index[w[:a]], index[w[a:]]) for a in range(len(w) + 1)]
            for w in words]

    def mul_table(r: NCSeries, left: bool = True) -> tuple[int, list]:
        """Multiplication by ``r`` from the left (or the right): how many
        leading words ``u`` it reads, and per term ``c rw`` of ``r`` the
        pairs (index of u, index of rw u, or of u rw)."""
        ops = [(complex(c), [(i, index[rw + u if left else u + rw])
                             for i, u in enumerate(words)
                             if len(rw) + len(u) <= trunc])
               for rw, c in r.terms.items()]
        return max((len(pairs) for _, pairs in ops), default=0), ops

    def mul_into(out: list, table: tuple, v: list) -> None:
        """Add ``r v`` to ``out``, for the multiplier ``r`` of ``table``;
        ``v`` needs only the words the table reads."""
        for c, pairs in table[1]:
            for iu, iw in pairs:
                out[iw] += c * v[iu]

    def mul(a: list, b: list) -> list:
        """The truncated product ``a b`` of two dense vectors."""
        return [sum(a[i] * b[j] for i, j in cut) for cut in cuts]

    def exp(y: list) -> list:
        """``exp(y)`` for ``y`` without constant term."""
        out, power = list(unit), unit
        for n in range(1, trunc + 1):
            power = [v / n for v in mul(power, y)]
            out = [a + b for a, b in zip(out, power)]
        return out

    def solve(h: list, g: list) -> list:
        """``h^-1 g`` for ``h`` with constant term one, by forward
        substitution over the words."""
        v: list[complex] = []
        for k, cut in enumerate(cuts):
            v.append(g[k] - sum(h[i] * v[j] for i, j in cut[1:]))
        return v

    tables = {p: mul_table(r) for p, r in points.items()}

    def step(g: list[complex], z0: complex, h: float) -> list[complex]:
        # g(s + h) = sum_m g_m with g_0 = g; acc[p] holds S_{p,m}
        bs = [(h * direction / (z0 - p), table)
              for p, table in tables.items()]
        accs = [[0j] * table[0] for _, table in bs]
        term, total = g, list(g)
        small = 0
        for m in range(1, _MAX_ORDER + 1):
            nxt = [0j] * dim
            for k, (b, table) in enumerate(bs):
                acc = accs[k] = [b * (t - a) for t, a in zip(term, accs[k])]
                mul_into(nxt, table, acc)
            inv = 1.0 / m
            term = [x * inv for x in nxt]
            total = [x + t for x, t in zip(total, term)]
            small = small + 1 if max(map(abs, term)) < tol else 0
            if small == 2:
                return total
        raise RuntimeError(
            f"transport integration failed: no convergence at z = {z0} "
            f"within {_MAX_ORDER} orders")

    def boundary(point: complex, scale: float, sign: float
                 ) -> tuple[list, list]:
        """``H(t0)`` and ``t0^(sign x)`` at ``point``, ``x`` its residue
        and ``t0 = delta * direction``, where ``H(t) t^x`` solves ``H' =
        [x, H]/t + B(t) H``."""
        x = points[point]
        reads, ops = mul_table(x, left=False)
        minus_right = reads, [(-c, pairs) for c, pairs in ops]
        # B(t) = sum_q R_q sum_j c_{q,j} t^j, from R_q / (z - q)
        poles = []
        for q in sorted((p for p in points if p != point),
                        key=lambda p: (p.real, p.imag)):
            base = point - q if point == src else q - point
            poles.append((tables[q], [(-1) ** j / base ** (j + 1)
                                      for j in range(_LOCAL_ORDER)]))
        t0 = delta * direction
        hs, h_val, tp = [unit], list(unit), 1 + 0j
        for m in range(1, _LOCAL_ORDER + 1):
            # m H_m - [x, H_m] = sum_q R_q sum_j c_{q,j} H_{m-1-j}
            rhs = [0j] * dim
            for table, cs in poles:
                comb = [0j] * table[0]
                for c, h in zip(cs, reversed(hs)):
                    comb = [a + c * v for a, v in zip(comb, h)]
                mul_into(rhs, table, comb)
            # invert (m - ad_x) by its series; ad_x is nilpotent
            inv = power = 1.0 / m
            cur, h_m = rhs, [v * inv for v in rhs]
            while True:
                nxt = [0j] * dim
                mul_into(nxt, tables[point], cur)
                mul_into(nxt, minus_right, cur)
                if not any(nxt):
                    break
                power *= inv
                h_m = [a + power * v for a, v in zip(h_m, nxt)]
                cur = nxt
            hs.append(h_m)
            tp *= t0
            h_val = [a + tp * v for a, v in zip(h_val, h_m)]
        log_t = sign * cmath.log(t0 / scale)
        y = [0j] * dim
        for w, c in x.terms.items():
            y[index[w]] = log_t * c
        return h_val, exp(y)

    # source normalization H(t0) t0^{X}, with t = z - src
    if src_tangential:
        g = mul(*boundary(src, scale_src, 1.0))
        s = delta
    else:
        g = unit
        s = 0.0
    s_hi = length - delta if dst_tangential else length

    last = False
    while not last:
        z0 = src + s * direction
        h = min(abs(z0 - p) for p in points) / 2
        last = h >= s_hi - s
        if last:
            h = s_hi - s
        g = step(g, z0, h)
        s += h

    if dst_tangential:
        # destination normalization in the coordinate u = dst - z
        h_dst, frame_inv = boundary(dst, scale_dst, -1.0)
        g = mul(frame_inv, solve(h_dst, g))
    return NCSeries(alphabet, trunc, ring,
                    {w: g[i] for w, i in index.items() if g[i]})
