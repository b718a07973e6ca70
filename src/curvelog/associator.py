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
endpoint frames a Taylor stepper on plain lists of ``complex`` does the
integration: the connection raises word length, so on the truncation
every coefficient is a finite iterated integral of the ``1/(z - p)``,
analytic away from the poles (Chen, "Iterated path integrals", Bull.
AMS 83, 1977).  The stepper uses no code of the exact layers, and the
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


def _local_expansion(x: NCSeries, bs: list[NCSeries], order: int) -> list[NCSeries]:
    """Coefficients ``H_m`` of the regular factor ``H`` of a local
    solution ``H(t) t^x`` of ``H' = [x, H]/t + B(t) H``."""
    hs = [NCSeries.unit(x.alphabet, x.trunc, x.ring)]
    for m in range(1, order + 1):
        rhs = NCSeries.zero(x.alphabet, x.trunc, x.ring)
        for j in range(min(m, len(bs))):
            rhs = rhs + bs[j] * hs[m - 1 - j]
        # invert (m - ad_x); ad_x is nilpotent on the truncation
        h_m = NCSeries.zero(x.alphabet, x.trunc, x.ring)
        cur = rhs
        mm = complex(m)
        power = 1.0 / mm
        while not cur.is_zero():
            h_m = h_m + cur.scale(complex(power))
            cur = x.bracket(cur)
            power /= mm
        hs.append(h_m)
    return hs


def _eval_poly(hs: list[NCSeries], t: complex) -> NCSeries:
    out = NCSeries.zero(hs[0].alphabet, hs[0].trunc, hs[0].ring)
    tp = 1.0 + 0j
    for h in hs:
        out = out + h.scale(complex(tp))
        tp *= t
    return out


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

    ``H`` is summed through ``t^16`` (``_LOCAL_ORDER``), a fixed order
    that no tail bound derives.  It is the oracle's largest float error:
    on the one-edge (0,4) tail transport at words 3 with ``delta = y/4``
    the result moves by 4.3e-11 at y = 1/64 (2.7e-11 at y = 1/16) when
    ``H`` is summed through ``t^40`` instead, far above ``tol``, and
    order 40 doubles the cost of a call.

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

    # left-multiplication tables per pole: the words ``u`` it reads,
    # and per residue term the pairs (position of u, index of rw + u)
    tables = {}
    for p, r in points.items():
        reads = sorted({index[u] for rw in r.terms for u in words
                        if len(rw) + len(u) <= trunc})
        pos = {i: j for j, i in enumerate(reads)}
        ops = []
        for rw, c in r.terms.items():
            pairs = [(pos[index[u]], index[rw + u])
                     for u in words if len(rw) + len(u) <= trunc]
            ops.append((complex(c), pairs))
        tables[p] = (reads, ops)

    def vec_of(series: NCSeries) -> list[complex]:
        v = [0j] * dim
        for w, c in series.terms.items():
            v[index[w]] = c
        return v

    def series_of(v: list[complex]) -> NCSeries:
        return NCSeries(alphabet, trunc, ring,
                        {w: v[i] for w, i in index.items() if v[i]})

    def step(g: list[complex], z0: complex, h: float) -> list[complex]:
        # g(s + h) = sum_m g_m with g_0 = g; acc[p] holds S_{p,m}
        bs = [(h * direction / (z0 - p), reads, ops)
              for p, (reads, ops) in tables.items()]
        accs = [[0j] * len(reads) for _, reads, _ in bs]
        term, total = g, list(g)
        small = 0
        for m in range(1, _MAX_ORDER + 1):
            nxt = [0j] * dim
            for k, (b, reads, ops) in enumerate(bs):
                acc = accs[k] = [b * (term[i] - a)
                                 for i, a in zip(reads, accs[k])]
                for c, pairs in ops:
                    for iu, iw in pairs:
                        nxt[iw] += c * acc[iu]
            inv = 1.0 / m
            term = [x * inv for x in nxt]
            total = [x + t for x, t in zip(total, term)]
            small = small + 1 if max(map(abs, term)) < tol else 0
            if small == 2:
                return total
        raise RuntimeError(
            f"transport integration failed: no convergence at z = {z0} "
            f"within {_MAX_ORDER} orders")

    def boundary(point: complex, scale: float) -> tuple[NCSeries, NCSeries]:
        x = points[point]
        others = sorted((p for p in points if p != point),
                        key=lambda p: (p.real, p.imag))
        bs = []
        for j in range(_LOCAL_ORDER):
            b = NCSeries.zero(alphabet, trunc, ring)
            for q in others:
                base = point - q if point == src else q - point
                b = b + points[q].scale(complex((-1) ** j / base ** (j + 1)))
            bs.append(b)
        hs = _local_expansion(x, bs, _LOCAL_ORDER)
        t0 = delta * direction
        h_val = _eval_poly(hs, t0)
        log_t = cmath.log(t0 / scale)
        frame = x.scale(complex(log_t)).exp()
        return h_val, frame

    # source normalization H(t0) t0^{X}, with t = z - src
    if src_tangential:
        h_src, frame_src = boundary(src, scale_src)
        start = h_src * frame_src
        s = delta
    else:
        start = NCSeries.unit(alphabet, trunc, ring)
        s = 0.0
    s_hi = length - delta if dst_tangential else length

    g = vec_of(start)
    last = False
    while not last:
        z0 = src + s * direction
        h = min(abs(z0 - p) for p in points) / 2
        last = h >= s_hi - s
        if last:
            h = s_hi - s
        g = step(g, z0, h)
        s += h
    g_end = series_of(g)

    if not dst_tangential:
        return g_end
    # destination normalization in the coordinate u = dst - z
    h_dst, frame_dst = boundary(dst, scale_dst)
    return frame_dst.invert() * h_dst.invert() * g_end
