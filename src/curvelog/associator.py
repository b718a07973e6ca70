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
returns the transport as a complex-coefficient series.  It is the only
code in the package that needs numpy and scipy; they are imported on
its first call, so the exact layers and the CLI run on the standard
library alone.  Conventions:

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
                  local_order: int = 16, rtol: float = 1e-12,
                  atol: float = 1e-14, src_tangential: bool = True,
                  dst_tangential: bool = True) -> NCSeries:
    """Regularized transport of ``d - sum_p R_p/(z-p) dz`` from ``src``
    to ``dst`` along the straight segment, as a complex series.

    A tangential endpoint must be a pole; its regularized frame is the
    local solution ``H(t) t^X`` in the scaled coordinate.  A plain
    endpoint must not be a pole; the transport starts (or ends) with
    the identity there.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

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
    any_r = next(iter(points.values()))
    alphabet, trunc, ring = any_r.alphabet, any_r.trunc, any_r.ring
    for r in points.values():
        _nilpotent_check(r)
        if (r.alphabet, r.trunc) != (alphabet, trunc):
            raise ValueError("residues live in different algebras")

    seg = dst - src
    length = abs(seg)
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

    # left-multiplication tables per pole
    tables = {}
    for p, r in points.items():
        ops = []
        for rw, c in r.terms.items():
            pairs = [(index[u], index[rw + u])
                     for u in words if len(rw) + len(u) <= trunc]
            ops.append((complex(c), pairs))
        tables[p] = ops

    def vec_of(series: NCSeries) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        for w, c in series.terms.items():
            v[index[w]] = c
        return v

    def series_of(v: np.ndarray) -> NCSeries:
        return NCSeries(alphabet, trunc, ring,
                        {w: complex(v[i]) for w, i in index.items()
                         if abs(v[i]) > 0.0})

    def rhs(s: float, v: np.ndarray) -> np.ndarray:
        z = src + s * direction
        out = np.zeros(dim, dtype=complex)
        for p, ops in tables.items():
            f = direction / (z - p)
            for c, pairs in ops:
                cf = c * f
                for iu, iw in pairs:
                    out[iw] += cf * v[iu]
        return out

    def boundary(point: complex, scale: float) -> tuple[NCSeries, NCSeries]:
        x = points[point]
        others = sorted((p for p in points if p != point),
                        key=lambda p: (p.real, p.imag))
        bs = []
        for j in range(local_order):
            b = NCSeries.zero(alphabet, trunc, ring)
            for q in others:
                base = point - q if point == src else q - point
                b = b + points[q].scale(complex((-1) ** j / base ** (j + 1)))
            bs.append(b)
        hs = _local_expansion(x, bs, local_order)
        t0 = delta * direction
        h_val = _eval_poly(hs, t0)
        log_t = cmath.log(t0 / scale)
        frame = x.scale(complex(log_t)).exp()
        return h_val, frame

    # source normalization H(t0) t0^{X}, with t = z - src
    if src_tangential:
        h_src, frame_src = boundary(src, scale_src)
        start = h_src * frame_src
        s_lo = delta
    else:
        start = NCSeries.unit(alphabet, trunc, ring)
        s_lo = 0.0
    s_hi = length - delta if dst_tangential else length

    sol = solve_ivp(rhs, (s_lo, s_hi), vec_of(start),
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"transport integration failed: {sol.message}")
    g_end = series_of(sol.y[:, -1])

    if not dst_tangential:
        return g_end
    # destination normalization in the coordinate u = dst - z
    h_dst, frame_dst = boundary(dst, scale_dst)
    return frame_dst.invert() * h_dst.invert() * g_end
