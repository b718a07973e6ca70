"""Deformation expansion of transport through a plumbing neck.

A tree edge joins two three-marked lines glued by ``xi * xi' = y``.  At
``y = 0`` the tail-to-tail transport factors into two associators and
the neck power ``y^X``; at small nonzero ``y`` each factor picks up
corrections whose coefficients are power series in ``y``.  This module
computes those corrections exactly, order by order, by comparing the
true connection with its limit model in three zones:

* the destination zone ``[a, 1]``, against the model with the neck
  collapsed to a single pole at 0, in the frame of the destination;
* the annulus ``[y/c, a]``, against the pure ``X/w`` model;
* the source zone (child chart) ``[c, 1]``, mirror of the first.

Each comparison is an ordered exponential of an explicit kernel whose
terms are monomials ``w^p log(w)^q`` with series coefficients, so the
iterated integrals close under antidifferentiation and evaluate at the
cut points in closed form.  The cut constant ``log(cut)`` is carried
as a formal symbol; in the assembled product it cancels termwise in
the ``y``-constant layer (a built-in consistency check), while at
higher ``y``-degree it recombines with the rational values of the zone
frames at the cut, so there the check is numeric agreement with the
direct integrator.

Coefficients live in the sew ring :data:`SEW`: the same
:class:`~curvelog.logpoly.LogPoly` type that carries monodromy
coefficients, here over the fixed symbols ``("y", "l", "kappa")``, that
is the deformation parameter ``y``, the normalized logarithm ``l =
log(y) / (2 pi i)`` and the cut symbol ``kappa = log(cut)``.  Exponent
tuples are ``(dy, dl, dk)`` in that order.  The assembled transport is
valid for ``0 < y < a * c`` and matches the numeric oracle to
``O(y^(ydeg+1))``.

Frames: unit tangential frames in each chart coordinate; in the global
coordinate of the destination chart the source frame has scale ``y``.
"""
from __future__ import annotations

from cmath import log as _clog
from fractions import Fraction
from math import log as _mlog
from typing import Callable, Mapping

from .associator import kz_associator
from .constants import ConstantCombination
from .logpoly import LogPoly
from .ncseries import COMPLEX, NCSeries, Ring

SEW_VARS = ("y", "l", "kappa")


def _sew_encode(p: LogPoly) -> list:
    return [{"y": dy, "l": dl, "kappa": dk, "coeff": c.to_json()}
            for (dy, dl, dk), c in sorted(p.terms.items())]


def _sew_decode(data: list) -> LogPoly:
    return LogPoly(SEW_VARS, {(d["y"], d["l"], d["kappa"]):
                              ConstantCombination.from_json(d["coeff"])
                              for d in data})


SEW = Ring("sew", LogPoly.zero(SEW_VARS), LogPoly.constant(SEW_VARS, 1),
           lambda q: LogPoly.constant(SEW_VARS, q), _sew_encode, _sew_decode)


_TWO_IPI = ConstantCombination.ipi(1, 2)


# ---------------------------------------------------------------------------
# zone elements: sums of w^p log(w)^q with series coefficients


class Zone:
    """Finite sum of monomials ``w^p log(w)^q`` times a series."""

    __slots__ = ("terms", "proto")

    def __init__(self, proto: NCSeries,
                 terms: Mapping[tuple[int, int], NCSeries] | None = None):
        self.proto = proto
        self.terms: dict[tuple[int, int], NCSeries] = {}
        if terms:
            for k, s in terms.items():
                if not s.is_zero():
                    self.terms[k] = s

    @classmethod
    def const(cls, series: NCSeries) -> "Zone":
        return cls(series, {(0, 0): series})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Zone") -> "Zone":
        terms = dict(self.terms)
        for k, s in other.terms.items():
            cur = terms.get(k)
            cur = s if cur is None else cur + s
            if cur.is_zero():
                terms.pop(k, None)
            else:
                terms[k] = cur
        return Zone(self.proto, terms)

    def __neg__(self) -> "Zone":
        return Zone(self.proto, {k: -s for k, s in self.terms.items()})

    def __sub__(self, other: "Zone") -> "Zone":
        return self + (-other)

    def __mul__(self, other: "Zone") -> "Zone":
        out: dict[tuple[int, int], NCSeries] = {}
        for (p1, q1), s1 in self.terms.items():
            for (p2, q2), s2 in other.terms.items():
                key = (p1 + p2, q1 + q2)
                prod = s1 * s2
                if prod.is_zero():
                    continue
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return Zone(self.proto, out)

    def clean(self, ymax: int) -> "Zone":
        """Drop coefficient terms that cannot reach degree <= ymax.

        Antidifferentiation only raises w-powers, and the bound
        evaluations multiply by ``y^p`` at worst, so a term with
        ``dy + min(p, 0) > ymax`` can never contribute.
        """
        out = {}
        for (p, q), s in self.terms.items():
            bound = ymax - min(p, 0)
            cleaned = s.map_coefficients(lambda c: c.truncate("y", bound),
                                         s.ring)
            if not cleaned.is_zero():
                out[(p, q)] = cleaned
        return Zone(self.proto, out)

    def antiderivative(self) -> "Zone":
        out = Zone(self.proto)
        for (p, q), s in self.terms.items():
            if p == -1:
                out = out + Zone(self.proto, {(0, q + 1): s.scale(
                    Fraction(1, q + 1))})
                continue
            # integrate w^p log^q by parts until the log power is gone
            coeff = Fraction(1, p + 1)
            qq = q
            acc = Zone(self.proto)
            while True:
                acc = acc + Zone(self.proto, {(p + 1, qq): s.scale(coeff)})
                if qq == 0:
                    break
                coeff = -coeff * Fraction(qq, p + 1)
                qq -= 1
            out = out + acc
        return out

    # -- bound evaluation ------------------------------------------------

    def eval_zero(self) -> NCSeries:
        out = NCSeries.zero(self.proto.alphabet, self.proto.trunc,
                            self.proto.ring)
        for (p, q), s in self.terms.items():
            if p > 0:
                continue
            if p == 0 and q == 0:
                out = out + s
                continue
            raise ValueError("zone element is singular at 0")
        return out

    def eval_cut(self, cut_kappa: int = 1) -> NCSeries:
        """Value at ``w = cut`` where ``cut = (1/2)^cut_kappa``;
        ``log w`` becomes ``cut_kappa * kappa``."""
        r = Fraction(1, 2) ** cut_kappa
        out = NCSeries.zero(self.proto.alphabet, self.proto.trunc,
                            self.proto.ring)
        for (p, q), s in self.terms.items():
            factor = LogPoly.monomial(SEW_VARS, (0, 0, q),
                                      Fraction(cut_kappa) ** q * r ** p)
            out = out + s.scale(factor)
        return out

    def eval_y_over_cut(self, cut_kappa: int = 1) -> NCSeries:
        """Value at ``w = y / cut``; ``log w`` becomes
        ``2 pi i l - cut_kappa * kappa`` and ``w^p`` shifts ``y``."""
        c = Fraction(1, 2) ** cut_kappa
        log_w = LogPoly(SEW_VARS, {(0, 1, 0): _TWO_IPI,
                                   (0, 0, 1):
                                   ConstantCombination.rational(-cut_kappa)})
        out = NCSeries.zero(self.proto.alphabet, self.proto.trunc,
                            self.proto.ring)
        for (p, q), s in self.terms.items():
            factor = LogPoly.constant(SEW_VARS, c ** (-p))
            for _ in range(q):
                factor = factor * log_w
            scaled = s.scale(factor)
            out = out + scaled.map_coefficients(lambda cc: cc.shift("y", p),
                                                scaled.ring)
        return out


def log_conjugate(x: NCSeries, zone: Zone, sign: int) -> Zone:
    """Conjugation ``w^(sign * x) . zone . w^(-sign * x)`` as log terms:
    ``exp(sign log(w) ad_x)`` applied termwise."""
    out = Zone(zone.proto)
    for (p, q), s in zone.terms.items():
        cur = s
        fact = Fraction(1)
        j = 0
        while not cur.is_zero():
            out = out + Zone(zone.proto, {(p, q + j): cur.scale(fact)})
            cur = x.bracket(cur)
            j += 1
            fact = fact * sign / j
    return out


def ordered_exp(kernel: Zone, eval_lower: Callable[[Zone], NCSeries],
                eval_upper: Callable[[Zone], NCSeries],
                depth: int, ymax: int) -> NCSeries:
    """Ordered exponential ``I + sum_n int_{lower<t1<..<tn<upper}
    K(tn)..K(t1)`` of a kernel whose terms all raise the word weight."""
    proto = kernel.proto
    unit = NCSeries.unit(proto.alphabet, proto.trunc, proto.ring)
    total = unit
    current = Zone.const(unit)
    for _ in range(depth):
        current = (kernel * current).clean(ymax).antiderivative()
        lower = eval_lower(current)
        current = (current - Zone.const(lower)).clean(ymax)
        if current.is_zero():
            break
        total = total + eval_upper(current)
    return total


# ---------------------------------------------------------------------------
# model solution series


def frame_series(x: NCSeries, tails: list[NCSeries],
                 order: int) -> list[NCSeries]:
    """Coefficients ``H_m`` of the regular factor of ``H(w) w^x`` for
    ``H' = [x, H]/w + B(w) H`` with ``B = sum tails[j] w^j``; exact
    ring-generic version of the numeric boundary expansion."""
    hs = [NCSeries.unit(x.alphabet, x.trunc, x.ring)]
    for m in range(1, order + 1):
        rhs = NCSeries.zero(x.alphabet, x.trunc, x.ring)
        for j in range(min(m, len(tails))):
            rhs = rhs + tails[j] * hs[m - 1 - j]
        h_m = NCSeries.zero(x.alphabet, x.trunc, x.ring)
        cur = rhs
        power = Fraction(1, m)
        while not cur.is_zero():
            h_m = h_m + cur.scale(power)
            cur = x.bracket(cur)
            power /= m
        hs.append(h_m)
    return hs


def _eval_series(hs: list[NCSeries], r: Fraction) -> NCSeries:
    out = NCSeries.zero(hs[0].alphabet, hs[0].trunc, hs[0].ring)
    rp = Fraction(1)
    for h in hs:
        out = out + h.scale(rp)
        rp *= r
    return out


def _binomial_shift(k: int, order: int) -> list[Fraction]:
    """Coefficients of ``(1-s)^(-k-1) = sum binom(k+j, j) s^j``."""
    out = [Fraction(1)]
    for j in range(1, order + 1):
        out.append(out[-1] * Fraction(k + j, j))
    return out


def _mul_trunc(a: NCSeries, b: NCSeries, ymax: int) -> NCSeries:
    return (a * b).map_coefficients(lambda c: c.truncate("y", ymax), a.ring)


# ---------------------------------------------------------------------------
# the dressed neck transport


def dressed_neck_transport(a_res: NCSeries, b_res: NCSeries,
                           c_res: NCSeries, *, ydeg: int,
                           xorder: int = 36, kmax: int = 26,
                           depth: int | None = None) -> NCSeries:
    """Transport from the source tail to the destination tail of a
    two-vertex tree, as a series over the sew ring.

    In the destination chart the punctures sit at 0 (residue ``a_res``,
    the source chart's third marked point), ``y`` (``b_res``, the
    source tail), 1 (``c_res``, the destination tail) and infinity.
    Unit tangential frames in each chart coordinate: the source frame
    has scale ``y`` in the destination chart coordinate.

    Truncation dust: the kernels' deformation tails are cut at
    ``kmax`` and the model series at ``xorder``, so coefficients beyond
    degree 0 in ``y`` carry an error around ``2^-kmax``.
    """
    proto = a_res
    alphabet, trunc, ring = proto.alphabet, proto.trunc, proto.ring
    if ring.name != "sew":
        raise ValueError("residues must live in the sew ring")
    depth = trunc if depth is None else depth
    r_hole = a_res + b_res          # total residue of the neck at 0
    r_child = -r_hole
    unit = NCSeries.unit(alphabet, trunc, ring)

    # ---- destination-zone comparison (variable s = 1 - w on [0, 1/2])
    h_dst = frame_series(c_res, [-r_hole] * xorder, xorder)
    hz = Zone(proto, {(m, 0): h for m, h in enumerate(h_dst)})
    hz_inv = _zone_series_inverse(hz, trunc)
    delta_dst = Zone(proto)
    for k in range(1, kmax + 1):
        shift = _binomial_shift(k, xorder)
        for j, binc in enumerate(shift):
            delta_dst = delta_dst + Zone(proto, {(j, 0): b_res.scale(
                LogPoly.monomial(SEW_VARS, (k, 0, 0), binc))})
    kern = log_conjugate(c_res, hz_inv * delta_dst * hz, -1)
    kern = (-kern).clean(ydeg)      # dw = -ds
    q_dst = ordered_exp(kern, Zone.eval_zero,
                        lambda z: z.eval_cut(1), depth, ydeg)

    # ---- source-zone comparison (child chart, variable r = 1 - u)
    h_src = frame_series(b_res, [-r_child] * xorder, xorder)
    hz_s = Zone(proto, {(m, 0): h for m, h in enumerate(h_src)})
    hz_s_inv = _zone_series_inverse(hz_s, trunc)
    delta_src = Zone(proto)
    for k in range(1, kmax + 1):
        shift = _binomial_shift(k, xorder)
        for j, binc in enumerate(shift):
            delta_src = delta_src + Zone(proto, {(j, 0): c_res.scale(
                LogPoly.monomial(SEW_VARS, (k, 0, 0), binc))})
    kern_s = log_conjugate(b_res, hz_s_inv * delta_src * hz_s, -1)
    kern_s = (-kern_s).clean(ydeg)
    q_src = ordered_exp(kern_s, Zone.eval_zero,
                        lambda z: z.eval_cut(1), depth, ydeg)

    # ---- annulus comparison (variable w on [y/c, a])
    delta_ann = Zone(proto)
    for j in range(xorder + 1):
        delta_ann = delta_ann + Zone(proto, {(j, 0): -c_res})
    for k in range(1, kmax + 1):
        delta_ann = delta_ann + Zone(
            proto, {(-k - 1, 0): b_res.scale(
                LogPoly.monomial(SEW_VARS, (k, 0, 0)))})
    kern_ann = log_conjugate(r_hole, delta_ann, -1).clean(ydeg)
    oe_ann = ordered_exp(kern_ann,
                         lambda z: z.eval_y_over_cut(1),
                         lambda z: z.eval_cut(1), depth, ydeg)

    # ---- node-normalized model values at the cuts
    h_par = frame_series(r_hole, [-c_res] * xorder, xorder)
    h_par_a = _eval_series(h_par, Fraction(1, 2))
    h_child = frame_series(r_child, [-b_res] * xorder, xorder)
    h_child_c = _eval_series(h_child, Fraction(1, 2))

    # ---- associator factors
    phi = kz_associator(trunc)
    phi_par = phi.substitute({"X0": r_hole, "X1": c_res}, embed=SEW.embed)
    phi_child = phi.substitute({"X0": r_child, "X1": b_res}, embed=SEW.embed)

    kappa = LogPoly.monomial(SEW_VARS, (0, 0, 1))
    neg_kappa = -kappa
    # log(y/cut) = 2 pi i l - kappa, so the annulus lower frame is
    # exp(-(2 pi i l - kappa) r_hole)
    neck = LogPoly(SEW_VARS, {(0, 1, 0): -_TWO_IPI,
                              (0, 0, 1): ConstantCombination.one()})

    factors = [
        q_dst.invert(),
        phi_par,
        r_hole.scale(neg_kappa).exp(),
        h_par_a.invert(),
        r_hole.scale(kappa).exp(),
        oe_ann,
        r_hole.scale(neck).exp(),
        h_child_c,
        r_hole.scale(neg_kappa).exp(),
        phi_child.invert(),
        q_src,
    ]
    out = unit
    for f in factors:
        out = _mul_trunc(out, f, ydeg)
    return out


def _zone_series_inverse(hz: Zone, trunc: int) -> Zone:
    """Inverse of a zone element with constant part the unit series;
    the geometric series terminates because every non-unit term raises
    the word weight."""
    proto = hz.proto
    unit = Zone.const(NCSeries.unit(proto.alphabet, proto.trunc, proto.ring))
    v = unit - hz
    out = unit
    power = unit
    for _ in range(trunc):
        power = power * v
        if power.is_zero():
            break
        out = out + power
    return out


# ---------------------------------------------------------------------------
# kappa bookkeeping and numeric specialization


def kappa_residual(series: NCSeries, prec: float = 1e-9) -> float:
    """Largest numeric magnitude among cut-symbol terms of the
    ``y``-constant layer.  That layer of the assembled transport is
    cut-independent termwise, so this measures the internal truncation
    dust.  (At ``y``-degree >= 1 the cut symbol legitimately survives:
    it recombines with the cut-evaluated frame values.)"""
    worst = 0.0
    for c in series.terms.values():
        for (dy, dl, dk), cc in c.terms.items():
            if dk > 0 and dy == 0:
                worst = max(worst, abs(cc.numeric(prec)))
    return worst


def strip_kappa(series: NCSeries) -> NCSeries:
    return series.map_coefficients(lambda c: c.truncate("kappa", 0),
                                   series.ring)


def sew_specialize(series: NCSeries, yval: complex,
                   prec: float = 1e-12) -> NCSeries:
    """Evaluate the deformation symbols at a numeric ``y``, with the cut
    at ``1/2``."""
    values = {"y": yval, "l": _clog(yval) / _TWO_IPI.numeric(prec),
              "kappa": _mlog(0.5)}
    return series.map_coefficients(lambda c: c.evaluate(values, prec),
                                   COMPLEX)
