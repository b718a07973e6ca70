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
cut points in closed form.  The two chart zones integrate from
``w = 0``, where their kernels carry no negative power of ``w``: every
antiderivative then carries ``w^p`` with ``p >= 1`` and vanishes there,
so only the annulus subtracts a value at its lower bound.  The cut
constant ``log(cut)`` is carried as a formal symbol; in the assembled
product it cancels termwise in the ``y``-constant layer (a built-in
consistency check), while at higher ``y``-degree it recombines with the
rational values of the zone frames at the cut, so there the check is
numeric agreement with the direct integrator.

The residues are rational series.  The model frames are computed over
Q, and the associator is substituted at the rational residues, as
:meth:`~curvelog.sheaf.MonodromyCalculator.local` does; a residue
enters the sew ring only where it meets a sew or zone symbol.  The sew
ring :data:`SEW` is the same :class:`~curvelog.logpoly.LogPoly` type
that carries monodromy coefficients, here over the fixed symbols
``("y", "l", "kappa")``, that is the deformation parameter ``y``, the
normalized logarithm ``l = log(y) / (2 pi i)`` and the cut symbol
``kappa = log(cut)``.  Exponent tuples are ``(dy, dl, dk)`` in that
order.  The assembled transport is valid for ``0 < y < a * c`` and
matches the numeric oracle to ``O(y^(ydeg+1))``.

Zone elements are plain :class:`~curvelog.ncseries.NCSeries` over
:data:`ZONE`, the ``LogPoly`` ring over ``("y", "l", "kappa", "w",
"L")``: ``w`` and ``L = log(w)`` commute with the letters, so a kernel
term ``w^p log(w)^q`` times a series is a series whose coefficients
carry ``w^p L^q``.  The ``w`` exponent may be negative (the annulus
kernel has ``w^(-k-1)``).  Products, the frame inverse and the
conjugation ``exp(L ad_x)`` are the ``NCSeries`` operations; only the
antiderivative in ``w`` and the evaluations at the cut and at ``y/cut``
are term maps of their own.

Frames: unit tangential frames in each chart coordinate; in the global
coordinate of the destination chart the source frame has scale ``y``.
"""
from __future__ import annotations

from cmath import log as _clog
from fractions import Fraction
from math import comb, factorial, log as _mlog
from typing import Callable

from .associator import kz_associator
from .constants import ConstantCombination
from .logpoly import LogPoly, logpoly_ring
from .ncseries import COMPLEX, RATIONAL, NCSeries

SEW_VARS = ("y", "l", "kappa")


def _sew_encode(p: LogPoly) -> list:
    return [{"y": dy, "l": dl, "kappa": dk, "coeff": c.to_json()}
            for (dy, dl, dk), c in sorted(p.coefficients().items())]


def _sew_decode(data: list) -> LogPoly:
    return LogPoly(SEW_VARS, {(d["y"], d["l"], d["kappa"]):
                              ConstantCombination.from_json(d["coeff"])
                              for d in data})


SEW = logpoly_ring(SEW_VARS)._replace(name="sew", encode=_sew_encode,
                                     decode=_sew_decode)


_TWO_IPI = ConstantCombination.ipi(1, 2)
# log(y / cut) = 2 pi i l - kappa
_LOG_Y_OVER_CUT = LogPoly(SEW_VARS, {(0, 1, 0): _TWO_IPI, (0, 0, 1): -1})
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# zone elements: series over the sew symbols, w and L = log(w)

ZONE_VARS = SEW_VARS + ("w", "L")
ZONE = logpoly_ring(ZONE_VARS)


def _lift(s: NCSeries, p: int = 0) -> NCSeries:
    """The sew or rational series ``s`` times ``w^p``, as a zone
    element."""
    if s.ring.name == RATIONAL.name:
        s = s.lift(SEW)
    return s.map_terms(lambda k: ((k[:3] + (p, 0) + k[3:], 1),), ZONE)


def clean(z: NCSeries, ymax: int) -> NCSeries:
    """Drop the terms that cannot reach ``y``-degree <= ymax.

    Antidifferentiation only raises w-powers, and the bound evaluations
    multiply by ``y^p`` at worst, so a term with ``dy + min(p, 0) > ymax``
    can never contribute."""
    return z.select(lambda k: k[0] + min(k[3], 0) <= ymax)


def antiderivative(z: NCSeries) -> NCSeries:
    """Antiderivative in ``w``, integrating ``w^p L^q`` by parts until the
    log power is gone."""
    def term(k):
        head, p, q, per = k[:3], k[3], k[4], k[5:]
        if p == -1:
            yield head + (0, q + 1) + per, Fraction(1, q + 1)
            return
        f = Fraction(1, p + 1)
        for qq in range(q, -1, -1):
            yield head + (p + 1, qq) + per, f
            f = -f * Fraction(qq, p + 1)

    return z.map_terms(term, ZONE)


def eval_cut(z: NCSeries) -> NCSeries:
    """Value at the cut ``w = 1/2``; ``L`` becomes ``kappa``."""
    return z.map_terms(lambda k: (((k[0], k[1], k[2] + k[4]) + k[5:],
                                   _HALF ** k[3]),), SEW)


def eval_y_over_cut(z: NCSeries) -> NCSeries:
    """Value at ``w = y / (1/2)``: ``w^p`` becomes ``2^p y^p`` and ``L``
    becomes ``2 pi i l - kappa``; a negative power of ``y`` raises
    ValueError."""
    def term(k):
        dy, dl, dk, p, q, ipi, zs = k
        if dy + p < 0:
            raise ValueError("negative power of y")
        f = _HALF ** -p
        # (2 pi i l - kappa)^q = sum_j binom(q, j) 2^j (i pi)^j l^j
        #                        (-kappa)^(q - j)
        return [((dy + p, dl + j, dk + q - j, ipi + j, zs),
                 f * (comb(q, j) * 2 ** j * (-1) ** (q - j)))
                for j in range(q + 1)]

    return z.map_terms(term, SEW)


def log_conjugate(x: NCSeries, zone: NCSeries, sign: int) -> NCSeries:
    """Conjugation ``w^(sign * x) . zone . w^(-sign * x)`` of a zone
    element by a sew or rational series: ``exp(sign L ad_x)`` applied
    to ``zone``."""
    coeffs = [LogPoly.monomial(ZONE_VARS, (0, 0, 0, 0, j),
                               Fraction(sign ** j, factorial(j)))
              for j in range(x.trunc + 1)]
    return _lift(x).ad_series(coeffs, zone)


def ordered_exp(kernel: NCSeries, ymax: int,
                eval_lower: Callable[[NCSeries], NCSeries] | None = None
                ) -> NCSeries:
    """Ordered exponential ``I + sum_n int_{lower<t1<..<tn<cut}
    K(tn)..K(t1)`` of a zone kernel whose terms all raise the word
    weight, so that ``trunc`` integrations exhaust it.

    The lower bound is the one ``eval_lower`` evaluates at, or ``w = 0``
    without it.  From 0 every term of each antiderivative must carry a
    positive power of ``w``, so that it vanishes there; any other term
    (an antiderivative has none in ``w^0`` alone) is singular at 0 and
    raises ValueError."""
    total = NCSeries.unit(kernel.alphabet, kernel.trunc, SEW)
    current = NCSeries.unit(kernel.alphabet, kernel.trunc, ZONE)
    keys = ZONE.table.keys
    for _ in range(kernel.trunc):
        current = antiderivative(clean(kernel * current, ymax))
        if eval_lower is not None:
            current = clean(current - _lift(eval_lower(current)), ymax)
        elif any(keys[i][3] <= 0 for m in current.nums.values()
                 for i in m):
            raise ValueError("zone element is singular at 0")
        if current.is_zero():
            break
        total = total + eval_cut(current)
    return total


# ---------------------------------------------------------------------------
# model solution series


def frame_series(x: NCSeries, other: NCSeries,
                 order: int) -> list[NCSeries]:
    """Coefficients ``H_m`` of the regular factor of ``H(w) w^x`` for
    ``H' = [x, H]/w + B(w) H`` with ``B = -other sum_j w^j``, the pole
    of residue ``other`` at ``w = 1``; exact version of the numeric
    boundary expansion.

    Order ``m`` solves ``(m - ad_x) H_m = -other (H_0 + ... + H_(m-1))``;
    ``ad_x`` raises the word length, so the inverse is the finite sum
    ``sum_k ad_x^k / m^(k+1)``."""
    neg = -other
    hs = [NCSeries.unit(x.alphabet, x.trunc, x.ring)]
    running = hs[0]
    for m in range(1, order + 1):
        h_m = x.ad_series([Fraction(1, m ** (k + 1))
                           for k in range(x.trunc + 1)], neg * running)
        hs.append(h_m)
        running = running + h_m
    return hs


def _mul_trunc(a: NCSeries, b: NCSeries, ymax: int) -> NCSeries:
    return (a * b).select(lambda k: k[0] <= ymax)


# ---------------------------------------------------------------------------
# the dressed neck transport


def dressed_neck_transport(a_res: NCSeries, b_res: NCSeries,
                           c_res: NCSeries, *, ydeg: int,
                           xorder: int = 36, kmax: int = 26) -> NCSeries:
    """Transport from the source tail to the destination tail of a
    two-vertex tree, as a series over the sew ring; the residues are
    rational series.

    In the destination chart the punctures sit at 0 (residue ``a_res``,
    the source chart's third marked point), ``y`` (``b_res``, the
    source tail), 1 (``c_res``, the destination tail) and infinity.
    Unit tangential frames in each chart coordinate: the source frame
    has scale ``y`` in the destination chart coordinate.  Every
    comparison integrates to the cut ``1/2`` and iterates ``trunc``
    times.

    Truncation dust: the model series are cut at ``xorder``.  The
    chart deformation tails stop at ``y^ydeg``, which loses nothing.
    The annulus tail ``sum_k y^k w^(-k-1)`` is cut at ``kmax``, so
    coefficients beyond degree 0 in ``y`` carry an error around
    ``2^-kmax``, from that tail alone.
    """
    alphabet, trunc = a_res.alphabet, a_res.trunc
    if any(r.ring.name != RATIONAL.name for r in (a_res, b_res, c_res)):
        raise ValueError("residues must be rational")
    r_hole = a_res + b_res          # total residue of the neck at 0
    r_child = -r_hole

    def scalar(terms) -> LogPoly:
        return LogPoly(ZONE_VARS, dict(terms))

    def frame_zone(x: NCSeries, other: NCSeries) -> NCSeries:
        """``sum_m H_m w^m`` of :func:`frame_series`."""
        out = NCSeries.zero(alphabet, trunc, ZONE)
        for m, h in enumerate(frame_series(x, other, xorder)):
            out = out + _lift(h, m)
        return out

    # the other pole at distance y, seen from 0 in the variable s:
    # sum_k y^k (1 - s)^(-k-1) = sum_k y^k sum_j binom(k+j, j) s^j;
    # the frame conjugation adds no y and no negative power of w, so
    # clean(., ydeg) would drop every layer k > ydeg
    deformation = scalar(((k, 0, 0, j, 0), comb(k + j, j))
                         for k in range(1, min(kmax, ydeg) + 1)
                         for j in range(xorder + 1))

    def chart_comparison(x: NCSeries, hole: NCSeries,
                         tail: NCSeries) -> NCSeries:
        """Correction on ``s`` in ``[0, 1/2]`` of the chart whose marked
        point at ``s = 0`` has residue ``x``, against the model with the
        neck collapsed to the pole ``hole``; ``tail`` is the residue at
        distance ``y``."""
        hz = frame_zone(x, hole)
        kern = log_conjugate(x, hz.invert() * _lift(tail).scale(deformation)
                             * hz, -1)
        return ordered_exp(clean(-kern, ydeg), ydeg)      # dw = -ds

    q_dst = chart_comparison(c_res, r_hole, b_res)
    q_src = chart_comparison(b_res, r_child, c_res)   # child chart

    # ---- annulus comparison (variable w on [y/cut, cut])
    delta_ann = (
        _lift(-c_res).scale(scalar(((0, 0, 0, j, 0), 1)
                                   for j in range(xorder + 1)))
        + _lift(b_res).scale(scalar(((k, 0, 0, -k - 1, 0), 1)
                                    for k in range(1, kmax + 1))))
    kern_ann = clean(log_conjugate(r_hole, delta_ann, -1), ydeg)
    oe_ann = ordered_exp(kern_ann, ydeg, eval_y_over_cut)

    # ---- node-normalized model values at the cuts
    h_par_a = eval_cut(frame_zone(r_hole, c_res))
    h_child_c = eval_cut(frame_zone(r_child, b_res))

    # ---- associator factors, substituted at the rational residues
    # and lifted once
    phi = kz_associator(trunc)
    phi_par = phi.substitute({"X0": r_hole, "X1": c_res}).lift(SEW)
    phi_child = phi.substitute({"X0": r_child, "X1": b_res}).lift(SEW)

    kappa = LogPoly.monomial(SEW_VARS, (0, 0, 1))
    hole = r_hole.lift(SEW)

    factors = [
        q_dst.invert(),
        phi_par,
        hole.scale(-kappa).exp(),
        h_par_a.invert(),
        hole.scale(kappa).exp(),
        oe_ann,
        hole.scale(-_LOG_Y_OVER_CUT).exp(),   # annulus lower frame
        h_child_c,
        hole.scale(-kappa).exp(),
        phi_child.invert(),
        q_src,
    ]
    out = NCSeries.unit(alphabet, trunc, SEW)
    for f in factors:
        out = _mul_trunc(out, f, ydeg)
    return out


# ---------------------------------------------------------------------------
# kappa bookkeeping and numeric specialization


def kappa_residual(series: NCSeries) -> float:
    """Largest numeric magnitude among cut-symbol terms of the
    ``y``-constant layer.  That layer of the assembled transport is
    cut-independent termwise, so this measures the internal truncation
    dust.  (At ``y``-degree >= 1 the cut symbol legitimately survives:
    it recombines with the cut-evaluated frame values.)"""
    worst = 0.0
    for c in series.terms.values():
        for (dy, dl, dk), cc in c.coefficients().items():
            if dk > 0 and dy == 0:
                worst = max(worst, abs(cc.numeric()))
    return worst


def sew_specialize(series: NCSeries, yval: complex,
                   prec: float = 1e-12) -> NCSeries:
    """Evaluate the deformation symbols at a numeric ``y``, with the cut
    at ``1/2``."""
    values = {"y": yval, "l": _clog(yval) / _TWO_IPI.numeric(prec),
              "kappa": _mlog(0.5)}
    return series.map_coefficients(lambda c: c.evaluate(values, prec),
                                   COMPLEX)
