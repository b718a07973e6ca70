"""Transport series from 0 to 1 and its numeric ODE oracle."""
import hashlib
import itertools
import math
import time

from fractions import Fraction as F

import pytest

from curvelog.associator import kz_associator, ode_transport
from curvelog.constants import CONSTANTS, ConstantCombination as CC
from curvelog.jsonio import canonical_dumps
from curvelog.ncseries import COMPLEX, NCSeries


def test_frozen_low_weight_coefficients():
    phi = kz_associator(3)
    assert phi.constant_term() == CC.one()
    assert phi.coefficient(("X0", "X1")) == CC.zeta(2, coeff=-1)
    assert phi.coefficient(("X1", "X0")) == CC.zeta(2)
    assert phi.coefficient(("X0", "X0", "X1")) == CC.zeta(3, coeff=-1)
    assert phi.coefficient(("X1", "X1", "X0")) == CC.zeta(1, 2)


def test_weight_six_dump_is_pinned():
    # the dump carries the numeric value of every coefficient, summed with
    # math.fsum; five of them depend on the summation order otherwise
    text = canonical_dumps(kz_associator(6).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7eef7be7dfedff01d9ac4860db8549571595b78a8a443613c55302f872ea3ebc"


def test_weight_eight_dump_is_pinned():
    text = canonical_dumps(kz_associator(8).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4703284d150674de53508724e75a9c1e2855a93b9ce2d75a42240b49d73b04d1"


def test_linear_coefficients_vanish():
    phi = kz_associator(4)
    assert phi.coefficient(("X0",)) == CC.zero()
    assert phi.coefficient(("X1",)) == CC.zero()


def test_grouplike_at_weight_four():
    assert kz_associator(4).is_grouplike()


def test_grouplike_exactly_to_weight_eight():
    # the shuffle relations hold between normal forms: zeta products
    # are stored unexpanded, so equal values have unequal representations
    for n in range(1, 9):
        assert kz_associator(n).is_grouplike(), n


def test_exact_grouplike_check_fails_on_a_perturbed_coefficient():
    phi = kz_associator(4)
    for word, q in [((0, 1), F(1, 2)), ((0, 0, 1), F(1)),
                    ((1, 0, 1, 0), F(-1, 7))]:
        terms = dict(phi.terms)
        terms[word] = terms.get(word, CC.zero()) + q
        bent = NCSeries(phi.alphabet, phi.trunc, phi.ring, terms)
        assert not bent.is_grouplike(), word
    assert phi.is_grouplike()


def test_duality_value_wise():
    phi = kz_associator(3)
    swapped = phi.rename({"X0": "X1", "X1": "X0"}).extend(("X0", "X1"))
    prod = phi.map_coefficients(lambda c: c.numeric(1e-12), COMPLEX) \
        * swapped.map_coefficients(lambda c: c.numeric(1e-12), COMPLEX)
    unit = NCSeries.unit(("X0", "X1"), 3, COMPLEX)
    worst = max(abs(prod.coefficient(w) - unit.coefficient(w))
                for n in range(4)
                for w in itertools.product(("X0", "X1"), repeat=n))
    assert worst < 1e-10


def kz_relation_defects(phi):
    """The words where the KZ associator's two exact relations fail:
    duality ``Phi(X0,X1) Phi(X1,X0) = 1`` and the hexagon
    ``e(X0) Phi(C,X0) e(C) Phi(X1,C) e(X1) Phi(X0,X1) = 1`` with
    ``C = -X0 - X1`` and ``e(x) = exp(i pi x)`` (Drinfeld, Leningrad
    Math. J. 2 (1991)).  A coefficient fails when its ``normal_form`` is
    not zero: ``==`` would see unreduced zeta products."""
    letters, n = phi.alphabet, phi.trunc
    x0, x1 = (NCSeries.letter(a, letters, n) for a in letters)
    c = -x0 - x1

    def at(a, b):
        return phi.substitute({"X0": a, "X1": b})

    def e(x):
        return x.lift(CONSTANTS).scale(CC.ipi()).exp()

    one = NCSeries.unit(letters, n, CONSTANTS)
    duality = phi * at(x1, x0) - one
    hexagon = e(x0) * at(c, x0) * e(c) * at(x1, c) * e(x1) * phi - one
    return [{w for w, q in r.terms.items() if q.normal_form()}
            for r in (duality, hexagon)]


def test_duality_and_hexagon_exactly_to_weight_eight():
    t0 = time.time()
    duality, hexagon = kz_relation_defects(kz_associator(8))
    assert not duality and not hexagon
    assert time.time() - t0 < 60.0


@pytest.mark.parametrize("word, q", [((0, 1), F(1, 2)),
                                     ((1, 0, 1, 0, 0, 1, 1, 0), F(-1, 7))],
                         ids=["weight-2", "weight-8"])
def test_duality_and_hexagon_fail_on_a_bent_coefficient(word, q):
    t0 = time.time()
    phi = kz_associator(8)
    terms = dict(phi.terms)
    terms[word] = terms.get(word, CC.zero()) + q
    bent = NCSeries(phi.alphabet, phi.trunc, phi.ring, terms)
    duality, hexagon = kz_relation_defects(bent)
    assert duality and hexagon
    assert time.time() - t0 < 60.0


@pytest.fixture(scope="module")
def kz_transport():
    """The KZ connection integrated from 0 to 1 with unit tangential
    frames at both ends, through weight 4."""
    x0 = NCSeries.letter("X0", ("X0", "X1"), 4, COMPLEX)
    x1 = NCSeries.letter("X1", ("X0", "X1"), 4, COMPLEX)
    return ode_transport({0.0: x0, 1.0: x1}, 0.0, 1.0)


def _worst_gap(phi, transport):
    return max(abs(phi.coefficient(word).numeric(1e-12)
                   - transport.coefficient(word))
               for n in range(phi.trunc + 1)
               for word in itertools.product(("X0", "X1"), repeat=n))


def test_ode_oracle_matches_symbolic(kz_transport):
    assert _worst_gap(kz_associator(4), kz_transport) < 1e-6


def test_ode_oracle_meets_the_associator_to_double_precision(kz_transport):
    # the Taylor stepper measures 3.7e-14 here; the 1e-6 bound above
    # stays as the historical check
    assert _worst_gap(kz_associator(4), kz_transport) < 1e-12


def test_ode_oracle_catches_a_bent_coefficient(kz_transport):
    phi = kz_associator(4)
    terms = dict(phi.terms)
    word = (0, 1)  # X0 X1
    terms[word] = terms[word] + CC.one()
    bent = NCSeries(phi.alphabet, phi.trunc, phi.ring, terms)
    assert _worst_gap(bent, kz_transport) > 1e-6


def _three_letter_setup(trunc):
    alpha = ("a", "b", "c")
    a = NCSeries.letter("a", alpha, trunc, COMPLEX)
    b = NCSeries.letter("b", alpha, trunc, COMPLEX)
    c = NCSeries.letter("c", alpha, trunc, COMPLEX)
    # keep the middle pole off the integration segment [0, 1]
    return alpha, {0.0: a, 0.3 + 0.45j: b, 1.0: c}


def test_transport_composes_over_a_plain_midpoint():
    trunc = 3
    alpha, res = _three_letter_setup(trunc)
    full = ode_transport(res, 0.0, 1.0)
    first = ode_transport(res, 0.0, 0.55, dst_tangential=False)
    second = ode_transport(res, 0.55, 1.0, src_tangential=False)
    glued = second * first
    worst = max(abs(full.coefficient(w) - glued.coefficient(w))
                for n in range(trunc + 1)
                for w in itertools.product(alpha, repeat=n))
    assert worst < 1e-9


def test_transport_inverse_is_reverse_path():
    trunc = 3
    alpha, res = _three_letter_setup(trunc)
    unit = NCSeries.unit(alpha, trunc, COMPLEX)

    def worst(x):
        return max(abs(x.coefficient(w) - unit.coefficient(w))
                   for n in range(trunc + 1)
                   for w in itertools.product(alpha, repeat=n))

    # plain endpoints: retracing the segment inverts the transport
    src, dst = -0.4 - 0.3j, 1.3 - 0.2j
    fwd = ode_transport(res, src, dst,
                        src_tangential=False, dst_tangential=False)
    back = ode_transport(res, dst, src,
                         src_tangential=False, dst_tangential=False)
    assert worst(back * fwd) < 1e-9

    # tangential endpoints: the reverse path sees each frame with the
    # opposite orientation, so matching requires negated scales
    fwd_t = ode_transport(res, 0.0, 1.0)
    back_t = ode_transport(res, 1.0, 0.0, scale_src=-1.0, scale_dst=-1.0)
    assert worst(back_t * fwd_t) < 1e-9


def test_transport_is_grouplike():
    _, res = _three_letter_setup(3)
    t = ode_transport(res, 0.0, 1.0)
    assert t.is_grouplike(tol=1e-8)


def test_tangential_endpoint_requires_pole():
    _, res = _three_letter_setup(2)
    with pytest.raises(ValueError):
        ode_transport(res, 0.5, 1.0)  # tangential src off a pole
    with pytest.raises(ValueError):
        # plain endpoint may not sit on a pole
        ode_transport(res, 0.0, 0.3 + 0.45j, dst_tangential=False)


def test_scale_conjugates_the_frame():
    trunc = 2
    alpha, res = _three_letter_setup(trunc)
    lam = 0.25
    base = ode_transport(res, 0.0, 1.0)
    scaled = ode_transport(res, 0.0, 1.0, scale_src=lam)
    # T_scaled = T_base * lam^{-X0}; check on the linear layer
    x0 = res[0.0]
    expect = base * x0.scale(complex(-math.log(lam))).exp()
    worst = max(abs(scaled.coefficient(w) - expect.coefficient(w))
                for n in range(trunc + 1)
                for w in itertools.product(alpha, repeat=n))
    assert worst < 1e-9


def test_oracle_runs_no_series_arithmetic(monkeypatch):
    # the oracle reads its residues and builds its result as NCSeries,
    # but computes on its own vectors: with every NCSeries operator and
    # the product kernel refusing to run, each call gives the same result
    import curvelog.ncseries as ncseries

    x0, x1 = (NCSeries.letter(x, ("X0", "X1"), 4, COMPLEX)
              for x in ("X0", "X1"))
    _, three = _three_letter_setup(3)
    calls = [({0.0: x0, 1.0: x1}, 0.0, 1.0, {}),
             (three, 0.0, 1.0, {"scale_src": 0.25}),
             (three, 1.0, 0.0, {"scale_src": -1.0, "scale_dst": -1.0}),
             (three, 0.0, 0.55, {"dst_tangential": False}),
             (three, 0.55, 1.0, {"src_tangential": False}),
             (three, -0.4 - 0.3j, 1.3 - 0.2j,
              {"src_tangential": False, "dst_tangential": False})]
    expected = [ode_transport(r, a, b, **kw) for r, a, b, kw in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("NCSeries arithmetic inside ode_transport")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "_combine",
                     "scale", "bracket", "exp", "invert", "ad_series",
                     "substitute", "map_coefficients", "map_terms",
                     "select"):
            patch.setattr(NCSeries, name, refuse)
        patch.setattr(ncseries, "_product", refuse)
        got = [ode_transport(r, a, b, **kw) for r, a, b, kw in calls]
    assert got == expected


def _extrapolation_transport(residues, src, dst):
    """Plain-endpoint transport by Gragg-Bulirsch-Stoer extrapolation in
    plain ``complex``, an independent reference for the Taylor stepper
    (Hairer, Norsett and Wanner, Solving ODE I, 2nd ed., II.9; Deuflhard,
    Numer. Math. 41, 1983).  It reads only the residues' terms and shares
    no code with ``associator``.

    Each macro step goes a quarter of the distance to the nearest pole
    (or to the end).  Inside it the modified midpoint rule runs with 2,
    4, ..., 16 substeps, each ending with Gragg's smoothing step, and the
    Aitken-Neville scheme extrapolates the results to step size zero in
    powers of ``h^2``.  There is no error control."""
    substeps = range(2, 18, 2)
    any_r = next(iter(residues.values()))
    words = [w for n in range(any_r.trunc + 1)
             for w in itertools.product(range(len(any_r.alphabet)),
                                        repeat=n)]
    index = {w: i for i, w in enumerate(words)}
    # per pole, the entries (row, column, value) of its left action
    tables = [(complex(p), [(index[rw + u], index[u], c)
                            for rw, c in r.terms.items() for u in words
                            if len(rw) + len(u) <= any_r.trunc])
              for p, r in residues.items()]
    length = abs(dst - src)
    direction = (dst - src) / length

    def rhs(s, v):
        z = src + s * direction
        out = [0j] * len(v)
        for p, table in tables:
            f = direction / (z - p)
            for i, j, c in table:
                out[i] += f * c * v[j]
        return out

    def midpoint(s, v, big, n):
        h = big / n
        prev, cur = v, [a + h * b for a, b in zip(v, rhs(s, v))]
        for m in range(1, n):
            prev, cur = cur, [a + 2 * h * b
                              for a, b in zip(prev, rhs(s + m * h, cur))]
        end = rhs(s + big, cur)
        return [(a + b + h * c) / 2 for a, b, c in zip(cur, prev, end)]

    def macro_step(s, v, big):
        above = []
        for j, n in enumerate(substeps):
            row = [midpoint(s, v, big, n)]
            for k in range(1, j + 1):
                q = (n / substeps[j - k]) ** 2 - 1
                row.append([a + (a - b) / q
                            for a, b in zip(row[k - 1], above[k - 1])])
            above = row
        return above[-1]

    v = [0j] * len(words)
    v[0] = 1 + 0j
    s = 0.0
    while s < length:
        rho = min(abs(src + s * direction - p) for p, _ in tables)
        big = min(rho / 4, length - s)
        v = macro_step(s, v, big)
        s = length if big == length - s else s + big
    return dict(zip(words, v))


def test_taylor_stepper_matches_extrapolation_on_plain_segments():
    # the reference is 1.8e-13 (three poles) and 7.0e-12 (neck) from
    # scipy's DOP853 at rtol 1e-13, atol 1e-15, the reference it replaced
    _, three_letter = _three_letter_setup(3)
    y = 1 / 64
    a, b, c = (NCSeries.letter(x, ("A", "B", "C"), 3, COMPLEX)
               for x in ("A", "B", "C"))
    neck = {0.0: a, y: b, 1.0: c}
    for res, src, dst in [(three_letter, -0.4 - 0.3j, 1.3 - 0.2j),
                          (neck, y + y / 4, 1 - y / 4)]:
        ref = _extrapolation_transport(res, src, dst)

        def gap(residues):
            got = ode_transport(residues, src, dst,
                                src_tangential=False, dst_tangential=False)
            return max(abs(got.terms.get(w, 0) - v) for w, v in ref.items())

        assert gap(res) < 1e-10, (src, dst, gap(res))
        # one letter's coefficient bent by a relative 1e-6
        p, r = next(iter(res.items()))
        assert gap({**res, p: r.scale(complex(1 + 1e-6))}) > 1e-10, (src, dst)


def test_coincident_endpoints_raise_value_error():
    _, res = _three_letter_setup(2)
    with pytest.raises(ValueError, match="coincide"):
        ode_transport(res, 0.5, 0.5,
                      src_tangential=False, dst_tangential=False)


def test_no_residues_raise_value_error():
    with pytest.raises(ValueError, match="no residues"):
        ode_transport({}, 0, 1, src_tangential=False, dst_tangential=False)


def test_nonpositive_delta_raises_value_error():
    _, res = _three_letter_setup(2)
    for delta in (0.0, -0.1):
        with pytest.raises(ValueError, match="positive"):
            ode_transport(res, 0.0, 1.0, delta=delta)


def test_delta_past_the_midpoint_between_two_tangential_ends():
    # delta = 0.6 used to integrate backwards from 0.6 to 0.4
    _, res = _three_letter_setup(2)
    for delta in (0.5, 0.6):
        with pytest.raises(ValueError, match="no segment"):
            ode_transport(res, 0.0, 1.0, delta=delta)


def test_delta_past_the_plain_end_of_a_segment():
    _, res = _three_letter_setup(2)
    with pytest.raises(ValueError, match="no segment"):
        ode_transport(res, 0.0, 0.55, delta=0.55, dst_tangential=False)
    with pytest.raises(ValueError, match="no segment"):
        ode_transport(res, 0.55, 1.0, delta=0.6, src_tangential=False)


def test_order_cap_raises_runtime_error():
    _, res = _three_letter_setup(2)
    with pytest.raises(RuntimeError, match="no convergence"):
        ode_transport(res, 0.0, 1.0, tol=0.0)
