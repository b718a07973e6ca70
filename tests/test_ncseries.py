"""Truncated noncommutative series: ring laws, exp/log, substitution."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings, strategies as st

from curvelog.associator import kz_associator
from curvelog.constants import CONSTANTS, ConstantCombination as CC
from curvelog.logpoly import LogPoly, logpoly_ring
from curvelog.ncseries import COMPLEX, NCSeries, RATIONAL, shuffle_words
from curvelog.sewing import SEW, ZONE, ZONE_VARS

AB = ("a", "b")


def letters(trunc=4):
    return (NCSeries.letter("a", AB, trunc),
            NCSeries.letter("b", AB, trunc))


def test_letter_and_coefficient_access():
    a, b = letters()
    s = a * b + a.scale(F(1, 2))
    assert s.coefficient(("a", "b")) == F(1)
    assert s.coefficient(("a",)) == F(1, 2)
    assert s.coefficient(("b", "a")) == F(0)
    assert s.constant_term() == F(0)
    assert s.order() == 1


def test_product_truncates_at_word_length():
    a, b = letters(trunc=2)
    cube = a * a * a
    assert cube.is_zero()
    assert (a * b).coefficient(("a", "b")) == F(1)


def test_shuffle_words_frozen():
    assert dict(shuffle_words((0,), (1,))) == {(0, 1): 1, (1, 0): 1}
    assert dict(shuffle_words((0,), (0,))) == {(0, 0): 2}
    # (0,1) sh (0,) has the lead letter doubled on two interleavings
    assert dict(shuffle_words((0, 1), (0,))) == {
        (0, 0, 1): 2, (0, 1, 0): 1}


def series_log(g):
    """``log g`` of a series with constant term one, by the Mercator
    series ``sum_n (-1)^(n+1) (g - 1)^n / n``."""
    y = g - NCSeries.unit(g.alphabet, g.trunc, g.ring)
    out = NCSeries.zero(g.alphabet, g.trunc, g.ring)
    power = NCSeries.unit(g.alphabet, g.trunc, g.ring)
    for n in range(1, g.trunc + 1):
        power = power * y
        out = out + power.scale(F((-1) ** (n + 1), n))
    return out


def test_exp_log_roundtrip_and_inverse():
    a, b = letters()
    x = a + a * b - b.scale(F(2, 3))
    g = x.exp()
    assert g.constant_term() == F(1)
    assert (series_log(g) - x).is_zero()
    assert (g * g.invert() - NCSeries.unit(AB, 4)).is_zero()
    assert (g.invert() * g - NCSeries.unit(AB, 4)).is_zero()


def test_exp_of_sum_of_commuting_parts():
    a, _ = letters()
    # exp(a)·exp(a) = exp(2a) because a commutes with itself
    two_a = a.scale(2)
    assert (a.exp() * a.exp() - two_a.exp()).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    a, b = letters(trunc=3)
    assert (a.bracket(b) + b.bracket(a)).is_zero()
    c = a.bracket(b)
    jac = a.bracket(b.bracket(c)) + b.bracket(c.bracket(a)) \
        + c.bracket(a.bracket(b))
    assert jac.is_zero()


def test_ad_series_matches_conjugation():
    a, b = letters(trunc=4)
    # sum_k 1/k! ad_a^k (b) = e^a b e^{-a}
    coeffs = [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)]
    lhs = a.ad_series(coeffs, b)
    rhs = a.exp() * b * (-a).exp()
    assert (lhs - rhs).is_zero()


def test_substitute_is_a_homomorphism():
    a, b = letters(trunc=3)
    s = a * b + b.scale(F(3))
    t = a * a
    images = {"a": a + b, "b": a.bracket(b)}
    lhs = (s * t).substitute(images)
    rhs = s.substitute(images) * t.substitute(images)
    assert (lhs - rhs).is_zero()


def test_substitute_takes_rational_images_only():
    # a result needed over a larger ring is lifted after substituting
    a, b = letters(trunc=2)
    for ring in (COMPLEX, SEW):
        za = NCSeries.letter("a", AB, 2, ring)
        zb = NCSeries.letter("b", AB, 2, ring)
        with pytest.raises(ValueError, match="rational"):
            (a * b).substitute({"a": za, "b": zb})
        with pytest.raises(ValueError):
            (a * b).substitute({"a": a, "b": zb})


def test_scalar_operands_raise_type_error():
    # a scalar goes through `scale`; the operators take series only
    a = NCSeries.letter("a", AB, 2)
    for spell in (lambda: a + 1, lambda: a - 1, lambda: a * 2,
                  lambda: 1 + a, lambda: 2 * a):
        with pytest.raises(TypeError):
            spell()
    assert a.scale(2) == a + a


def test_grouplike_detection():
    a, b = letters()
    prim = a + a.bracket(b).scale(F(1, 3))
    assert prim.exp().is_grouplike()
    not_grouplike = NCSeries.unit(AB, 4) + a * b
    assert not not_grouplike.is_grouplike()


def test_rename_and_extend():
    a, b = letters(trunc=2)
    s = a * b
    renamed = s.rename({"a": "x", "b": "y"})
    assert renamed.alphabet == ("x", "y")
    assert renamed.coefficient(("x", "y")) == F(1)
    big = s.extend(("a", "b", "c"))
    assert big.coefficient(("a", "b")) == F(1)
    assert big.coefficient(("a", "c")) == F(0)


def test_json_roundtrip():
    a, b = letters(trunc=3)
    s = a.exp() * b - a.scale(F(5, 7))
    back = NCSeries.from_json(s.to_json(), RATIONAL)
    assert (back - s).is_zero()


def test_negative_truncation_raises():
    # refused, not read as the zero series
    with pytest.raises(ValueError, match="truncation"):
        NCSeries(AB, -1, RATIONAL)
    with pytest.raises(ValueError, match="truncation"):
        kz_associator(-1)


def test_from_json_rejects_words_beyond_the_truncation():
    # the constructor would drop them without a word
    data = NCSeries.letter("a", AB, 2).exp().to_json()
    for trunc in (1, 0, -1):
        data["trunc"] = trunc
        with pytest.raises(ValueError, match="truncation"):
            NCSeries.from_json(data, RATIONAL)
    data["trunc"] = 2
    assert NCSeries.from_json(data, RATIONAL).trunc == 2


def test_rational_ring_rejects_inexact_scalars():
    a = NCSeries.letter("a", AB, 2)
    data = a.to_json()
    data["terms"][0]["coeff"] = 0.1
    for make in (lambda: a.scale(0.1), lambda: RATIONAL.split(0.5),
                 lambda: NCSeries.from_json(data, RATIONAL)):
        with pytest.raises(TypeError):
            make()
    # the "n/d" strings of the JSON and exact scalars still work
    data["terms"][0]["coeff"] = "-3/7"
    assert NCSeries.from_json(data, RATIONAL).coefficient("a") == F(-3, 7)
    assert a.scale(2).coefficient("a") == F(2)
    assert RATIONAL.split(2) == ({0: 2}, 1)
    # a complex series takes a float scalar as it is, and a rational one
    # as its complex value
    z = NCSeries.letter("a", AB, 2, COMPLEX).scale(0.5)
    assert z.coefficient("a") == 0.5
    z = NCSeries.letter("a", AB, 2, COMPLEX).scale(0.5 + 1j).scale(F(1, 3))
    assert z.coefficient("a") == (0.5 + 1j) * complex(F(1, 3))


def test_lift_inserts_zero_exponents_after_the_source_symbols():
    u_ring, uv_ring = logpoly_ring(("u",)), logpoly_ring(("u", "v"))
    s = NCSeries(AB, 2, u_ring, {
        (0,): LogPoly(("u",), {(1,): CC.zeta(3), (0,): F(1, 3)}),
        (0, 1): F(-2, 5)})
    lifted = s.lift(uv_ring)
    assert lifted.terms == {
        (0,): LogPoly(("u", "v"), {(1, 0): CC.zeta(3), (0, 0): F(1, 3)}),
        (0, 1): LogPoly.constant(("u", "v"), F(-2, 5))}
    assert lifted.den == s.den
    assert sorted(n for m in lifted.nums.values() for n in m.values()) \
        == sorted(n for m in s.nums.values() for n in m.values())
    # a rational series lifts to the constant terms of any exact ring
    a = NCSeries.letter("a", AB, 2).scale(F(-3, 4))
    assert a.lift(CONSTANTS).coefficient("a") == CC.rational(F(-3, 4))
    assert a.lift(RATIONAL) == a
    # no lift drops symbols or leaves the exact rings
    for src, ring in ((lifted, u_ring), (a, COMPLEX),
                      (NCSeries.letter("a", AB, 2, COMPLEX), RATIONAL)):
        with pytest.raises(ValueError, match="no lift"):
            src.lift(ring)


# four coefficients per ring, built afresh on each call so that equal
# coefficients are equal values, not one object
_SUB_VALUES = {
    "rational": (RATIONAL, lambda: (F(1, 2), F(-3), F(2, 7), F(5))),
    "logpoly": (logpoly_ring(("u", "v")), lambda: (
        LogPoly(("u", "v"), {(1, 0): CC.zeta(3), (0, 2): F(-1, 4)}),
        LogPoly(("u", "v"), {(0, 0): CC.ipi(2, F(1, 3))}),
        LogPoly(("u", "v"), {(0, 1): CC.zeta(2), (2, 0): 3}),
        LogPoly(("u", "v"), {(0, 1): CC.zeta(2), (1, 1): 1}))),
    "complex": (COMPLEX, lambda: (0.5 + 1j, -2j, 1 / 3, 3 + 0.25j)),
}


@pytest.mark.parametrize("name", sorted(_SUB_VALUES))
def test_subtraction_is_adding_the_negative(name):
    ring, values = _SUB_VALUES[name]
    p, q, r, _ = values()
    a = NCSeries(AB, 3, ring, {(): p, (0,): q, (0, 1): r})
    _, q2, r2, s = values()
    b = NCSeries(AB, 3, ring, {(0, 1): s, (1,): r2, (0,): q2})
    got = a - b
    assert list(got.terms.items()) == list((a + (-b)).terms.items())
    # the equal coefficient of (0,) leaves no key
    assert list(got.terms) == [(), (0, 1), (1,)]
    assert got.terms[()] == p and got.terms[(1,)] == -r
    assert got.terms[(0, 1)] == r - s != 0
    for other in (NCSeries(("a", "c"), 3, ring, b.terms),
                  NCSeries(AB, 2, ring, b.terms),
                  NCSeries(AB, 3, ring._replace(name="other"), b.terms)):
        with pytest.raises(ValueError, match="mismatch"):
            a - other


@st.composite
def small_series(draw, trunc=3):
    a, b = letters(trunc)
    terms = draw(st.lists(
        st.tuples(st.sampled_from([a, b, a * b, b * a]),
                  st.integers(-3, 3)),
        min_size=0, max_size=3))
    s = NCSeries.zero(AB, trunc)
    for base, c in terms:
        s = s + base.scale(c)
    return s


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_product_associative_distributive(x, y, z):
    assert ((x * y) * z - x * (y * z)).is_zero()
    assert (x * (y + z) - (x * y + x * z)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=4).map(tuple),
       st.lists(st.integers(0, 1), max_size=4).map(tuple))
def test_shuffle_commutative_property(u, v):
    # the kernel of is_grouplike and reg_value: commutative, and the
    # binom(|u|+|v|, |u|) interleavings are all counted
    uv = shuffle_words(u, v)
    assert uv == shuffle_words(v, u)
    assert all(len(w) == len(u) + len(v) for w, _ in uv)
    assert sum(m for _, m in uv) == math.comb(len(u) + len(v), len(u))


# ---------------------------------------------------------------------------
# the product of each coefficient ring against a pairwise reference

def _pairwise(x, y):
    """The product by its definition: every pair of terms, the pairs that
    fit summed in the order of ``x``'s terms."""
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if len(w1) + len(w2) <= x.trunc:
                w = w1 + w2
                out[w] = out[w] + c1 * c2 if w in out else c1 * c2
    return NCSeries(x.alphabet, x.trunc, x.ring, out)


# zeta multisets whose concatenations need re-sorting and then collide,
# e.g. zeta(3) * zeta(2) and zeta(2) * zeta(3)
_ZETA_KEYS = ((), ((2,),), ((3,),), ((2,), (3,)), ((1, 2),))
_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_CONSTANTS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.sampled_from(_ZETA_KEYS)), _FRACTIONS,
    min_size=1, max_size=3).map(CC)


def _logpolys(vars, low):
    """Polynomials over ``vars`` with exponents in ``low[i]..2``."""
    expo = st.tuples(*(st.integers(lo, 2) for lo in low))
    return st.dictionaries(expo, _CONSTANTS, min_size=1, max_size=3).map(
        lambda t: LogPoly(vars, t))


_UV = ("u", "v")
_RINGS = {
    "rational": (RATIONAL, _FRACTIONS),
    "constants": (CONSTANTS, _CONSTANTS),
    "logpoly": (logpoly_ring(_UV), _logpolys(_UV, (0, 0))),
    # Laurent in w: negative w exponents
    "zone": (ZONE, _logpolys(ZONE_VARS, (0, 0, 0, -2, 0))),
    "complex": (COMPLEX, st.builds(complex, st.integers(-3, 3),
                                   st.integers(-3, 3)).map(
                                       lambda z: z / 3)),
}


def _series(ring, coeffs, trunc=3):
    words = st.lists(st.integers(0, 1), max_size=trunc).map(tuple)
    return st.dictionaries(words, coeffs, max_size=6).map(
        lambda t: NCSeries(AB, trunc, ring, t))


@pytest.mark.parametrize("name", sorted(_RINGS))
def test_product_matches_pairwise_reference(name):
    ring, coeffs = _RINGS[name]

    @settings(max_examples=40, deadline=None)
    @given(_series(ring, coeffs), _series(ring, coeffs))
    def check(x, y):
        got = x * y
        assert got.terms == _pairwise(x, y).terms
        for c in got.terms.values():
            assert c and type(c) is type(ring.zero)
            if isinstance(c, LogPoly):
                assert all(type(q) is F and q for q in c.terms.values())
                assert all(list(k[-1]) == sorted(k[-1]) for k in c.terms)

    check()



# ---------------------------------------------------------------------------
# the numerator form against the coefficients' own arithmetic: each
# operation on the series must give the terms that the ring elements
# (Fraction, ConstantCombination, LogPoly) give word by word, in the
# canonical form

# zeta multisets with repeated entries, whose products repeat them again
_REPEATED_KEYS = _ZETA_KEYS + (((2,), (2,)), ((2,), (2,), (3,)))
_PERIODS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.sampled_from(_REPEATED_KEYS)),
    _FRACTIONS, min_size=1, max_size=3).map(CC)


def _polys(vars, low):
    expo = st.tuples(*(st.integers(lo, 2) for lo in low))
    return st.dictionaries(expo, _PERIODS, min_size=1, max_size=3).map(
        lambda t: LogPoly(vars, t))


_EXACT = {
    "rational": (RATIONAL, _FRACTIONS),
    "constants": (CONSTANTS, _PERIODS),
    "logpoly1": (logpoly_ring(("u",)), _polys(("u",), (0,))),
    "logpoly2": (logpoly_ring(_UV), _polys(_UV, (0, 0))),
    "logpoly3": (logpoly_ring(("u", "v", "t")), _polys(("u", "v", "t"),
                                                       (0, 0, 0))),
    # Laurent in w: negative w exponents
    "zone": (ZONE, _polys(ZONE_VARS, (0, 0, 0, -2, 0))),
}


def _embed(ring, value):
    """A rational or a period combination as an element of the exact
    ``ring``: the reference of :meth:`NCSeries.lift`."""
    if ring is RATIONAL:
        return F(value)
    if ring is CONSTANTS:
        return CC.rational(value)
    return LogPoly.constant(ring.one.vars, value)


def _clean(d):
    return {w: c for w, c in d.items() if c}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for w, c in y.items():
        out[w] = out[w] + c * sign if w in out else c * sign
    return _clean(out)


def _ref_mul(x, y, trunc):
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            if len(w1) + len(w2) <= trunc:
                w = w1 + w2
                out[w] = out[w] + c1 * c2 if w in out else c1 * c2
    return _clean(out)


def _ref_scale(x, v):
    return _clean({w: v * c for w, c in x.items()})


def _ref_exp(x, one, trunc):
    out = power = {(): one}
    for n in range(1, trunc + 1):
        power = _ref_mul(power, x, trunc)
        out = _ref_add(out, _ref_scale(power, F(1, math.factorial(n))))
    return out


def _ref_invert(x, one, trunc):
    y = _ref_add({(): one}, x, -1)
    out = power = {(): one}
    for _ in range(trunc):
        power = _ref_mul(power, y, trunc)
        out = _ref_add(out, power)
    return out


def _assert_matches(got, ref, ring):
    """``got`` is canonical, has the reference terms, and ``==`` agrees."""
    assert got.ring is ring and got.den > 0
    nums = [n for m in got.nums.values() for n in m.values()]
    assert all(got.nums.values())
    assert all(type(n) is int and n for n in nums)
    assert math.gcd(got.den, *nums) == 1
    assert got.den == 1 or got.nums
    assert got.terms == ref
    assert got == NCSeries(AB, got.trunc, ring, ref)


_WORDS = st.lists(st.integers(0, 1), max_size=3).map(tuple)
_IMAGE = st.dictionaries(st.sampled_from([(0,), (1,), (0, 1), (1, 0, 0)]),
                         _FRACTIONS, min_size=1, max_size=3)


@pytest.mark.parametrize("name", sorted(_EXACT))
def test_numerator_form_matches_ring_arithmetic(name):
    ring, coeffs = _EXACT[name]
    one, trunc = ring.one, 3
    terms = st.dictionaries(_WORDS, coeffs, max_size=5)

    # no shrink phase: with seven drawn arguments and a dozen series
    # operations per example, shrinking a failure ran past 15 minutes,
    # while generation alone reports it within seconds
    @settings(max_examples=25, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(terms, terms, coeffs, _FRACTIONS, _IMAGE, _IMAGE,
           st.dictionaries(_WORDS, _PERIODS, max_size=4))
    def check(tx, ty, c, q, ia, ib, tz):
        x, y = (NCSeries(AB, trunc, ring, t) for t in (tx, ty))
        rx, ry = _clean(tx), _clean(ty)
        _assert_matches(x, rx, ring)
        results = [
            (x * y, _ref_mul(rx, ry, trunc)),
            (x + y, _ref_add(rx, ry)),
            (x - y, _ref_add(rx, ry, -1)),
            (x - x, {}),
            (-x, _ref_scale(rx, -1)),
            (x.scale(q), _ref_scale(rx, q)),
            (x.scale(c), _ref_scale(rx, c)),
        ]
        # exp and invert of the part of positive order
        rp = {w: v for w, v in rx.items() if w}
        p = NCSeries(AB, trunc, ring, rp)
        results.append((p.exp(), _ref_exp(rp, one, trunc)))
        unit = NCSeries.unit(AB, trunc, ring)
        results.append(((unit + p).invert(),
                         _ref_invert(_ref_add({(): one}, rp), one, trunc)))
        # rational images of positive order
        rimg = {"a": _clean(ia), "b": _clean(ib)}
        images = {k: NCSeries(AB, trunc, RATIONAL, v)
                  for k, v in rimg.items()}
        ref = {}
        for w, v in rx.items():
            prod = {(): F(1)}
            for i in w:
                prod = _ref_mul(prod, rimg[AB[i]], trunc)
            ref = _ref_add(ref, _ref_scale(prod, v))
        results.append((x.substitute(images), ref))
        # the lifts of rational and period series re-key the monomials
        sources = [images["a"]]
        if ring.table.n:
            sources.append(NCSeries(AB, trunc, CONSTANTS, tz))
        for src in sources:
            results.append((src.lift(ring), {
                w: _embed(ring, v) for w, v in src.terms.items()}))
        for got, ref in results:
            _assert_matches(got, ref, ring)
        for (a, _), (b, _) in zip(results, results[1:]):
            assert (a == b) == (a.terms == b.terms)

    check()


# ---------------------------------------------------------------------------
# exp and invert whose powers vanish before the truncation, and
# substitutions whose image denominators differ

# (trunc, terms of positive order): every series at trunc 1, a series
# whose last nonzero power is its square, and one whose square vanishes
_SHORT = [
    (1, {(0,): F(2, 3), (1,): F(-1, 4)}),
    (4, {(0, 1): F(1, 2), (1, 1, 0): F(-2, 3), (0, 0, 1, 1): F(3, 5)}),
    (5, {(0, 0, 1): F(3, 5), (1, 0, 1, 1): F(-1, 7)}),
]
_LOG_UV = logpoly_ring(_UV)


def _log_coeff(v):
    """A log-polynomial with a period and a rational term, both ``v``."""
    return LogPoly(_UV, {(1, 0): CC({(0, ((3,),)): v}), (0, 0): v})


@pytest.mark.parametrize("trunc, rx", _SHORT,
                         ids=["trunc1", "square-last", "square-vanishes"])
def test_exp_and_invert_of_powers_that_vanish_before_the_truncation(
        trunc, rx):
    # past trunc 1, the last nonzero power comes before the truncation
    power, last = {(): F(1)}, 0
    while power := _ref_mul(power, rx, trunc):
        last += 1
    assert last < trunc or trunc == 1
    for ring, embed in ((RATIONAL, F), (_LOG_UV, _log_coeff)):
        rc = {w: embed(v) for w, v in rx.items()}
        x = NCSeries(AB, trunc, ring, rc)
        _assert_matches(x.exp(), _ref_exp(rc, ring.one, trunc), ring)
        _assert_matches((NCSeries.unit(AB, trunc, ring) + x).invert(),
                        _ref_invert(_ref_add({(): ring.one}, rc), ring.one,
                                    trunc), ring)
    # the complex ring against the rational references, numerically
    z = NCSeries(AB, trunc, COMPLEX, {w: complex(v) for w, v in rx.items()})
    unit = NCSeries.unit(AB, trunc, COMPLEX)
    for got, ref in ((z.exp(), _ref_exp(rx, F(1), trunc)),
                     ((unit + z).invert(),
                      _ref_invert(_ref_add({(): F(1)}, rx), F(1), trunc))):
        assert got.den == 1
        terms = got.terms
        assert all(type(c) is complex for c in terms.values())
        for w in set(terms) | set(ref):
            assert abs(terms.get(w, 0) - complex(ref.get(w, 0))) <= 1e-12


@pytest.mark.parametrize("ring, embed", [(RATIONAL, F), (_LOG_UV, _log_coeff)],
                         ids=["rational", "logpoly"])
def test_substitute_images_over_different_denominators(ring, embed):
    # the images' denominators 6 and 12 multiply to 72 along "ab" and
    # "ba", six times their lcm; the source's coefficients make the
    # images' contributions to "b", "aa" and "bb" cancel
    trunc = 3
    rimg = {"a": {(0,): F(1, 2), (1,): F(1, 3), (0, 1, 1): F(-5, 6)},
            "b": {(0,): F(1, 4), (1,): F(1, 3), (1, 0): F(5, 12)}}
    images = {k: NCSeries(AB, trunc, RATIONAL, v) for k, v in rimg.items()}
    assert (images["a"].den, images["b"].den) == (6, 12)
    rx = {(0,): F(1), (1,): F(-1), (0, 1): F(2, 3), (1, 0): F(-2, 3),
          (0, 0, 1): F(1, 9)}
    ref = {}
    for w, v in rx.items():
        prod = {(): F(1)}
        for i in w:
            prod = _ref_mul(prod, rimg[AB[i]], trunc)
        ref = _ref_add(ref, _ref_scale(prod, embed(v)))
    for w in ((1,), (0, 0), (1, 1)):
        assert w not in ref
    got = NCSeries(AB, trunc, ring,
                   {w: embed(v) for w, v in rx.items()}).substitute(images)
    _assert_matches(got, ref, ring)
