"""Exact truncated multivariate series: ring laws and solvers."""
import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvelog.catalog import stable_graphs
from curvelog.constants import ConstantCombination as CC
from curvelog.cpseries import TruncatedSeries as TS, solve_quadratic
from curvelog.jsonio import canonical_dumps
from curvelog.logpoly import LogPoly
from curvelog.schottky import fixed_points_multiplier, verify_graph
from curvelog.sewing import ZONE_VARS

VARS = ("x", "y")
D = 4


def const(c, trunc=D):
    return TS.constant(F(c), VARS, trunc)


def var(name, trunc=D):
    return TS.variable(name, VARS, trunc)


def power(s, n):
    return math.prod([s] * n, start=const(1, s.trunc))


@st.composite
def small_series(draw, unit=False):
    terms = {}
    n_terms = draw(st.integers(0, 4))
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 2)) for _ in VARS)
        if sum(e) > D:
            continue
        terms[e] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if unit:
        terms[(0,) * len(VARS)] = F(draw(st.sampled_from([1, -1, 2, 3])))
    return TS(VARS, D, {e: c for e, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_laws(a, b, c):
    assert ((a + b) + c).terms == (a + (b + c)).terms
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms
    assert (a * (b + c)).terms == (a * b + a * c).terms
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_series(unit=True))
def test_invert_is_inverse(a):
    assert (a * a.invert() - const(1)).is_zero()


def test_series_are_unhashable():
    # __eq__ without __hash__: a series is mutable, so no set or dict key
    with pytest.raises(TypeError):
        hash(var("x"))


def test_truncation_drops_high_degree():
    x, y = var("x"), var("y")
    p = power(x + y, 4)
    assert p.coefficient((4, 0)) == 1
    q = power(x + y, 3) * (x + y)
    assert p.terms == q.terms
    r = power(x, 3) * power(y, 3)
    assert r.is_zero()


def test_geometric_inverse():
    x = var("x")
    s = (const(1) - x).invert()
    for k in range(D + 1):
        assert s.coefficient((k, 0)) == 1


def test_solve_quadratic_catalan():
    # z = (-1 + sqrt(1+4x)) / 2 solves z^2 + z - x = 0, z(0) = 0;
    # coefficients are signed Catalan numbers.
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    z = solve_quadratic(one, one, -x, F(0))
    expect = [0, 1, -1, 2, -5, 14, -42]
    got = [z.coefficient((k,)) for k in range(7)]
    assert got == [F(v) for v in expect]
    assert (z * z + z - x).is_zero()


def test_solve_quadratic_rejects_bad_seed():
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    with pytest.raises(ValueError):
        solve_quadratic(one, one, -x, F(1))


def test_solve_quadratic_nonzero_root0():
    # (z - 2)(z - (3 + x)) = 0 near z = 2: root is exactly 2 ... plus
    # corrections: z = 2 has a0(x) dependence; solve and verify residual.
    vs = ("x",)
    one = TS.constant(F(1), vs, 6)
    x = TS.variable("x", vs, 6)
    a1 = -(TS.constant(F(5), vs, 6) + x)
    a0 = TS.constant(F(6), vs, 6) + F(2) * x
    z = solve_quadratic(one, a1, a0, F(2))
    assert (z * z + a1 * z + a0).is_zero()
    assert z.constant_term() == 2


def test_ideal_order():
    x, y = var("x"), var("y")
    s = x * x * y + power(x, 4)
    assert s.order() == 3
    assert s.ideal_order(("x",)) == 2
    assert s.ideal_order(("y",)) == 0
    assert const(0).ideal_order(("x",)) >= D + 1


def test_divide_monomial():
    x, y = var("x"), var("y")
    s = x * x * y + power(x, 3)
    q = s.divide_monomial((2, 0))
    assert q.terms == (y + x).terms
    assert q.trunc == D - 2
    with pytest.raises(ValueError):
        (x + y).divide_monomial((2, 0))


def test_divide_monomial_above_the_truncation_raises():
    # the quotient would carry a negative truncation; a ValueError that
    # names the cause is raised instead
    s = TS(("s",), 1)
    with pytest.raises(ValueError, match="exceeds the truncation"):
        s.divide_monomial((3,))
    q = TS.variable("s", ("s",), 1).divide_monomial((1,))
    assert q.trunc == 0 and q == TS.constant(1, ("s",), 0)


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        var("x").invert()


def test_inexact_scalars_are_rejected():
    one = TS.constant(1, ("x",), 2)
    for make in (lambda: one + 0.5, lambda: 0.5 + one, lambda: one - 0.5,
                 lambda: one * 0.5, lambda: 0.5 * one,
                 lambda: TS.constant(0.5, ("x",), 2),
                 lambda: TS(("x",), 2, {(1,): 0.1})):
        with pytest.raises(TypeError):
            make()


def test_constructor_rejects_bad_exponents():
    for exp in ((1.5, 0), (1,), (1, 0, 0), ("x", 0), ("1", 0), (-1, 0)):
        with pytest.raises(ValueError):
            TS(VARS, D, {exp: 1})
    assert TS(VARS, D, {(1, 0): 1, (0, 1): 1}) == var("x") + var("y")


@pytest.mark.parametrize("trunc", [0, 1, 3, 7, 8])
def test_constant_and_variable_match_the_general_constructor(trunc):
    # both build the canonical form directly; the general constructor
    # is the reference
    vars = ("a", "b", "c")
    for value in (0, 1, -3, F(6, 4), "-5/10", F(-7, 9)):
        s = TS.constant(value, vars, trunc)
        assert_canonical(s)
        assert s == TS(vars, trunc, {(0, 0, 0): F(value)})
    for i, name in enumerate(vars):
        s = TS.variable(name, vars, trunc)
        assert_canonical(s)
        exp = tuple(int(j == i) for j in range(3))
        assert s == TS(vars, trunc, {exp: 1})
        # a variable is zero at truncation 0, where degree 1 is dropped
        assert s.is_zero() == (trunc == 0)


def test_constant_and_variable_keep_their_errors():
    with pytest.raises(ValueError, match="truncation"):
        TS.constant(1, VARS, -1)
    with pytest.raises(ValueError, match="truncation"):
        TS.variable("x", VARS, -1)
    with pytest.raises(TypeError):
        TS.constant(0.5, VARS, D)
    with pytest.raises(ValueError, match="zero denominator"):
        TS.constant("1/0", VARS, D)
    with pytest.raises(ValueError):
        TS.variable("z", VARS, D)


# the two largest primes below 2^b for b = 20, 24, ..., 40
PRIMES = (1048573, 1048571, 16777213, 16777199, 268435399, 268435367,
          4294967291, 4294967279, 68719476731, 68719476719,
          1099511627689, 1099511627609)


@st.composite
def coprime_operands(draw):
    """``(u, v, c, r)``: two series and two scalars whose denominators are
    distinct large primes, so every pair of denominators is coprime."""
    primes = iter(draw(st.permutations(PRIMES)))

    def scalar():
        n = draw(st.integers(1, 2 ** 40)) * draw(st.sampled_from([1, -1]))
        return F(n, next(primes))

    def series():
        exps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             min_size=1, max_size=4, unique=True))
        return TS(VARS, D, {e: scalar() for e in exps})

    return series(), series(), scalar(), scalar()


def pairwise(a, b, key, keep=lambda k: True):
    """The product of two term dicts by pairwise Fraction arithmetic: the
    pair ``(ka, kb)`` lands at ``key(ka, kb)`` if ``keep`` accepts it."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = key(ka, kb)
            if keep(k):
                out[k] = out.get(k, F(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def add_exponents(ea, eb):
    return tuple(x + y for x, y in zip(ea, eb))


def add_zone_keys(ka, kb):
    """Symbol exponents and the (i*pi)-power add, zeta multisets merge."""
    return add_exponents(ka[:-1], kb[:-1]) + (tuple(sorted(ka[-1] + kb[-1])),)


def reference_product(a, b):
    """The truncated product by pairwise Fraction arithmetic."""
    return pairwise(a.terms, b.terms, add_exponents,
                    lambda e: sum(e) <= a.trunc)


def assert_stored_clean(s):
    assert all(type(c) is F and c != 0 for c in s.terms.values())


@settings(max_examples=40, deadline=None)
@given(coprime_operands())
def test_kernel_exact_over_coprime_denominators(operands):
    u, v, c, r = operands
    a, b = u + v, u - v          # the u*v cross terms of a*b cancel
    prod = a * b
    assert prod.terms == reference_product(a, b)
    assert prod == u * u - v * v
    unit = a - a.constant_term() + c
    inv = unit.invert()
    assert unit * inv == const(1)
    # a2 z^2 + a1 z + a0 = 0 with root r at the constant term
    a2, a1 = u, v - v.constant_term() + c
    a0 = b - b.constant_term() - (a2.constant_term() * r * r + c * r)
    assume(2 * a2.constant_term() * r + c != 0)
    z = solve_quadratic(a2, a1, a0, r)
    assert z.constant_term() == r
    assert (a2 * z * z + a1 * z + a0).is_zero()
    for s in (prod, inv, z):
        assert_stored_clean(s)


# period keys: zeta(2) and zeta(3) alone and together, so that products
# merge the multiset {2, 3} from both operand orders
PERIODS = ((0, ()), (1, ()), (0, ((2,),)), (0, ((3,),)),
           (0, ((2,), (3,))), (2, ((1, 2),)))
SMALL = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def kernel_operands(draw):
    """Two series truncated at total degree D and two zone polynomials
    (negative powers of ``w``), each of 0, 1 or several terms."""
    def series():
        return TS(VARS, D, draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), SMALL,
            max_size=5)))

    def zone():
        expo = st.tuples(st.integers(0, 1), st.integers(0, 1),
                         st.integers(0, 1), st.integers(-2, 2),
                         st.integers(0, 1))
        terms = draw(st.dictionaries(st.tuples(expo, st.sampled_from(PERIODS)),
                                     SMALL, max_size=5))
        return sum((LogPoly.monomial(ZONE_VARS, e, CC({per: c}))
                    for (e, per), c in terms.items()), LogPoly.zero(ZONE_VARS))

    return series(), series(), zone(), zone()


@settings(max_examples=80, deadline=None)
@given(kernel_operands())
def test_shared_product_matches_pairwise_reference(operands):
    s, t, a, b = operands
    assert (s * t).terms == reference_product(s, t)
    assert (a * b).terms == pairwise(a.terms, b.terms, add_zone_keys)
    assert (b * a).terms == (a * b).terms
    for x in (s * t, s + t, s - t, a * b, a + b, a - b):
        assert_stored_clean(x)
    assert all(list(k[-1]) == sorted(k[-1]) for k in (a * b).terms)


def test_merged_zeta_multisets_cancel():
    z2, z3 = CC.zeta(2), CC.zeta(3)
    a = LogPoly.monomial(ZONE_VARS, (0, 0, 0, 1, 0), z2 + z3)
    b = LogPoly.monomial(ZONE_VARS, (0, 0, 0, -1, 0), z3 - z2)
    # zeta(2)*zeta(3) arises once from each operand order and cancels
    expect = CC({(0, ((3,), (3,))): 1, (0, ((2,), (2,))): -1})
    assert a * b == LogPoly.constant(ZONE_VARS, expect) == b * a
    assert (a * b).terms == {(0, 0, 0, 0, 0) + k: c
                             for k, c in expect.terms.items()}


# truncations whose exponents need from 0 to 9 bits, two above 127
TRUNCS = (0, 1, 2, 6, 130, 300)


def ref_clean(terms, trunc):
    return {e: c for e, c in terms.items() if c and sum(e) <= trunc}


def ref_combine(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b, trunc):
    """The truncated product of two term dicts of ``Fraction``s on integer
    numerators over the product of the operands' lcm denominators: a pair
    whose degree sum exceeds ``trunc`` is skipped before it is multiplied,
    and each key's ``Fraction`` is built once, from its summed products."""
    (na, da), (nb, db) = (ref_numerators(t) for t in (a, b))
    bs = sorted((sum(e), e, n) for e, n in nb.items())
    acc = {}
    for ea, ca in na.items():
        room = trunc - sum(ea)
        for d, eb, cb in bs:
            if d > room:
                break
            k = add_exponents(ea, eb)
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: F(n, da * db) for k, n in acc.items() if n}


def ref_numerators(terms):
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


def assert_canonical(s):
    """The numerator form: positive ``den`` coprime to the numerators, no
    zero stored, ``den == 1`` for zero, and keys that the coefficients
    read back through."""
    assert s.den > 0 and 0 not in s.nums.values()
    assert math.gcd(s.den, *s.nums.values()) == 1
    assert s.nums or s.den == 1
    assert all(sum(e) <= s.trunc for e in s.terms)
    assert_stored_clean(s)


@st.composite
def packed_operands(draw):
    """Series over 1 to 5 variables at one truncation of ``TRUNCS``: terms
    on a lattice of step ``trunc // 6`` (plus 0 or 1), so that products
    and roots stay small while the exponents fill their bit fields."""
    nv = draw(st.integers(1, 5))
    trunc = draw(st.sampled_from(TRUNCS))
    vars = tuple(f"v{i}" for i in range(nv))
    step = max(1, trunc // 6)
    # m = 2 * lattice index + offset, the lattice index from 0 to 3
    exps = st.lists(st.integers(0, 7), min_size=nv, max_size=nv).map(
        lambda ms: tuple(step * (m >> 1) + (m & 1) for m in ms))
    coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    return vars, trunc, [draw(st.dictionaries(exps, coeff, max_size=n))
                         for n in (4, 4, 3, 3)]


@settings(max_examples=100, deadline=None)
@given(packed_operands(), st.data())
def test_numerator_form_matches_fraction_reference(operands, data):
    vars, trunc, raw = operands
    a, b, u, v = (TS(vars, trunc, t) for t in raw)
    ra, rb = (ref_clean(t, trunc) for t in raw[:2])
    c = data.draw(st.builds(F, st.integers(-5, 5), st.integers(1, 6)))
    zero = (0,) * len(vars)
    got = {"a": (a, ra), "b": (b, rb),
           "add": (a + b, ref_combine(ra, rb)),
           "sub": (a - b, ref_combine(ra, rb, -1)),
           "neg": (-a, {e: -x for e, x in ra.items()}),
           "scale": (a.scale(c), {e: c * x for e, x in ra.items() if c}),
           "mul": (a * b, ref_mul(ra, rb, trunc))}
    # the widest exponent, x_i^trunc, as a product of two halves
    i = data.draw(st.integers(0, len(vars) - 1))
    mono = [tuple(n * (j == i) for j in range(len(vars)))
            for n in (trunc // 2, trunc - trunc // 2, trunc)]
    widest = TS(vars, trunc, {mono[0]: c or 1}) * TS(vars, trunc, {mono[1]: 1})
    assert widest.terms == {mono[2]: c or 1}
    # a unit and its inverse; a quadratic with a simple root r
    unit = u - u.constant_term() + 1
    got["invert"] = (unit.invert(), None)
    assert ref_mul(unit.terms, got["invert"][0].terms, trunc) == {zero: F(1)}
    r = data.draw(st.sampled_from([F(0), F(1), F(-2, 3)]))
    a2, a1 = v, u - u.constant_term() + 2
    a0 = b - b.constant_term() - (a2.constant_term() * r * r + 2 * r)
    if 2 * a2.constant_term() * r + 2 != 0:
        z = solve_quadratic(a2, a1, a0, r)
        got["root"] = (z, None)
        q2, q1, q0 = (x.terms for x in (a2, a1, a0))
        lhs = ref_combine(ref_combine(
            ref_mul(q2, ref_mul(z.terms, z.terms, trunc), trunc),
            ref_mul(q1, z.terms, trunc)), q0)
        assert lhs == {} and z.constant_term() == r
    # the structural operations, on the product plus x_i^trunc / 97: a
    # part that drops the term must also drop the 97 from ``den``
    top = TS(vars, trunc, {mono[2]: F(1, 97)})
    p, rp = got["mul"][0] + top, ref_combine(got["mul"][1], top.terms)
    t = data.draw(st.integers(0, trunc))
    got["truncate"] = (p.truncate(t), ref_clean(rp, t))
    d = data.draw(st.integers(0, trunc))
    got["homogeneous"] = (p.homogeneous_part(d),
                          {e: x for e, x in rp.items() if sum(e) == d})
    low = min(map(sum, rp), default=None)
    got["lowest"] = (p.lowest_part(),
                     {e: x for e, x in rp.items() if sum(e) == low})
    assert p.order() == (math.inf if low is None else low)
    ideal = data.draw(st.sets(st.sampled_from(vars)))
    at = [j for j, x in enumerate(vars) if x in ideal]
    assert p.ideal_order(ideal) == min(
        (sum(e[j] for j in at) for e in rp), default=math.inf)
    if rp:
        exp = tuple(map(min, zip(*rp)))
        got["divide"] = (p.divide_monomial(exp), {
            tuple(x - y for x, y in zip(e, exp)): q for e, q in rp.items()})
        assert got["divide"][0].trunc == trunc - sum(exp)
    for name, (s, ref) in got.items():
        assert_canonical(s)
        if ref is not None:
            assert s.terms == ref, name
            for e, x in ref.items():
                assert s.coefficient(e) == x
    # == is equality of the coefficients
    results = [s for s, _ in got.values()]
    for x in results:
        for y in results:
            if (x.vars, x.trunc) == (y.vars, y.trunc):
                assert (x == y) == (x.terms == y.terms)
    assert a + b == b + a and a * b == b * a and a - a == TS(vars, trunc)


# sha256 of the verify_graph reports and of the fixed-point and
# multiplier series over every trivalent graph with g <= 2, n <= 2 (the
# charts of the acceptance suite), words up to length 3, degree 6
SCHOTTKY_REPORTS_SHA256 = \
    "3bb512a39ac40a63665642e83245414a5aed8ee225e5885bca3d872626f96c02"
FIXED_POINTS_SHA256 = \
    "cd26bc141b4a5c7977a99dfe7945b5fe8fdb2d2b12f105b486be3d870e711b3c"


def test_schottky_outputs_are_pinned():
    graphs = []
    for g in range(3):
        for n in range(3):
            if 2 * g - 2 + n > 0:
                for graph in stable_graphs(g, n):
                    graphs.append(graph.specialize_chart(seed=100 + len(graphs)))
    reports = [verify_graph(graph, max_len=3, trunc=6) for graph in graphs]
    series = []
    for graph in graphs:
        for word in graph.closed_words(3):
            data = fixed_points_multiplier(graph, word, 6)
            series.append({k: getattr(data, k).to_json()
                           for k in ("x", "beta", "alpha", "alpha_prime")})
    assert len(graphs) == 17 and len(series) == 122

    def sha(obj):
        return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()

    assert sha(reports) == SCHOTTKY_REPORTS_SHA256
    assert sha(series) == FIXED_POINTS_SHA256
