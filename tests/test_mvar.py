import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdecomp import limits, mvar
from ffdecomp.decomp import check_t1, count_pairs, find_h, random_ratfun, small_fiber_diagnostics
from ffdecomp.errors import SizeLimitError, SpecMismatchError, ValidationError
from ffdecomp.gf_core import build_field
from ffdecomp.mvar import (
    INFINITY,
    UNDEFINED,
    MPoly,
    MRatFun,
    check_t41,
    count_pairs_mv,
    count_undefined,
    find_h_mv,
    mpoly_divexact,
    mpoly_gcd,
    mrat_compose,
    mv_factor,
    t41_threshold_ok,
    verify_h_mv,
)
from ffdecomp.parsing import parse_ratfun
from ffdecomp.upoly import (
    EVAL_ROOTS_MAX_ORDER,
    Poly,
    RatFun,
    _distinct_degree_parts,
    _equal_degree_parts,
    poly_gcd,
    rat_compose,
    roots,
)

from oracles import (
    collapse_factor,
    divisor_find_h,
    divisor_find_h_mv,
    find_h_by_composing_all,
    hensel_lift_by_recomputing,
    lifted_roots_to_2e,
    newton_lift_by_doubling,
    pointwise_count_pairs,
    pointwise_count_pairs_mv,
    pointwise_count_undefined,
    pointwise_simple_roots,
    pointwise_small_fibers,
    pointwise_t1_scan,
    term_add,
    term_eval,
    term_mul,
    term_shift,
    usable_points,
)

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)
F7 = build_field(7)
F8 = build_field(2, 3)

S1, S2, S3 = sympy.symbols("X1 X2 X3")


def mp(spec, n, terms):
    return MPoly.from_terms(spec, n, terms)


def poly_rf(spec, ints):
    return RatFun.from_poly(Poly.from_ints(spec, ints))


def rand_mpoly(rng, spec, n, max_total):
    terms = {}
    for key in itertools.product(range(max_total + 1), repeat=n):
        if sum(key) <= max_total:
            terms[key] = spec.from_index(rng.randrange(spec.order))
    return mp(spec, n, terms)


def to_sympy(F):
    assert F.spec.k == 1
    syms = [S1, S2, S3][: F.n]
    expr = sympy.Integer(0)
    for k, c in F.terms.items():
        t = sympy.Integer(c.index)
        for s, e in zip(syms, k):
            t *= s**e
        expr += t
    return sympy.Poly(expr, *syms, modulus=F.spec.p)


def sympy_associates(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    return sa.div(sb)[1].is_zero and sb.div(sa)[1].is_zero


# --------------------------------------------------------------------------
# polynomial arithmetic


def test_mpoly_arithmetic_agrees_with_evaluation():
    rng = random.Random(4101)
    for spec in (F3, F5):
        for _ in range(6):
            a = rand_mpoly(rng, spec, 2, 2)
            b = rand_mpoly(rng, spec, 2, 2)
            for xs in itertools.product(spec.elements(), repeat=2):
                assert (a + b)(xs) == a(xs) + b(xs)
                assert (a * b)(xs) == a(xs) * b(xs)
                assert (a - b)(xs) == a(xs) - b(xs)
            assert (a**3)(list(spec.elements())[:2]) == a(list(spec.elements())[:2]) ** 3


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (13, 1), (2, 17)], ids=str)
def test_index_kernels_match_the_element_oracles(p, k):
    # F_2^17 has no tables: its index primitives compute on coordinates
    spec = build_field(p, k)
    rng = random.Random(f"mpoly kernels/{p}^{k}")
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        a = rand_mpoly(rng, spec, n, rng.randrange(4))
        b = rand_mpoly(rng, spec, n, rng.randrange(3))
        xs = [spec.from_index(rng.randrange(spec.order)) for _ in range(n)]
        assert (a + b).terms == term_add(a, b)
        assert (a - a).terms == {}
        assert (a * b).terms == term_mul(a, b)
        assert a(xs) == term_eval(a, xs)
        top = rng.randrange(4)
        assert mvar._shift(a, [x.index for x in xs], top).terms == term_shift(a, xs, top)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shift_at_the_origin_is_the_truncation(n):
    # the lifter reads its jets straight from the coefficients when it lifts
    # at the origin; the binomial shift must give the same there
    for spec in (F7, build_field(3, 2)):
        rng = random.Random(f"shift at 0/{spec.order}/{n}")
        for _ in range(10):
            a = rand_mpoly(rng, spec, n, rng.randrange(5))
            top = rng.randrange(6)
            cut = {k: c for k, c in a.terms.items() if sum(k) <= top}
            assert mvar._shift(a, (0,) * n, top).terms == cut == term_shift(a, [spec.zero()] * n, top)


def test_ints_are_multiples_of_one_in_several_variables():
    F9 = build_field(3, 2)
    a = F9.from_index(4)  # the element [1,1]; the int 4 is 4 * 1 = 1
    x1, x2 = MPoly.variable(F9, 2, 0), MPoly.variable(F9, 2, 1)
    f = x1 * x2 * a + 5
    assert f.terms == {(1, 1): a, (0, 0): F9.element(2)}
    assert (f + 4).terms == {(1, 1): a}
    assert (4 - f).terms == {(1, 1): -a, (0, 0): F9.element(2)}
    assert f * 4 == f and 7 * f == f and (f * 3).is_zero()
    assert mp(F9, 2, {(1, 1): a, (0, 0): 5, (2, 0): 9}) == f
    assert f([4, 5]) == f([1, 2]) == a * 2 + 2 and f([3, 1]) == F9.element(2)
    assert f.coeff((0, 0)) == 2 and f.coeff((5, 5)) == 0


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (2, 17)], ids=str)
def test_equal_mpolys_hash_alike_however_built(p, k):
    spec = build_field(p, k)
    a = spec.from_index(spec.order - 1)
    x1, x2 = MPoly.variable(spec, 2, 0), MPoly.variable(spec, 2, 1)
    built = [
        mp(spec, 2, {(1, 1): a, (0, 0): spec.one()}),
        mp(spec, 2, {(1, 1): a, (0, 0): 1, (3, 0): spec.p}),
        x1 * x2 * a + 1,
        (x1 + 1) * (x2 * a) - x2 * a + MPoly.one(spec, 2),
        mpoly_divexact(x1 * x1 * x2 * a + x1, x1),
    ]
    assert all(g == built[0] and hash(g) == hash(built[0]) for g in built)
    assert len(set(built)) == 1


def test_mpoly_structure_and_str():
    f = mp(F5, 2, {(1, 1): 1, (0, 0): 1})
    assert str(f) == "X1*X2+1"
    assert f.total_degree() == 2
    assert f.deg_in(0) == 1 and f.deg_in(1) == 1
    assert str(MPoly.zero(F5, 2)) == "0"
    assert str(mp(F5, 3, {(0, 2, 1): 3})) == "3*X2^2*X3"


def test_mpoly_validation():
    with pytest.raises(ValidationError):
        mp(F5, 2, {(1,): 1})
    with pytest.raises(ValidationError):
        mp(F5, 2, {(-1, 0): 1})
    with pytest.raises(SpecMismatchError):
        mp(F5, 2, {(1, 0): 1}) + mp(F3, 2, {(1, 0): 1})
    with pytest.raises(SpecMismatchError):
        mp(F5, 2, {(1, 0): 1}) + mp(F5, 3, {(1, 0, 0): 1})


def test_divexact_roundtrip():
    rng = random.Random(4102)
    for _ in range(10):
        a = rand_mpoly(rng, F5, 2, 2)
        b = rand_mpoly(rng, F5, 2, 2)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        q = mpoly_divexact(prod, b)
        assert q == a
    # a non-divisor is reported as such
    assert mpoly_divexact(mp(F5, 2, {(1, 1): 1, (0, 0): 1}), mp(F5, 2, {(1, 0): 1})) is None


def test_gcd_matches_sympy():
    rng = random.Random(4103)
    for _ in range(12):
        c = rand_mpoly(rng, F5, 2, 2)
        a = rand_mpoly(rng, F5, 2, 2)
        b = rand_mpoly(rng, F5, 2, 2)
        if c.is_zero() or a.is_zero() or b.is_zero():
            continue
        g = mpoly_gcd(a * c, b * c)
        sg = to_sympy(a * c).gcd(to_sympy(b * c))
        mine = to_sympy(g)
        assert sg.div(mine)[1].is_zero and mine.div(sg)[1].is_zero
        # the common factor c divides the gcd
        assert mpoly_divexact(g, c) is not None


def test_gcd_of_coprime_is_one():
    a = mp(F5, 2, {(1, 0): 1, (0, 0): 1})  # X1 + 1
    b = mp(F5, 2, {(0, 1): 1, (0, 0): 2})  # X2 + 2
    assert mpoly_gcd(a, b) == MPoly.one(F5, 2)


def test_gcd_univariate_base_case():
    a = mp(F5, 1, {(2,): 1, (0,): 4})  # X1^2 - 1
    b = mp(F5, 1, {(1,): 1, (0,): 1})  # X1 + 1
    assert mpoly_gcd(a, b) == b
    # and it agrees with the univariate gcd after conversion
    pa = Poly.from_ints(F5, [4, 0, 1])
    pb = Poly.from_ints(F5, [1, 1])
    assert str(poly_gcd(pa, pb)) == "X+1"


def test_gcd_three_variables():
    c = mp(F3, 3, {(1, 1, 0): 1, (0, 0, 1): 1})  # X1X2 + X3
    a = mp(F3, 3, {(1, 0, 0): 1, (0, 0, 0): 1})
    b = mp(F3, 3, {(0, 1, 0): 1, (0, 0, 0): 2})
    g = mpoly_gcd(a * c, b * c)
    assert mpoly_divexact(g, c) is not None
    assert g.total_degree() == c.total_degree()


# --------------------------------------------------------------------------
# rational functions and evaluation


def test_mratfun_reduces_and_normalizes():
    num = mp(F5, 2, {(2, 1): 1, (1, 0): 1})  # X1^2 X2 + X1
    den = mp(F5, 2, {(1, 0): 1})  # X1
    f = MRatFun.make(num, den)
    assert f.num == mp(F5, 2, {(1, 1): 1, (0, 0): 1})
    assert f.den == MPoly.one(F5, 2)
    # scaling both parts changes nothing
    g = MRatFun.make(num * 3, den * 3)
    assert f == g
    # denominator comes out with leading coefficient one
    h = MRatFun.make(MPoly.one(F5, 2), mp(F5, 2, {(1, 0): 2}))
    assert h.den == mp(F5, 2, {(1, 0): 1})
    assert h.num == mp(F5, 2, {(0, 0): 3})


def test_mrat_eval_three_outcomes():
    f = MRatFun.make(MPoly.variable(F3, 2, 0), MPoly.variable(F3, 2, 1))  # X1/X2
    zero, one = F3.zero(), F3.one()
    assert f.eval((zero, zero)) is UNDEFINED
    assert f.eval((one, zero)) is INFINITY
    prod = MRatFun.from_poly(mp(F3, 2, {(1, 1): 1}))
    assert prod.eval((F3.element(2), F3.element(2))) == one


def test_count_undefined():
    f = MRatFun.make(
        mp(F5, 2, {(1, 0): 1, (0, 1): 1}), mp(F5, 2, {(1, 1): 1})
    )  # (X1+X2)/(X1X2)
    assert count_undefined(f) == 1  # only the origin kills both
    assert count_undefined(MRatFun.from_poly(mp(F5, 2, {(2, 0): 1}))) == 0


# --------------------------------------------------------------------------
# pair counting


def test_count_pairs_mv_examples():
    prod = MRatFun.from_poly(mp(F3, 2, {(1, 1): 1}))
    assert count_pairs_mv(prod, poly_rf(F3, [0, 0, 1])) == 9
    ratio = MRatFun.make(MPoly.variable(F3, 2, 0), MPoly.variable(F3, 2, 1))
    assert count_pairs_mv(ratio, poly_rf(F3, [0, 1])) == 6
    diag = MRatFun.from_poly(MPoly.variable(F5, 2, 0))
    assert count_pairs_mv(diag, poly_rf(F5, [0, 1])) == 25


def test_count_pairs_mv_matches_triple_loop():
    rng = random.Random(4104)
    for _ in range(5):
        num = rand_mpoly(rng, F3, 2, 2)
        den = rand_mpoly(rng, F3, 2, 2)
        if den.is_zero() or num.is_zero():
            continue
        f = MRatFun.make(num, den)
        g = poly_rf(F3, [rng.randrange(3), rng.randrange(3), 1])
        expected = 0
        for xs in itertools.product(F3.elements(), repeat=2):
            v = f.eval(xs)
            if v is UNDEFINED:
                continue
            expected += sum(1 for y in F3.elements() if g.eval(y) == v)
        assert count_pairs_mv(f, g) == expected


@pytest.mark.parametrize("spec", [F5, F7], ids=["F5", "F7"])
def test_count_pairs_mv_matches_double_loop_with_poles_and_undefined(spec):
    rng = random.Random(4106 + spec.order)
    grid = list(itertools.product(spec.elements(), repeat=2))
    seen_undefined = seen_pole = 0
    for _ in range(6):
        # no constant terms, so numerator and denominator both vanish at 0
        num, den = (
            mp(spec, 2, {k: c for k, c in rand_mpoly(rng, spec, 2, 2).terms.items() if any(k)})
            for _ in range(2)
        )
        if num.is_zero() or den.is_zero():
            continue
        f = MRatFun.make(num, den)
        a = spec.from_index(rng.randrange(spec.order))
        g = RatFun.make(
            Poly.from_coeffs(spec, [a * a + 1, spec.zero(), spec.one()]),
            Poly.from_coeffs(spec, [-a, spec.one()]),
        )
        values = [f.eval(xs) for xs in grid]
        seen_undefined += values.count(UNDEFINED)
        seen_pole += values.count(INFINITY)
        expected = sum(1 for xs in grid for y in spec.elements() if f.eval(xs) == g.eval(y))
        assert count_pairs_mv(f, g) == expected
    assert seen_undefined and seen_pole


@pytest.mark.parametrize("spec", [F5, F8], ids=["F5", "F8"])
def test_pair_count_slots_count_poles_of_g_and_nothing_where_f_is_undefined(spec):
    # g has poles at a and b in F_q and a zero at infinity; f = (X1 + c)/X2
    # is infinite on X2 = 0 away from X1 = -c and undefined at (-c, 0), so
    # a pole of f meets each pole of g and the undefined point meets nothing
    x = Poly.x(spec)
    a, b, c = (spec.from_index(i) for i in (1, 2, 3))
    g = RatFun.make(x, (x - a) * (x - b))
    f = MRatFun.make(mp(spec, 2, {(1, 0): 1, (0, 0): c}), MPoly.variable(spec, 2, 1))
    assert f.eval((-c, spec.zero())) is UNDEFINED and f.eval((spec.one() - c, spec.zero())) is INFINITY
    _, sizes, v_inf = mvar._fibers(g)
    assert len(sizes) == spec.order + 2
    assert (sizes[mvar._INF], sizes[mvar._UNDEF], v_inf) == (2, 0, 0)
    assert count_pairs_mv(f, g) == pointwise_count_pairs_mv(f, g)


def test_count_pairs_mv_single_variable_matches_univariate():
    rng = random.Random(4105)
    for spec in (F3, F5):
        for _ in range(6):
            nc = [rng.randrange(spec.order) for _ in range(3)]
            dc = [rng.randrange(spec.order) for _ in range(3)]
            num = Poly.from_ints(spec, nc)
            den = Poly.from_ints(spec, dc)
            if num.is_zero() or den.is_zero():
                continue
            f1 = RatFun.make(num, den)
            if f1.is_constant():
                continue
            fm = MRatFun.make(
                mp(spec, 1, {(e,): c for e, c in enumerate(nc)}),
                mp(spec, 1, {(e,): c for e, c in enumerate(dc)}),
            )
            g = poly_rf(spec, [1, rng.randrange(spec.order), 1])
            assert count_pairs_mv(fm, g) == count_pairs(f1, g)


# --------------------------------------------------------------------------
# the grid evaluator against the pointwise scans


_SCAN_FIELDS = [F2, F3, build_field(2, 2), build_field(2, 3), build_field(3, 2), build_field(13)]


@st.composite
def _scan_inputs(draw):
    """f = A/B in n variables, and g = P/Q with a pole at some a in F_q when
    deg Q > 0 and at infinity when deg P > deg Q.  A and B share the zero at
    the origin when neither has a constant term, which leaves an UNDEFINED
    point for n > 1 unless reducing A/B removes it."""
    spec = draw(st.sampled_from(_SCAN_FIELDS))
    n = draw(st.integers(1, 3))
    index, nonzero = st.integers(0, spec.order - 1), st.integers(1, spec.order - 1)
    keys = st.tuples(*[st.integers(0, 2)] * n)
    if draw(st.booleans()):
        keys = keys.filter(any)  # through the origin

    def mpoly():
        terms = draw(st.dictionaries(keys, nonzero, min_size=1, max_size=4))
        return mp(spec, n, {k: spec.from_index(i) for k, i in terms.items()})

    num, den = mpoly(), mpoly()
    a = spec.from_index(draw(index))
    p = Poly.from_ints(spec, draw(st.lists(index, min_size=1, max_size=3)) + [draw(nonzero)])
    q = Poly.from_coeffs(spec, [-a, spec.one()]) ** draw(st.integers(0, 2))
    g = RatFun.make(p, q)
    assume(not g.is_constant())
    return MRatFun.make(num, den), g


@settings(max_examples=80, deadline=3000)
@given(_scan_inputs())
def test_grid_evaluator_matches_pointwise_scans(fg):
    f, g = fg
    assert count_pairs_mv(f, g) == pointwise_count_pairs_mv(f, g)
    assert count_undefined(f) == pointwise_count_undefined(f)
    diag = small_fiber_diagnostics(g)
    assert (diag.small_points, diag.small_values) == pointwise_small_fibers(g)
    if f.n == 1 and not f.is_constant():
        f1 = RatFun.make(mvar._to_upoly(f.num), mvar._to_upoly(f.den))
        assert count_pairs(f1, g) == pointwise_count_pairs(f1, g) == count_pairs_mv(f, g)
        rep = check_t1(f1, g)
        assert (rep.condition_i, rep.condition_ii.exceptions) == pointwise_t1_scan(f1, g)


def test_pair_count_above_the_table_limit_matches_pointwise():
    # F_65537 has no tables, so the evaluator runs on the coordinate primitives;
    # at n = 1 count_pairs_mv guards its q points, as count_pairs does
    spec = build_field(65537)
    x = Poly.x(spec)
    f = RatFun.make(x**3 + 7 * x + 5, x - 3)  # poles at 3 and infinity
    g = RatFun.make(x**3 + 2 * x + 1, (x - 40000) ** 2)  # a double pole at 40000
    fm = MRatFun(mvar._from_upoly(f.num), mvar._from_upoly(f.den))
    assert count_pairs(f, g) == count_pairs_mv(fm, g) == pointwise_count_pairs(f, g)


def _scans(spec):
    """(points walked, label, the count as the refusal writes it, the scan,
    its answer) for each guarded scan."""
    q = spec.order
    f = MRatFun.make(mp(spec, 2, {(1, 0): 1, (0, 2): 1}), mp(spec, 2, {(1, 1): 1, (0, 1): 2}))
    g = RatFun.make(Poly.from_ints(spec, [1, 0, 0, 1]), Poly.from_ints(spec, [0, 1]))
    f1 = poly_rf(spec, [1, 2, 0, 1])
    return [
        (q, "fiber scan", f"{q}", lambda: count_pairs(f1, g), pointwise_count_pairs(f1, g)),
        (q**2, "pair grid", f"{q}^2", lambda: count_pairs_mv(f, g), pointwise_count_pairs_mv(f, g)),
        (q**2, "definedness scan", f"{q}^2", lambda: count_undefined(f), pointwise_count_undefined(f)),
    ]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["count_pairs", "count_pairs_mv", "count_undefined"])
def test_scans_run_at_the_limit_and_refuse_one_below(monkeypatch, case):
    points, what, written, scan, want = _scans(F5)[case]
    monkeypatch.setattr(limits, "MAX_ORDER", points)
    assert scan() == want
    monkeypatch.setattr(limits, "MAX_ORDER", points - 1)
    with pytest.raises(SizeLimitError) as err:
        scan()
    assert str(err.value) == (
        f"{what} requires {written} points; configured limit is {points - 1}"
        f" (override with {limits.ENV_VAR})"
    )


def test_count_pairs_mv_streams_the_grid():
    # a list of the 66,049 values of f at q = 257, n = 2 would need over 2 MB
    spec = build_field(257)
    f = MRatFun.make(
        mp(spec, 2, {(2, 1): 1, (1, 1): 3, (0, 1): 5}), mp(spec, 2, {(0, 2): 1, (1, 0): 2, (0, 0): 7})
    )
    g = RatFun.make(Poly.from_ints(spec, [1, 0, 3]), Poly.from_ints(spec, [4, 1]))
    tracemalloc.start()
    try:
        got = count_pairs_mv(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert got == pointwise_count_pairs_mv(f, g)


# --------------------------------------------------------------------------
# threshold checking


def test_t41_threshold_frozen_boundaries():
    # d = delta = 2, eps = 1: q^3 >= (39/5)^3 * 4^13 flips between 3169 and 3170
    assert not t41_threshold_ok(3169, 2, 2, 1)
    assert t41_threshold_ok(3170, 2, 2, 1)
    # d = 4, delta = 2, eps = 1: boundary sits between 18368 and 18369
    assert not t41_threshold_ok(18368, 4, 2, 1)
    assert t41_threshold_ok(18369, 4, 2, 1)


def test_t41_threshold_matches_integer_form():
    rng = random.Random(4106)
    for _ in range(200):
        q = rng.choice([3, 9, 125, 3170, 18369, 2**17, 10**6])
        d = rng.randrange(1, 7)
        delta = rng.randrange(1, 7)
        a = rng.randrange(1, 8)
        b = rng.randrange(8, 16)
        eps = Fraction(a, b)
        # cleared of denominators: 125 q^3 a'^6 >= 59319 (d+delta)^13 b'^6
        expect = (
            125 * q**3 * eps.numerator**6
            >= 59319 * (d + delta) ** 13 * eps.denominator**6
        )
        assert t41_threshold_ok(q, d, delta, eps) == expect


def test_t41_eps_representation_invariance():
    assert t41_threshold_ok(3170, 2, 2, Fraction(2, 4)) == t41_threshold_ok(
        3170, 2, 2, Fraction(1, 2)
    )
    with pytest.raises(ValidationError):
        t41_threshold_ok(9, 2, 2, 0)
    with pytest.raises(ValidationError):
        t41_threshold_ok(9, 2, 2, Fraction(5, 4))


def test_check_t41_report():
    f = MRatFun.from_poly(mp(F3, 2, {(1, 1): 1}))
    g = poly_rf(F3, [0, 0, 1])
    rep = check_t41(f, g, Fraction(1, 2))
    assert (rep.q, rep.d, rep.delta) == (3, 2, 2)
    assert rep.pair_count == 9
    assert rep.pair_threshold == Fraction(27, 2)  # 9 * (1 + 1/2)
    assert rep.condition_iii.threshold == Fraction(59319 * 4**13 * 64, 125)
    assert rep.condition_iii.passed is False
    d = rep.to_json_dict()
    assert d["pair_threshold"] == "27/2"
    assert d["cond_i"] is None and d["cond_ii"] is None


# --------------------------------------------------------------------------
# factoring


def test_mv_factor_difference_of_squares():
    F = mp(F7, 2, {(2, 0): 1, (0, 2): 6})  # X1^2 - X2^2
    unit, facs = mv_factor(F)
    assert unit == F7.element(6)
    assert facs == [
        (mp(F7, 2, {(1, 0): 1, (0, 1): 1}), 1),
        (mp(F7, 2, {(1, 0): 6, (0, 1): 1}), 1),
    ]


def test_mv_factor_monomial_product():
    unit, facs = mv_factor(mp(F5, 2, {(1, 1): 3}))
    assert unit == F5.element(3)
    assert facs == [
        (mp(F5, 2, {(0, 1): 1}), 1),
        (mp(F5, 2, {(1, 0): 1}), 1),
    ]


def test_mv_factor_repeated_factor():
    base = mp(F5, 2, {(1, 1): 1, (0, 0): 1})
    unit, facs = mv_factor(base * base)
    assert unit == F5.one()
    assert facs == [(base, 1 * 2)]


def test_mv_factor_three_variables():
    # mv_factor factors plane curves only; the collapse oracle takes any n
    F = mp(F3, 3, {(1, 1, 0): 1, (0, 0, 1): 1}) * mp(F3, 3, {(1, 0, 0): 1, (0, 0, 0): 1})
    unit, facs = collapse_factor(F)
    assert unit == F3.one()
    recon = MPoly.constant(unit, 3)
    for p, m in facs:
        recon = recon * p**m
    assert recon == F and len(facs) == 2
    for G in (F, mp(F3, 1, {(2,): 1, (0,): 1})):
        with pytest.raises(ValidationError, match="plane curves"):
            mv_factor(G)


def test_mv_factor_reconstruction_and_irreducibility():
    rng = random.Random(4107)

    def all_divisor_candidates(spec, n, max_total):
        keys = [
            k
            for k in itertools.product(range(max_total + 1), repeat=n)
            if sum(k) <= max_total
        ]
        for coeffs in itertools.product(range(spec.order), repeat=len(keys)):
            terms = {k: c for k, c in zip(keys, coeffs) if c}
            if terms:
                yield mp(spec, n, terms)

    for _ in range(4):
        a = rand_mpoly(rng, F2, 2, 2)
        b = rand_mpoly(rng, F2, 2, 1)
        if a.is_zero() or b.is_zero():
            continue
        F = a * b
        if F.is_constant():
            continue
        unit, facs = mv_factor(F)
        recon = MPoly.constant(unit, 2)
        for p, m in facs:
            recon = recon * p**m
        assert recon == F
        for p, _ in facs:
            for cand in all_divisor_candidates(F2, 2, p.total_degree() - 1):
                if cand.is_constant():
                    continue
                assert mpoly_divexact(p, cand) is None, f"{p} has divisor {cand}"


# --------------------------------------------------------------------------
# verification and search


def _lift_inputs(P):
    """(G, lc, fs, prec) as mvar._recombine builds them at the first usable
    fiber X = x0 of the plane curve P, or None without one over F_q."""
    spec = P.spec
    cols = [mvar._to_upoly(c) for c in P.last_var_coeffs()]
    found = next(mvar._usable_points([mvar._from_upoly(c) for c in cols], mvar._squarefree), None)
    if found is None:
        return None
    x0 = spec.from_index(found[0][0])
    fs = [f for g, d in _distinct_degree_parts(found[1].monic()) for f in _equal_degree_parts(g, d)]
    prec = max(c.degree for c in cols) + 1
    tcols = [c.compose(Poly.from_coeffs(spec, [x0, 1])) for c in cols]
    lc = [Poly.constant(c) for c in tcols[-1].coeffs]
    return mvar._transpose(tcols, prec), lc, fs, prec


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 3), (13, 1), (101, 1)], ids=str)
def test_hensel_lift_matches_the_recomputing_oracle(p, k):
    spec = build_field(p, k)
    rng = random.Random(f"hensel/{p}^{k}")
    lifts, factors = 0, 0
    while lifts < 12:
        # a random curve, or one times three factors Y^j + ..., for fibers with many factors
        y = MPoly.variable(spec, 2, 1)
        parts = [y ** (j + 1) + rand_mpoly(rng, spec, 2, j) for j in rng.choices([0, 1], k=lifts % 2 * 3)]
        P = functools.reduce(MPoly.__mul__, parts, rand_mpoly(rng, spec, 2, rng.randrange(1, 4)))
        if P.deg_in(1) < 2 or (inputs := _lift_inputs(P)) is None:
            continue
        lifts, factors = lifts + 1, max(factors, len(inputs[2]))
        assert mvar._hensel_lift(*inputs) == hensel_lift_by_recomputing(*inputs), P
    assert factors >= 4


def _root_inputs(rng, spec, n, top, delta):
    """(ring, cs, y0, s0) for mvar._lift_root: random jets c_0..c_delta to
    total degree top, sparse or dense, with c_0(0) set so that a random y0
    (often 0) is a simple root of sum_j c_j(0) Y^j."""
    add, mul, q = spec._add, spec._mul, spec.order
    ring = mvar._jet_ring(n, top)
    zero_share = rng.choice([0, 0.5])
    while True:
        cs = [
            [0 if rng.random() < zero_share else rng.randrange(q) for _ in ring[0]]
            for _ in range(delta + 1)
        ]
        y0 = rng.choice([0, rng.randrange(q)])
        at0 = fy = 0  # sum_{j >= 1} c_j(0) y0^j and sum_j j c_j(0) y0^(j-1)
        for j, c in enumerate(cs[1:], 1):
            at0 = add(at0, mul(c[0], spec._pow(y0, j)))
            fy = add(fy, mul(mul(j % spec.p, c[0]), spec._pow(y0, j - 1)))
        if fy:
            cs[0][0] = spec._neg(at0)
            return ring, cs, y0, spec._inv(fy)


def _jet_poly(spec, ring, v):
    return MPoly(spec, len(ring[0][0]), {k: c for k, c in zip(ring[0], v) if c})


@pytest.mark.parametrize(
    "p, k", [(2, 1), (13, 1), (101, 1), (2, 3), (3, 2), (2, 5), (2, 17)], ids=str
)
def test_lift_root_matches_the_doubling_oracle(p, k):
    # delta runs past p over F_2, F_8, F_9 and F_32, so the slope j y0^(j-1)
    # of y^j meets j = 0 mod p
    spec = build_field(p, k)
    rng = random.Random(f"lift root/{p}^{k}")
    for n, top in ((1, 1), (1, 2), (1, 5), (1, 6), (2, 2), (2, 4), (3, 3), (3, 4)):
        for delta in (2, 3, 4, 5):
            ring, cs, y0, s0 = _root_inputs(rng, spec, n, top, delta)
            y = mvar._lift_root(spec, ring, cs, y0, s0)
            assert y == newton_lift_by_doubling(spec, ring, cs, y0, s0)
            assert y[0] == y0
            # the definition: sum_j c_j y^j vanishes to total degree top
            Y = _jet_poly(spec, ring, y)
            acc = MPoly.zero(spec, n)
            for c in reversed(cs):
                acc = acc * Y + _jet_poly(spec, ring, c)
                acc = MPoly(spec, n, {m: v for m, v in acc.idx.items() if sum(m) <= top})
            assert acc.is_zero(), (n, top, delta)


@pytest.mark.parametrize("n, top, delta", [(1, 6, 2), (2, 4, 3), (3, 4, 2)], ids=str)
def test_lift_root_takes_fewer_products_than_doubling(monkeypatch, n, top, delta):
    # a count of field products, not a timing: a return to Newton doubling,
    # which recomputes F(y) whole at every precision, fails here
    spec = build_field(101)
    ring, cs, y0, s0 = _root_inputs(random.Random(f"lift count/{n}/{top}/{delta}"), spec, n, top, delta)
    count, mul = [0], spec._mul

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(spec, "_mul", counting)
    got = mvar._lift_root(spec, ring, cs, y0, s0)
    lift, count[0] = count[0], 0
    want = newton_lift_by_doubling(spec, ring, cs, y0, s0)
    assert got == want
    assert 0 < lift < count[0], (lift, count[0])


def test_verify_h_mv_examples():
    f = MRatFun.from_poly(mp(F5, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}))  # (X1+X2)^2
    g = poly_rf(F5, [0, 0, 1])
    h_good = MRatFun.from_poly(mp(F5, 2, {(1, 0): 1, (0, 1): 1}))
    h_bad = MRatFun.from_poly(MPoly.variable(F5, 2, 0))
    assert verify_h_mv(f, g, h_good)
    assert not verify_h_mv(MRatFun.from_poly(mp(F5, 2, {(1, 1): 1})), g, h_bad)


def test_mrat_compose_degree_multiplies():
    rng = random.Random(4108)
    for _ in range(6):
        num = rand_mpoly(rng, F5, 2, 2)
        den = rand_mpoly(rng, F5, 2, 2)
        if num.is_zero() or den.is_zero():
            continue
        h = MRatFun.make(num, den)
        if h.is_constant():
            continue
        g = poly_rf(F5, [1, 2, 1])
        f = mrat_compose(g, h)
        assert f is not None
        assert f.degree == g.degree * h.degree


@pytest.mark.parametrize("spec", [F3, F5, build_field(2, 2)], ids=str)
def test_mrat_compose_is_reduced_without_a_gcd(spec):
    # the composition of reduced g and h is reduced; MRatFun.make's gcd is the oracle
    rng = random.Random(f"compose/{spec.order}")
    x = Poly.x(spec)
    gs = [RatFun.make(x * x, x + 1), RatFun.make(x * x * x, x * x + x + 1), poly_rf(spec, [1, 2, 1])]
    done = 0
    while done < 12:
        num, den = rand_mpoly(rng, spec, 2, rng.choice([1, 2])), rand_mpoly(rng, spec, 2, 1)
        if den.is_zero() or MRatFun.make(num, den).is_constant():
            continue
        g = gs[done % len(gs)]
        h = MRatFun.make(num, den)
        f = mrat_compose(g, h)
        if f is None:
            continue
        assert f == MRatFun.make(f.num, f.den), f"{g} of {h}"
        assert f.degree == g.degree * h.degree
        done += 1


@pytest.mark.parametrize(
    "spec", [F7, build_field(3, 2), build_field(2, 5), build_field(101)], ids=str
)
def test_univariate_twins_match_their_one_variable_views(spec):
    # rat_compose and mrat_compose share one composition sum, and Poly and
    # MPoly one term printer; each must give what its twin gives for n = 1
    rng = random.Random(f"twins/{spec.order}")
    one_var = mvar._from_upoly
    for _ in range(12):
        g = random_ratfun(rng, spec, rng.randrange(1, 4))
        h = random_ratfun(rng, spec, rng.randrange(1, 4))
        composed = rat_compose(g, h)
        twin = mrat_compose(g, MRatFun(one_var(h.num), one_var(h.den)))
        assert (twin.num, twin.den) == (one_var(composed.num), one_var(composed.den)), f"{g} of {h}"
        for p in (g.num, g.den, h.num, composed.num, composed.den, Poly.zero(spec)):
            assert str(p) == str(one_var(p)).replace("X1", "X")
    # h constant at a pole of g: rat_compose raises, mrat_compose answers None
    g, zero = RatFun.make(Poly.one(spec), Poly.x(spec)), Poly.zero(spec)
    with pytest.raises(ValidationError):
        rat_compose(g, RatFun.from_poly(zero))
    assert mrat_compose(g, MRatFun.from_poly(one_var(zero))) is None


def test_find_h_mv_product_plus_one():
    f = MRatFun.from_poly(
        mp(F5, 2, {(2, 2): 1, (1, 1): 2, (0, 0): 1})
    )  # (X1X2+1)^2
    g = poly_rf(F5, [0, 0, 1])
    h = find_h_mv(f, g)
    assert h == MRatFun.from_poly(mp(F5, 2, {(1, 1): 1, (0, 0): 1}))
    assert verify_h_mv(f, g, h)


def test_find_h_mv_returns_the_canonical_form():
    # the denominator's lexicographically leading term X1 is not its term of
    # highest degree, so the root must be rescaled after it is read back
    h = MRatFun.make(mp(F5, 2, {(0, 2): 1, (1, 0): 2}), mp(F5, 2, {(0, 2): 3, (1, 0): 4}))
    g = poly_rf(F5, [0, 0, 1])
    got = find_h_mv(mrat_compose(g, h), g)
    assert got in (h, MRatFun.make(-h.num, h.den))
    assert got.den.terms[(1, 0)] == 1


def test_find_h_mv_degree_obstruction():
    f = MRatFun.from_poly(mp(F5, 2, {(3, 0): 1}))
    assert find_h_mv(f, poly_rf(F5, [0, 0, 1])) is None


def test_find_h_mv_roundtrip():
    rng = random.Random(4109)
    for spec in (F3, F5):
        gs = [poly_rf(spec, [0, 0, 1]), poly_rf(spec, [0, 1, 1])]
        for g in gs:
            done = 0
            while done < 4:
                num = rand_mpoly(rng, spec, 2, 2)
                den = rand_mpoly(rng, spec, 2, rng.choice([0, 1]))
                if num.is_zero() or den.is_zero():
                    continue
                h = MRatFun.make(num, den)
                if h.is_constant():
                    continue
                f = mrat_compose(g, h)
                if f is None:
                    continue
                got = find_h_mv(f, g)
                assert got is not None, f"missed {h} over F_{spec.order}"
                assert verify_h_mv(f, g, got)
                done += 1


def test_find_h_mv_three_variables():
    h = MRatFun.from_poly(mp(F3, 3, {(1, 0, 0): 1, (0, 1, 1): 1}))  # X1 + X2X3
    g = poly_rf(F3, [0, 0, 1])
    f = mrat_compose(g, h)
    got = find_h_mv(f, g)
    assert got is not None
    assert verify_h_mv(f, g, got)


def test_find_h_mv_limits():
    f4 = MRatFun.from_poly(MPoly.variable(F3, 4, 0))
    with pytest.raises(SizeLimitError):
        find_h_mv(f4, poly_rf(F3, [0, 0, 1]))
    big = MRatFun.from_poly(mp(F3, 2, {(10, 0): 1}))
    with pytest.raises(SizeLimitError):
        find_h_mv(big, poly_rf(F3, [0, 0, 1]))


def _rand_of_degree(rng, spec, n, degree):
    while True:
        F = rand_mpoly(rng, spec, n, degree)
        if F.total_degree() == degree:
            return F


def _mv_search_cases(spec, n):
    """Seeded (f, g, planted) over X^2, X^2+X, X^3 and (X^2+1)/(X+1): a
    planted f = g(h) with h a polynomial or a fraction, and a random f."""
    rng = random.Random(f"find_h_mv/{spec.order}/{n}")
    x = Poly.x(spec)
    gs = [x * x, x * x + x, x * x * x]
    gs = [RatFun.from_poly(u) for u in gs] + [RatFun.make(x * x + 1, x + 1)]
    cases = []
    for g in gs:
        for e in (1, 2) if n == 2 else (1,):
            den = _rand_of_degree(rng, spec, n, rng.choice([0, e]))
            f = mrat_compose(g, MRatFun.make(_rand_of_degree(rng, spec, n, e), den))
            if f is not None and f.degree == g.degree * e:
                cases.append((f, g, True))
            cases.append((MRatFun.from_poly(_rand_of_degree(rng, spec, n, g.degree * e)), g, False))
    return cases


@pytest.mark.parametrize("spec", [F5, F7, build_field(3, 2), build_field(2, 3)], ids=str)
def test_find_h_and_find_h_mv_match_their_oracles_at_and_away_from_the_origin(spec):
    # the lifter skips both shifts when its usable point is the origin; on
    # a planted f = g(h) lifted there and on one lifted elsewhere, find_h
    # and find_h_mv on f's one-variable view each give the divisor search's
    # h, and the same h.  Every other g is rich in ties: X^2 over odd q,
    # where h and -h both compose to f, or X^2+X in characteristic 2, where
    # h and h+1 do.
    rng = random.Random(f"origin/{spec.order}")
    one_var = mvar._from_upoly
    tie_g = poly_rf(spec, [0, 1, 1] if spec.p == 2 else [0, 0, 1])
    seen, ties = {True: 0, False: 0}, 0
    for i in range(200):
        g = random_ratfun(rng, spec, rng.choice([2, 3]))
        if rng.random() < 0.5:
            g = RatFun.from_poly(g.num)
        if i % 2 == 0:
            g = tie_g
        f = rat_compose(g, random_ratfun(rng, spec, rng.choice([1, 2])))
        fm = MRatFun(one_var(f.num), one_var(f.den))
        points = usable_points(fm, g)
        if not points:
            continue
        at_origin = list(points[0]) == [spec.zero()]
        got, got_mv = find_h(f, g), find_h_mv(fm, g)
        assert got is not None and rat_compose(g, got) == f, f"{f} over {g}"
        assert got_mv is not None and mrat_compose(g, got_mv) == fm, f"{f} over {g}"
        assert got == divisor_find_h(f, g) and got_mv == divisor_find_h_mv(fm, g), f"{f} over {g}"
        assert got == RatFun(mvar._to_upoly(got_mv.num), mvar._to_upoly(got_mv.den)), f"{f} over {g}"
        seen[at_origin] += 1
        ties += g is tie_g
        if min(seen.values()) >= 4 and ties >= 4:
            break
    assert min(seen.values()) >= 4 and ties >= 4, (seen, ties)


# --------------------------------------------------------------------------
# the one-point screen: find_h_mv tries the candidates in key order, passes
# over one whose A Q^(N, D) and B P^(N, D) differ at (1..1), and stops at the
# first composition that gives f


def _screen_gs(spec):
    """A g rich in ties (X^2 over odd q, where h and -h compose alike, or
    X^2+X in characteristic 2, where h and h+1 do), a rational g and, for
    p <= 3, an inseparable g = (X^p+1)/X^p."""
    x = Poly.x(spec)
    gs = [RatFun.from_poly(x * x + x if spec.p == 2 else x * x), RatFun.make(x * x + x + 1, x + 1)]
    if spec.p <= 3:
        gs.append(RatFun.make(x**spec.p + 1, x**spec.p))
    return gs


def _screen_cases(spec, n):
    """Seeded (f, g, planted): for each g of _screen_gs, f = g(h) for h a
    polynomial and a fraction of degree e, and a random f of degree e deg g,
    e in {1, 2} within the cap on d + delta."""
    rng = random.Random(f"screen/{spec.order}/{n}")
    cases = []
    for g in _screen_gs(spec):
        for e in (1, 2):
            if n > 1 and g.degree * (e + 1) > mvar.FIND_H_MAX_DEGREE_SUM:
                continue
            for den_degree in (0, e):
                h = MRatFun.make(_rand_of_degree(rng, spec, n, e), _rand_of_degree(rng, spec, n, den_degree))
                f = mrat_compose(g, h)
                if f is not None and f.degree == g.degree * e:
                    cases.append((f, g, True))
            A, B = _rand_of_degree(rng, spec, n, g.degree * e), _rand_of_degree(rng, spec, n, rng.choice([0, e]))
            f = MRatFun.make(A, B)
            if f.degree == g.degree * e:
                cases.append((f, g, False))
    return cases


@pytest.mark.parametrize(
    "spec, n",
    [(F7, 1), (build_field(3, 2), 1), (F8, 1), (F3, 2), (F5, 2), (F8, 2), (F3, 3), (build_field(2, 2), 3)],
    ids=str,
)
def test_find_h_mv_equals_composing_every_candidate(spec, n):
    # the first valid candidate in key order is the least valid one
    found, missed = 0, 0
    for f, g, planted in _screen_cases(spec, n):
        want = find_h_by_composing_all(f, g)
        assert (want is not None) >= planted, f"{f} over {g}"
        assert find_h_mv(f, g) == want, f"{f} over {g}"
        found += want is not None
        missed += want is None
    assert found >= 2 * len(_screen_gs(spec)) and missed >= 1, (found, missed)


def _screen_passes(f, g, h):
    """Whether A Q^(N, D) = B P^(N, D) at (1..1), in FieldElements, for f =
    A/B, g = P/Q of degree delta and h = N/D."""
    x = [f.spec.one()] * f.n
    u, v = h.num(x), h.den(x)

    def hat(p):
        return sum((c * u**i * v ** (g.degree - i) for i, c in enumerate(p.coeffs)), f.spec.zero())

    return f.num(x) * hat(g.den) == f.den(x) * hat(g.num)


def _planted_at_the_screen_point(h, g):
    """f = g(h), and find_h_mv's answer, checked against the oracle."""
    f = mrat_compose(g, h)
    got = find_h_mv(f, g)
    assert got is not None and got == find_h_by_composing_all(f, g) and mrat_compose(g, got) == f
    return f, got


def test_find_h_mv_screen_at_a_zero_of_d():
    x = [F5.one()] * 2
    h = MRatFun.make(mp(F5, 2, {(1, 0): 1, (0, 1): 2}), mp(F5, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 3}))
    f, got = _planted_at_the_screen_point(h, poly_rf(F5, [0, 0, 1]))
    assert got in (h, MRatFun(-h.num, h.den)) and got.den(x).is_zero() and f.den(x).is_zero()


def test_find_h_mv_screen_at_a_zero_of_b():
    # g has a pole at h(1, 1) = 2, where D does not vanish
    x = [F5.one()] * 2
    h = MRatFun.from_poly(mp(F5, 2, {(1, 1): 1, (0, 0): 1}))
    g = RatFun.make(Poly.from_ints(F5, [1, 1, 1]), Poly.from_ints(F5, [-2, 1]))
    f, _ = _planted_at_the_screen_point(h, g)
    assert f.den(x).is_zero() and not h.den(x).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_find_h_mv_screen_at_the_lift_point(monkeypatch, n):
    # over F_2 with g = X^2+X the curve is usable exactly where D does not
    # vanish, and D = Xn vanishes at every point the scan tries before (1..1)
    h = MRatFun.make(MPoly.variable(F2, n, 0) + 1, MPoly.variable(F2, n, n - 1))
    scan, lifted_at = mvar._usable_points, []

    def spy(coeffs, usable):
        for found in scan(coeffs, usable):
            lifted_at.append(found[0])
            yield found

    monkeypatch.setattr(mvar, "_usable_points", spy)
    _planted_at_the_screen_point(h, poly_rf(F2, [0, 1, 1]))
    assert lifted_at[0] == (1,) * n


@pytest.mark.parametrize("spec, n", [(F7, 1), (F5, 2), (F8, 2), (F3, 3)], ids=str)
def test_a_screen_mismatch_always_goes_with_a_failed_composition(monkeypatch, spec, n):
    # find_h_mv runs on drawn candidates: random ones, the planted h, and
    # polynomials that take h's value at (1..1) but are not h.  Every drawn
    # candidate it reaches and does not compose must fail to compose to f.
    rng = random.Random(f"screen-draws/{spec.order}/{n}")
    compose, composed = mvar.mrat_compose, []
    monkeypatch.setattr(mvar, "mrat_compose", lambda g, h: composed.append(h) or compose(g, h))
    g = _screen_gs(spec)[0]
    screened, passed_but_wrong = 0, 0
    for _ in range(30):
        e = rng.choice([1, 2])
        h = MRatFun.from_poly(_rand_of_degree(rng, spec, n, e))
        f = compose(g, h)
        cands = [
            MRatFun.make(_rand_of_degree(rng, spec, n, e), _rand_of_degree(rng, spec, n, rng.choice([0, e])))
            for _ in range(4)
        ]
        shift = (MPoly.variable(spec, n, 0) - 1) * spec.from_index(rng.randrange(1, spec.order))
        cands.append(MRatFun.from_poly(h.num + shift))  # h's value at (1..1), not h
        if rng.random() < 0.5:
            cands.append(h)
        rng.shuffle(cands)
        composed.clear()
        monkeypatch.setattr(mvar, "_curve_roots", lambda f, g, e: list(cands))
        got = find_h_mv(f, g)
        valid = [c for c in cands if c.degree == e and compose(g, c) == f]
        assert got == min(valid, key=MRatFun.index_key, default=None)
        for c in cands:
            if c.degree != e or got is not None and c.index_key() > got.index_key():
                continue  # not reached
            if c in composed:
                passed_but_wrong += c is not got
            else:
                assert compose(g, c) != f and not _screen_passes(f, g, c), f"{c} over {g}"
                screened += 1
    assert screened >= 20 and passed_but_wrong >= 5, (screened, passed_but_wrong)


def test_find_h_mv_composes_once_when_h_and_minus_h_both_compose(monkeypatch):
    F13 = build_field(13)
    g = poly_rf(F13, [0, 0, 1])
    h = MRatFun.make(mp(F13, 2, {(1, 0): 1, (0, 1): 2, (0, 0): 3}), mp(F13, 2, {(0, 1): 1, (0, 0): 1}))
    f = mrat_compose(g, h)
    valid = [c for c in mvar._curve_roots(f, g, 1) if mrat_compose(g, c) == f]
    assert set(valid) == {h, MRatFun.make(-h.num, h.den)}
    calls = []
    monkeypatch.setattr(mvar, "mrat_compose", lambda g, h: calls.append(h) or mrat_compose(g, h))
    assert find_h_mv(f, g) == find_h_by_composing_all(f, g)
    assert len(calls) == 1


def test_find_h_mv_with_no_answer_composes_only_what_passes_the_screen(monkeypatch):
    F13 = build_field(13)
    g = poly_rf(F13, [0, 0, 1])
    rng = random.Random("no-answer/13")
    calls = []
    monkeypatch.setattr(mvar, "mrat_compose", lambda g, h: calls.append(h) or mrat_compose(g, h))
    tried = composed = 0
    for _ in range(12):
        f = MRatFun.make(_rand_of_degree(rng, F13, 1, 4), _rand_of_degree(rng, F13, 1, 3))
        cands = [c for c in mvar._curve_roots(f, g, 2) if c.degree == 2]
        passes = [c for c in cands if _screen_passes(f, g, c)]
        calls.clear()
        assert find_h_mv(f, g) is None
        assert len(calls) <= len(passes), f
        tried, composed = tried + len(cands), composed + len(calls)
    assert tried >= 4 and composed < tried, (composed, tried)


def _no_factoring(F):
    raise AssertionError(f"the root search factored {F}")


def _by_extension(monkeypatch, f, g):
    """find_h_mv with the scan of F_q^n made to fail, so that it lifts at a
    point of an extension field, the path of fields too small to hold one."""
    scan = mvar._usable_points
    with monkeypatch.context() as m:
        m.setattr(mvar, "_usable_points", lambda cs, usable: iter(()) if cs[0].spec == f.spec else scan(cs, usable))
        m.setattr(mvar, "mv_factor", _no_factoring)
        return find_h_mv(f, g)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_find_h_mv_matches_divisor_search_and_fallback(monkeypatch, p, k, n):
    spec = build_field(p, k)
    for f, g, planted in _mv_search_cases(spec, n):
        want = divisor_find_h_mv(f, g)
        assert (want is not None) >= planted
        assert find_h_mv(f, g) == want, f"{f} over {g}"
        assert _by_extension(monkeypatch, f, g) == want, f"over an extension: {f} over {g}"


def _pointless_cases(spec, n):
    """Seeded (f, g, planted) whose curve has no usable point in F_q^n.  g is
    a separable polynomial, so the curve's leading coefficient -B vanishes
    where f has a pole, and the fiber over g(c) is not squarefree at a
    critical point c of g.  A planted f = g(h) has h = c + N/D, or N/D, with
    the factors X1 - a (a in F_q) split between N and D, so that h takes
    only the values c and infinity on F_q^n; a random f = A/B has every
    such factor in B."""
    rng = random.Random(f"pointless/{spec.order}/{n}")
    x1 = [MPoly.variable(spec, n, 0) - a for a in spec.elements()]

    def free_of_x1(degree):  # so that no factor X1 - a cancels
        return mp(spec, n, {k: c for k, c in rand_mpoly(rng, spec, n, degree).terms.items() if not k[0]})

    cases = []
    while len(cases) < 6:
        delta = rng.choice([2, 3] if n < 3 else [2])  # the divisor search takes seconds at n = 3, delta = 3
        P = Poly.from_coeffs(spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(delta)] + [spec.one()])
        if P.derivative().is_zero():
            continue
        crit = roots(P.derivative())
        g = RatFun.from_poly(P)
        rng.shuffle(x1)
        if rng.random() < 0.5:
            cut = rng.randrange(len(x1) + 1) if crit else 0
            N, D = free_of_x1(1), free_of_x1(rng.choice([0, 1]))
            if N.is_zero() or D.is_zero():
                continue
            h = MRatFun.make(functools.reduce(MPoly.__mul__, x1[:cut], N), functools.reduce(MPoly.__mul__, x1[cut:], D))
            if cut:
                h = MRatFun(h.num + h.den * rng.choice(crit), h.den)
            f, planted = mrat_compose(g, h), True
        else:
            A, B = rand_mpoly(rng, spec, n, delta * rng.choice([1, 2])), free_of_x1(1)
            if A.is_zero() or B.is_zero():
                continue
            f, planted = MRatFun.make(A, functools.reduce(MPoly.__mul__, x1, B)), False
            if f.den.deg_in(0) < spec.order:  # A shared a factor X1 - a
                continue
        if f.is_constant() or f.degree % delta or (n > 1 and f.degree + delta > mvar.FIND_H_MAX_DEGREE_SUM):
            continue
        cases.append((f, g, planted))
    return cases


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_without_a_usable_point_matches_divisor_search(monkeypatch, p, k, n):
    # with no point of F_q^n to lift at, the roots are lifted at a point of
    # an extension field and mapped back; the curve is never factored
    monkeypatch.setattr(mvar, "mv_factor", _no_factoring)
    spec = build_field(p, k)
    for f, g, planted in _pointless_cases(spec, n):
        assert usable_points(f, g) == [], f"{f} over {g}"
        if n == 1:
            f1 = RatFun.make(mvar._to_upoly(f.num), mvar._to_upoly(f.den))
            got, want = find_h(f1, g), divisor_find_h(f1, g)
        else:
            got, want = find_h_mv(f, g), divisor_find_h_mv(f, g)
        assert got == want, f"{f} over {g}"
        assert (got is not None) >= planted


def test_find_h_mv_without_a_usable_point_in_three_variables_answers_quickly(monkeypatch):
    # N lies in the ideal of the X_i^3 - X_i, so at every point of F_3^3
    # h = N/D is 0, where the fiber of X^2 is a double point, or has no
    # value; the roots are lifted at a point of F_27^3
    monkeypatch.setattr(mvar, "mv_factor", _no_factoring)
    N = mp(F3, 3, {(4, 0, 0): 1, (2, 0, 0): 2, (1, 0, 3): 1, (1, 0, 1): 2, (0, 3, 1): 1, (0, 1, 1): 2})
    D = mp(F3, 3, {(2, 0, 0): 1, (1, 0, 1): 2, (0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 2): 1, (0, 0, 0): 1})
    g = poly_rf(F3, [0, 0, 1])
    f = mrat_compose(g, MRatFun.make(N, D))
    assert usable_points(f, g) == []
    t0 = time.monotonic()
    got = find_h_mv(f, g)
    elapsed = time.monotonic() - t0
    assert got == divisor_find_h_mv(f, g) == MRatFun.make(-N, D)
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# the lift stops at total degree e + m, m = min(e, deg c_delta): a root N/D
# has D | c_delta, so deg D <= m


def _curve_coeffs(f, g):
    """c_0..c_delta of A(X)Q(Y) - B(X)P(Y), as mvar._curve_roots builds them."""
    zeros = (0,) * (g.degree + 1)
    P, Q = (u.idx + zeros[len(u.idx):] for u in (g.num, g.den))
    return [f.num._scale(qj) - f.den._scale(pj) for pj, qj in zip(P, Q)]


def _composing(f, g, e, cands):
    return {h for h in cands if h.degree == e and mrat_compose(g, h) == f}


def _lift_cases(spec, n):
    """Seeded planted (f, g, e): g a polynomial, where f = g(N/D) has
    c_delta = -p_delta D^delta, so m = min(e, delta deg D) is 0 for a
    polynomial h and lies strictly between 0 and e for delta = 2, deg D = 1
    and e = 3; or g = (Y^2 + a)/(Y^2 + Y + b), whose c_delta has degree 2e
    in general, so m = e.  h is translated by a random point, so the first
    usable point is sometimes the origin and sometimes not."""
    rng = random.Random(f"lift to e + m/{spec.order}/{n}")
    x = Poly.x(spec)
    shapes = [("poly", 2, 0), ("poly", 3, 0), ("poly", 2, 1), ("poly", 3, 2), ("rational", 2, 0), ("rational", 1, 1)]
    cases = []
    while len(cases) < 12:
        kind, e, den_degree = shapes[len(cases) % len(shapes)]
        if kind == "poly":
            g = RatFun.from_poly(Poly.from_ints(spec, [rng.randrange(spec.order) for _ in range(2)] + [1]))
            e = 3 if den_degree == 1 else e
        else:
            a, b = (spec.from_index(rng.randrange(spec.order)) for _ in range(2))
            g = RatFun.make(x * x + a, x * x + x + b)
        if g.degree < 2 or g.num.derivative().is_zero() and g.den.derivative().is_zero():
            continue
        h = MRatFun.make(_rand_of_degree(rng, spec, n, e), _rand_of_degree(rng, spec, n, den_degree))
        f = mrat_compose(g, h)
        if f is not None and h.degree == e and f.degree == g.degree * e:
            cases.append((f, g, e))
    return cases


@pytest.mark.parametrize("spec", [F5, F7, F8], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_lifted_roots_match_the_2e_oracle(spec, n):
    # every root that composes to f is found alike by the lift to e + m and
    # by the lift to 2e, for m = 0, 0 < m < e and m = e, at and away from
    # the origin, and over an extension when F_q^n holds no usable point
    seen_m, seen_origin = set(), set()
    pointless = [(f, g, f.degree // g.degree) for f, g, planted in _pointless_cases(F3, n) if planted]
    cases = _lift_cases(spec, n) + pointless[:2]
    for f, g, e in cases:
        coeffs = _curve_coeffs(f, g)
        m = min(e, coeffs[-1].total_degree())
        point = next(mvar._usable_points(coeffs, mvar._simple_roots), None)
        seen_m.add("0" if m == 0 else "e" if m == e else "between")
        seen_origin.add(None if point is None else not any(point[0]))
        got = _composing(f, g, e, mvar._lifted_roots(coeffs, e))
        assert got == _composing(f, g, e, lifted_roots_to_2e(coeffs, e)), f"{f} over {g}"
        assert got, f"{f} over {g}"
    assert seen_m == {"0", "between", "e"} and seen_origin == {True, False, None}, (seen_m, seen_origin)


@pytest.mark.parametrize(
    "spec, n, g, h",
    [
        (build_field(101), 1, [0, 3, 1], {(3,): 1, (1,): 5, (0,): 7}),
        (F7, 2, [0, 0, 0, 1], {(2, 0): 1, (1, 1): 3, (0, 1): 2}),
    ],
    ids=["F101 n1", "F7 n2"],
)
def test_a_polynomial_h_takes_fewer_products_than_the_2e_lift(monkeypatch, spec, n, g, h):
    # a count of field products, not a timing: for polynomial f and g,
    # c_delta is a constant, so the lift stops at degree e and no kernel is
    # solved; a return to the lift to 2e fails here
    g, h = poly_rf(spec, g), MRatFun.from_poly(mp(spec, n, h))
    f, e = mrat_compose(g, h), h.degree
    coeffs = _curve_coeffs(f, g)
    assert coeffs[-1].is_constant()
    count, mul = [0], spec._mul

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(spec, "_mul", counting)
    got = mvar._lifted_roots(coeffs, e)
    lift, count[0] = count[0], 0
    want = lifted_roots_to_2e(coeffs, e)
    assert 0 < lift < count[0], (lift, count[0])
    composing = _composing(f, g, e, got)
    assert h in composing and composing == _composing(f, g, e, want)


def test_a_denominator_as_large_as_c_delta_is_found():
    # g = Y^3/(Y - 1)^2 over F_7 and h = N/D = (X^2+4)/(X^2+3): N - D = 1, so
    # f = N^3/D and c_delta = -D, of degree 2 = deg D.  Only D | c_delta
    # bounds deg D; the bound deg D <= deg c_delta / delta would miss h
    g = parse_ratfun(F7, "X^3/(X^2+5*X+1)")
    h = parse_ratfun(F7, "(X^2+4)/(X^2+3)")
    f = rat_compose(g, h)
    fm, hm = (MRatFun(mvar._from_upoly(u.num), mvar._from_upoly(u.den)) for u in (f, h))
    c_delta = _curve_coeffs(fm, g)[-1]
    assert c_delta.total_degree() == h.den.degree == 2
    assert find_h(f, g) == h
    assert find_h_mv(fm, g) == hm


# --------------------------------------------------------------------------
# the root search's point: c_delta(s) != 0 and every root of F(s, Y) in F_q
# simple, read from one evaluation of the fiber (mvar._simple_roots)


@pytest.mark.parametrize("n", [1, 2])
def test_a_fiber_with_only_simple_rational_roots_is_lifted_though_not_squarefree(monkeypatch, n):
    # g = (Y^2+1)^2 (Y-1) + 2 over F_3 and h(0..0) = 1: the fiber at the
    # origin is -(Y^2+1)^2 (Y-1), not squarefree, but Y^2+1 has no root in
    # F_3 and 1 is a simple root, so the root search lifts there
    x = Poly.x(F3)
    g = RatFun.from_poly((x * x + 1) ** 2 * (x - 1) + 2)
    terms = {(2,): 1, (1,): 1, (0,): 1} if n == 1 else {(1, 0): 1, (0, 1): 2, (0, 0): 1}
    h = MRatFun.from_poly(mp(F3, n, terms))
    f = mrat_compose(g, h)
    origin = (0,) * n
    fiber = Poly(F3, [c._eval(origin) for c in _curve_coeffs(f, g)])
    assert fiber.degree == 5 and mvar._squarefree(fiber) is None
    assert [y for y, _ in mvar._simple_roots(fiber)] == [1]
    scan, lifted_at = mvar._usable_points, []

    def spy(coeffs, usable):
        for found in scan(coeffs, usable):
            lifted_at.append(found[0])
            yield found

    monkeypatch.setattr(mvar, "_usable_points", spy)
    got = find_h_mv(f, g)
    assert lifted_at[0] == origin
    assert got is not None and mrat_compose(g, got) == f
    assert got == find_h_by_composing_all(f, g) == divisor_find_h_mv(f, g)


@pytest.mark.parametrize(
    "spec", [F7, build_field(101), build_field(2, 8), build_field(257), build_field(2, 9)], ids=repr
)
@pytest.mark.parametrize("n", [1, 2])
def test_the_root_search_reads_each_tried_fiber_once(monkeypatch, spec, n):
    # g = Y^2 (Y - 1) has a double root at 0, and h = N/D has D = 0 at the
    # first point of the box order and N = 0 at a later one, so the search
    # passes over a fiber of low degree and one with a repeated root before
    # it lifts.  At q <= EVAL_ROOTS_MAX_ORDER each tried fiber of full
    # degree is read from one line of values and no gcd is taken; above it
    # each takes one rational part
    x = Poly.x(spec)
    g = RatFun.from_poly(x**3 - x * x)
    a0, a1, a2 = (spec.from_index(i) for i in range(3))
    if n == 1:
        e, N, D = 2, x - a2, (x - a0) * (x - a1)
        h = MRatFun.make(mvar._from_upoly(N), mvar._from_upoly(D))
    else:  # (X1 + X2 - 1) / X1
        e = 1
        h = MRatFun.make(mp(spec, 2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}), mp(spec, 2, {(1, 0): 1}))
    f = mrat_compose(g, h)
    coeffs = _curve_coeffs(f, g)
    from ffdecomp import upoly

    tried, calls, by_index = [], [], mvar._by_largest_index
    monkeypatch.setattr(mvar, "_by_largest_index", lambda q, n: (tried.append((q, s)) or s for s in by_index(q, n)))
    for owner, name in [(spec, "_values"), (upoly, "_rational_part"), (upoly, "poly_gcd"), (mvar, "poly_gcd")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    got = mvar._lifted_roots(coeffs, e)
    counts = {name: calls.count(name) for name in ("_values", "_rational_part", "poly_gcd")}
    assert {q for q, _ in tried} == {spec.order}, "lifted over an extension"
    full = [s for _, s in tried if Poly(spec, [c._eval(s) for c in coeffs]).degree == 3]
    assert len(tried) > len(full) >= 2 and tried[0][1] == (0,) * n, tried
    assert h in _composing(f, g, e, got)
    if spec.order <= EVAL_ROOTS_MAX_ORDER:
        assert counts == {"_values": len(full), "_rational_part": 0, "poly_gcd": 0}, counts
    else:
        assert counts["_values"] == 0 and counts["_rational_part"] == len(full), counts


@pytest.mark.parametrize("spec", [F2, F3, build_field(2, 2), F5, build_field(2, 9)], ids=repr)
@pytest.mark.parametrize("n", [1, 2])
def test_the_root_search_scan_matches_a_pointwise_scan(spec, n):
    # the scan passes over exactly the points where the fiber drops degree or
    # has a repeated root in F_q, keeps those whose repeated factors have no
    # root there, and hands over every root y with 1/phi'(y); the points are
    # read in the scan's box order, up to its Schwartz-Zippel stop
    rng = random.Random(f"simple-root scan/{spec.order}/{n}")
    x = Poly.x(spec)
    g = RatFun.from_poly(x**3 - x * x)  # a double root at 0
    h = MRatFun.make(mp(spec, n, {(1,) + (0,) * (n - 1): 1, (0,) * n: -1}), mp(spec, n, {(0,) * (n - 1) + (1,): 1}))
    # r(Y)^2 (Y - 1) + X1 G(X, Y) with r a quadratic with no root in F_q: at
    # the origin the fiber is not squarefree, and 1 is its one root
    r = next(
        r for r in (Poly(spec, [c, b, 1]) for b in range(spec.order) for c in range(spec.order)) if not roots(r)
    )
    head = r * r * (x - 1)
    samples = [_curve_coeffs(mrat_compose(g, h), g)]
    samples.append([
        MPoly.constant(spec.from_index(c), n) + MPoly.variable(spec, n, 0) * rand_mpoly(rng, spec, n, 1)
        for c in head.idx[:-1]
    ] + [MPoly.one(spec, n)])
    while len(samples) < 24:
        delta = rng.choice([2, 3, 4])
        coeffs = [rand_mpoly(rng, spec, n, rng.choice([1, 2])) for _ in range(delta + 1)]
        if not coeffs[-1].is_zero() and not coeffs[0].is_zero():
            samples.append(coeffs)
    repeated = not_squarefree = 0
    for coeffs in samples:
        budget, want = mvar._bad_degree(coeffs) * spec.order ** (n - 1), []
        for s in mvar._by_largest_index(spec.order, n):
            xs = [spec.from_index(i) for i in s]
            roots_at = pointwise_simple_roots(coeffs, xs)
            phi = Poly(spec, [c._eval(s) for c in coeffs])
            if roots_at is not None:
                want.append((s, roots_at))
                not_squarefree += mvar._squarefree(phi) is None
                if len(want) == 3:
                    break
            else:
                repeated += phi.degree == len(coeffs) - 1
                budget -= 1
                if budget < 0:
                    break
        got = [(s, roots_at) for s, _, roots_at in itertools.islice(mvar._usable_points(coeffs, mvar._simple_roots), 3)]
        assert got == want, coeffs
    assert repeated >= 1 and not_squarefree >= 1, (repeated, not_squarefree)


def test_find_h_mv_verifies_through_the_mvar_name(monkeypatch):
    # the benchmark counts compositions per find_h_mv call by tracing this name
    calls = []
    monkeypatch.setattr(
        mvar, "mrat_compose", lambda g, h: calls.append(h) or mrat_compose(g, h)
    )
    for g in (poly_rf(F7, [0, 0, 1]), poly_rf(F7, [0, 1, 1]), poly_rf(F7, [0, 0, 0, 1])):
        h = MRatFun.make(mp(F7, 2, {(1, 1): 1, (0, 1): 3}), mp(F7, 2, {(1, 0): 1, (0, 0): 2}))
        calls.clear()
        assert find_h_mv(mrat_compose(g, h), g) is not None
        assert 1 <= len(calls) <= g.degree


_PROPERTY_FIELDS = [F3, F5, F7, build_field(11), build_field(3, 2), build_field(2, 3)]


@settings(max_examples=40, deadline=3000)
@given(
    spec=st.sampled_from(_PROPERTY_FIELDS),
    n=st.integers(2, 3),
    g_kind=st.sampled_from(["X^2", "X^2+X", "X^3", "rational"]),
    e=st.integers(1, 2),
    polynomial_h=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_find_h_mv_recovers_a_planted_decomposition(spec, n, g_kind, e, polynomial_h, seed):
    rng = random.Random(seed)
    x = Poly.x(spec)
    g = {
        "X^2": RatFun.from_poly(x * x),
        "X^2+X": RatFun.from_poly(x * x + x),
        "X^3": RatFun.from_poly(x * x * x),
        "rational": RatFun.make(x * x + 1, x + 1),
    }[g_kind]
    den = MPoly.one(spec, n) if polynomial_h else _rand_of_degree(rng, spec, n, e)
    h = MRatFun.make(_rand_of_degree(rng, spec, n, e), den)
    f = mrat_compose(g, h)
    if f is None or h.degree != e:
        return
    got = find_h_mv(f, g)
    assert got is not None
    assert got.degree == e
    assert mrat_compose(g, got) == f
