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
from ffdecomp.decomp import check_t1, count_pairs, find_h, small_fiber_diagnostics
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
from ffdecomp.upoly import Poly, RatFun, poly_gcd, roots

from oracles import (
    collapse_factor,
    divisor_find_h,
    divisor_find_h_mv,
    pointwise_count_pairs,
    pointwise_count_pairs_mv,
    pointwise_count_undefined,
    pointwise_small_fibers,
    pointwise_t1_scan,
    usable_points,
)

F2 = build_field(2)
F3 = build_field(3)
F5 = build_field(5)
F7 = build_field(7)

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


def _no_factoring(F):
    raise AssertionError(f"the root search factored {F}")


def _by_extension(monkeypatch, f, g):
    """find_h_mv with the scan of F_q^n made to fail, so that it lifts at a
    point of an extension field, the path of fields too small to hold one."""
    scan = mvar._usable_points
    with monkeypatch.context() as m:
        m.setattr(mvar, "_usable_points", lambda cs: iter(()) if cs[0].spec == f.spec else scan(cs))
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
