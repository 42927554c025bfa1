import itertools
import random
from fractions import Fraction

import pytest
import sympy

from ffdecomp.decomp import count_pairs
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
    mrat_eval,
    mv_factor,
    t41_threshold_ok,
    verify_h_mv,
)
from ffdecomp.upoly import Poly, RatFun, poly_gcd

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
    assert mrat_eval(f, (zero, zero)) is UNDEFINED
    assert mrat_eval(f, (one, zero)) is INFINITY
    prod = MRatFun.from_poly(mp(F3, 2, {(1, 1): 1}))
    assert mrat_eval(prod, (F3.element(2), F3.element(2))) == one


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
    F = mp(F3, 3, {(1, 1, 0): 1, (0, 0, 1): 1}) * mp(F3, 3, {(1, 0, 0): 1, (0, 0, 0): 1})
    unit, facs = mv_factor(F)
    assert unit == F3.one()
    recon = MPoly.constant(unit, 3)
    for p, m in facs:
        recon = recon * p**m
    assert recon == F


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


def test_find_h_mv_product_plus_one():
    f = MRatFun.from_poly(
        mp(F5, 2, {(2, 2): 1, (1, 1): 2, (0, 0): 1})
    )  # (X1X2+1)^2
    g = poly_rf(F5, [0, 0, 1])
    h = find_h_mv(f, g)
    assert h == MRatFun.from_poly(mp(F5, 2, {(1, 1): 1, (0, 0): 1}))
    assert verify_h_mv(f, g, h)


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
