import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdecomp import decomp, mvar
from ffdecomp.bipoly import build_F, count_affine
from ffdecomp.decomp import (
    artin_schreier_map,
    check_t1,
    check_t31,
    count_pairs,
    find_h,
    gen_g_family,
    moebius_post,
    moebius_pre,
    power_map,
    random_ratfun,
    small_fiber_diagnostics,
    subspace_map,
    t31_threshold_ok,
)
from ffdecomp.errors import SpecMismatchError, ValidationError
from ffdecomp.gf_core import build_field
from ffdecomp.upoly import INFINITY, Poly, RatFun, fiber, rat_compose

from oracles import brute_find_all, brute_pairs, divisor_find_h

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)
F7 = build_field(7)
F9 = build_field(3, 2)
F13 = build_field(13)
F16 = build_field(2, 4)


def poly_rf(spec, ints):
    return RatFun.from_poly(Poly.from_ints(spec, ints))


def rf(spec, num_ints, den_ints):
    return RatFun.make(Poly.from_ints(spec, num_ints), Poly.from_ints(spec, den_ints))


# --------------------------------------------------------------------------
# pair counting


def test_count_pairs_squares():
    g = poly_rf(F7, [0, 0, 1])
    assert count_pairs(g, g) == 13


def test_count_pairs_identity_map():
    for spec in (F3, F5, F9):
        x = poly_rf(spec, [0, 1])
        assert count_pairs(x, x) == spec.order


def test_count_pairs_inverse_map_counts_shared_pole():
    inv = rf(F5, [1], [0, 1])
    assert count_pairs(inv, inv) == 5


def test_count_pairs_matches_double_loop():
    rng = random.Random(7011)
    for spec in (F2, F3, F4, F5):
        for _ in range(8):
            f = random_ratfun(rng, spec, rng.randrange(1, 4))
            g = random_ratfun(rng, spec, rng.randrange(1, 4))
            assert count_pairs(f, g) == brute_pairs(f, g)


def test_count_pairs_matches_fiber_sums():
    rng = random.Random(7012)
    for spec in (F5, F7):
        for _ in range(6):
            f = random_ratfun(rng, spec, 2)
            g = random_ratfun(rng, spec, rng.randrange(1, 4))
            total = sum(len(fiber(g, f.eval(x))) for x in spec.elements())
            assert count_pairs(f, g) == total


def _random_poly(rng, spec, degree):
    coeffs = [spec.from_index(rng.randrange(spec.order)) for _ in range(degree)]
    return Poly.from_coeffs(spec, coeffs + [spec.from_index(rng.randrange(1, spec.order))])


def _with_pole(rng, spec, degree, pole):
    """A random f of the given degree whose only finite pole is at pole."""
    den = Poly.from_coeffs(spec, [-pole, spec.one()]) ** degree
    while True:
        num = _random_poly(rng, spec, degree)
        if not num(pole).is_zero():
            return RatFun.make(num, den)


def _benchmark_field_pairs(spec, rng):
    """(f, g) pairs covering finite poles, a shared pole, a g whose only
    pole is at infinity, an Artin-Schreier g and a power-map g."""
    a, b = (spec.from_index(i) for i in rng.sample(range(spec.order), 2))
    pairs = [
        (_with_pole(rng, spec, 3, a), _with_pole(rng, spec, 2, b)),
        (_with_pole(rng, spec, 2, a), _with_pole(rng, spec, 1, a)),
        (_with_pole(rng, spec, 2, a), RatFun.from_poly(_random_poly(rng, spec, 2))),
        (random_ratfun(rng, spec, 3), random_ratfun(rng, spec, 2)),
    ]
    inner = []
    if spec.p in (2, 3):
        inner.append(artin_schreier_map(spec, spec.p))
    for d in (2, 4, 5):
        if (spec.order - 1) % d == 0:
            inner.append(power_map(spec, d))
    for g in inner:
        h = _with_pole(rng, spec, 1, b)
        pairs.append((rat_compose(g, h), g))
        pairs.append((random_ratfun(rng, spec, 2), g))
    return pairs


@pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (101, 1), (2, 7)])
def test_count_pairs_matches_curve_at_benchmark_fields(p, k):
    spec = build_field(p, k)
    rng = random.Random(7013 + spec.order)
    for f, g in _benchmark_field_pairs(spec, rng):
        assert count_pairs(f, g) == count_affine(build_F(f, g)), (f, g)


def test_count_pairs_rejects_mixed_fields():
    with pytest.raises(SpecMismatchError):
        count_pairs(poly_rf(F5, [0, 1]), poly_rf(F7, [0, 1]))


def test_count_pairs_rejects_constants():
    with pytest.raises(ValidationError):
        count_pairs(poly_rf(F5, [3]), poly_rf(F5, [0, 1]))


# --------------------------------------------------------------------------
# hypothesis checker with fixed thresholds


def test_check_t1_square_composite_over_f7():
    g = poly_rf(F7, [0, 0, 1])
    f = poly_rf(F7, [1, 0, 2, 0, 1])  # (X^2+1)^2
    rep = check_t1(f, g)
    assert (rep.q, rep.d, rep.delta) == (7, 4, 2)
    assert rep.condition_i is True
    # only the fiber over 0 is small among attained values, plus infinity
    assert rep.condition_ii.exceptions == 2
    assert rep.condition_ii.budget == 48
    assert rep.condition_ii.passed
    assert rep.condition_iii.threshold == 1296
    assert rep.condition_iii.passed is False  # 7 < 6^4


def test_check_t1_additive_g_large_field():
    spec = build_field(2, 11)
    g = poly_rf(spec, [0, 1, 1])
    rng = random.Random(211)
    h = random_ratfun(rng, spec, 2)
    f = rat_compose(g, h)
    rep = check_t1(f, g)
    assert rep.condition_i is True
    # every attained value of X^2+X has a fiber of size exactly 2, so the
    # only exceptional point is infinity
    assert rep.condition_ii.exceptions == 1
    assert rep.condition_ii.passed
    assert rep.condition_iii.passed  # 2048 >= 1296


def test_check_t1_cube_map_exceptions():
    g = poly_rf(F7, [0, 0, 0, 1])
    rep = check_t1(g, g)
    # fiber over 0 has size 1 (2*1 <= 3) and infinity is unattained
    assert rep.condition_ii.exceptions == 2
    assert rep.condition_ii.budget == 48


def test_check_t1_image_condition_fails():
    # f = X is surjective onto F_5, but g = X^2 misses the non-squares
    rep = check_t1(poly_rf(F5, [0, 1]), poly_rf(F5, [0, 0, 1]))
    assert rep.condition_i is False


def test_check_t1_json_shape():
    rep = check_t1(poly_rf(F7, [0, 0, 1]), poly_rf(F7, [0, 0, 1]))
    d = rep.to_json_dict()
    assert set(d) == {
        "q",
        "d",
        "delta",
        "cond_i",
        "cond_ii",
        "cond_iii",
        "pair_count",
        "pair_threshold",
        "h",
        "verified",
    }
    assert set(d["cond_ii"]) == {"exceptions", "budget"}
    assert set(d["cond_iii"]) == {"threshold"}
    assert d["cond_iii"]["threshold"] == "256"
    assert d["pair_count"] is None and d["h"] is None and d["verified"] is False


# --------------------------------------------------------------------------
# graded-threshold checker


def test_check_t31_exact_values():
    g = poly_rf(F7, [0, 0, 1])
    rep = check_t31(g, g, 1)
    assert rep.pair_count == 13
    assert rep.pair_threshold == Fraction(14)
    assert rep.condition_iii.threshold == Fraction(256)
    assert rep.condition_iii.passed is False

    rep_half = check_t31(g, g, Fraction(1, 2))
    assert rep_half.pair_threshold == Fraction(21, 2)
    assert rep_half.condition_iii.threshold == Fraction(1024)


def test_check_t31_json_rationals_are_strings():
    g = poly_rf(F7, [0, 0, 1])
    d = check_t31(g, g, Fraction(1, 2)).to_json_dict()
    assert d["pair_threshold"] == "21/2"
    assert d["cond_iii"]["threshold"] == "1024"


def test_t31_threshold_matches_rational_recompute():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5, 7, 9, 16, 1296, 6561, 2**17])
        d = rng.randrange(1, 9)
        delta = rng.randrange(1, 9)
        eps = Fraction(rng.randrange(1, 8), rng.randrange(8, 16))
        expect = Fraction(q) >= Fraction((d + delta) ** 4) / (eps * eps)
        assert t31_threshold_ok(q, d, delta, eps) == expect


def test_epsilon_validation():
    g = poly_rf(F7, [0, 0, 1])
    for bad in (0, 2, -1, Fraction(3, 2)):
        with pytest.raises(ValidationError):
            check_t31(g, g, bad)
        with pytest.raises(ValidationError):
            t31_threshold_ok(7, 2, 2, bad)
    assert t31_threshold_ok(1296, 2, 2, 1)


# --------------------------------------------------------------------------
# constructive search


def test_find_h_square_of_square():
    f = poly_rf(F7, [1, 0, 2, 0, 1])  # (X^2+1)^2
    g = poly_rf(F7, [0, 0, 1])
    h = find_h(f, g)
    # both X^2+1 and -(X^2+1) work; the smaller coefficient indices win
    assert h == poly_rf(F7, [1, 0, 1])
    assert rat_compose(g, h) == f


def test_find_h_additive_char2():
    f = poly_rf(F2, [0, 1, 0, 0, 1])  # X^4 + X
    g = poly_rf(F2, [0, 1, 1])
    h = find_h(f, g)
    # X^2+X and X^2+X+1 both compose to f; ties break toward X^2+X
    assert h == poly_rf(F2, [0, 1, 1])


def test_find_h_degree_mismatch():
    assert find_h(poly_rf(F7, [0, 0, 0, 1]), poly_rf(F7, [0, 0, 1])) is None


def test_find_h_equal_degrees():
    g = poly_rf(F7, [0, 0, 1])
    assert find_h(g, g) == poly_rf(F7, [0, 1])


def test_find_h_rational_g():
    g = rf(F5, [1], [0, 1])  # 1/X
    f = rf(F5, [1], [1, 0, 1])  # 1/(X^2+1)
    assert find_h(f, g) == poly_rf(F5, [1, 0, 1])


def test_find_h_roundtrip_seeded():
    rng = random.Random(7031)
    cases = []
    for spec in (F2, F3, F4, F5, F7):
        gs = [poly_rf(spec, [0, 0, 1]), poly_rf(spec, [0, 1, 1])]
        if (spec.order - 1) % 3 == 0:
            gs.append(power_map(spec, 3))
        gs.append(random_ratfun(rng, spec, 2))
        for g in gs:
            for _ in range(3):
                cases.append((spec, g, random_ratfun(rng, spec, rng.randrange(1, 3))))
    for spec, g, h in cases:
        f = rat_compose(g, h)
        got = find_h(f, g)
        assert got is not None, f"missed decomposition over F_{spec.order}"
        assert rat_compose(g, got) == f
        assert got.degree == h.degree


def test_find_h_is_deterministic():
    g = poly_rf(F7, [0, 0, 1])
    f = poly_rf(F7, [1, 0, 2, 0, 1])
    assert find_h(f, g) == find_h(f, g)


def test_find_h_agrees_with_exhaustive_search():
    rng = random.Random(7032)
    for spec, tries in ((F2, 20), (F3, 20), (F4, 12), (F5, 10)):
        for g in (poly_rf(spec, [0, 0, 1]), poly_rf(spec, [0, 1, 1])):
            for _ in range(tries):
                f = random_ratfun(rng, spec, 4)
                got = find_h(f, g)
                every = brute_find_all(f, g)
                if not every:
                    assert got is None
                else:
                    assert got == min(every, key=lambda h: h.index_key())


def _search_cases(rng, spec):
    """Seeded (f, g) pairs: planted and random f over Artin-Schreier, power,
    random polynomial and random rational g."""
    gs = []
    if spec.k > 1 and spec.p in (2, 3):
        gs.append(artin_schreier_map(spec, spec.p))
    gs += [power_map(spec, d) for d in (2, 3) if (spec.order - 1) % d == 0]
    gs.append(RatFun.from_poly(random_ratfun(rng, spec, 2).num))
    gs.append(random_ratfun(rng, spec, 2))
    cases = []
    for g in gs:
        for e in (1, 2, 3):
            cases.append((rat_compose(g, random_ratfun(rng, spec, e)), g, True))
            cases.append((random_ratfun(rng, spec, g.degree * e), g, False))
    return cases


def _no_factoring(F):
    raise AssertionError(f"the root search factored {F}")


def _by_extension(monkeypatch, f, g):
    """find_h with the scan of F_q made to fail, so that it lifts at a point
    of an extension field, the path of fields too small to hold one."""
    scan = mvar._usable_points
    with monkeypatch.context() as m:
        m.setattr(mvar, "_usable_points", lambda cs: iter(()) if cs[0].spec == f.spec else scan(cs))
        m.setattr(mvar, "mv_factor", _no_factoring)
        return find_h(f, g)


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (101, 1), (2, 7), (2, 8)])
def test_find_h_matches_divisor_search_and_fallback(monkeypatch, p, k):
    spec = build_field(p, k)
    rng = random.Random(f"find_h/{spec.order}")
    for f, g, planted in _search_cases(rng, spec):
        want = divisor_find_h(f, g)
        assert (want is not None) >= planted
        assert find_h(f, g) == want, f"{f} over {g}"
        assert _by_extension(monkeypatch, f, g) == want, f"over an extension: {f} over {g}"


@pytest.mark.parametrize("p, k, delta, e", [(2, 3, 2, 1), (2, 3, 2, 2), (3, 3, 3, 1)])
def test_find_h_inseparable_g_is_deflated(monkeypatch, p, k, delta, e):
    # F_Y = 0 when g = X^p; the search moves to g1 = X and h^p, never factoring
    spec = build_field(p, k)
    g = poly_rf(spec, [0] * delta + [1])
    monkeypatch.setattr(mvar, "mv_factor", _no_factoring)
    rng = random.Random(f"inseparable/{spec.order}/{e}")
    for planted in (True, True, False, False):
        h = random_ratfun(rng, spec, e)
        f = rat_compose(g, h) if planted else random_ratfun(rng, spec, delta * e)
        every = brute_find_all(f, g)
        got = find_h(f, g)
        assert got == min(every, key=RatFun.index_key, default=None)
        assert (got is not None) >= planted


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (2, 5)])
def test_find_h_inseparable_g_matches_divisor_search(p, k):
    # g = g1(X^p) with g1 separable and rational, or itself inseparable
    spec = build_field(p, k)
    rng = random.Random(f"deflate/{spec.order}")
    x_p = Poly.from_ints(spec, [0] * p + [1])
    g1 = random_ratfun(rng, spec, 2)
    gs = [RatFun.make(g1.num.compose(x_p), g1.den.compose(x_p)), poly_rf(spec, [0] * p * p + [1])]
    for g in gs:
        for e in (1, 2):
            planted = rat_compose(g, random_ratfun(rng, spec, e))
            for f in (planted, random_ratfun(rng, spec, g.degree * e)):
                got = find_h(f, g)
                assert got == divisor_find_h(f, g), f"{f} over {g}"
                assert (got is not None) >= (f is planted)


def test_find_h_steps_past_a_point_with_a_double_root(monkeypatch):
    # h(0) = 0 makes F(0, Y) = -Y^2 a square; x0 = 1 must be used instead
    monkeypatch.setattr(mvar, "mv_factor", _no_factoring)
    spec = build_field(101)
    g = poly_rf(spec, [0, 0, 1])
    h = poly_rf(spec, [0, 1, 1])
    assert find_h(rat_compose(g, h), g) == h


def test_find_h_keeps_no_product_table_for_one_variable():
    # the jets of one variable multiply by convolution; a table of the
    # (2e+1)(2e+2)/2 index pairs for e = 120 held 2.4 MB after returning
    spec = build_field(101)
    rng = random.Random(7040)
    g = poly_rf(spec, [0, 0, 1])
    h = poly_rf(spec, [rng.randrange(101) for _ in range(120)] + [1])
    f = rat_compose(g, h)
    tracemalloc.start()
    try:
        got = find_h(f, g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got is not None and rat_compose(g, got) == f
    assert held < 1_000_000


def test_jet_mul_of_one_variable_is_truncated_poly_product():
    spec = build_field(13)
    rng = random.Random(7041)
    ring = mvar._jet_ring(1, 12)
    assert ring[1] is None and ring[2] is None
    for prec in (1, 5, 13):
        a, b = ([rng.randrange(13) for _ in range(13)] for _ in range(2))
        want = (Poly.from_ints(spec, a) * Poly.from_ints(spec, b)).coeffs[:prec]
        got = mvar._jet_mul(spec, ring, a, b, prec)
        assert got[:len(want)] == [c.index for c in want]
        assert not any(got[len(want):])


def test_find_h_verifies_through_the_decomp_name(monkeypatch):
    # the benchmark counts compositions per find_h call by tracing this name
    calls = []
    monkeypatch.setattr(
        decomp, "rat_compose", lambda g, h: calls.append(h) or rat_compose(g, h)
    )
    g = poly_rf(F13, [0, 0, 1])
    f = rat_compose(g, rf(F13, [1, 2, 3], [4, 0, 1]))
    assert find_h(f, g) is not None
    assert calls


_PROPERTY_FIELDS = [build_field(2, 5), build_field(2, 6), build_field(3, 4),
                    build_field(101), build_field(2, 7)]


@settings(max_examples=40, deadline=2000)
@given(
    spec=st.sampled_from(_PROPERTY_FIELDS),
    delta=st.integers(2, 3),
    e=st.integers(1, 3),
    rational_g=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_find_h_recovers_a_planted_decomposition(spec, delta, e, rational_g, seed):
    rng = random.Random(seed)
    g = random_ratfun(rng, spec, delta)
    if not rational_g:
        g = RatFun.from_poly(g.num)
    f = rat_compose(g, random_ratfun(rng, spec, e))
    h = find_h(f, g)
    assert h is not None
    assert h.degree == e
    assert rat_compose(g, h) == f


def test_pair_count_lower_bound_for_composites():
    # for f = g(h), pairs >= (floor(delta/2)+1) * (q - d*|Y2|)
    rng = random.Random(7033)
    for spec in (F5, F7, F9, F13):
        for _ in range(5):
            g = random_ratfun(rng, spec, rng.randrange(2, 4))
            h = random_ratfun(rng, spec, rng.randrange(1, 3))
            f = rat_compose(g, h)
            diag = small_fiber_diagnostics(g)
            bound = (g.degree // 2 + 1) * (spec.order - f.degree * len(diag.small_points))
            assert count_pairs(f, g) >= bound


# --------------------------------------------------------------------------
# fiber diagnostics


def test_small_fibers_square_map():
    diag = small_fiber_diagnostics(poly_rf(F7, [0, 0, 1]))
    assert diag.small_points == frozenset({F7.zero(), INFINITY})
    assert diag.small_values == frozenset({F7.zero()})
    assert diag.finite_small_count == 1
    assert diag.value_count == 1


def test_small_fibers_additive_map_is_empty_on_finite_part():
    diag = small_fiber_diagnostics(poly_rf(F4, [0, 1, 1]))
    assert diag.small_points == frozenset({INFINITY})
    assert diag.finite_small_count == 0
    assert diag.value_count == 0


def test_small_fibers_degree_one():
    diag = small_fiber_diagnostics(poly_rf(F7, [3, 1]))
    assert diag.finite_small_count == 0
    assert diag.small_points == frozenset({INFINITY})


def test_small_fibers_unchanged_by_affine_precomposition():
    rng = random.Random(7041)
    for spec in (F5, F7, F9):
        for _ in range(5):
            g = random_ratfun(rng, spec, rng.randrange(2, 5))
            a = spec.from_index(rng.randrange(1, spec.order))
            b = spec.from_index(rng.randrange(spec.order))
            phi = RatFun.from_poly(Poly.from_coeffs(spec, [b, a]))
            before = small_fiber_diagnostics(g)
            after = small_fiber_diagnostics(moebius_pre(g, phi))
            assert len(after.small_points) == len(before.small_points)
            assert after.finite_small_count == before.finite_small_count


# --------------------------------------------------------------------------
# example families


def test_power_map_values():
    g = power_map(F7, 3)
    assert g == poly_rf(F7, [0, 0, 0, 1])
    for v in (1, 6):
        assert len(fiber(g, F7.element(v))) == 3
    with pytest.raises(ValidationError):
        power_map(F7, 4)


def test_subspace_map_prime_span():
    assert subspace_map(F4, [1]) == poly_rf(F4, [0, 1, 1])
    assert subspace_map(F9, [1]) == poly_rf(F9, [0, 2, 0, 1])  # X^3 - X


def test_subspace_map_is_additive():
    g = subspace_map(F9, [1])
    for x in F9.elements():
        for y in F9.elements():
            assert g.eval(x + y) == g.eval(x) + g.eval(y)


def test_artin_schreier_kernel_and_additivity():
    g = artin_schreier_map(F16, 2)
    kernel = fiber(g, F16.zero())
    assert kernel == {F16.zero(), F16.one()}
    for x in F16.elements():
        for y in F16.elements():
            assert g.eval(x + y) == g.eval(x) + g.eval(y)


def test_artin_schreier_rejects_non_subfield():
    with pytest.raises(ValidationError):
        artin_schreier_map(build_field(2, 3), 4)
    with pytest.raises(ValidationError):
        artin_schreier_map(F7, 3)


def test_moebius_wrappers():
    g = poly_rf(F7, [0, 0, 1])
    phi = poly_rf(F7, [1, 3])
    assert moebius_pre(g, phi).degree == 2
    assert moebius_post(g, phi).degree == 2
    assert moebius_pre(g, phi) == rat_compose(g, phi)
    with pytest.raises(ValidationError):
        moebius_pre(g, poly_rf(F7, [0, 0, 1]))


def test_gen_g_family_dispatch():
    assert gen_g_family(F7, "power", d=3) == power_map(F7, 3)
    assert gen_g_family(F4, "subspace", basis=[1]) == subspace_map(F4, [1])
    assert gen_g_family(F16, "artin_schreier", r=2) == artin_schreier_map(F16, 2)
    g = poly_rf(F7, [0, 0, 1])
    phi = poly_rf(F7, [1, 1])
    assert gen_g_family(F7, "moebius_pre", g=g, phi=phi) == rat_compose(g, phi)
    with pytest.raises(ValidationError):
        gen_g_family(F7, "no-such-family")


# --------------------------------------------------------------------------
# seeded sampling


def test_random_ratfun_degree_and_determinism():
    a = random_ratfun(random.Random(99), F9, 3)
    b = random_ratfun(random.Random(99), F9, 3)
    assert a == b
    assert a.degree == 3
    with pytest.raises(ValidationError):
        random_ratfun(random.Random(1), F9, 0)
