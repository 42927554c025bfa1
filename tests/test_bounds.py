import math
import random
from fractions import Fraction

import pytest

from oracles import _is_absolutely_irreducible_by_extension

from ffdecomp.bipoly import kronecker_factor
from ffdecomp.bounds import (
    _SAMPLERS,
    CSV_HEADER,
    BoundReport,
    SampleConfig,
    SqrtVal,
    ap_affine_ok,
    ap_interval,
    ap_projective_ok,
    cm_band,
    composition_slack,
    equal_split_slack,
    factor_sum_bound,
    non_abs_bound,
    verify_bounds_on_sample,
)
from ffdecomp.errors import ValidationError
from ffdecomp.gf_core import build_field


# -- independent sign oracle: interval refinement instead of squaring --------


def _sqrt_enclosure(q, digits):
    scale = 10**digits
    r = math.isqrt(q * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _icbrt(x):
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + x // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def _cbrt_enclosure(d, digits):
    scale = 10**digits
    r = _icbrt(d * scale**3)
    return Fraction(r, scale), Fraction(r + 1, scale)


def oracle_sign(q, a, b):
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return (a > 0) - (a < 0)
    r = math.isqrt(q)
    if r * r == q:
        v = a + b * r
        return (v > 0) - (v < 0)
    digits = 2
    while True:
        lo, hi = _sqrt_enclosure(q, digits)
        vals = sorted([a + b * lo, a + b * hi])
        if vals[0] > 0:
            return 1
        if vals[1] < 0:
            return -1
        digits *= 2  # sqrt(q) irrational, so the value is nonzero


def test_sqrtval_sign_matches_oracle():
    rng = random.Random(107)
    for _ in range(400):
        q = rng.choice([2, 3, 5, 7, 11, 13, 1296, 2048])
        a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 10))
        b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 10))
        assert SqrtVal(q, a, b).sign() == oracle_sign(q, a, b)


def test_sqrtval_comparisons_match_oracle():
    rng = random.Random(109)
    for _ in range(300):
        q = rng.choice([2, 3, 5, 7, 11])
        a1, b1, a2, b2 = (Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4))
        x, y = SqrtVal(q, a1, b1), SqrtVal(q, a2, b2)
        s = oracle_sign(q, a1 - a2, b1 - b2)
        assert (x < y) == (s < 0)
        assert (x <= y) == (s <= 0)
        assert (x > y) == (s > 0)
        assert (x >= y) == (s >= 0)
        assert (x == y) == (s == 0)


def test_sqrtval_perfect_square_folds():
    v = SqrtVal(1296, 2594, 4)
    assert v.b == 0 and v == 2738
    assert SqrtVal(1296, 0, 1) == 36


def test_sqrtval_rejects_mixed_radicands():
    with pytest.raises(ValidationError):
        SqrtVal(2, 0, 1) + SqrtVal(3, 0, 1)


def test_sqrtval_int_comparisons():
    v = SqrtVal(2, 1, 1)  # 1 + sqrt(2) ~ 2.414
    assert 2 < v < 3
    assert v != 2
    assert str(v) == "1+1*sqrt(2)"
    assert str(SqrtVal(5, 3, -2)) == "3-2*sqrt(5)"


# -- plane-curve bounds -------------------------------------------------------


def test_ap_interval_degree_two_is_tight():
    lo, hi = ap_interval(2, 11)
    assert lo == 10 and hi == 12
    assert ap_affine_ok(11, 2, 11)
    assert not ap_affine_ok(9, 2, 11)


def test_ap_interval_degree_four():
    lo, hi = ap_interval(4, 25)
    # slack (3)(2)*5 = 30 on each side, minus the D at-infinity allowance
    assert hi == 26 + 30
    assert lo == 26 - 4 - 30


def test_ap_interval_line():
    lo, hi = ap_interval(1, 7)
    assert lo <= 7 <= hi


def test_ap_projective_membership():
    assert ap_projective_ok(8, 2, 7)  # conics: exactly q+1
    assert not ap_projective_ok(9, 2, 7)
    # degree 3 over q=11: slack 2*sqrt(11) ~ 6.63
    assert ap_projective_ok(12 + 6, 3, 11)
    assert not ap_projective_ok(12 + 7, 3, 11)


def test_non_abs_bound_values():
    assert non_abs_bound(2) == 1
    assert non_abs_bound(3) == 2
    assert non_abs_bound(4) == 4


def test_factor_sum_bound_frozen():
    assert factor_sum_bound(2, 6, 1296) == 2738
    v = factor_sum_bound(1, 3, 7)
    assert v == SqrtVal(7, 8, 2)  # (q+1) + 2*sqrt(q)
    w = factor_sum_bound(2, 5, 7)  # non-integer split: slack 2*(3/2)*(1/2)
    assert w.b == Fraction(3, 2)


def test_slack_helpers():
    assert equal_split_slack(2, 6) == 4
    assert equal_split_slack(3, 6) == 0
    assert composition_slack([3, 3]) == 4
    assert composition_slack([4, 2]) == 6  # exceeds the equal split
    assert composition_slack([5, 1]) == 12


# -- the n-variate band -------------------------------------------------------


def oracle_band_contains(n, d, q, count):
    t = abs(Fraction(count) - q ** (n - 1))
    scale = Fraction(q) ** (n - 2)
    A = (d - 1) * (d - 2) * scale
    B = 5 * Fraction(d) ** 4 * scale
    sq = math.isqrt(q)
    sqrt_exact = sq if sq * sq == q else None
    cb = _icbrt(d)
    cbrt_exact = cb if cb**3 == d else None
    if (A == 0 or sqrt_exact is not None) and (B == 0 or cbrt_exact is not None):
        s = A * (sqrt_exact or 0) + B * (cbrt_exact or 0)
        return t <= s
    digits = 2
    while True:
        slo, shi = _sqrt_enclosure(q, digits)
        clo, chi = _cbrt_enclosure(d, digits)
        lo = A * slo + B * clo
        hi = A * shi + B * chi
        if t < lo:
            return True
        if t > hi:
            return False
        digits *= 2  # slack is irrational here, so the enclosure decides


def test_cm_band_matches_oracle():
    rng = random.Random(113)
    for _ in range(300):
        n = rng.randrange(1, 4)
        d = rng.randrange(1, 7)
        q = rng.choice([2, 3, 4, 5, 7, 9, 11, 13, 25])
        band = cm_band(n, d, q)
        center = q ** (n - 1)
        assert band.center == center
        for count in [0, center, center + rng.randrange(-3 * q, 3 * q + 1)]:
            if count < 0:
                continue
            assert band.contains(count) == oracle_band_contains(n, d, q, count)


def test_cm_band_edges():
    band = cm_band(2, 2, 9)
    # slack is 0*sqrt(q) + 5*2^{13/3} = 80*cbrt(2), about 100.79
    assert band.contains(9)
    assert band.contains(0)
    assert band.contains(109)
    assert not band.contains(110)
    assert cm_band(2, 1, 4).contains(4 + 5)  # d=1: slack exactly 5
    assert not cm_band(2, 1, 4).contains(4 + 6)


def test_cm_band_validation():
    with pytest.raises(ValidationError):
        cm_band(0, 2, 5)


# -- sampled verification -----------------------------------------------------


def test_verify_bounds_random_samples_pass():
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        reports = verify_bounds_on_sample(
            SampleConfig(p=p, k=k, kind="random", count=20, max_degree=3, seed=5)
        )
        assert reports, "sampler produced nothing"
        bad = [r for r in reports if not r.passed]
        assert bad == []


def test_verify_bounds_conics_are_exact():
    reports = verify_bounds_on_sample(
        SampleConfig(p=7, kind="conic", count=40, seed=9)
    )
    assert all(r.passed for r in reports)
    for r in reports:
        if r.classification == "absolutely-irreducible" and r.degree == 2 and r.instance.endswith("projective"):
            assert r.observed == 8


def test_verify_bounds_norm_forms_classified():
    reports = verify_bounds_on_sample(
        SampleConfig(p=5, kind="norm_form", count=15, seed=3)
    )
    assert all(r.passed for r in reports)
    labels = {r.classification for r in reports}
    assert labels == {"not-absolutely-irreducible"}
    assert all(r.observed <= non_abs_bound(r.degree) for r in reports)


def test_criterion_4_labels_match_the_extension_oracle():
    # criterion 4's configurations (tests/test_acceptance.py), each factor
    # labelled by re-factoring over F_{q^r}.  Where the exact count decides
    # (D <= 2 always), verify_bounds_on_sample labels a factor by the count,
    # so its "aff <= floor(D^2/4)" row restates that rule; this check of the
    # labels does not use the count
    configs = [
        SampleConfig(p=p, k=k, kind="norm_form", count=30, seed=0)
        for p, k in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
    ] + [
        SampleConfig(p=p, k=k, kind="random", count=40, max_degree=4, seed=1)
        for p, k in [(2, 1), (3, 1)]
    ]
    for config in configs:
        labels = {
            r.instance.rsplit("/", 1)[0]: r.classification
            for r in verify_bounds_on_sample(config)
        }
        spec = build_field(config.p, config.k)
        rng = random.Random(config.seed)
        expected = {}
        for idx in range(config.count):
            F = _SAMPLERS[config.kind](rng, spec, config.max_degree)
            for fidx, (h, _) in enumerate(kronecker_factor(F)[1]):
                absolute = _is_absolutely_irreducible_by_extension(h)
                expected[f"{idx}/{fidx}"] = (
                    "absolutely-irreducible" if absolute else "not-absolutely-irreducible"
                )
        assert labels == expected, config


@pytest.mark.parametrize("kind", ["conic", "norm_form"])
def test_conics_and_norm_forms_over_small_fields_power_nothing(monkeypatch, kind):
    # their fibers have degree 2 or 3, and at or below the root cutoff a
    # fiber of degree <= 3 is split by its roots alone, with no T^q mod f
    from ffdecomp import upoly

    calls = []
    real = upoly.poly_powmod
    monkeypatch.setattr(upoly, "poly_powmod", lambda *a: calls.append(a) or real(*a))
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
        assert verify_bounds_on_sample(SampleConfig(p=p, k=k, kind=kind, count=20, seed=p**k))
    assert not calls


def test_verify_bounds_deterministic():
    cfg = SampleConfig(p=3, kind="random", count=10, max_degree=3, seed=21)
    assert verify_bounds_on_sample(cfg) == verify_bounds_on_sample(cfg)


def test_bound_report_csv():
    r = BoundReport("0/0/affine", 7, 2, "absolutely-irreducible", 8, "6..10", True)
    assert CSV_HEADER.count(",") == r.csv_row().count(",")
    assert r.csv_row().endswith(",true")


def test_verify_bounds_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        verify_bounds_on_sample(SampleConfig(p=3, kind="nope"))
