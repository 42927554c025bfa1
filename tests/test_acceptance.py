"""The acceptance gate: ten numbered criteria, one verdict line each.

Every test prints "criterion N: PASS/FAIL (...)" before asserting, so a -rA
run (or the failure output itself) shows the whole scoreboard.  Budgets come
from the criteria and are asserted alongside the math.  Criterion 10 states
a dominance claim that exact arithmetic refutes; the test encodes the claim
as written and is expected to fail with the counterexample in the message.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from oracles import _is_absolutely_irreducible_by_extension, all_ratfuns, brute_find_all

from ffdecomp.bipoly import build_F, count_affine, kronecker_factor
from ffdecomp.bounds import (
    _SAMPLERS,
    SampleConfig,
    composition_slack,
    equal_split_slack,
    non_abs_bound,
    verify_bounds_on_sample,
)
from ffdecomp.decomp import (
    check_t1,
    count_pairs,
    find_h,
    gen_g_family,
    random_ratfun,
    t31_threshold_ok,
)
from ffdecomp.gf_core import build_field
from ffdecomp.mvar import (
    MPoly,
    MRatFun,
    find_h_mv,
    mrat_compose,
    t41_threshold_ok,
    verify_h_mv,
)
from ffdecomp.parsing import parse_bipoly
from ffdecomp.upoly import Poly, RatFun, fiber, rat_compose

ALL_FIELDS_16 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
    (11, 1), (13, 1), (2, 4),
]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_field_axioms():
    t0 = time.monotonic()
    checked = 0
    for p, k in ALL_FIELDS_16:
        spec = build_field(p, k)
        elems = [spec.from_index(i) for i in range(spec.order)]
        zero, one = spec.zero(), spec.one()
        for a in elems:
            assert a + (-a) == zero
            if a != zero:
                assert a * a.inverse() == one
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    verdict(1, ok, f"{checked} triples over {len(ALL_FIELDS_16)} fields in {elapsed:.1f}s")
    assert ok, f"axiom sweep took {elapsed:.1f}s, budget 5s"


def test_criterion_02_conic_exactness():
    t0 = time.monotonic()
    total = 0
    for p, k in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        q = p ** k
        reports = verify_bounds_on_sample(
            SampleConfig(p=p, k=k, kind="conic", count=200, seed=0)
        )
        conics = [
            r
            for r in reports
            if r.instance.endswith("/projective")
            and r.degree == 2
            and r.classification == "absolutely-irreducible"
        ]
        assert len(conics) >= 100, f"q={q}: only {len(conics)} irreducible conics"
        off = [r for r in conics if r.observed != q + 1]
        assert not off, f"q={q}: {off[0]} misses q+1"
        total += len(conics)
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    verdict(2, ok, f"{total} conics all hit q+1 exactly in {elapsed:.1f}s")
    assert ok, f"conic sweep took {elapsed:.1f}s, budget 30s"


def test_criterion_03_projective_band():
    t0 = time.monotonic()
    plan = [
        (2, 1, 120), (3, 1, 110), (2, 2, 90), (5, 1, 85), (7, 1, 65),
        (2, 3, 30), (3, 2, 30), (11, 1, 35), (13, 1, 35),
    ]
    total = 0
    for p, k, count in plan:
        reports = verify_bounds_on_sample(
            SampleConfig(p=p, k=k, kind="random", count=count, max_degree=4, seed=0)
        )
        rows = [r for r in reports if r.instance.endswith("/projective")]
        bad = [r for r in rows if not r.passed]
        assert not bad, f"q={p**k}: band violation {bad[0]}"
        total += len(rows)
    elapsed = time.monotonic() - t0
    ok = total >= 500 and elapsed < 120.0
    verdict(3, ok, f"{total} absolutely irreducible curves inside the band in {elapsed:.1f}s")
    assert total >= 500, f"only {total} absolutely irreducible instances, need 500"
    assert elapsed < 120.0, f"band sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_04_non_absolutely_irreducible_bound():
    # each factor of the sampled curves is labelled by re-factoring over
    # F_{q^r}, not by its point count, so a factor that is not absolutely
    # irreducible and has more than floor(D^2/4) points fails its row
    t0 = time.monotonic()
    F3 = build_field(3)
    anchor = parse_bipoly(F3, "1:(2,0); 1:(0,2)")
    assert count_affine(anchor) == 1
    assert non_abs_bound(2) == 1

    configs = [
        SampleConfig(p=p, k=k, kind="norm_form", count=30, seed=0)
        for p, k in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
    ] + [
        SampleConfig(p=p, k=k, kind="random", count=40, max_degree=4, seed=1)
        for p, k in [(2, 1), (3, 1)]
    ]
    rows = []
    for config in configs:
        spec = build_field(config.p, config.k)
        rng = random.Random(config.seed)
        for idx in range(config.count):
            F = _SAMPLERS[config.kind](rng, spec, config.max_degree)
            for fidx, (h, _) in enumerate(kronecker_factor(F)[1]):
                if not _is_absolutely_irreducible_by_extension(h):
                    D = h.total_degree()
                    rows.append((config, f"{idx}/{fidx}", D, count_affine(h), non_abs_bound(D)))
    bad = [row for row in rows if row[3] > row[4]]
    elapsed = time.monotonic() - t0
    ok = len(rows) >= 100 and not bad and elapsed < 60.0
    verdict(4, ok, f"{len(rows)} instances under floor(D^2/4) in {elapsed:.1f}s")
    assert len(rows) >= 100, f"only {len(rows)} non-absolutely-irreducible instances"
    assert not bad, f"bound violation {bad[0]}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_05_end_to_end_at_scale():
    t0 = time.monotonic()
    spec = build_field(2, 11)
    g = gen_g_family(spec, "artin_schreier", r=2)
    h = random_ratfun(random.Random(0), spec, 2)
    f = rat_compose(g, h)
    assert f.degree == 4

    rep = check_t1(f, g)
    assert rep.condition_i is True
    assert rep.condition_ii.exceptions == 1
    assert rep.condition_ii.budget == 48
    assert rep.condition_ii.passed
    assert rep.condition_iii.threshold == 1296
    assert rep.condition_iii.passed

    found = find_h(f, g)
    assert found is not None
    assert rat_compose(g, found) == f
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    verdict(5, ok, f"q=2048 hypotheses hold, h recovered, {elapsed:.1f}s")
    assert ok, f"took {elapsed:.1f}s, budget 60s"


def _criterion_6_gs(spec):
    q = spec.order
    x = Poly.from_coeffs(spec, [spec.zero(), spec.one()])
    gs = [RatFun.make(x * x, Poly.one(spec))]
    if spec.p == 2:
        gs.append(gen_g_family(spec, "artin_schreier", r=2))
    if q % 3 == 1:
        gs.append(gen_g_family(spec, "power", d=3))
    return gs


def test_criterion_06_find_h_matches_brute_force():
    t0 = time.monotonic()
    roundtrips = 0
    non_composite = 0
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        spec = build_field(p, k)
        candidates = all_ratfuns(spec, 1) + all_ratfuns(spec, 2)
        for g in _criterion_6_gs(spec):
            for h in candidates:
                f = rat_compose(g, h)
                found = find_h(f, g)
                assert found is not None, f"missed decomposition of {f} over {g}"
                assert rat_compose(g, found) == f
                roundtrips += 1
            rng = random.Random(17)
            quota = 30
            while quota:
                f = random_ratfun(rng, spec, 2 * g.degree)
                found = find_h(f, g)
                every = brute_find_all(f, g)
                assert (found is None) == (not every), (
                    f"disagreement on {f} over {g}: find_h={found}, brute={len(every)}"
                )
                if found is not None:
                    assert rat_compose(g, found) == f
                else:
                    non_composite += 1
                    quota -= 1
    elapsed = time.monotonic() - t0
    ok = non_composite >= 200 and elapsed < 300.0
    verdict(
        6,
        ok,
        f"{roundtrips} exhaustive roundtrips, {non_composite} brute-checked "
        f"non-composite verdicts in {elapsed:.1f}s",
    )
    assert non_composite >= 200
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_07_pair_count_identities():
    t0 = time.monotonic()
    checked = 0
    for p, k in ALL_FIELDS_16:
        spec = build_field(p, k)
        elems = [spec.from_index(i) for i in range(spec.order)]
        rng = random.Random(23)
        for _ in range(100):
            f = random_ratfun(rng, spec, rng.randrange(1, 4))
            g = random_ratfun(rng, spec, rng.randrange(1, 4))
            direct = count_pairs(f, g)
            via_curve = count_affine(build_F(f, g))
            via_fibers = sum(len(fiber(g, f.eval(x))) for x in elems)
            assert direct == via_curve == via_fibers, (
                f"mismatch for f={f}, g={g} over q={spec.order}: "
                f"{direct} / {via_curve} / {via_fibers}"
            )
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    verdict(7, ok, f"{checked} pair-count identities in {elapsed:.1f}s")
    assert ok, f"took {elapsed:.1f}s, budget 60s"


def _t41_min_q(d: int, delta: int, eps: Fraction) -> int:
    # smallest q with 125 q^3 a^6 >= 59319 (d+delta)^13 b^6, via integer search
    target = Fraction(59319 * (d + delta) ** 13 * eps.denominator ** 6,
                      125 * eps.numerator ** 6)
    r = max(2, round(float(target) ** (1 / 3)))
    while Fraction(r) ** 3 < target:
        r += 1
    while r > 2 and Fraction(r - 1) ** 3 >= target:
        r -= 1
    return r


def test_criterion_08_threshold_grids():
    t0 = time.monotonic()
    eps_grid = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                Fraction(1, 4), Fraction(3, 4), Fraction(1, 5), Fraction(2, 5)]
    t31_points = 0
    t41_points = 0
    for d in range(2, 7):
        for delta in range(2, 7):
            for eps in eps_grid:
                a, b = eps.numerator, eps.denominator
                qb31 = math.ceil(Fraction((d + delta) ** 4 * b * b, a * a))
                qb41 = _t41_min_q(d, delta, eps)
                qs = {2, 97, max(2, qb31 - 1), qb31, qb31 + 1,
                      max(2, qb41 - 1), qb41, qb41 + 1}
                for q in qs:
                    independent31 = q * a * a >= (d + delta) ** 4 * b * b
                    assert t31_threshold_ok(q, d, delta, eps) == independent31
                    t31_points += 1
                    independent41 = (
                        125 * q ** 3 * a ** 6 >= 59319 * (d + delta) ** 13 * b ** 6
                    )
                    assert t41_threshold_ok(q, d, delta, eps) == independent41
                    t41_points += 1

    # frozen boundary columns
    assert not t41_threshold_ok(3169, 2, 2, Fraction(1))
    assert t41_threshold_ok(3170, 2, 2, Fraction(1))
    assert not t41_threshold_ok(18368, 4, 2, Fraction(1))
    assert t41_threshold_ok(18369, 4, 2, Fraction(1))
    assert not t31_threshold_ok(1295, 4, 2, Fraction(1))
    assert t31_threshold_ok(1296, 4, 2, Fraction(1))
    assert not t31_threshold_ok(255, 2, 2, Fraction(1))
    assert t31_threshold_ok(256, 2, 2, Fraction(1))

    elapsed = time.monotonic() - t0
    ok = t31_points >= 1000 and t41_points >= 1000 and elapsed < 10.0
    verdict(8, ok, f"{t31_points}+{t41_points} grid verdicts agree in {elapsed:.1f}s")
    assert t31_points >= 1000 and t41_points >= 1000
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def _random_mpoly(rng, spec, n, max_total):
    keys = [
        k
        for k in itertools.product(range(max_total + 1), repeat=n)
        if sum(k) <= max_total
    ]
    while True:
        terms = {k: spec.from_index(rng.randrange(spec.order)) for k in keys}
        f = MPoly.from_terms(spec, n, terms)
        if not f.is_constant():
            return f


def _random_mratfun(rng, spec, n, max_total):
    while True:
        num = _random_mpoly(rng, spec, n, max_total)
        if rng.randrange(2):
            den = MPoly.from_terms(spec, n, {(0,) * n: spec.one()})
        else:
            den = _random_mpoly(rng, spec, n, max_total)
        h = MRatFun.make(num, den)
        if h.degree >= 1:
            return h


def test_criterion_09_multivariate_roundtrip():
    t0 = time.monotonic()
    done = 0
    for p in (3, 5):
        spec = build_field(p)
        x = Poly.from_coeffs(spec, [spec.zero(), spec.one()])
        for g_poly in (x * x, x * x + x):
            g = RatFun.make(g_poly, Poly.one(spec))
            rng = random.Random(7)
            for _ in range(16):
                h = _random_mratfun(rng, spec, 2, 2)
                f = mrat_compose(g, h)
                assert f is not None
                assert f.degree == g.degree * h.degree
                found = find_h_mv(f, g)
                assert found is not None, f"missed decomposition of {f} over {g}"
                assert verify_h_mv(f, g, found)
                done += 1
    elapsed = time.monotonic() - t0
    ok = done >= 50 and elapsed < 180.0
    verdict(9, ok, f"{done} bivariate roundtrips verified in {elapsed:.1f}s")
    assert done >= 50
    assert elapsed < 180.0, f"took {elapsed:.1f}s, budget 180s"


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_criterion_10_equal_split_dominance():
    t0 = time.monotonic()
    violations = []
    total = 0
    for dprime in range(1, 13):
        for parts in _compositions(dprime):
            total += 1
            actual = composition_slack(parts)
            claimed_max = equal_split_slack(len(parts), dprime)
            if actual > claimed_max:
                violations.append((parts, dprime, actual, claimed_max))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 5.0
    verdict(10, ok, f"{len(violations)} violations among {total} compositions in {elapsed:.1f}s")
    assert elapsed < 5.0
    assert not violations, (
        "the claimed dominance is backwards: (t-1)(t-2) is convex in t, so the "
        "equal split MINIMIZES the slack sum over compositions of fixed length; "
        f"e.g. parts (4, 2) of 6 give {composition_slack((4, 2))} > "
        f"{equal_split_slack(2, 6)}, and the first of {len(violations)} "
        f"violations is parts={violations[0][0]} of {violations[0][1]}: "
        f"{violations[0][2]} > {violations[0][3]}"
    )
