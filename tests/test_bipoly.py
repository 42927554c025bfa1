import contextlib
import functools
import itertools
import random
import time
from types import SimpleNamespace
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdecomp import bipoly, bounds, mvar
from ffdecomp.bipoly import (
    _SMOOTH_SCAN_LINES,
    _irreducible_is_absolute,
    _line_meets_simply,
    _points_at_infinity,
    build_F,
    count_affine,
    count_projective,
    curve_str,
    is_absolutely_irreducible,
    kronecker_factor,
    map_coeffs,
    specialize,
    swap,
)
from ffdecomp.bounds import (
    _SAMPLERS,
    SampleConfig,
    SqrtVal,
    _absolutely_irreducible,
    _random_conic,
    _random_linear_form,
    ap_projective_ok,
    verify_bounds_on_sample,
)
from ffdecomp.errors import SizeLimitError, ValidationError
from ffdecomp.gf_core import build_field, extend_field, prime_factors
from ffdecomp.mvar import MPoly, mpoly_divexact, mv_factor
from ffdecomp.upoly import EVAL_ROOTS_MAX_ORDER, Poly, RatFun, num_distinct_roots

from oracles import (
    _is_absolutely_irreducible_by_extension,
    collapse,
    collapse_factor,
    collapse_key,
    uncollapse,
)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)
F7 = build_field(7)
F8 = build_field(2, 3)
F9 = build_field(3, 2)
F11 = build_field(11)
F13 = build_field(13)
F41 = build_field(41)
F43 = build_field(43)
F49 = build_field(7, 2)
F101 = build_field(101)
F131 = build_field(131)

SX, SY = sympy.symbols("X Y")


def bp(spec, terms):
    """A plane curve from {(i, j): c}, i the X- and j the Y-exponent."""
    return MPoly.from_terms(spec, 2, terms)


def rand_bipoly(rng, spec, max_total):
    terms = {}
    for i in range(max_total + 1):
        for j in range(max_total + 1 - i):
            terms[(i, j)] = spec.from_index(rng.randrange(spec.order))
    return bp(spec, terms)


def rand_ratfun(rng, spec, max_deg):
    while True:
        num = Poly.from_coeffs(
            spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(max_deg + 1)]
        )
        den = Poly.from_coeffs(
            spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(max_deg + 1)]
        )
        if den.is_zero() or num.is_zero():
            continue
        f = RatFun.make(num, den)
        if not f.is_constant():
            return f


def to_sympy(F):
    assert F.spec.k == 1
    expr = sympy.Integer(0)
    for (i, j), c in F.terms.items():
        expr += c.index * SX**i * SY**j
    return sympy.Poly(expr, SX, SY, modulus=F.spec.p)


def sympy_divides(G, F):
    _, r = to_sympy(F).div(to_sympy(G))
    return r.is_zero


def brute_irreducible(F):
    """Exhaustive divisor scan over a prime field, via sympy division.  A
    reducible F of total degree d has a nonconstant divisor of total degree
    at most d // 2, so only those candidates are tried."""
    d = F.total_degree()
    assert d >= 1
    p = F.spec.p
    monos = [(i, j) for i in range(d // 2 + 1) for j in range(d // 2 + 1 - i)]
    for coeffs in itertools.product(range(p), repeat=len(monos)):
        G = bp(F.spec, dict(zip(monos, coeffs)))
        if G.is_zero() or G.is_constant():
            continue
        if sympy_divides(G, F):
            return False
    return True


# -- construction ------------------------------------------------------------


def test_build_f_example():
    f = RatFun.from_poly(Poly.from_ints(F7, [0, 0, 1]))
    F = build_F(f, f)
    assert F == bp(F7, {(2, 0): 1, (0, 2): -1})


def test_build_f_zero_set_matches_projective_equality():
    rng = random.Random(41)
    for spec in [F3, F5]:
        for _ in range(25):
            f = rand_ratfun(rng, spec, 2)
            g = rand_ratfun(rng, spec, 2)
            F = build_F(f, g)
            for x in spec.elements():
                for y in spec.elements():
                    assert F((x, y)).is_zero() == (f.eval(x) == g.eval(y))


def test_build_f_y_degree_is_deg_g():
    rng = random.Random(43)
    for _ in range(20):
        f = rand_ratfun(rng, F5, 3)
        g = rand_ratfun(rng, F5, 3)
        F = build_F(f, g)
        assert F.deg_in(1) == g.degree
        assert F.deg_in(0) == f.degree


def test_build_f_rejects_constants():
    f = RatFun.from_poly(Poly.x(F5))
    c = RatFun.from_poly(Poly.one(F5))
    with pytest.raises(ValidationError):
        build_F(f, c)


# -- arithmetic sanity -------------------------------------------------------


def test_bipoly_ring_ops():
    x = MPoly.variable(F5, 2, 0)
    y = MPoly.variable(F5, 2, 1)
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert curve_str(x**2 - y**2) == "X^2+4*Y^2"
    # the same polynomial outside the curve helpers keeps the n-variate names
    assert str(x**2 - y**2) == "X1^2+4*X2^2"


def test_specialize_matches_eval():
    rng = random.Random(47)
    for _ in range(30):
        F = rand_bipoly(rng, F5, 3)
        for a in F5.elements():
            u = specialize(F, 0, a)
            v = specialize(F, 1, a)
            for b in F5.elements():
                assert u(b) == F((a, b))
                assert v(b) == F((b, a))


def test_y_coeff_views_roundtrip():
    rng = random.Random(53)
    y = MPoly.variable(F4, 2, 1)
    for _ in range(30):
        F = rand_bipoly(rng, F4, 4)
        if F.is_zero():
            continue
        rebuilt = MPoly.zero(F4, 2)
        for j, c in enumerate(F.last_var_coeffs()):
            rebuilt = rebuilt + c.lift_last() * y**j
        assert rebuilt == F


# -- point counting ----------------------------------------------------------


def brute_affine(F):
    return sum(
        1
        for x in F.spec.elements()
        for y in F.spec.elements()
        if F((x, y)).is_zero()
    )


def brute_projective(F):
    spec = F.spec
    d = F.total_degree()

    def hom(x, y, z):
        acc = spec.zero()
        for (i, j), c in F.terms.items():
            acc = acc + c * x**i * y**j * z ** (d - i - j)
        return acc

    reps = [(x, y, spec.one()) for x in spec.elements() for y in spec.elements()]
    reps += [(x, spec.one(), spec.zero()) for x in spec.elements()]
    reps += [(spec.one(), spec.zero(), spec.zero())]
    return sum(1 for r in reps if hom(*r).is_zero())


def test_count_affine_examples():
    for spec in [F3, F5, F7, F9]:
        parabola = bp(spec, {(0, 2): 1, (1, 0): -1})  # Y^2 - X
        assert count_affine(parabola) == spec.order
        hyperbola = bp(spec, {(1, 1): 1, (0, 0): -1})  # XY - 1
        assert count_affine(hyperbola) == spec.order - 1
    circle3 = bp(F3, {(2, 0): 1, (0, 2): 1})
    assert count_affine(circle3) == 1


def test_count_affine_matches_scan():
    rng = random.Random(59)
    for spec in [F3, F4, F5]:
        for _ in range(25):
            F = rand_bipoly(rng, spec, 3)
            if F.is_zero():
                continue
            assert count_affine(F) == brute_affine(F)


def test_count_affine_on_the_grid_matches_the_count_per_line():
    # at or below EVAL_ROOTS_MAX_ORDER the zeros are read from mvar's grid
    # of values; each line X = x must count as num_distinct_roots counts it,
    # a line on which F vanishes as q points
    rng = random.Random("grid count")
    for spec in [F4, F11, build_field(3, 4), build_field(2, 7)]:
        assert spec.order <= EVAL_ROOTS_MAX_ORDER
        vertical = bp(spec, {(1, 0): 1, (0, 0): -1})  # X - 1
        for _ in range(4):
            F = rand_bipoly(rng, spec, 3)
            for G in (F, F * vertical):
                if G.is_zero():
                    continue
                lines = (specialize(G, 0, x) for x in spec.elements())
                per_line = sum(spec.order if u.is_zero() else num_distinct_roots(u) for u in lines)
                assert count_affine(G) == per_line, (spec, G)


def test_count_affine_matches_scan_above_the_root_cutoff():
    # above EVAL_ROOTS_MAX_ORDER each line's roots are counted by
    # gcd(F(x, Y), Y^q - Y), not from values
    assert F131.order > EVAL_ROOTS_MAX_ORDER
    rng = random.Random(131)
    for _ in range(2):
        F = rand_bipoly(rng, F131, 3)
        assert count_affine(F) == brute_affine(F)
    parabola = bp(F131, {(0, 2): 1, (1, 0): -1})  # Y^2 - X
    assert count_affine(parabola) == F131.order
    # F (X - 1) holds the whole line X = 1, where F(1, Y) is the zero polynomial
    F = F * bp(F131, {(1, 0): 1, (0, 0): -1})
    assert count_affine(F) == brute_affine(F)


def test_count_affine_rejects_zero():
    with pytest.raises(ValidationError):
        count_affine(MPoly.zero(F3, 2))


def test_count_projective_examples():
    for spec in [F3, F5, F7, F9]:
        q = spec.order
        parabola = bp(spec, {(0, 1): 1, (2, 0): -1})  # Y - X^2
        assert count_projective(parabola) == q + 1
        line = bp(spec, {(1, 0): 1, (0, 1): 1})
        assert count_projective(line) == q + 1
    circle3 = bp(F3, {(2, 0): 1, (0, 2): 1})
    assert count_projective(circle3) == 1


def test_count_projective_matches_scan():
    rng = random.Random(61)
    for spec in [F3, F4, F5]:
        for _ in range(25):
            F = rand_bipoly(rng, spec, 3)
            if F.is_zero() or F.is_constant():
                continue
            assert count_projective(F) == brute_projective(F)


def test_counts_invariant_under_swap():
    rng = random.Random(67)
    for _ in range(20):
        F = rand_bipoly(rng, F5, 3)
        if F.is_zero() or F.is_constant():
            continue
        assert count_affine(F) == count_affine(swap(F))
        assert count_projective(F) == count_projective(swap(F))


# -- substitution-based factoring --------------------------------------------
#
# At n = 2 the mixed-radix collapse of oracles.collapse_factor (the oracle of
# mv_factor) is the Kronecker substitution Y -> X^D with D = deg_X F + 1, and
# its inverse splits e = i + D*j back into (i, j); division is mpoly_divexact.


def kronecker_image(F, D):
    """F(X, X^D), computed term by term."""
    out = Poly.zero(F.spec)
    for (i, j), c in F.terms.items():
        out = out + Poly.x(F.spec) ** (i + D * j) * c
    return out


def test_kronecker_image_lift_roundtrip():
    rng = random.Random(71)
    for _ in range(40):
        F = rand_bipoly(rng, F5, 4)
        D = F.deg_in(0) + 1
        rads, bases = collapse_key(F)
        assert bases == [1, D]
        assert collapse(F, bases) == kronecker_image(F, D)
        assert uncollapse(collapse(F, bases), rads, bases, 2) == F


def test_kronecker_image_multiplicative():
    rng = random.Random(73)
    for _ in range(40):
        F = rand_bipoly(rng, F3, 2)
        G = rand_bipoly(rng, F3, 2)
        _, bases = collapse_key(F * G)
        assert collapse(F * G, bases) == collapse(F, bases) * collapse(G, bases)


def test_exact_div_roundtrip():
    rng = random.Random(79)
    for spec in [F2, F4, F7]:
        for _ in range(40):
            F = rand_bipoly(rng, spec, 3)
            G = rand_bipoly(rng, spec, 2)
            if G.is_zero():
                continue
            assert mpoly_divexact(F * G, G) == F
            if not G.is_constant() and not F.is_zero():
                assert mpoly_divexact(F * G + 1, G) is None


def test_exact_div_matches_sympy():
    rng = random.Random(83)
    for _ in range(60):
        F = rand_bipoly(rng, F5, 3)
        G = rand_bipoly(rng, F5, 2)
        if F.is_zero() or G.is_zero():
            continue
        assert (mpoly_divexact(F, G) is not None) == sympy_divides(G, F)


def test_factor_difference_of_squares():
    F = bp(F7, {(2, 0): 1, (0, 2): -1})
    unit, facs = kronecker_factor(F)
    # each factor is scaled so its lexicographically first coefficient
    # (here the Y one) is 1, pushing the sign into the unit
    assert unit == F7.element(-1)
    assert facs == [
        (bp(F7, {(1, 0): 1, (0, 1): 1}), 1),
        (bp(F7, {(1, 0): -1, (0, 1): 1}), 1),
    ]


def test_factor_irreducible_circle():
    F = bp(F3, {(2, 0): 1, (0, 2): 1})
    unit, facs = kronecker_factor(F)
    assert unit == F3.one()
    assert facs == [(F, 1)]


def test_factor_with_multiplicity():
    g1 = bp(F5, {(1, 0): 1, (0, 1): 1})
    g2 = bp(F5, {(1, 0): -1, (0, 1): 1})  # canonical form of X-Y
    unit, facs = kronecker_factor(g1 * g1 * (-g2) * 3)
    assert unit == F5.element(-3)
    assert sorted(facs, key=lambda t: t[1]) == [(g2, 1), (g1, 2)]


def test_factor_reconstructs_product():
    rng = random.Random(89)
    for spec in [F2, F3, F4, F5]:
        for _ in range(20):
            F = rand_bipoly(rng, spec, 4)
            if F.is_zero():
                continue
            unit, facs = kronecker_factor(F)
            prod = MPoly.constant(unit, 2)
            for g, m in facs:
                assert g.terms[min(g.terms)] == 1
                prod = prod * g**m
            assert prod == F


def test_factor_irreducibility_against_divisor_scan():
    rng = random.Random(97)
    cases = []
    for _ in range(12):
        cases.append(rand_bipoly(rng, F2, 4))
        cases.append(rand_bipoly(rng, F3, 3))
    for F in cases:
        if F.is_zero() or F.is_constant():
            continue
        _, facs = kronecker_factor(F)
        trivial = len(facs) == 1 and facs[0][1] == 1
        assert trivial == brute_irreducible(F)


def test_factor_invariant_under_variable_swap():
    rng = random.Random(101)
    for _ in range(15):
        F = rand_bipoly(rng, F3, 3)
        if F.is_zero() or F.is_constant():
            continue
        _, facs = kronecker_factor(F)
        _, sfacs = kronecker_factor(swap(F))

        def renorm(G):
            c = G.terms[min(G.terms)]
            return G * c.inverse()

        swapped_back = sorted(
            ((renorm(swap(g)), m) for g, m in sfacs),
            key=lambda fm: (fm[0].total_degree(), fm[0].index_key()),
        )
        assert swapped_back == facs


def test_factor_deterministic():
    F = bp(F5, {(3, 0): 2, (1, 2): 1, (0, 1): 4, (2, 1): 3})
    assert kronecker_factor(F) == kronecker_factor(F)


def test_factor_pure_powers():
    F = bp(F2, {(2, 0): 1}) * bp(F2, {(0, 3): 1})
    _, facs = kronecker_factor(F)
    assert facs == [
        (MPoly.variable(F2, 2, 1), 3),
        (MPoly.variable(F2, 2, 0), 2),
    ]


def test_factor_degree_cap():
    with pytest.raises(SizeLimitError):
        kronecker_factor(bp(F2, {(25, 0): 1}))


def test_factor_rejects_zero():
    with pytest.raises(ValidationError):
        kronecker_factor(MPoly.zero(F2, 2))


def test_built_curve_factors_have_positive_y_degree():
    # every irreducible factor of A(X)Q(Y) - B(X)P(Y) involves Y, and the
    # Y-degrees across the multiset add up to deg g
    rng = random.Random(103)
    for _ in range(15):
        f = rand_ratfun(rng, F3, 2)
        g = rand_ratfun(rng, F3, 2)
        F = build_F(f, g)
        _, facs = kronecker_factor(F)
        assert all(h.deg_in(1) > 0 for h, _ in facs)
        assert sum(m * h.deg_in(1) for h, m in facs) == g.degree


# -- Hensel lifting at one fiber against the collapse ---------------------------
#
# mv_factor factors a plane curve by lifting the factors of one fiber F(x0, Y);
# oracles.collapse_factor, the algorithm it replaced, is the oracle.


@pytest.mark.parametrize(
    "spec", [F2, F3, F4, F5, F7, F8, F9, F11, F13], ids=lambda s: f"q{s.order}"
)
def test_plane_factor_matches_collapse_on_sampled_curves(spec):
    rng = random.Random(500 + spec.order)
    curves = [
        _SAMPLERS[kind](rng, spec, 4)
        for kind, count in (("conic", 8), ("norm_form", 8), ("random", 3))
        for _ in range(count)
    ]
    for F in curves:
        assert mv_factor(F) == collapse_factor(F), F
    # a norm form splits into two conjugate lines over F_{q^2}
    _, emb = extend_field(spec, 2)
    for F in curves[8:16]:
        G = map_coeffs(F, emb)
        unit, facs = mv_factor(G)
        assert (unit, facs) == collapse_factor(G), G
        assert [(h.total_degree(), m) for h, m in facs] == [(1, 1), (1, 1)]


def test_plane_factor_edge_cases():
    X, Y = MPoly.variable(F5, 2, 0), MPoly.variable(F5, 2, 1)
    X3, Y3 = MPoly.variable(F3, 2, 0), MPoly.variable(F3, 2, 1)
    curves = [
        (X + 1) ** 2 * X * (Y**2 - X) * (Y + X + 2),  # content in X with multiplicity
        X**3 + X,  # no Y at all
        X * (X - 1) * (X - 2) * Y**2 + Y + X,  # lc_Y vanishes at the first points
        (Y**2 - 2) * (Y - X**2),  # a factor free of X
        X**2 * Y**3,
        (Y + X) ** 2 * (Y - X),  # a repeated factor
        Y3**3 + X3,  # in F_3[X, Y^3]: F_Y = 0, so X and Y are swapped
        (Y3**3 + X3) * (Y3 + X3**2 + 1),  # F_Y != 0, but no fiber is squarefree
        Y3**6 + X3**3,  # F_Y = 0 = F_X: the cube of Y^2 + X
        (Y3**3 + X3**3 + 1) * (Y3 + X3),  # (Y + X + 1)^3 (Y + X): multiplicity p
        (Y3 + X3) ** 3 * (Y3**2 + X3) ** 2,  # the quotient left by the squarefree part is a cube
    ]
    for F in curves:
        assert mv_factor(F) == collapse_factor(F), F


def test_plane_factor_without_usable_point_lifts_over_an_extension():
    # lc_Y = X^2 + X, or its square, vanishes on all of F_2, so every fiber
    # loses degree and the fibers are taken over an extension of F_2
    X, Y = MPoly.variable(F2, 2, 0), MPoly.variable(F2, 2, 1)
    H = (X**2 + X) * Y + 1
    curves = [
        (X**2 + X) * Y**2 + Y + 1,
        (Y + 1) * H,  # two factors, recombined over the extension
        (Y**2 + Y + X**2 + X + 1) * H,
        (Y + 1) * H**2,  # P_Y = H^2: the squarefree part is Y + 1
    ]
    for F in curves:
        assert mv_factor(F) == collapse_factor(F), F


@pytest.mark.parametrize("terms", [
    # at x0 = 1 the fiber Y^20 - 1 has 20 linear factors; at x0 = 2 it is
    # irreducible, which proves the curve irreducible without recombination
    {(0, 20): 1, (1, 0): -1},
    # the cubic is 1 at x0 = 0, 1 and 2, so the first three usable fibers
    # are all Y^20 - 1; the scan goes on to an irreducible fiber at x0 = 3
    {(0, 20): 1, (3, 0): -1, (2, 0): 3, (1, 0): -2, (0, 0): -1},
], ids=["Y20-X", "Y20-cubic"])
def test_plane_factor_fiber_with_many_factors(terms):
    F = bp(F101, terms)
    start = time.perf_counter()
    unit, facs = mv_factor(F)
    assert time.perf_counter() - start < 1.0
    assert [m for _, m in facs] == [1] and MPoly.constant(unit, 2) * facs[0][0] == F


def test_plane_factor_recombines_when_every_fiber_has_many_factors(monkeypatch):
    # every fiber of three lines has three factors; with at most two allowed,
    # the whole field is scanned and the best fiber is recombined anyway
    X, Y = MPoly.variable(F5, 2, 0), MPoly.variable(F5, 2, 1)
    F = (Y - X) * (Y - X - 1) * (Y + X)
    want = collapse_factor(F)
    assert mv_factor(F) == want
    monkeypatch.setattr(mvar, "_MAX_FIBER_FACTORS", 2)
    assert mv_factor(F) == want


def factored_by_parts(parts):
    """The product of the (curve, multiplicity) pairs and its factors, each
    part factored by the oracle, sorted as mv_factor sorts them."""
    F = functools.reduce(MPoly.__mul__, [G**m for G, m in parts])
    facs = [(h, k * m) for G, m in parts for h, k in collapse_factor(G)[1]]
    return F, sorted(facs, key=lambda fm: (fm[0].total_degree(), fm[0].index_key()))


def test_plane_factor_ten_lines_answer_quickly():
    # every fiber splits into the ten lines, and each is found by a test of
    # one lifted factor; the collapse took 13 to 15 s on this curve
    X, Y = MPoly.variable(F11, 2, 0), MPoly.variable(F11, 2, 1)
    F, want = factored_by_parts([(Y - X - i, 1) for i in range(10)])
    start = time.perf_counter()
    unit, facs = mv_factor(F)
    assert time.perf_counter() - start < 1.0
    assert facs == want and unit == F.terms[min(F.terms)]


def test_plane_factor_repeated_factors_answer_quickly():
    # the collapse refused this curve: its image would test 63700992 subsets
    F, want = factored_by_parts([
        (bp(F101, {(2, 0): 22, (0, 3): 98, (0, 0): 2}), 1),
        (bp(F101, {(1, 1): 61, (1, 0): 24, (0, 2): 35}), 1),
        (bp(F101, {(2, 0): 94, (1, 1): 62, (1, 0): 72, (0, 2): 4, (0, 1): 45}), 2),
    ])
    start = time.perf_counter()
    unit, facs = mv_factor(F)
    assert time.perf_counter() - start < 1.0
    assert facs == want and len(facs) == 3
    prod = MPoly.constant(unit, 2)
    for h, m in facs:
        prod = prod * h**m
    assert prod == F


def test_plane_factor_refuses_past_the_subset_budget(monkeypatch):
    # the ten lines need nine subset tests, one per line found but the last
    X, Y = MPoly.variable(F11, 2, 0), MPoly.variable(F11, 2, 1)
    F = functools.reduce(MPoly.__mul__, [Y - X - i for i in range(10)])
    monkeypatch.setattr(mvar, "_MAX_SUBSETS", 9)
    assert len(mv_factor(F)[1]) == 10
    monkeypatch.setattr(mvar, "_MAX_SUBSETS", 8)
    with pytest.raises(SizeLimitError, match="more than 8 subset tests"):
        mv_factor(F)


def test_plane_factor_recombines_fiber_factors():
    # no fiber of these is irreducible, so the lifted factors are recombined:
    # over F_5 at x0 = 2 into two irreducible quadratics; over F_29 the
    # values x0 + a for a in (4, 5, 22) are squares at x0 = 0, 1, 2, so each
    # of the three factors is a pair of the six linear factors there
    F29 = build_field(29)
    curves = [
        bp(F5, {(0, 2): 1, (1, 0): -1}) * bp(F5, {(0, 2): 1, (1, 0): -1, (0, 0): -1}),
        bp(F29, {(0, 2): 1, (1, 0): -1, (0, 0): -4})
        * bp(F29, {(0, 2): 1, (1, 0): -1, (0, 0): -5})
        * bp(F29, {(0, 2): 1, (1, 0): -1, (0, 0): -22}),
    ]
    for F in curves:
        unit, facs = mv_factor(F)
        assert (unit, facs) == collapse_factor(F)
        assert all(h.total_degree() == 2 and m == 1 for h, m in facs)


@st.composite
def _factor_lists(draw):
    spec = draw(st.sampled_from([F2, F3, F4, F5, F7]))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(1, spec.order - 1), min_size=1, max_size=4,
        ))
        factors.append(bp(spec, {k: spec.from_index(v) for k, v in terms.items()}))
    return factors


@settings(max_examples=40, deadline=None)
@given(_factor_lists())
def test_plane_factor_of_products_multiplies_back(factors):
    F = factors[0]
    for G in factors[1:]:
        F = F * G
    if F.is_constant():
        return
    unit, facs = mv_factor(F)
    prod = MPoly.constant(unit, 2)
    for h, m in facs:
        prod = prod * h**m
    assert prod == F
    assert (unit, facs) == collapse_factor(F)


@st.composite
def _branch_curves(draw):
    """Curves for each branch of _plane_factors that does not lift at a
    fiber over F_q: products with repeated factors, curves in F_q[X, Y^p]
    and p-th powers, and curves whose lc_Y vanishes on all of F_q."""
    spec = draw(st.sampled_from([F2, F3, F4, F5, F9]))
    p, q = spec.p, spec.order
    X, Y = MPoly.variable(spec, 2, 0), MPoly.variable(spec, 2, 1)

    def curve(max_x, max_y, step=1):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, max_x), st.integers(0, max_y)),
            st.integers(1, q - 1), min_size=1, max_size=4,
        ))
        return bp(spec, {(i, step * j): spec.from_index(v) for (i, j), v in terms.items()})

    kind = draw(st.sampled_from(["repeated", "inseparable", "lc_vanishes"]))
    if kind == "repeated":
        F = curve(1, 1) ** draw(st.integers(1, p + 1)) * curve(1, 2) ** draw(st.integers(1, 2))
    elif kind == "inseparable":
        F = curve(2, 2, p) * curve(1, 1) ** draw(st.sampled_from([1, p]))
    else:
        F = (X**q - X) * curve(1, 0) * Y ** draw(st.integers(1, 3)) + curve(2, 2)
    return F


@settings(max_examples=60, deadline=None)
@given(_branch_curves())
def test_plane_factor_branches_match_collapse(F):
    assume(not F.is_constant() and F.total_degree() <= 16)
    assert mv_factor(F) == collapse_factor(F), F


def test_plane_factor_matches_collapse_on_a_fifth_power():
    # a draw of the property above: its collapse has 1327104 sub-multisets,
    # which the oracle once built and sorted before testing any; tested
    # lazily by degree, the image of X + 1 divides at once
    X, Y = MPoly.variable(F5, 2, 0), MPoly.variable(F5, 2, 1)
    parts = [(X + 1, 1), (2 * X * Y + 1, 5), (X + Y**5, 1)]
    F = 3 * functools.reduce(MPoly.__mul__, [G**m for G, m in parts])
    want = (F5.element(3), parts)
    assert mv_factor(F) == want
    assert collapse_factor(F) == want


def test_bound_reports_count_affine_points_once(monkeypatch):
    # the projective report adds the points at infinity to the affine count
    # of the same factor instead of counting its affine points again
    calls = []

    def spy(h):
        calls.append(h)
        return count_affine(h)

    monkeypatch.setattr(bounds, "count_affine", spy)
    for kind in ("conic", "norm_form"):
        calls.clear()
        reports = verify_bounds_on_sample(SampleConfig(p=5, kind=kind, count=4, seed=3))
        affine = [r for r in reports if r.instance.endswith("/affine")]
        assert len(calls) == len(affine)
        for r in reports:
            if r.instance.endswith("/affine"):
                h = calls[affine.index(r)]
            else:
                assert r.observed == count_projective(h)
                assert r.observed == count_affine(h) + _points_at_infinity(h)


# -- absolute irreducibility -------------------------------------------------


def test_absolute_irreducibility_known_cases():
    circle3 = bp(F3, {(2, 0): 1, (0, 2): 1})
    assert not is_absolutely_irreducible(circle3)  # splits over F_9
    circle5 = bp(F5, {(2, 0): 1, (0, 2): 1})
    assert not is_absolutely_irreducible(circle5)  # splits over F_5 already
    assert not is_absolutely_irreducible(bp(F7, {(2, 0): 1, (0, 2): -1}))
    cusp = bp(F5, {(0, 2): 1, (3, 0): -1})  # Y^2 - X^3
    assert is_absolutely_irreducible(cusp)
    parabola = bp(F7, {(0, 1): 1, (2, 0): -1})
    assert is_absolutely_irreducible(parabola)
    hyperbola = bp(F5, {(1, 1): 1, (0, 0): -1})
    assert is_absolutely_irreducible(hyperbola)


def test_norm_form_is_irreducible_but_not_absolutely():
    # with T^2 + T + 3 irreducible over F_7, the norm of N - alpha*M splits
    # only after extending the scalars
    n = bp(F7, {(1, 0): 1, (0, 0): 1})  # X + 1
    m = bp(F7, {(0, 1): 1, (0, 0): 2})  # Y + 2
    F = n * n + n * m + 3 * m * m
    _, facs = kronecker_factor(F)
    assert len(facs) == 1 and facs[0][1] == 1
    # the conjugate lines meet in the one rational point, so the fallback runs
    assert not _line_meets_simply(F)
    assert not is_absolutely_irreducible(F)
    assert not _is_absolutely_irreducible_by_extension(F)
    # that point is all floor(2^2/4) = 1 allows, and for a conic no
    # absolutely irreducible curve has so few, so the count decides at once
    assert count_projective(F) == 1 == bounds.non_abs_bound(2)
    assert not _absolutely_irreducible(F, 1)
    # the norm of the conic A - alpha*B has the 4 = floor(4^2/4) rational
    # points where the conics A = X^2 - X and B = Y^2 - Y meet
    a = bp(F7, {(2, 0): 1, (1, 0): -1})
    b = bp(F7, {(0, 2): 1, (0, 1): -1})
    G = a * a + a * b + 3 * b * b
    _, facs = kronecker_factor(G)
    assert len(facs) == 1 and facs[0][1] == 1
    assert count_projective(G) == 4 == bounds.non_abs_bound(4)
    assert not _line_meets_simply(G)
    assert not _absolutely_irreducible(G, 4)
    assert not _is_absolutely_irreducible_by_extension(G)


def test_absolute_irreducibility_rejects_constant():
    with pytest.raises(ValidationError):
        is_absolutely_irreducible(MPoly.constant(F3.one(), 2))


def brute_curve_points(F):
    """The points of P^2(F_q) on the projective closure of F, each with the
    values there of the partials in X, Y and Z of the homogenization, by a
    full scan."""
    spec = F.spec
    d = F.total_degree()
    hom = {(i, j, d - i - j): c for (i, j), c in F.terms.items()}

    def value(terms, pt):
        acc = spec.zero()
        for exps, c in terms.items():
            term = c
            for v, e in zip(pt, exps):
                term = term * v**e
            acc = acc + term
        return acc

    def partial(var):
        out = {}
        for exps, c in hom.items():
            if exps[var]:
                e = list(exps)
                e[var] -= 1
                out[tuple(e)] = c * exps[var]
        return out

    grads = [partial(v) for v in range(3)]
    zero, one = spec.zero(), spec.one()
    els = spec.elements()
    points = [(x, y, one) for x in els for y in els]
    points += [(x, one, zero) for x in els] + [(one, zero, zero)]
    return [(pt, [value(g, pt) for g in grads]) for pt in points if value(hom, pt).is_zero()]


def brute_smooth_points(F):
    """The points where the gradient of the homogenization does not vanish."""
    return [pt for pt, grad in brute_curve_points(F) if any(not v.is_zero() for v in grad)]


def brute_line_roots(F):
    """The simple F_q-roots of F on the lines _line_meets_simply scans: of
    T(X, 1), T the top form, at the points (x : 1 : 0), where the partial
    in X is not zero; and of F(x, Y) for the first _SMOOTH_SCAN_LINES x, at
    the points (x : y : 1), where the partial in Y is not zero."""
    spec = F.spec
    lines = spec.elements()[:_SMOOTH_SCAN_LINES]
    return [
        pt
        for pt, grad in brute_curve_points(F)
        if (pt[2].is_zero() and pt[1] == spec.one() and not grad[0].is_zero())
        or (not pt[2].is_zero() and pt[0] in lines and not grad[1].is_zero())
    ]


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8, F9], ids=lambda s: f"q{s.order}")
def test_absolute_irreducibility_matches_extension_oracle(spec):
    # both certificates against the definitional re-factoring over F_{q^r}:
    # the exact projective point count with the geometry, and the geometry
    # alone; the line scan against a scan of the same lines, and every
    # simple root it sees against the nonsingular points of P^2(F_q).  Norm
    # forms have no nonsingular rational point, so with no count they run
    # the fallback
    rng = random.Random(spec.order)
    for kind, count in (("conic", 4), ("norm_form", 3), ("random", 3)):
        for _ in range(count):
            _, facs = kronecker_factor(_SAMPLERS[kind](rng, spec, 4))
            for h, _ in facs:
                expected = _is_absolutely_irreducible_by_extension(h)
                assert is_absolutely_irreducible(h) == expected, h
                points = count_projective(h)
                assert _absolutely_irreducible(h, points) == expected, h
                assert _irreducible_is_absolute(h) == expected, h
                roots = brute_line_roots(h)
                assert _line_meets_simply(h) == bool(roots), h
                smooth = brute_smooth_points(h)
                assert set(roots) <= set(smooth), h
                assert expected or not smooth, h
                assert expected or points <= bounds.non_abs_bound(h.total_degree()), h


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8, F9], ids=lambda s: f"q{s.order}")
def test_known_irreducible_check_matches_full_test(spec):
    # verify_bounds_on_sample passes the factors it already has, with their
    # projective point counts, to _absolutely_irreducible, which skips the
    # factoring over F_q
    rng = random.Random(1000 + spec.order)
    for kind in ("conic", "norm_form", "random"):
        for _ in range(3):
            _, facs = kronecker_factor(_SAMPLERS[kind](rng, spec, 4))
            for h, _ in facs:
                full = is_absolutely_irreducible(h)
                assert _irreducible_is_absolute(h) == full, h
                assert _absolutely_irreducible(h, count_projective(h)) == full, h


def test_count_rule_decides_below_the_aubry_perret_floor():
    # with the geometry stubbed out, a count N up to floor(D^2/4) is decided
    # (False) exactly when it lies below the Aubry-Perret floor
    # q + 1 - (D-1)(D-2)sqrt(q), compared by SqrtVal, and every N above the
    # cap is decided True; where that floor lies above the cap, no count is
    # left to the geometry
    prime_powers = [q for q in range(2, 200) if len(prime_factors(q)) == 1]
    decided = {}
    with mock.patch.object(bounds, "_irreducible_is_absolute", lambda h: None):
        for q in prime_powers:
            for D in range(1, 9):
                h = SimpleNamespace(spec=SimpleNamespace(order=q), total_degree=lambda: D)
                floor = SqrtVal(q, q + 1, -(D - 1) * (D - 2))
                cap = D * D // 4
                for N in range(cap + 1):
                    want = False if floor > N else None
                    assert _absolutely_irreducible(h, N) is want, (D, q, N)
                assert _absolutely_irreducible(h, cap + 1) is True
                if floor > cap:
                    decided.setdefault(D, []).append(q)
    assert decided[1] == decided[2] == prime_powers
    assert decided[3] == [q for q in prime_powers if q >= 7]
    assert decided[4] == [q for q in prime_powers if q >= 43]
    assert decided[5] == [q for q in prime_powers if q >= 157]
    assert not decided.keys() & {6, 7, 8}


@contextlib.contextmanager
def _without_slow_paths():
    """bipoly's line scan and its re-factoring over F_{q^r}, made to raise."""

    def refuse(*args):
        raise AssertionError("the line scan or the re-factoring ran")

    with mock.patch.object(bipoly, "_line_meets_simply", refuse), mock.patch.object(
        bipoly, "_irreducible_over", refuse
    ):
        yield


def _norm_of(rng, spec, e, form):
    """N^e + c_1*N^(e-1)*M + ... + c_e*M^e for forms N and M and a monic
    P = T^e + c_1*T^(e-1) + ... + c_e of degree 2 or 3 with no root in F_q,
    so irreducible: the norm of N - alpha*M, alpha a root of P in F_{q^e}."""
    while True:
        c = [rng.randrange(spec.order) for _ in range(e)]
        if not num_distinct_roots(Poly(spec, [*reversed(c), 1])):
            break
    N, M = form(rng, spec), form(rng, spec)
    out = N**e
    for i, ci in enumerate(c, 1):
        out = out + (N ** (e - i) * M**i)._scale(ci)
    return out


def _line(rng, spec):
    keys = ((0, 0), (1, 0), (0, 1))
    return MPoly(spec, 2, {k: c for k, c in zip(keys, _random_linear_form(rng, spec)) if c})


_ORACLE_CURVES = {
    "conic": lambda rng, spec, degree: _SAMPLERS["conic"](rng, spec, 2),
    "norm_form": lambda rng, spec, degree: _SAMPLERS["norm_form"](rng, spec, 2),
    "random": lambda rng, spec, degree: _SAMPLERS["random"](rng, spec, degree),
    # three conjugate lines through one point (D = 3)
    "norm_of_lines": lambda rng, spec, degree: _norm_of(rng, spec, 3, _line),
    # two conjugate conics, meeting in at most 4 points (D = 4)
    "norm_of_conics": lambda rng, spec, degree: _norm_of(
        rng, spec, 2, lambda rng, spec: _random_conic(rng, spec, 2)
    ),
}


@pytest.mark.parametrize(
    "spec", [F2, F3, F4, F5, F7, F8, F9, F11, F13, F41, F43, F49], ids=lambda s: f"q{s.order}"
)
@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(sorted(_ORACLE_CURVES)),
    degree=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_rule_matches_extension_oracle(spec, kind, degree, seed):
    # the exact projective count against re-factoring over F_{q^r}, on every
    # F_q-factor, with fields on both sides of each threshold: F_5 and F_7
    # for D = 3, F_41 and F_43, F_49 for D = 4.  Where the count decides, it
    # decides alone
    rng = random.Random(seed)
    _, facs = kronecker_factor(_ORACLE_CURVES[kind](rng, spec, degree))
    for h, _ in facs:
        expected = _is_absolutely_irreducible_by_extension(h)
        count = count_projective(h)
        D = h.total_degree()
        decides = count > bounds.non_abs_bound(D) or not ap_projective_ok(count, D, spec.order)
        with _without_slow_paths() if decides else contextlib.nullcontext():
            assert _absolutely_irreducible(h, count) == expected, h


@pytest.mark.parametrize("kind", ["norm_form", "conic"])
def test_conics_and_norm_forms_need_no_scan_or_refactoring(kind):
    # every factor of a conic or a norm form has degree at most 2, where the
    # exact count decides at every q
    with _without_slow_paths():
        for spec in (F2, F3, F4, F5, F7, F8, F9, F11, F13):
            config = SampleConfig(p=spec.p, k=spec.k, kind=kind, count=20, seed=spec.order)
            reports = verify_bounds_on_sample(config)
            assert reports and all(r.passed for r in reports), spec.order


def test_point_count_decides_where_no_line_meets_simply(monkeypatch):
    # Y^p - X meets each line X = x in one p-fold root and the line at
    # infinity only at (1 : 0 : 0), so the scan finds nothing; its q + 1
    # points exceed floor(p^2/4) and prove it absolutely irreducible with no
    # re-factoring
    def refactor(F, r):
        raise AssertionError("the fallback ran")

    monkeypatch.setattr(bipoly, "_irreducible_over", refactor)
    for spec in (F2, F3, F9):
        F = bp(spec, {(0, spec.p): 1, (1, 0): -1})
        points = count_projective(F)
        assert points == spec.order + 1 > bounds.non_abs_bound(spec.p)
        assert not _line_meets_simply(F)
        assert _absolutely_irreducible(F, points)


def test_curve_helpers_refuse_other_variable_counts():
    F = MPoly.from_terms(F3, 3, {(1, 0, 0): 1, (0, 0, 1): 1})
    for check in (count_affine, count_projective, is_absolutely_irreducible):
        with pytest.raises(ValidationError):
            check(F)


def test_swapped_scan_decides_the_points_the_scan_of_f_misses(monkeypatch):
    # X + Y^4 is nonsingular only where its tangent is vertical, and
    # X^3*Y + X*Y + 1 only at (1 : 0 : 0): lines Y = y, and Z = 0 read with
    # X and Y swapped, see those points, so no re-factoring runs
    def refactor(F, r):
        if r > 1:
            raise AssertionError("the fallback ran")
        return original(F, r)

    original = bipoly._irreducible_over
    monkeypatch.setattr(bipoly, "_irreducible_over", refactor)
    for terms in ({(1, 0): 1, (0, 4): 1}, {(3, 1): 1, (1, 1): 1, (0, 0): 1}):
        F = bp(F2, terms)
        assert not _line_meets_simply(F) and _line_meets_simply(swap(F))
        assert is_absolutely_irreducible(F)


def test_absolutely_irreducible_without_smooth_point_takes_fallback():
    # X^4 + XY + Y^4 over F_2 has exactly two rational points, (0 : 0 : 1)
    # and (1 : 1 : 0), both singular, yet it is absolutely irreducible
    quartic = bp(F2, {(4, 0): 1, (1, 1): 1, (0, 4): 1})
    assert count_projective(quartic) == 2
    assert not brute_smooth_points(quartic)
    assert not _line_meets_simply(quartic)
    assert _absolutely_irreducible(quartic, 2)
    assert is_absolutely_irreducible(quartic)
    assert _is_absolutely_irreducible_by_extension(quartic)


def test_smooth_point_found_by_each_partial():
    # over F_2 each curve's nonsingular rational points are affine (Z = 1) or
    # all at infinity (Z = 0), and only the partial named is nonzero there:
    # F_X or F_Y, or at infinity T_X, T_Y (T the top form) or F_{d-1}.  The
    # line scan sees a point only through the partial along its line, F_Y on
    # X = x and T_X on Z = 0; for the others the fallback decides
    one, zero = F2.one(), F2.zero()
    cases = [
        ({(4, 0): 1, (0, 1): 1}, one, True),  # X^4 + Y, F_Y; singular at (0 : 1 : 0)
        ({(1, 0): 1, (0, 4): 1}, one, False),  # X + Y^4, F_X; singular at (1 : 0 : 0)
        ({(1, 3): 1, (1, 1): 1, (0, 0): 1}, zero, True),  # X*Y^3 + X*Y + 1 at (0 : 1 : 0), T_X
        ({(3, 1): 1, (1, 1): 1, (0, 0): 1}, zero, False),  # X^3*Y + X*Y + 1 at (1 : 0 : 0), T_Y
        # X^2*Y^2 + X^2 + Y^3 at (0 : 1 : 0), F_{d-1}
        ({(2, 2): 1, (2, 0): 1, (0, 3): 1}, zero, False),
        # X^2 + X*Y + Y^3 at (1 : 0 : 0), F_{d-1}
        ({(2, 0): 1, (1, 1): 1, (0, 3): 1}, zero, False),
    ]
    for terms, z, on_a_line in cases:
        F = bp(F2, terms)
        assert {pt[2] for pt in brute_smooth_points(F)} == {z}
        assert _line_meets_simply(F) == on_a_line == bool(brute_line_roots(F))
        assert _absolutely_irreducible(F, count_projective(F))
        assert is_absolutely_irreducible(F)
