import functools
import itertools
import random

import pytest

from ffdecomp.errors import SpecMismatchError, ValidationError
from ffdecomp.gf_core import build_field
from ffdecomp.upoly import (
    EVAL_ROOTS_MAX_ORDER,
    INFINITY,
    Poly,
    RatFun,
    _distinct_degree_parts,
    _equal_degree_parts,
    _has_simple_root,
    _rational_part,
    _root_indices,
    factor,
    fiber,
    is_irreducible,
    num_distinct_roots,
    poly_gcd,
    poly_invmod,
    poly_powmod,
    rat_compose,
    roots,
)

from oracles import (
    distinct_degree_parts_by_powering,
    factor_by_powering,
    horner,
    schoolbook_add,
    schoolbook_compose,
    schoolbook_derivative,
    schoolbook_divmod,
    schoolbook_monic,
    schoolbook_mul,
    schoolbook_sub,
)

F2 = build_field(2)
F3 = build_field(3)
F4 = build_field(2, 2)
F5 = build_field(5)
F7 = build_field(7)
F8 = build_field(2, 3)
F9 = build_field(3, 2)
F13 = build_field(13)
F101 = build_field(101)
F128 = build_field(2, 7)
F131 = build_field(131)
F256 = build_field(2, 8)


def rand_poly(rng, spec, max_deg):
    return Poly.from_coeffs(
        spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(max_deg + 1)]
    )


def rand_ratfun(rng, spec, max_deg):
    while True:
        num = rand_poly(rng, spec, max_deg)
        den = rand_poly(rng, spec, max_deg)
        if den.is_zero():
            continue
        return RatFun.make(num, den)


# -- polynomial basics -------------------------------------------------------


def test_degree_and_canonical_form():
    z = Poly.zero(F7)
    assert z.degree == -1 and z.is_zero()
    p = Poly.from_ints(F7, [1, 0, 0, 0])  # trailing zeros trimmed
    assert p.degree == 0
    q = Poly.from_ints(F7, [0, 7])  # 7 = 0 mod 7
    assert q.is_zero()


def test_mul_degree_additive():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, F5, rng.randrange(5))
        b = rand_poly(rng, F5, rng.randrange(5))
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree


@pytest.mark.parametrize(
    "p,k", [(7, 1), (2, 2), (3, 2), (2, 5), (101, 1), (3, 4), (2, 17)], ids=lambda v: str(v)
)
def test_index_kernels_match_schoolbook(p, k):
    # (2, 17) is above the table cutoff, so its kernels run coordinate code
    F = build_field(p, k)
    rng = random.Random(f"kernels/{p}^{k}")
    for _ in range(60):
        a = rand_poly(rng, F, rng.randrange(9))
        b = rand_poly(rng, F, rng.randrange(5))
        c = F.from_index(rng.randrange(F.order))
        assert list((a * b).coeffs) == schoolbook_mul(a, b)
        assert list((a * c).coeffs) == schoolbook_mul(a, Poly.constant(c))
        assert list((a + b).coeffs) == schoolbook_add(a, b)
        assert list((a - b).coeffs) == schoolbook_sub(a, b)
        assert list((a - a).coeffs) == []
        assert list((-a).coeffs) == [-x for x in a.coeffs]
        assert list(a.derivative().coeffs) == schoolbook_derivative(a)
        assert list(a.monic().coeffs) == schoolbook_monic(a)
        assert list(b.compose(a).coeffs) == schoolbook_compose(b, a)
        x = F.from_index(rng.randrange(F.order))
        assert a(x) == horner(a, x)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert (list(q.coeffs), list(r.coeffs)) == schoolbook_divmod(a, b)


def test_ints_mean_multiples_of_one_not_indices():
    F9 = build_field(3, 2)
    x, one = Poly.x(F9), F9.one()
    a = F9.from_index(4)  # the element [1,1]; the int 4 is 4 * 1 = 1
    f = x * a + 5
    assert f.coeffs == (F9.element(2), a)
    assert (f + 4).coeffs == (F9.zero(), a)
    assert (4 - f).coeffs == (F9.element(2), -a)
    assert (f * 4).coeffs == f.coeffs and (7 * f) == f and (f * 3).is_zero()
    assert Poly.from_ints(F9, [4, 5, 9]) == Poly.from_coeffs(F9, [one, -one])
    assert f(4) == f(one) == a + 2 and f(3) == F9.element(2)
    assert (x**3 - x).derivative() == Poly.from_ints(F9, [-1])
    assert divmod(f, 2) == (f * F9.element(2).inverse(), Poly.zero(F9))


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (2, 17)], ids=lambda v: str(v))
def test_equal_polys_hash_alike_however_built(p, k):
    F = build_field(p, k)
    a = F.from_index(F.order - 1)
    built = [
        Poly.from_coeffs(F, [a, F.element(2), F.one()]),
        Poly.from_coeffs(F, [a, 2, 1, 0, F.zero()]),
        Poly.x(F) ** 2 + Poly.x(F) * 2 + a,
        (Poly.x(F) + 1) ** 2 + (Poly.constant(a) - 1),
        Poly.from_ints(F, [0, 1, 1]) * Poly.x(F) // Poly.x(F) + Poly.x(F) + a,
    ]
    assert all(g == built[0] and hash(g) == hash(built[0]) for g in built)
    assert len(set(built)) == 1
    assert Poly.from_ints(F, [F.p]) == Poly.zero(F) and hash(Poly.from_ints(F, [F.p])) == hash(Poly.zero(F))


def test_evaluation_refuses_another_fields_point():
    f = Poly.from_ints(F7, [1, 2, 3])
    assert f(2) == f(F7.element(2)) == F7.element(17)
    with pytest.raises(SpecMismatchError):
        f(F5.one())


def test_divmod_example():
    # (X^3 + X) = (X + 1) * (X^2 + X) over F_2
    a = Poly.from_ints(F2, [0, 1, 0, 1])
    b = Poly.from_ints(F2, [1, 1])
    q, r = divmod(a, b)
    assert q == Poly.from_ints(F2, [0, 1, 1])
    assert r.is_zero()


def test_divmod_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_poly(rng, F7, rng.randrange(7))
        b = rand_poly(rng, F7, rng.randrange(4))
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_examples():
    # gcd(X^2 - 1, X - 1) = X - 1 over F_7
    a = Poly.from_ints(F7, [-1, 0, 1])
    b = Poly.from_ints(F7, [-1, 1])
    assert poly_gcd(a, b) == b.monic()
    # gcd with zero is the monic normalization
    c = Poly.from_ints(F7, [2, 4])
    assert poly_gcd(c, Poly.zero(F7)) == c.monic()
    assert poly_gcd(Poly.zero(F7), c) == c.monic()


def test_gcd_divides_both():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_poly(rng, F4, rng.randrange(6))
        b = rand_poly(rng, F4, rng.randrange(6))
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a, b)
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()


def test_powmod_matches_naive():
    f = Poly.from_ints(F5, [1, 1, 1])
    x = Poly.x(F5)
    assert poly_powmod(x, 12, f) == (x**12) % f


# -- factorization -----------------------------------------------------------


def test_factor_example_f2():
    f = Poly.from_ints(F2, [0, 1, 0, 0, 1])  # X^4 + X
    unit, facs = factor(f)
    assert unit == F2.one()
    assert [(str(p), m) for p, m in facs] == [("X", 1), ("X+1", 1), ("X^2+X+1", 1)]


def test_factor_with_multiplicities():
    # (X+1)^2 * (X^2+X+1) over F_2
    f = Poly.from_ints(F2, [1, 1]) ** 2 * Poly.from_ints(F2, [1, 1, 1])
    _, facs = factor(f)
    assert sorted((str(p), m) for p, m in facs) == [("X+1", 2), ("X^2+X+1", 1)]


def test_factor_char_p_power():
    # X^9 - X = X^9 + 2X over F_3 splits into all linears of F_3 and more
    f = Poly.from_ints(F3, [0, -1]) + Poly.x(F3) ** 9
    unit, facs = factor(f)
    prod = Poly.constant(unit)
    for p, m in facs:
        prod = prod * p**m
    assert prod == f
    assert all(is_irreducible(p) for p, _ in facs)


@pytest.mark.parametrize("spec", [F2, F3, F4, F5])
def test_factor_random_reconstructs(spec):
    rng = random.Random(spec.order)
    for _ in range(60):
        f = rand_poly(rng, spec, rng.randrange(1, 9))
        if f.is_zero():
            continue
        unit, facs = factor(f)
        prod = Poly.constant(unit)
        for p, m in facs:
            prod = prod * p**m
            assert p.lc() == 1
            assert is_irreducible(p)
        assert prod == f


def test_factor_deterministic():
    f = Poly.from_ints(F5, [1, 2, 3, 4, 0, 1, 2])
    assert factor(f) == factor(f)


def _monic_irreducibles(spec, max_deg):
    """The monic irreducibles of degree 1..max_deg over spec, by trial division."""
    found = []
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(spec.order), repeat=d):
            g = Poly(spec, tail + (1,))
            if all(not (g % h).is_zero() for h in found if 2 * h.degree <= d):
                found.append(g)
    return found


def test_is_irreducible_oracle_small():
    # brute force over F_2, F_3, F_4, F_5 and F_9 at degrees 0..6: f of
    # degree n >= 1 is irreducible iff no monic irreducible of degree at most
    # n/2 divides it; among the inputs are those that the squarefree gate
    # decides (f' = 0, squares), constants and linear polynomials
    for spec in (F2, F3, F4, F5, F9):
        small = _monic_irreducibles(spec, 3)

        def brute(f):
            if f.degree < 1 or any((f % g).is_zero() for g in small if 2 * g.degree <= f.degree):
                return False
            assert f.degree <= 6  # small holds every candidate factor up to degree 6
            return True

        rng = random.Random(f"irreducible/{spec!r}")
        x, p = Poly.x(spec), spec.p
        consts = [Poly(spec, (a,)) for a in range(spec.order)]
        cases = [Poly.zero(spec)] + consts + [x * c + d for c in consts[1:] for d in consts]
        cases += [x**p - c for c in consts]  # f' = 0: the p-th power of a linear factor
        cases.append((x**2 + consts[1]) ** p)
        cases += [g**2 for g in small]
        cases += [g * h for g, h in itertools.combinations(rng.sample(small, min(len(small), 12)), 2)]
        cases += rng.sample(small, min(len(small), 20))
        for degree in range(7):
            cases += [rand_poly(rng, spec, degree) for _ in range(25)]
        irreducible = 0
        for f in cases:
            assert is_irreducible(f) == brute(f), (spec, f)
            irreducible += brute(f) and f.degree > 3
        assert irreducible >= 5, spec


@pytest.mark.parametrize("spec", [F2, F3, build_field(3, 2), build_field(101)], ids=repr)
def test_invmod_inverts_exactly_the_units(spec):
    rng = random.Random(f"invmod/{spec!r}")
    one = Poly.one(spec)
    units = 0
    for _ in range(150):
        g, h = rand_poly(rng, spec, rng.randrange(1, 5)), rand_poly(rng, spec, rng.randrange(0, 4))
        a = rand_poly(rng, spec, rng.randrange(0, 10))
        m = g * h
        if g.degree < 1 or h.is_zero():
            continue
        if poly_gcd(a, m) == one:
            inv = poly_invmod(a, m)
            assert inv.degree < m.degree and (a * inv) % m == one, (a, m)
            units += 1
        with pytest.raises(ZeroDivisionError):
            poly_invmod(a * g, m)  # shares the factor g with m
    assert units >= 30


def test_x2_plus_1_over_f3_irreducible():
    assert is_irreducible(Poly.from_ints(F3, [1, 0, 1]))


def linear(spec, r):
    """X - a, a the element of index r."""
    return Poly.from_coeffs(spec, [-spec.from_index(r), 1])


def plant_roots(rng, f, count):
    """f times X - a for count random a; a repeated a makes a repeated root."""
    for _ in range(count):
        f = f * linear(f.spec, rng.randrange(f.spec.order))
    return f


def test_roots_match_scan():
    # F_2^7 is at EVAL_ROOTS_MAX_ORDER, where roots are still read from
    # values; F_2^8 is above it, where they come from gcd(f, T^q - T).  A
    # random f over a large field seldom has a root, so roots are planted
    assert F128.order <= EVAL_ROOTS_MAX_ORDER < F256.order
    rng = random.Random(17)
    for spec in [F3, F4, F7, F128, F256]:
        for _ in range(80):
            f = rand_poly(rng, spec, rng.randrange(1, 7))
            if f.is_zero():
                continue
            if spec.order > 7:
                f = plant_roots(rng, f, rng.randrange(4))
            scan = sorted((a.index for a in spec.elements() if f(a).is_zero()))
            assert [a.index for a in roots(f)] == scan
            assert num_distinct_roots(f) == len(scan)


@pytest.mark.parametrize(
    "spec", [F2, F3, F4, F7, build_field(5, 2), build_field(101), F128], ids=repr
)
def test_root_evaluation_matches_gcd_route(spec):
    # at or below EVAL_ROOTS_MAX_ORDER, roots and root counts are read from
    # f's values; the gcd route above the cutoff, the rational part split by
    # equal-degree splitting, is their oracle
    assert spec.order <= EVAL_ROOTS_MAX_ORDER
    rng = random.Random(f"root-paths/{spec!r}")
    for _ in range(60):
        f = plant_roots(rng, rand_poly(rng, spec, rng.randrange(0, 9)), rng.randrange(5))
        if f.is_zero():
            continue
        u = _rational_part(f)
        by_gcd = sorted(spec._neg(g.idx[0]) for g in _equal_degree_parts(u, 1)) if u.degree else []
        assert _root_indices(f) == by_gcd, f
        assert num_distinct_roots(f) == u.degree == len(by_gcd), f


@pytest.mark.parametrize("spec", [F7, F256], ids=repr)
def test_roots_of_constants_on_both_paths(spec):
    # one field on each side of EVAL_ROOTS_MAX_ORDER
    for find in (roots, _root_indices, num_distinct_roots):
        with pytest.raises(ValidationError, match="zero polynomial has every root"):
            find(Poly.zero(spec))
    c = Poly.from_coeffs(spec, [spec.from_index(spec.order - 1)])
    assert roots(c) == [] and _root_indices(c) == [] and num_distinct_roots(c) == 0


def brute_has_simple_root(u):
    du = u.derivative()
    return any(u(a).is_zero() and not du(a).is_zero() for a in u.spec.elements())


@pytest.mark.parametrize("spec", [F7, F9, F128, F256], ids=repr)
def test_has_simple_root_matches_scan(spec):
    # F_2^8 lies above EVAL_ROOTS_MAX_ORDER, the others at or below it, so
    # both the scan of values and the gcd with u' are checked
    rng = random.Random(f"simple-root/{spec!r}")
    x = spec.from_index(rng.randrange(spec.order))
    a, b, c = rng.sample(range(spec.order), 3)
    # X^p - x is inseparable: it has the root x^(1/p), and u' = 0
    inseparable = Poly.from_coeffs(spec, [-x] + [0] * (spec.p - 1) + [1])
    assert inseparable.derivative().is_zero() and roots(inseparable)
    # the only rational roots of (X - a)^2 (X - b)^3 are repeated
    repeated = linear(spec, a) ** 2 * linear(spec, b) ** 3
    for u in (inseparable, repeated):
        assert not _has_simple_root(u) and not brute_has_simple_root(u), u
    assert _has_simple_root(repeated * linear(spec, c))
    assert not _has_simple_root(Poly.zero(spec))
    for _ in range(40):
        u = rand_poly(rng, spec, 4)
        for _ in range(rng.randrange(4)):
            u = u * linear(spec, rng.randrange(spec.order)) ** rng.randrange(1, 3)
        if not u.is_zero():
            assert _has_simple_root(u) == brute_has_simple_root(u), u



# -- distinct-degree factorization against its powering twin -----------------

# the evaluation route at or below EVAL_ROOTS_MAX_ORDER (F_2^7 is the cutoff
# itself), and the gcd route above it
DDF_FIELDS = [F2, F3, F4, F5, F8, F9, F13, F101, F128, F131, F256]


def squarefree_samples(rng, spec):
    """Seeded monic squarefree (f, kind) of degree 1 to 10, of three kinds:
    a product of distinct linears, a root-free f, and a root-free f times
    distinct linears."""
    q = spec.order

    def linears(count):
        return functools.reduce(Poly.__mul__, [linear(spec, r) for r in rng.sample(range(q), count)])

    def root_free(degree):
        while True:
            f = Poly(spec, [rng.randrange(q) for _ in range(degree)] + [1])
            if poly_gcd(f, f.derivative()).is_one() and not any(f(a).is_zero() for a in spec.elements()):
                return f

    for _ in range(2):
        for n in range(1, 11):
            if n <= q:
                yield linears(n), "linear"
            if n >= 2:
                yield root_free(n), "root-free"
            if n >= 3:
                r = rng.randrange(1, min(n - 2, q) + 1)
                yield linears(r) * root_free(n - r), "mixed"


def split_in_order(parts):
    """The irreducible factors in the order mvar._recombine lifts them."""
    return [g for h, d in parts for g in _equal_degree_parts(h, d)]


@pytest.mark.parametrize("spec", DDF_FIELDS, ids=repr)
def test_distinct_degree_parts_match_the_powering_oracle(spec):
    # the linear entries multiply to the oracle's degree-1 part, the parts
    # of degree >= 2 are the oracle's, every consumer sees the irreducible
    # factors in the oracle's order, and factor agrees with the oracle's
    rng = random.Random(f"ddf/{spec!r}")
    one = Poly.one(spec)
    kinds = set()
    for f, kind in squarefree_samples(rng, spec):
        kinds.add(kind)
        parts = list(_distinct_degree_parts(f))
        oracle = distinct_degree_parts_by_powering(f)
        linear_parts = [g for g, d in parts if d == 1]
        assert functools.reduce(Poly.__mul__, linear_parts, one) == next(
            (g for g, d in oracle if d == 1), one
        ), f
        assert [(g, d) for g, d in parts if d > 1] == [(g, d) for g, d in oracle if d > 1], f
        assert split_in_order(parts) == split_in_order(oracle), f
        if spec.order <= EVAL_ROOTS_MAX_ORDER:  # the roots themselves, one entry each
            assert all(g.degree == 1 for g in linear_parts), f
            assert linear_parts == sorted(linear_parts, key=Poly.index_key), f
        else:  # the rational part, whole
            assert len(linear_parts) <= 1, f
        assert factor(f) == factor_by_powering(f), f
        repeated = f * linear(spec, rng.randrange(spec.order)) ** 2
        assert factor(repeated) == factor_by_powering(repeated), repeated
    assert kinds == {"linear", "root-free", "mixed"}


def _count_powmods(monkeypatch):
    # upoly's own calls, and those of the oracle through its own import
    import oracles
    from ffdecomp import upoly

    calls = []
    for module in (upoly, oracles):
        real = module.poly_powmod
        monkeypatch.setattr(module, "poly_powmod", lambda *a, real=real: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("spec", DDF_FIELDS, ids=repr)
def test_small_fibers_need_no_powering_and_no_input_more_than_the_oracle(monkeypatch, spec):
    # at or below the cutoff a squarefree f of degree <= 3 is split by its
    # roots alone; on every field factor powers no more often than its
    # twin that powers T^q from d = 1, which above the cutoff means T^q mod
    # f is raised on, not recomputed for the cofactor
    calls = _count_powmods(monkeypatch)
    rng = random.Random(f"ddf-count/{spec!r}")
    larger = 0
    for f, _ in squarefree_samples(rng, spec):
        calls.clear()
        if f.degree <= 3 and spec.order <= EVAL_ROOTS_MAX_ORDER:
            list(_distinct_degree_parts(f))
            factor(f)
            is_irreducible(f)
            assert not calls, f
        elif f.degree >= 4:
            # a repeated linear factor gives factor a squarefree part of degree 1
            for g in (f, f * linear(spec, rng.randrange(spec.order)) ** 2):
                calls.clear()
                factor_by_powering(g)
                powered = len(calls)
                calls.clear()
                factor(g)
                assert len(calls) <= powered, g
            larger += 1
    assert larger >= 20


# -- rational functions ------------------------------------------------------


def test_ratfun_reduction_and_monic_den():
    # (X^2-1)/(2X-2) reduces to (X+1)/2 = 4X+4 over F_7
    num = Poly.from_ints(F7, [-1, 0, 1])
    den = Poly.from_ints(F7, [-2, 2])
    f = RatFun.make(num, den)
    assert f.den.is_one()
    assert f.num == Poly.from_ints(F7, [4, 4])


def test_ratfun_degree():
    f = RatFun.make(Poly.from_ints(F7, [1, 0, 1]), Poly.from_ints(F7, [0, 1]))
    assert f.degree == 2
    g = RatFun.make(Poly.from_ints(F7, [3]), Poly.one(F7))
    assert g.is_constant() and g.degree == 0


def test_make_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFun.make(Poly.one(F7), Poly.zero(F7))


def test_eval_finite_and_poles():
    # f = (X^2+1)/X over F_7
    f = RatFun.make(Poly.from_ints(F7, [1, 0, 1]), Poly.x(F7))
    assert f.eval(F7.element(2)) == F7.element(5) / F7.element(2)
    assert f.eval(F7.zero()) is INFINITY
    assert f.eval(INFINITY) is INFINITY  # deg num > deg den


def test_eval_at_infinity_cases():
    # deg num < deg den -> 0
    f = RatFun.make(Poly.one(F7), Poly.x(F7))
    assert f.eval(INFINITY) == F7.zero()
    # equal degrees -> ratio of leading coefficients
    g = RatFun.make(Poly.from_ints(F7, [1, 3]), Poly.from_ints(F7, [0, 2]))
    assert g.eval(INFINITY) == F7.element(3) / F7.element(2)
    # polynomials of positive degree -> infinity
    h = RatFun.from_poly(Poly.x(F7))
    assert h.eval(INFINITY) is INFINITY


def test_reduced_never_zero_over_zero():
    rng = random.Random(23)
    for _ in range(100):
        f = rand_ratfun(rng, F5, 4)
        for a in F5.elements():
            assert not (f.num(a).is_zero() and f.den(a).is_zero())


def test_compose_identity_and_example():
    x = RatFun.from_poly(Poly.x(F2))
    h = RatFun.make(Poly.from_ints(F2, [1, 0, 1]), Poly.from_ints(F2, [0, 1]))
    assert rat_compose(x, h) == h
    # (X^2+X) o (X^2+X) = X^4+X over F_2
    g = RatFun.from_poly(Poly.from_ints(F2, [0, 1, 1]))
    gg = rat_compose(g, g)
    assert gg == RatFun.from_poly(Poly.from_ints(F2, [0, 1, 0, 0, 1]))


def test_compose_degree_multiplicative():
    rng = random.Random(29)
    for spec in [F3, F5]:
        for _ in range(60):
            g = rand_ratfun(rng, spec, 3)
            h = rand_ratfun(rng, spec, 3)
            if g.is_constant() or h.is_constant():
                continue
            assert rat_compose(g, h).degree == g.degree * h.degree


def test_compose_agrees_pointwise():
    rng = random.Random(31)
    for _ in range(40):
        g = rand_ratfun(rng, F7, 3)
        h = rand_ratfun(rng, F7, 3)
        if g.is_constant() or h.is_constant():
            continue
        gh = rat_compose(g, h)
        for a in F7.elements():
            v = h.eval(a)
            assert gh.eval(a) == g.eval(v)


def test_compose_constant_pole_raises():
    # h constant at a pole of g: g = 1/X, h = 0
    g = RatFun.make(Poly.one(F7), Poly.x(F7))
    h = RatFun.from_poly(Poly.zero(F7))
    with pytest.raises(ValidationError):
        rat_compose(g, h)


def test_fiber_example():
    g = RatFun.from_poly(Poly.from_ints(F7, [0, 0, 1]))  # X^2
    assert fiber(g, F7.element(4)) == {F7.element(2), F7.element(5)}
    assert fiber(g, F7.element(3)) == set()  # 3 is not a square mod 7
    assert fiber(g, INFINITY) == set()  # polynomial: no finite poles


def test_fiber_matches_scan():
    rng = random.Random(37)
    for spec in [F3, F4, F5]:
        for _ in range(40):
            g = rand_ratfun(rng, spec, 3)
            values = set(g.eval(a) for a in spec.elements()) | {INFINITY}
            for v in values:
                scan = {a for a in spec.elements() if g.eval(a) == v}
                assert fiber(g, v) == scan


def test_fiber_of_constant():
    g = RatFun.from_poly(Poly.from_ints(F3, [2]))
    assert fiber(g, F3.element(2)) == set(F3.elements())
    assert fiber(g, F3.element(1)) == set()


def test_str_formats():
    assert str(Poly.from_ints(F7, [1, 3, 1])) == "X^2+3*X+1"
    assert str(Poly.zero(F7)) == "0"
    assert str(Poly.x(F7)) == "X"
    f = RatFun.make(Poly.from_ints(F7, [1, 0, 1]), Poly.x(F7))
    assert str(f) == "X^2+1 / X"
    # extension coefficients use bracketed coordinates
    x = F4.from_index(2)
    p = Poly.from_coeffs(F4, [F4.zero(), x])
    assert str(p) == "[0,1]*X"
