"""Deciding and constructing decompositions f = g(h) over a finite field.

The checkers evaluate decomposition hypotheses exactly: image containment and
fiber-size exceptions by full scans, thresholds by integer or rational
comparison.  The constructive search finds h as a rational root in Y of the
curve A(X)Q(Y) - B(X)P(Y), using divisor enumeration over F_q[X] plus a
scalar determined from one specialization (with a fully symbolic fallback
for fields too small to specialize in).  Every returned h is verified by
symbolic composition before anyone sees it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import limits
from .bipoly import build_F
from .errors import SpecMismatchError, ValidationError
from .gf_core import FieldElement, FieldSpec, _same_spec
from .upoly import (
    INFINITY,
    Poly,
    RatFun,
    factor,
    poly_gcd,
    rat_compose,
    require_nonconstant,
    roots,
)


@dataclass(frozen=True)
class ConditionCount:
    exceptions: int
    budget: int
    passed: bool


@dataclass(frozen=True)
class ThresholdCheck:
    q: int
    threshold: Fraction
    passed: bool


@dataclass(frozen=True)
class DecompReport:
    q: int
    d: int
    delta: int
    condition_i: Optional[bool] = None
    condition_ii: Optional[ConditionCount] = None
    condition_iii: Optional[ThresholdCheck] = None
    pair_count: Optional[int] = None
    pair_threshold: Optional[Fraction] = None
    h_found: Optional[RatFun] = None
    verified: bool = False

    def with_h(self, h: Optional[RatFun]) -> "DecompReport":
        return replace(self, h_found=h, verified=h is not None)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "delta": self.delta,
            "cond_i": self.condition_i,
            "cond_ii": None
            if self.condition_ii is None
            else {
                "exceptions": self.condition_ii.exceptions,
                "budget": self.condition_ii.budget,
            },
            "cond_iii": None
            if self.condition_iii is None
            else {"threshold": str(self.condition_iii.threshold)},
            "pair_count": self.pair_count,
            "pair_threshold": None
            if self.pair_threshold is None
            else str(self.pair_threshold),
            "h": None if self.h_found is None else str(self.h_found),
            "verified": self.verified,
        }


def _require_pair(f: RatFun, g: RatFun) -> FieldSpec:
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    require_nonconstant(f, "f")
    require_nonconstant(g, "g")
    return f.spec


# --------------------------------------------------------------------------
# pair counting and fiber scans


def count_pairs(f: RatFun, g: RatFun) -> int:
    """|{(x, y) in F_q x F_q : f(x) = g(y)}| = sum over x in F_q of N_g(f(x)),
    N_g(v) = |{y in F_q : g(y) = v}|, with values compared in F_q^+, so a shared
    infinity counts as a match.  The oracle is count_affine(build_F(f, g))."""
    _require_pair(f, g)
    sizes = _fiber_sizes(g)
    return sum(sizes.get(f.eval(x), 0) for x in f.spec.elements())


def _fiber_sizes(g: RatFun) -> Counter:
    """Map from attained value (over x in F_q; infinity too) to fiber size."""
    limits.check_enumerable(g.spec.order, "fiber scan")
    return Counter(map(g.eval, g.spec.elements()))


def check_t1(f: RatFun, g: RatFun) -> DecompReport:
    """Hypotheses of the fixed-threshold decomposition criterion.

    (i)  f(F_q) is contained in g(F_q^+);
    (ii) at most 8(d+delta) points a of F_q^+ have 2*|fiber(g, g(a))| <= delta;
    (iii) q >= (d+delta)^4.
    """
    spec = _require_pair(f, g)
    q = spec.order
    d, delta = f.degree, g.degree
    buckets = _fiber_sizes(g)
    g_image = set(buckets)
    g_image.add(g.eval(INFINITY))

    cond_i = all(f.eval(x) in g_image for x in spec.elements())

    exceptions = 0
    for v, size in buckets.items():
        if 2 * size <= delta:
            exceptions += size  # each preimage a with g(a) = v is exceptional
    v_inf = g.eval(INFINITY)
    if 2 * buckets.get(v_inf, 0) <= delta:
        exceptions += 1  # a = infinity
    budget = 8 * (d + delta)

    threshold = Fraction((d + delta) ** 4)
    return DecompReport(
        q=q,
        d=d,
        delta=delta,
        condition_i=cond_i,
        condition_ii=ConditionCount(exceptions, budget, exceptions <= budget),
        condition_iii=ThresholdCheck(q, threshold, q >= threshold),
    )


def _check_epsilon(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValidationError(f"epsilon {eps} must satisfy 0 < eps <= 1")
    return eps


def t31_threshold_ok(q: int, d: int, delta: int, eps) -> bool:
    """q >= (d+delta)^4 / eps^2, decided in exact rational arithmetic."""
    eps = _check_epsilon(eps)
    return q * eps**2 >= (d + delta) ** 4


def check_t31(f: RatFun, g: RatFun, eps) -> DecompReport:
    """The epsilon-graded criterion: enough pairs plus a threshold on q.

    Pair condition: count_pairs(f, g) >= q(floor(delta/2) + eps);
    threshold: q >= (d+delta)^4 / eps^2.  Both exact.
    """
    spec = _require_pair(f, g)
    eps = _check_epsilon(eps)
    q = spec.order
    d, delta = f.degree, g.degree
    pairs = count_pairs(f, g)
    pair_threshold = q * (delta // 2 + eps)
    threshold = Fraction((d + delta) ** 4) / eps**2
    return DecompReport(
        q=q,
        d=d,
        delta=delta,
        condition_iii=ThresholdCheck(q, threshold, q >= threshold),
        pair_count=pairs,
        pair_threshold=pair_threshold,
    )


# --------------------------------------------------------------------------
# constructive search for h


def _monic_divisors(a: Poly, max_deg: int) -> list[Poly]:
    """Monic divisors of a with degree <= max_deg, deterministically ordered."""
    spec = a.spec
    _, facs = factor(a)
    divisors = [Poly.one(spec)]
    for p, m in facs:
        grown = []
        for dv in divisors:
            acc = dv
            for e in range(m + 1):
                if e:
                    acc = acc * p
                if acc.degree > max_deg:
                    break
                grown.append(acc)
        divisors = grown
    divisors.sort(key=lambda h: (h.degree, h.index_key()))
    return divisors


def _lambda_candidates(
    coeffs: list[Poly], num0: Poly, den0: Poly
) -> list[FieldElement]:
    """Nonzero scalars t for which y = t*num0/den0 could be a root.

    Proposes from one specialization x0 with c_delta(x0), num0(x0), den0(x0)
    all nonzero; if the field is too small to contain such a point, falls
    back to the polynomial conditions on t implied by every X-coefficient.
    Proposals are never trusted: the caller verifies each candidate
    symbolically.
    """
    spec = num0.spec
    delta = len(coeffs) - 1
    c_top = coeffs[-1]
    for x0 in spec.elements():
        if c_top(x0).is_zero() or num0(x0).is_zero() or den0(x0).is_zero():
            continue
        n0, d0 = num0(x0), den0(x0)
        phi = Poly.from_coeffs(
            spec,
            [coeffs[j](x0) * n0**j * d0 ** (delta - j) for j in range(delta + 1)],
        )
        return [t for t in roots(phi) if not t.is_zero()]

    # symbolic fallback: E(t) = sum_j c_j num0^j den0^{delta-j} t^j must be
    # the zero polynomial in X; each X-coefficient is a polynomial in t
    terms = [coeffs[j] * num0**j * den0 ** (delta - j) for j in range(delta + 1)]
    max_len = max(len(t.coeffs) for t in terms)
    common = Poly.zero(spec)
    for i in range(max_len):
        psi = Poly.from_coeffs(
            spec,
            [t.coeffs[i] if i < len(t.coeffs) else spec.zero() for t in terms],
        )
        common = poly_gcd(common, psi)
        if common.is_one():
            return []
    return [t for t in roots(common) if not t.is_zero()]


def find_h(f: RatFun, g: RatFun) -> Optional[RatFun]:
    """Some h with f = g(h), in reduced canonical form, or None.

    Any root y = h(X) of F(X, Y) = sum_j c_j(X) Y^j written as a reduced
    fraction t*N/D (N, D monic) has N dividing c_0 and D dividing c_delta,
    so candidates are enumerated from those divisor lattices; the scalar t
    is proposed by specialization and confirmed by composing.  Among valid
    roots the one with lexicographically smallest coefficient indices wins,
    which makes the result deterministic under symmetries like h vs -h.
    """
    spec = _require_pair(f, g)
    d, delta = f.degree, g.degree
    if d % delta != 0:
        return None
    e = d // delta
    coeffs = build_F(f, g).as_y_coeffs()
    assert len(coeffs) == delta + 1
    c0, c_top = coeffs[0], coeffs[-1]
    assert not c0.is_zero() and not c_top.is_zero()

    found: list[RatFun] = []
    nums = _monic_divisors(c0, e)
    dens = _monic_divisors(c_top, e)
    for num0 in nums:
        for den0 in dens:
            if max(num0.degree, den0.degree) != e:
                continue
            if not poly_gcd(num0, den0).is_one():
                continue
            for t in _lambda_candidates(coeffs, num0, den0):
                cand = RatFun.make(num0 * t, den0)
                if rat_compose(g, cand) == f:
                    found.append(cand)
    if not found:
        return None
    return min(found, key=lambda h: h.index_key())


# --------------------------------------------------------------------------
# small-fiber diagnostics


@dataclass(frozen=True)
class FiberDiagnostics:
    small_points: frozenset  # a in F_q^+ with 2|fiber(g, g(a))| <= delta
    small_values: frozenset  # v attained on F_q with a small fiber
    finite_small_count: int  # |small_points restricted to F_q|
    value_count: int  # |small_values|


def small_fiber_diagnostics(g: RatFun) -> FiberDiagnostics:
    """The exceptional sets behind condition (ii), computed exactly.

    small_points lives in F_q^+ (infinity included); small_values collects
    the attained values with small fibers, and on the finite part the
    sandwich |values| <= |points| <= (delta/2)|values| always holds (each
    small fiber is nonempty and has size at most delta/2).
    """
    require_nonconstant(g, "g")
    spec = g.spec
    delta = g.degree
    buckets = _fiber_sizes(g)
    small_points = set()
    small_values = set()
    for x in spec.elements():
        if 2 * buckets[g.eval(x)] <= delta:
            small_points.add(x)
            small_values.add(g.eval(x))
    if 2 * buckets.get(g.eval(INFINITY), 0) <= delta:
        small_points.add(INFINITY)
    finite = len(small_points) - (1 if INFINITY in small_points else 0)
    values = len(small_values)
    if values:
        assert values <= finite and 2 * finite <= delta * values
    else:
        assert finite == 0
    return FiberDiagnostics(
        frozenset(small_points), frozenset(small_values), finite, values
    )


# --------------------------------------------------------------------------
# example families of g


def artin_schreier_map(spec: FieldSpec, r: int) -> RatFun:
    """X^r - X for r = p^j; an F_p-linear map whose kernel is F_r."""
    p = spec.p
    j = 0
    rr = 1
    while rr < r:
        rr *= p
        j += 1
    if rr != r or j == 0:
        raise ValidationError(f"{r} is not a positive power of the characteristic {p}")
    if spec.k % j != 0:
        raise ValidationError(f"F_{r} is not a subfield of F_{spec.order}")
    coeffs = [spec.zero()] * (r + 1)
    coeffs[1] = -spec.one()
    coeffs[r] = spec.one()
    return RatFun.from_poly(Poly.from_coeffs(spec, coeffs))


def subspace_map(spec: FieldSpec, basis) -> RatFun:
    """prod_{u in U}(X - u) over the F_p-span U of the given elements."""
    span = {spec.zero()}
    for b in basis:
        b = spec.element(b)
        span = {s + i * b for s in span for i in range(spec.p)}
    limits.check_enumerable(len(span), "subspace product")
    prod = Poly.one(spec)
    for u in sorted(span, key=lambda el: el.index):
        prod = prod * Poly.from_coeffs(spec, [-u, spec.one()])
    return RatFun.from_poly(prod)


def power_map(spec: FieldSpec, d: int) -> RatFun:
    """X^d with d dividing q - 1 (every nonzero value is hit d-to-1)."""
    if d < 1 or (spec.order - 1) % d != 0:
        raise ValidationError(f"exponent {d} must divide q-1 = {spec.order - 1}")
    coeffs = [spec.zero()] * (d + 1)
    coeffs[d] = spec.one()
    return RatFun.from_poly(Poly.from_coeffs(spec, coeffs))


def _require_moebius(phi: RatFun) -> None:
    if phi.degree != 1:
        raise ValidationError("need a degree-1 rational function")


def moebius_pre(g: RatFun, phi: RatFun) -> RatFun:
    """g composed with a degree-1 map on the inside."""
    _require_moebius(phi)
    return rat_compose(g, phi)


def moebius_post(g: RatFun, phi: RatFun) -> RatFun:
    """A degree-1 map applied to the values of g."""
    _require_moebius(phi)
    return rat_compose(phi, g)


def gen_g_family(spec: FieldSpec, kind: str, **params) -> RatFun:
    """Dispatcher over the example families; see the individual builders."""
    if kind == "artin_schreier":
        return artin_schreier_map(spec, params["r"])
    if kind == "subspace":
        return subspace_map(spec, params["basis"])
    if kind == "power":
        return power_map(spec, params["d"])
    if kind in ("moebius_pre", "moebius_post"):
        fn = moebius_pre if kind == "moebius_pre" else moebius_post
        return fn(params["g"], params["phi"])
    raise ValidationError(f"unknown family kind {kind!r}")


# --------------------------------------------------------------------------
# seeded random rational functions (shared by experiments and the CLI)


def random_ratfun(rng: random.Random, spec: FieldSpec, degree: int) -> RatFun:
    """A uniformly seeded rational function of exactly the given degree."""
    if degree < 1:
        raise ValidationError("degree must be at least 1")
    while True:
        num = Poly.from_coeffs(
            spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(degree + 1)]
        )
        den = Poly.from_coeffs(
            spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(degree + 1)]
        )
        if den.is_zero():
            continue
        cand = RatFun.make(num, den)
        if cand.degree == degree:
            return cand
