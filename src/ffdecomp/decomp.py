"""Deciding and constructing decompositions f = g(h) over a finite field.

The checkers evaluate decomposition hypotheses exactly: image containment and
fiber-size exceptions by full scans, thresholds by rational comparison in
one function per criterion (t31_threshold, mvar.t41_threshold).  find_h is
mvar.find_h_mv on f's one-variable view: one search body, one verification
by symbolic composition and one canonical key (MRatFun.index_key) serve
find-h and find-h-mv alike.  The reports, the argument check of (f, g) and
the fiber scans come from mvar, which this module builds on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import limits
from .errors import ValidationError
from .gf_core import FieldSpec
from .mvar import (
    ConditionCount,
    DecompReport,
    MRatFun,
    ThresholdCheck,
    _INF,
    _check_epsilon,
    _fibers,
    _from_upoly,
    _graded_report,
    _pair_count,
    _require_pair,
    _to_upoly,
    _value_lines,
    find_h_mv,
)
from .upoly import (
    INFINITY,
    Poly,
    RatFun,
    _random_poly,
    rat_compose,
    require_nonconstant,
)


# --------------------------------------------------------------------------
# pair counting and fiber scans


def count_pairs(f: RatFun, g: RatFun) -> int:
    """|{(x, y) in F_q x F_q : f(x) = g(y)}| = sum over x in F_q of N_g(f(x)),
    N_g(v) = |{y in F_q : g(y) = v}|, with values compared in F_q^+, so a shared
    infinity counts as a match.  It is mvar.count_pairs_mv's case n = 1; the
    oracle is count_affine(build_F(f, g))."""
    _require_pair(f, g)
    return _pair_count(f, g)


def _small_points(fibers, delta: int) -> list[int]:
    """The points a of F_q^+ with 2*|fiber(g, g(a))| <= delta, from
    _fibers(g): indices of F_q in order, then q for a = infinity."""
    line, sizes, v_inf = fibers
    return [x for x, v in enumerate(itertools.chain(line, (v_inf,))) if 2 * sizes[v] <= delta]


def check_t1(f: RatFun, g: RatFun) -> DecompReport:
    """Hypotheses of the fixed-threshold decomposition criterion.

    (i)  f(F_q) is contained in g(F_q^+);
    (ii) at most 8(d+delta) points a of F_q^+ have 2*|fiber(g, g(a))| <= delta;
    (iii) q >= (d+delta)^4, which is t31_threshold at eps = 1.
    """
    q = _require_pair(f, g).order
    d, delta = f.degree, g.degree
    _, sizes, v_inf = fibers = _fibers(g)

    cond_i = all(sizes[v] or v == v_inf for v in next(_value_lines(f)))
    exceptions = len(_small_points(fibers, delta))
    budget = 8 * (d + delta)

    return DecompReport(
        q=q,
        d=d,
        delta=delta,
        condition_i=cond_i,
        condition_ii=ConditionCount(exceptions, budget, exceptions <= budget),
        condition_iii=t31_threshold(q, d, delta, 1),
    )


def t31_threshold(q: int, d: int, delta: int, eps: Fraction) -> ThresholdCheck:
    """q >= (d+delta)^4 / eps^2, decided in exact rational arithmetic."""
    threshold = Fraction((d + delta) ** 4) / eps**2
    return ThresholdCheck(q, threshold, q >= threshold)


def t31_threshold_ok(q: int, d: int, delta: int, eps) -> bool:
    """The verdict of t31_threshold, after checking eps."""
    return t31_threshold(q, d, delta, _check_epsilon(eps)).passed


def check_t31(f: RatFun, g: RatFun, eps) -> DecompReport:
    """The epsilon-graded criterion: enough pairs plus a threshold on q.

    Pair condition: count_pairs(f, g) >= q(floor(delta/2) + eps);
    threshold: t31_threshold.  Both exact.
    """
    q = _require_pair(f, g).order
    eps = _check_epsilon(eps)
    threshold = t31_threshold(q, f.degree, g.degree, eps)
    return _graded_report(f, g, _pair_count(f, g), 1, eps, threshold)


# --------------------------------------------------------------------------
# constructive search for h


def find_h(f: RatFun, g: RatFun) -> Optional[RatFun]:
    """Some h with f = g(h), reduced, or None: find_h_mv on f's one-variable
    view, so one search, proof by composing and key, and no n >= 2 cap."""
    h = find_h_mv(MRatFun(_from_upoly(f.num), _from_upoly(f.den)), g)
    return None if h is None else RatFun(_to_upoly(h.num), _to_upoly(h.den))


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
    spec, q, delta = g.spec, g.spec.order, g.degree
    line, _, _ = fibers = _fibers(g)
    small = _small_points(fibers, delta)
    small_points = {spec.from_index(x) if x < q else INFINITY for x in small}
    codes = {line[x] for x in small if x < q}
    small_values = {INFINITY if v == _INF else spec.from_index(v) for v in codes}
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
    return RatFun.from_poly(Poly.from_ints(spec, [0, -1] + [0] * (r - 2) + [1]))


def subspace_map(spec: FieldSpec, basis) -> RatFun:
    """prod_{u in U}(X - u) over the F_p-span U of the given elements.  It is
    linearized, L = sum_i c_i X^(p^i) (Lidl & Niederreiter, Finite Fields,
    3.4): from L = X, each b with v = L(b) != 0 sets L <- L^p - v^(p-1) L,
    the product of L - cv over c in F_p; a b with v = 0 is in the span."""
    p, zero = spec.p, spec.zero()
    cs = [spec.one()]
    for b in basis:
        v, b = zero, spec.element(b)
        for c in cs:  # L(b) = sum_i c_i b^(p^i)
            v, b = v + c * b, b**p
        if not v.is_zero():
            w = v ** (p - 1)
            cs = [-w * cs[0]] + [c**p - w * c1 for c, c1 in zip(cs, cs[1:] + [zero])]
    limits.check_enumerable(p ** (len(cs) - 1), "subspace product")
    at = {p**i: c.index for i, c in enumerate(cs)}
    return RatFun.from_poly(Poly(spec, [at.get(e, 0) for e in range(p ** (len(cs) - 1) + 1)]))


def power_map(spec: FieldSpec, d: int) -> RatFun:
    """X^d with d dividing q - 1 (every nonzero value is hit d-to-1)."""
    if d < 1 or (spec.order - 1) % d != 0:
        raise ValidationError(f"exponent {d} must divide q-1 = {spec.order - 1}")
    return RatFun.from_poly(Poly.from_ints(spec, [0] * d + [1]))


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
# seeded random rational functions


def random_ratfun(rng: random.Random, spec: FieldSpec, degree: int) -> RatFun:
    """A uniformly seeded rational function of exactly the given degree."""
    if degree < 1:
        raise ValidationError("degree must be at least 1")
    while True:
        num, den = _random_poly(rng, spec, degree + 1), _random_poly(rng, spec, degree + 1)
        if den.is_zero():
            continue
        cand = RatFun.make(num, den)
        if cand.degree == degree:
            return cand
