"""Plane curves over a finite field: building, counting, factoring.

A curve is an mvar.MPoly with n = 2, X = X1 and Y = X2.  The module builds
the curve A(X)Q(Y) - B(X)P(Y) from two rational functions, counts its affine
and projective points exactly, factors it with mvar.mv_factor (Hensel
lifting at one fiber X = x0), and decides absolute irreducibility from
the geometry: for an F_q-irreducible curve a simple root on a line X = x,
Y = y or Z = 0 proves it, and re-factoring over extensions decides the
rest; what a point count decides is stated in bounds.  Over a field of
order at most upoly.EVAL_ROOTS_MAX_ORDER, count_affine counts the zeros
among F's values on mvar's grid, one line X = x of q values at a time;
above it, each line counts as upoly.num_distinct_roots, the degree of
gcd(F(x, Y), Y^q - Y).  The search for a simple root on a line is upoly's
_has_simple_root, which makes the same choice.  The n = 2 views these
need are module functions: setting X = x or Y = y to get a univariate Poly
and the homogeneous parts; swapping the variables is mvar.swap, which
factoring and the line scan use too.  Coefficients move to an extension
field through mvar.map_coeffs, and curves print with X and Y through
upoly.terms_str.
"""

from __future__ import annotations

from . import limits
from .errors import ValidationError
from .gf_core import FieldElement, extend_field, prime_factors
from .mvar import MPoly, _from_upoly, _lines, _require_pair, map_coeffs, mv_factor, swap
from .upoly import (
    EVAL_ROOTS_MAX_ORDER,
    Poly,
    RatFun,
    _has_simple_root,
    num_distinct_roots,
    terms_str,
)

# The line scan in is_absolutely_irreducible tries at most this many affine
# lines X = x, then as many lines Y = y.  A curve that is not absolutely
# irreducible has no nonsingular rational point, so on it the scan always
# runs to the end before the fallback; over a field of order about 1000 a
# full scan of a norm form cost 10 times the fallback, while an absolutely
# irreducible curve almost always meets one of the first few lines in a
# simple root.
_SMOOTH_SCAN_LINES = 64


def _require_plane(F: MPoly) -> None:
    if F.n != 2:
        raise ValidationError(f"a plane curve has 2 variables, not {F.n}")


def curve_str(F: MPoly) -> str:
    return terms_str(F.spec, F.idx, "XY")


# --------------------------------------------------------------------------
# the n = 2 views


def specialize(F: MPoly, var: int, v: FieldElement) -> Poly:
    """F with X (var 0) or Y (var 1) set to v, a polynomial in the other."""
    return _specialize(F, var, F.spec.element(v).index)


def _specialize(F: MPoly, var: int, v: int) -> Poly:
    """specialize at the element of index v."""
    spec = F.spec
    add, mul = spec._add, spec._mul
    other = 1 - var
    pows = [1]
    for _ in range(F.deg_in(var)):
        pows.append(mul(pows[-1], v))
    out = [0] * (F.deg_in(other) + 1)
    for k, c in F.idx.items():
        out[k[other]] = add(out[k[other]], mul(c, pows[k[var]]))
    return Poly(spec, out)


def form(F: MPoly, m: int) -> MPoly:
    """The terms of total degree m; the top form when m is the total degree."""
    return MPoly(F.spec, 2, {k: c for k, c in F.idx.items() if k[0] + k[1] == m})


# --------------------------------------------------------------------------
# the curve attached to a pair of rational functions


def build_F(f: RatFun, g: RatFun) -> MPoly:
    """The curve A(X)Q(Y) - B(X)P(Y) for f = A/B and g = P/Q.

    Its affine points are exactly the pairs (x, y) with f(x) = g(y) as
    values on the projective line, because both representations are reduced
    so numerator and denominator never vanish together.
    """
    _require_pair(f, g)
    a, b = _from_upoly(f.num, 2), _from_upoly(f.den, 2)
    p, q = swap(_from_upoly(g.num, 2)), swap(_from_upoly(g.den, 2))
    return a * q - b * p


# --------------------------------------------------------------------------
# exact point counts


def count_affine(F: MPoly) -> int:
    """Number of (x, y) in F_q x F_q with F(x, y) = 0."""
    _require_plane(F)
    if F.is_zero():
        raise ValidationError("the zero polynomial does not define a curve")
    spec = F.spec
    limits.check_enumerable(spec.order, "affine point count")
    if spec.order <= EVAL_ROOTS_MAX_ORDER:  # the zeros of F on mvar's grid
        return sum(line.count(0) for line in _lines(F))
    total = 0
    for x in range(spec.order):
        u = _specialize(F, 0, x)
        if u.is_zero():
            total += spec.order
        else:
            total += num_distinct_roots(u)
    return total


def count_projective(F: MPoly) -> int:
    """Points of the projectivized curve in P^2(F_q): the affine points
    (x : y : 1) and _points_at_infinity."""
    _require_plane(F)
    if F.is_zero():
        raise ValidationError("the zero polynomial does not define a curve")
    if F.is_constant():
        return 0
    return count_affine(F) + _points_at_infinity(F)


def _points_at_infinity(F: MPoly) -> int:
    """Points (x : y : 0) on the closure of a nonconstant curve: the zeros
    (x : 1 : 0) of the top form with Y = 1, plus (1 : 0 : 0) when the
    coefficient of X^d vanishes (d the total degree).  The top form is
    homogeneous and nonzero, so setting Y = 1 keeps every coefficient."""
    d = F.total_degree()
    top = form(F, d)
    return num_distinct_roots(_specialize(top, 1, 1)) + ((d, 0) not in top.idx)


# --------------------------------------------------------------------------
# factoring and absolute irreducibility


def kronecker_factor(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """Factor a curve over its field: mv_factor, which lifts the factors of
    one fiber F(x0, Y); no Kronecker substitution is left.  The name stays
    public (ffdecomp.__all__) and is a traced span of the benchmark."""
    return mv_factor(F)


def _line_meets_simply(F: MPoly) -> bool:
    """Whether a scanned line meets F in a simple F_q-root.

    The lines are Z = 0, which meets F in the zeros (x : 1 : 0) of T(X, 1),
    T the top form, then X = x for the first _SMOOTH_SCAN_LINES indices x.
    At a simple root of the restriction of F to a line, the partial of the
    homogenization along the line (in X on Z = 0, in Y on X = x) is not
    zero, so the point is nonsingular on the projective closure.
    """
    top = form(F, F.total_degree())
    if _has_simple_root(_specialize(top, 1, 1)):
        return True
    return any(
        _has_simple_root(_specialize(F, 0, x))
        for x in range(min(F.spec.order, _SMOOTH_SCAN_LINES))
    )


def _irreducible_over(F: MPoly, r: int) -> bool:
    """Whether F is irreducible over F_{q^r}, the degree-r extension of its field."""
    if r > 1:
        _, emb = extend_field(F.spec, r)
        F = map_coeffs(F, emb)
    _, facs = kronecker_factor(F)
    return len(facs) == 1 and facs[0][1] == 1


def _irreducible_is_absolute(F: MPoly) -> bool:
    """Whether F, known to be irreducible over F_q, is absolutely irreducible:
    a nonsingular F_q-point found by _line_meets_simply, on F or on F with X
    and Y swapped, proves it, and failing that F is re-factored over F_{q^r}
    for each prime r dividing its total degree.  is_absolutely_irreducible is
    this check after factoring over F_q.
    """
    return _line_meets_simply(F) or _line_meets_simply(swap(F)) or all(
        _irreducible_over(F, r) for r in prime_factors(F.total_degree())
    )


def is_absolutely_irreducible(F: MPoly) -> bool:
    """Irreducible over the coefficient field and every extension of it.

    Suppose F is irreducible over F_q but not absolutely irreducible.  Over
    the algebraic closure it is then a product of s >= 2 distinct factors
    that Frobenius permutes as one Galois orbit.  An F_q-rational point is
    fixed by Frobenius, so if it lies on one factor it lies on all of them,
    and a point on two components is singular.  So one nonsingular F_q-point
    of the projective closure proves an F_q-irreducible F absolutely
    irreducible; the scan finds one as a simple root of F restricted to the
    line at infinity or to a line of either pencil, X = x or Y = y, at most
    _SMOOTH_SCAN_LINES of each.  So the points at infinity (x : 1 : 0) and
    (1 : y : 0), and the points whose tangent is vertical, are seen too.
    When it finds none (every non-absolutely-irreducible F, and some
    absolutely irreducible ones, mostly over tiny fields) F is re-factored
    over F_{q^r} for each prime r dividing its total degree.
    """
    _require_plane(F)
    if F.is_zero() or F.is_constant():
        raise ValidationError("constants are not curves")
    return _irreducible_over(F, 1) and _irreducible_is_absolute(F)
