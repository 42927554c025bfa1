"""Plane curves over a finite field: building, counting, factoring.

A curve is an mvar.MPoly with n = 2, X = X1 and Y = X2.  The module builds
the curve A(X)Q(Y) - B(X)P(Y) from two rational functions, counts its affine
and projective points exactly, factors it with mvar.mv_factor (Hensel
lifting at one fiber X = x0), and decides absolute irreducibility.  The
n = 2 views these need are module functions: setting X = x or Y = y to get
a univariate Poly, the homogeneous parts and partial derivatives; swapping
the variables is mvar.swap, which factoring uses too.  Coefficients move to
an extension field through mvar.map_coeffs, and curves print with X and Y
through mvar.terms_str.
"""

from __future__ import annotations

from . import limits
from .errors import SpecMismatchError, ValidationError
from .gf_core import FieldElement, _same_spec, extend_field, prime_factors
from .mvar import MPoly, _from_upoly, map_coeffs, mv_factor, swap, terms_str
from .upoly import (
    Poly,
    RatFun,
    num_distinct_roots,
    poly_gcd,
    poly_powmod,
    require_nonconstant,
)

# The smooth-point search in is_absolutely_irreducible tries at most this
# many affine lines X = x.  A curve that is not absolutely irreducible has no
# nonsingular rational point, so on it the search always runs to the end
# before the fallback; over a field of order about 1000 a full scan of a norm
# form cost 10 times the fallback, while an absolutely irreducible curve
# almost always shows a nonsingular point within the first few lines.
_SMOOTH_SCAN_LINES = 64


def _require_plane(F: MPoly) -> None:
    if F.n != 2:
        raise ValidationError(f"a plane curve has 2 variables, not {F.n}")


def curve_str(F: MPoly) -> str:
    return terms_str(F, "XY")


# --------------------------------------------------------------------------
# the n = 2 views


def specialize(F: MPoly, var: int, v: FieldElement) -> Poly:
    """F with X (var 0) or Y (var 1) set to v, a polynomial in the other."""
    spec = F.spec
    v = spec.element(v)
    if not F.terms:
        return Poly.zero(spec)
    other = 1 - var
    pows = [spec.one()]
    for _ in range(F.deg_in(var)):
        pows.append(pows[-1] * v)
    out = [spec.zero()] * (F.deg_in(other) + 1)
    for k, c in F.terms.items():
        out[k[other]] = out[k[other]] + c * pows[k[var]]
    return Poly.from_coeffs(spec, out)


def form(F: MPoly, m: int) -> MPoly:
    """The terms of total degree m; the top form when m is the total degree."""
    return MPoly(F.spec, 2, {k: c for k, c in F.terms.items() if k[0] + k[1] == m})


def _partial(F: MPoly, var: int) -> MPoly:
    """The formal partial derivative in X (var 0) or in Y (var 1)."""
    terms = {}
    for k, c in F.terms.items():
        if k[var]:
            e = list(k)
            e[var] -= 1
            terms[tuple(e)] = c * k[var]
    return MPoly.from_terms(F.spec, 2, terms)


# --------------------------------------------------------------------------
# the curve attached to a pair of rational functions


def build_F(f: RatFun, g: RatFun) -> MPoly:
    """The curve A(X)Q(Y) - B(X)P(Y) for f = A/B and g = P/Q.

    Its affine points are exactly the pairs (x, y) with f(x) = g(y) as
    values on the projective line, because both representations are reduced
    so numerator and denominator never vanish together.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    require_nonconstant(f, "f")
    require_nonconstant(g, "g")
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
    total = 0
    for x in spec.elements():
        u = specialize(F, 0, x)
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
    return num_distinct_roots(specialize(top, 1, F.spec.one())) + top.coeff((d, 0)).is_zero()


# --------------------------------------------------------------------------
# factoring and absolute irreducibility


def kronecker_factor(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """Factor a curve over its field: mv_factor, which lifts the factors of
    one fiber F(x0, Y); no Kronecker substitution is left.  The name stays
    public (ffdecomp.__all__) and is a traced span of the benchmark."""
    return mv_factor(F)


def _has_smooth_root(u: Poly, partials: list[Poly]) -> bool:
    """Whether u has a root in the base field where some partial is nonzero.

    The rational roots of u are the roots of gcd(u, T^q - T), each once, and
    the ones where every partial vanishes are the roots of its gcd with the
    partials, so comparing the two degrees needs no root extraction.
    """
    if u.is_constant():
        return False
    t = Poly.x(u.spec)
    rational = poly_gcd(poly_powmod(t, u.spec.order, u) - t, u)
    common = rational
    for d in partials:
        if common.degree == 0:
            break
        common = poly_gcd(common, d)
    return rational.degree > common.degree


def _has_smooth_rational_point(F: MPoly) -> bool:
    """Whether a nonsingular F_q-point of the projective closure of F was found.

    With F(X, Y, Z) = sum_k F_k(X, Y) Z^(d-k) the homogenization, a point
    (x : y : 0) at infinity lies on the curve when the top form T = F_d
    vanishes there, and is nonsingular when T_X, T_Y or F_{d-1} (the partial
    in Z at Z = 0) does not.  The points at infinity are checked first, as
    (1 : 0 : 0) and then (x : 1 : 0) through T(X, 1); then the affine lines
    X = x in index order, at most _SMOOTH_SCAN_LINES of them.  False means
    no such point exists when q <= _SMOOTH_SCAN_LINES.
    """
    spec, one = F.spec, F.spec.one()
    d = F.total_degree()
    top = form(F, d)
    # at (1 : 0 : 0) the partials T_Y and F_{d-1} are the coefficients of
    # X^(d-1) Y and X^(d-1); T_X = d * coeff(X^d) vanishes with T there
    if top.coeff((d, 0)).is_zero() and not (
        F.coeff((d - 1, 1)).is_zero() and F.coeff((d - 1, 0)).is_zero()
    ):
        return True
    at_infinity = [
        specialize(G, 1, one) for G in (_partial(top, 0), _partial(top, 1), form(F, d - 1))
    ]
    if _has_smooth_root(specialize(top, 1, one), at_infinity):
        return True
    fx, fy = _partial(F, 0), _partial(F, 1)
    return any(
        _has_smooth_root(specialize(F, 0, x), [specialize(fx, 0, x), specialize(fy, 0, x)])
        for x in map(spec.from_index, range(min(spec.order, _SMOOTH_SCAN_LINES)))
    )


def _irreducible_over(F: MPoly, r: int) -> bool:
    """Whether F is irreducible over F_{q^r}, the degree-r extension of its field."""
    if r > 1:
        _, emb = extend_field(F.spec, r)
        F = map_coeffs(F, emb)
    _, facs = kronecker_factor(F)
    return len(facs) == 1 and facs[0][1] == 1


def _is_absolutely_irreducible_by_extension(F: MPoly) -> bool:
    """The definitional test, kept as the oracle for is_absolutely_irreducible.

    An F_q-irreducible polynomial splits over the algebraic closure into a
    Galois orbit of s conjugate factors with s dividing the total degree, and
    it then splits over F_{q^r} for every prime r dividing s.  So it is enough
    to re-factor over F_q and over F_{q^r} for the primes r dividing the degree.
    """
    return all(_irreducible_over(F, r) for r in [1, *prime_factors(F.total_degree())])


def _irreducible_is_absolute(F: MPoly) -> bool:
    """Whether F, known to be irreducible over F_q, is absolutely irreducible.

    True as soon as a nonsingular F_q-point turns up; otherwise F is
    re-factored over F_{q^r} for each prime r dividing its total degree.
    is_absolutely_irreducible explains why, and is this check after
    factoring F over F_q.
    """
    if _has_smooth_rational_point(F):
        return True
    return all(_irreducible_over(F, r) for r in prime_factors(F.total_degree()))


def is_absolutely_irreducible(F: MPoly) -> bool:
    """Irreducible over the coefficient field and every extension of it.

    Suppose F is irreducible over F_q but not absolutely irreducible.  Over
    the algebraic closure it is then a product of s >= 2 distinct factors
    that Frobenius permutes as one Galois orbit.  An F_q-rational point is
    fixed by Frobenius, so if it lies on one factor it lies on all of them,
    and a point on two components is singular.  This holds at infinity too,
    on the projective closure: a rational (x : y : 0) is nonsingular when the
    top form T vanishes there but one of T_X, T_Y and F_{d-1} (the part of
    degree d - 1) does not.  So after F is found irreducible over F_q, one
    nonsingular F_q-point proves it absolutely irreducible.

    The search looks at the points at infinity and at the affine lines
    X = x, at most _SMOOTH_SCAN_LINES of them.  Only when it finds no
    nonsingular F_q-point (every non-absolutely-irreducible F, and a few
    absolutely irreducible ones, mostly over tiny fields) does the fallback
    run: F is re-factored over F_{q^r} for each prime r dividing its total
    degree.  A caller that already holds the factors of a curve over F_q
    skips the F_q factoring with _irreducible_is_absolute.
    """
    _require_plane(F)
    if F.is_zero() or F.is_constant():
        raise ValidationError("constants are not curves")
    return _irreducible_over(F, 1) and _irreducible_is_absolute(F)
