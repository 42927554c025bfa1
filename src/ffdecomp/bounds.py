"""Point-count bounds, exact threshold arithmetic, and empirical checks.

Every verdict here is reached in integer or rational arithmetic.  Values of
the shape a + b*sqrt(q) are carried symbolically and compared by case
analysis and squaring; the mixed-radical band for n-variate counts clears
its 1/2 and 1/3 exponents by squaring and cubing.  No float appears
anywhere: values print as exact expressions such as 3+2*sqrt(13).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction

from .bipoly import (
    _irreducible_is_absolute,
    _points_at_infinity,
    count_affine,
    kronecker_factor,
)
from .errors import ValidationError
from .gf_core import FieldSpec, build_field
from .mvar import MPoly
from .upoly import Poly, num_distinct_roots


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


class SqrtVal:
    """Exact value a + b*sqrt(q) with rational a, b and integer q >= 1.

    When q is a perfect square the irrational part is folded away at
    construction, so b != 0 implies sqrt(q) is irrational.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a=0, b=0):
        if not isinstance(q, int) or q < 1:
            raise ValidationError(f"radicand {q!r} must be a positive integer")
        a = Fraction(a)
        b = Fraction(b)
        r = math.isqrt(q)
        if r * r == q:
            a += b * r
            b = Fraction(0)
        self.q = q
        self.a = a
        self.b = b

    def _coerce(self, other) -> "SqrtVal":
        if isinstance(other, SqrtVal):
            if other.q != self.q and other.b != 0 and self.b != 0:
                raise ValidationError("mixing values over different radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtVal(self.q, other)
        raise TypeError(f"cannot combine SqrtVal with {type(other).__name__}")

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return _sgn(a)
        if a == 0:
            return _sgn(b)
        sa, sb = _sgn(a), _sgn(b)
        if sa == sb:
            return sa
        aa, bbq = a * a, b * b * self.q
        if aa == bbq:
            return 0
        return sa if aa > bbq else sb

    def __add__(self, other) -> "SqrtVal":
        other = self._coerce(other)
        q = self.q if self.b != 0 else other.q
        return SqrtVal(q, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "SqrtVal":
        return SqrtVal(self.q, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "SqrtVal":
        if isinstance(other, (int, Fraction)):
            return SqrtVal(self.q, self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def _diff_sign(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other) -> bool:
        return self._diff_sign(other) < 0

    def __le__(self, other) -> bool:
        return self._diff_sign(other) <= 0

    def __gt__(self, other) -> bool:
        return self._diff_sign(other) > 0

    def __ge__(self, other) -> bool:
        return self._diff_sign(other) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (SqrtVal, int, Fraction)):
            return self._diff_sign(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.q, self.a, self.b))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.q})"

    def __repr__(self) -> str:
        return f"SqrtVal({self.q}, {self.a}, {self.b})"


# --------------------------------------------------------------------------
# plane-curve bounds


def ap_interval(D: int, q: int) -> tuple[SqrtVal, SqrtVal]:
    """Enclosing interval for the affine count of an absolutely irreducible
    degree-D plane curve: q+1-(D-1)(D-2)*sqrt(q)-D up to q+1+(D-1)(D-2)*sqrt(q).
    """
    if D < 1:
        raise ValidationError("degree must be at least 1")
    s = (D - 1) * (D - 2)
    return SqrtVal(q, q + 1 - D, -s), SqrtVal(q, q + 1, s)


def ap_affine_ok(count: int, D: int, q: int) -> bool:
    lo, hi = ap_interval(D, q)
    return lo <= count <= hi


def ap_projective_ok(count: int, D: int, q: int) -> bool:
    """|count - (q+1)| <= (D-1)(D-2)*sqrt(q), decided by squaring."""
    if D < 1:
        raise ValidationError("degree must be at least 1")
    t = abs(count - (q + 1))
    s = (D - 1) * (D - 2)
    return t * t <= s * s * q


def non_abs_bound(D: int) -> int:
    """Cap on rational zeros of an irreducible but not absolutely
    irreducible plane polynomial of degree D: floor(D^2/4).

    Such a polynomial is a Galois orbit of s >= 2 conjugate components of
    degree D/s, and a rational point, fixed by Frobenius, lies on all of
    them; so every rational point is a singular point in the intersection of
    two components, and there are at most (D/s)^2 <= floor(D^2/4) of those
    by Bezout.
    """
    if D < 1:
        raise ValidationError("degree must be at least 1")
    return D * D // 4


def factor_sum_bound(m: int, dprime: int, q: int) -> SqrtVal:
    """m(q+1) + sqrt(q) * m(d'/m - 1)(d'/m - 2), kept exact.

    The equal-split slack coefficient is rational when m does not divide d'.
    """
    if m < 1 or dprime < 1:
        raise ValidationError("factor count and degree must be at least 1")
    return SqrtVal(q, m * (q + 1), equal_split_slack(m, dprime))


def equal_split_slack(m: int, dprime: int) -> Fraction:
    """The coefficient m(d'/m - 1)(d'/m - 2) on sqrt(q)."""
    share = Fraction(dprime, m)
    return m * (share - 1) * (share - 2)


def composition_slack(parts) -> int:
    """Sum of (d_i - 1)(d_i - 2) over an integer composition."""
    return sum((d - 1) * (d - 2) for d in parts)


# --------------------------------------------------------------------------
# the n-variate band around q^{n-1}


@dataclass(frozen=True)
class CMBand:
    """|count - q^{n-1}| <= (d-1)(d-2)q^{n-3/2} + 5d^{13/3}q^{n-2}.

    Membership is decided exactly: the slack is A*sqrt(q) + B*cbrt(d) with
    rational A = (d-1)(d-2)q^{n-2} and B = 5d^4 q^{n-2}; the sqrt is cleared
    by squaring, the cbrt by cubing, with sign analysis at each stage.
    """

    n: int
    d: int
    q: int

    @property
    def center(self) -> int:
        return self.q ** (self.n - 1)

    def _slack_coeffs(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(self.q) ** (self.n - 2)
        A = (self.d - 1) * (self.d - 2) * scale
        B = 5 * Fraction(self.d) ** 4 * scale
        return A, B

    def contains(self, count: int) -> bool:
        A, B = self._slack_coeffs()
        t = abs(Fraction(count) - self.center)
        # t <= A*sqrt(q) already?
        if t * t <= A * A * self.q:
            return True
        # now t - A*sqrt(q) > 0; cube it into alpha - beta*sqrt(q)
        # and compare with B^3 * d
        alpha = t**3 + 3 * t * A * A * self.q
        beta = 3 * t * t * A + A**3 * self.q
        M = B**3 * self.d
        if alpha <= M:
            return True
        return (alpha - M) ** 2 <= beta * beta * self.q


def cm_band(n: int, d: int, q: int) -> CMBand:
    if n < 1 or d < 1 or q < 2:
        raise ValidationError("need n >= 1, d >= 1, q >= 2")
    return CMBand(n, d, q)


# --------------------------------------------------------------------------
# empirical verification on seeded samples


@dataclass(frozen=True)
class SampleConfig:
    p: int
    k: int = 1
    kind: str = "random"  # random | conic | norm_form
    count: int = 100
    max_degree: int = 4
    seed: int = 0


@dataclass(frozen=True)
class BoundReport:
    instance: str
    q: int
    degree: int
    classification: str
    observed: int
    bound: str
    passed: bool

    def as_dict(self) -> dict:
        """The report by column name, the JSON row of verify-bounds."""
        return {column: getattr(self, f.name) for column, f in zip(COLUMNS, fields(self))}

    def csv_row(self) -> str:
        values = self.as_dict().values()
        return ",".join(("true" if v else "false") if isinstance(v, bool) else str(v) for v in values)


# the column of each field of BoundReport, in order: `passed` is the column `pass`
COLUMNS = tuple("pass" if f.name == "passed" else f.name for f in fields(BoundReport))
CSV_HEADER = ",".join(COLUMNS)


def _random_curve(rng: random.Random, spec: FieldSpec, degree: int) -> MPoly:
    """A curve with a coefficient index drawn for each monomial X^i Y^j of
    total degree at most degree, in order of i, then j."""
    keys = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    draws = [rng.randrange(spec.order) for _ in keys]
    return MPoly(spec, 2, {k: c for k, c in zip(keys, draws) if c})


def _random_bipoly(rng: random.Random, spec: FieldSpec, max_degree: int) -> MPoly:
    while True:
        F = _random_curve(rng, spec, max_degree)
        if not F.is_zero() and not F.is_constant():
            return F


def _random_conic(rng: random.Random, spec: FieldSpec, max_degree: int) -> MPoly:
    while True:
        F = _random_curve(rng, spec, 2)
        if F.total_degree() == 2:
            return F


def _random_linear_form(rng: random.Random, spec: FieldSpec) -> list[int]:
    """Coefficient indices of c0 + c1*X + c2*Y with c1 or c2 nonzero."""
    while True:
        c = [rng.randrange(spec.order) for _ in range(3)]
        if c[1] or c[2]:
            return c


def _norm_form(rng: random.Random, spec: FieldSpec, max_degree: int) -> MPoly:
    """N^2 + t*N*M + n*M^2 for a quadratic T^2 + t*T + n with no root in F_q.

    Over the closure this splits as (N - alpha*M)(N - conj(alpha)*M); when
    the linear forms N and M are not proportional, neither closure factor is
    proportional to a form over F_q, so the product is irreducible over F_q
    and splits over the quadratic extension.
    """
    while True:
        t = rng.randrange(spec.order)
        n = rng.randrange(spec.order)
        if not num_distinct_roots(Poly(spec, (n, t, 1))):
            break
    mul = spec._mul
    while True:
        cn = _random_linear_form(rng, spec)
        cm = _random_linear_form(rng, spec)
        if any(mul(cn[i], cm[j]) != mul(cn[j], cm[i]) for i in range(3) for j in range(i + 1, 3)):
            break
    keys = ((0, 0), (1, 0), (0, 1))
    N = MPoly(spec, 2, {k: c for k, c in zip(keys, cn) if c})
    M = MPoly(spec, 2, {k: c for k, c in zip(keys, cm) if c})
    return N * N + N._scale(t) * M + M._scale(n) * M


_SAMPLERS = {
    "random": _random_bipoly,
    "conic": _random_conic,
    "norm_form": _norm_form,
}


def _absolutely_irreducible(h: MPoly, count: int) -> bool:
    """Whether h, irreducible over F_q with exact projective count `count`,
    is absolutely irreducible.

    The count decides first, both ways.  More than non_abs_bound(D) points
    prove it, since a curve that is not absolutely irreducible has at most
    that many (Bezout).  A count outside the Aubry-Perret band disproves it,
    since an absolutely irreducible curve of degree D, singular or not, has
    |count - (q+1)| <= (D-1)(D-2)sqrt(q) (ap_projective_ok).  Where the
    band's floor lies above the cap (D <= 2 at every q, D = 3 from q = 7,
    D = 4 from q = 43, D = 5 from q = 157) every count is decided so.  Only
    a count inside both ranges is left to the geometry of
    bipoly._irreducible_is_absolute: a simple root on a line, then
    re-factoring over F_{q^r}.
    """
    D = h.total_degree()
    if count > non_abs_bound(D):
        return True
    if not ap_projective_ok(count, D, h.spec.order):
        return False
    return _irreducible_is_absolute(h)


def verify_bounds_on_sample(config: SampleConfig) -> list[BoundReport]:
    """Sample curves, factor them, and check the applicable bound per factor.

    Absolutely irreducible factors are checked against the affine interval
    and the projective band; factors that stay irreducible over F_q only are
    checked against floor(D^2/4).  Reports are deterministic in the seed.
    Each factor is labelled by _absolutely_irreducible, which asks the cap
    and the band before any geometry.  So only the rows of a factor with
    more than floor(D^2/4) points test a bound its label did not use; the
    other rows restate what labelled them, and the test suite checks the
    labels against re-factoring over F_{q^r}.
    """
    if config.kind not in _SAMPLERS:
        raise ValidationError(f"unknown sampler kind {config.kind!r}")
    if config.count < 1:
        raise ValidationError("sample count must be positive")
    if config.kind == "random" and config.max_degree < 1:
        # every curve drawn would be constant, and the sampler draws again
        raise ValidationError("max degree of random curves must be positive")
    spec = build_field(config.p, config.k)
    q = spec.order
    rng = random.Random(config.seed)
    sampler = _SAMPLERS[config.kind]
    reports: list[BoundReport] = []
    for idx in range(config.count):
        F = sampler(rng, spec, config.max_degree)
        _, facs = kronecker_factor(F)
        for fidx, (h, _) in enumerate(facs):
            D = h.total_degree()
            aff = count_affine(h)
            proj = aff + _points_at_infinity(h)
            if _absolutely_irreducible(h, proj):
                label = "absolutely-irreducible"
                lo, hi = ap_interval(D, q)
                reports.append(
                    BoundReport(
                        f"{idx}/{fidx}/affine", q, D, label, aff,
                        f"{lo}..{hi}", bool(lo <= aff <= hi),
                    )
                )
                s = (D - 1) * (D - 2)
                reports.append(
                    BoundReport(
                        f"{idx}/{fidx}/projective", q, D, label, proj,
                        f"|N-{q + 1}|<={s}*sqrt({q})",
                        ap_projective_ok(proj, D, q),
                    )
                )
            else:
                reports.append(
                    BoundReport(
                        f"{idx}/{fidx}/affine", q, D,
                        "not-absolutely-irreducible", aff,
                        str(non_abs_bound(D)), aff <= non_abs_bound(D),
                    )
                )
    return reports
