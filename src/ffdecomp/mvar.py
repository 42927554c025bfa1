"""Multivariate rational functions f(X1..Xn) and decompositions f = g(h).

Univariate reduced rational functions have a value (possibly infinity) at
every point; with several variables the numerator and denominator can vanish
together, so evaluation gains a third outcome, UNDEFINED, and pair counting
skips exactly those points.  Polynomial arithmetic is sparse over exponent
vectors; gcds run by primitive-part recursion on the last variable, and
factoring collapses all variables onto one with a mixed-radix substitution
so the univariate machinery applies.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from . import limits
from .bipoly import DEGREE_CAP, _submultisets_by_degree
from .decomp import DecompReport, ThresholdCheck, _check_epsilon, _fiber_sizes
from .errors import SizeLimitError, SpecMismatchError, ValidationError
from .gf_core import FieldElement, FieldSpec, _same_spec
from .upoly import (
    INFINITY,
    Poly,
    RatFun,
    _coeff_str,
    factor,
    poly_gcd,
    require_nonconstant,
    roots,
)

# Best-effort envelope for the constructive search.
FIND_H_MAX_VARS = 3
FIND_H_MAX_DEGREE_SUM = 10


class _Undefined:
    """Marker for evaluation points where numerator and denominator both
    vanish; intentionally unequal to every field element and to infinity."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()


class MPoly:
    __slots__ = ("spec", "n", "terms")

    def __init__(self, spec: FieldSpec, n: int, terms: dict[tuple, FieldElement]):
        # private: callers go through from_terms and friends
        self.spec = spec
        self.n = n
        self.terms = terms

    @classmethod
    def from_terms(cls, spec: FieldSpec, n: int, terms) -> "MPoly":
        if n < 1:
            raise ValidationError("need at least one variable")
        out: dict[tuple, FieldElement] = {}
        for key, c in dict(terms).items():
            key = tuple(int(e) for e in key)
            if len(key) != n:
                raise ValidationError(f"exponent vector {key} does not have {n} entries")
            if any(e < 0 for e in key):
                raise ValidationError("exponents must be nonnegative")
            c = spec.element(c)
            if c.is_zero():
                continue
            if key in out:
                c = out[key] + c
                if c.is_zero():
                    del out[key]
                    continue
            out[key] = c
        return cls(spec, n, out)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "MPoly":
        return cls(spec, n, {})

    @classmethod
    def one(cls, spec: FieldSpec, n: int) -> "MPoly":
        return cls(spec, n, {(0,) * n: spec.one()})

    @classmethod
    def constant(cls, value: FieldElement, n: int) -> "MPoly":
        return cls.from_terms(value.spec, n, {(0,) * n: value})

    @classmethod
    def variable(cls, spec: FieldSpec, n: int, i: int) -> "MPoly":
        """The variable X_{i+1} (zero-based index i)."""
        if not 0 <= i < n:
            raise ValidationError(f"variable index {i} out of range for {n} variables")
        key = tuple(1 if t == i else 0 for t in range(n))
        return cls(spec, n, {key: spec.one()})

    @classmethod
    def monomial(cls, spec: FieldSpec, key: tuple) -> "MPoly":
        return cls(spec, len(key), {tuple(key): spec.one()})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(k) for k in self.terms)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=-1)

    def deg_in(self, i: int) -> int:
        return max((k[i] for k in self.terms), default=-1)

    def coeff(self, key: tuple) -> FieldElement:
        return self.terms.get(tuple(key), self.spec.zero())

    def leading_key(self) -> tuple:
        """Largest exponent vector in lexicographic order."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        return max(self.terms)

    def index_key(self) -> tuple:
        """Deterministic sort key over the sparse terms."""
        return tuple(sorted((*k, c.index) for k, c in self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            _same_spec(self.spec, other.spec)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.spec.p, self.spec.modulus, self.n, frozenset(self.terms.items()))
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if not _same_spec(self.spec, other.spec) or self.n != other.n:
                raise SpecMismatchError("mixing polynomials over different domains")
            return other
        if isinstance(other, (FieldElement, int)):
            return MPoly.constant(self.spec.element(other), self.n)
        raise TypeError(f"cannot combine MPoly with {type(other).__name__}")

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, self.spec.zero()) + c
            if s.is_zero():
                terms.pop(k, None)
            else:
                terms[k] = s
        return MPoly(self.spec, self.n, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.spec, self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (FieldElement, int)):
            c = self.spec.element(other)
            if c.is_zero():
                return MPoly.zero(self.spec, self.n)
            return MPoly(self.spec, self.n, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        terms: dict[tuple, FieldElement] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                prod = c1 * c2
                if k in terms:
                    s = terms[k] + prod
                    if s.is_zero():
                        del terms[k]
                    else:
                        terms[k] = s
                elif not prod.is_zero():
                    terms[k] = prod
        return MPoly(self.spec, self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValidationError("negative power of a polynomial")
        result = MPoly.one(self.spec, self.n)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and views --------------------------------------------------

    def __call__(self, xs) -> FieldElement:
        xs = [self.spec.element(x) for x in xs]
        if len(xs) != self.n:
            raise ValidationError(f"need {self.n} coordinates, got {len(xs)}")
        acc = self.spec.zero()
        for k, c in self.terms.items():
            term = c
            for x, e in zip(xs, k):
                if e:
                    term = term * x**e
            acc = acc + term
        return acc

    def last_var_coeffs(self) -> list["MPoly"]:
        """Coefficients c_j(X1..X_{n-1}) with self = sum_j c_j * Xn^j."""
        if self.n < 2:
            raise ValidationError("need at least two variables to split off the last")
        if not self.terms:
            return []
        rows: list[dict] = [dict() for _ in range(self.deg_in(self.n - 1) + 1)]
        for k, c in self.terms.items():
            rows[k[-1]][k[:-1]] = c
        return [MPoly(self.spec, self.n - 1, row) for row in rows]

    def lift_last(self) -> "MPoly":
        """The same polynomial viewed in one more variable (absent from it)."""
        return MPoly(self.spec, self.n + 1, {k + (0,): c for k, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            mono = "*".join(
                f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
                for i, e in enumerate(key)
                if e
            )
            if not mono:
                parts.append(_coeff_str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{_coeff_str(c)}*{mono}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self.spec.descriptor}, {self})"


# --------------------------------------------------------------------------
# exact division and gcd in F_q[X1..Xn]


def mpoly_divexact(F: MPoly, G: MPoly) -> Optional[MPoly]:
    """Quotient F / G when G divides F exactly, else None.

    Greedy elimination of the lexicographically leading term; leading
    monomials multiply, so when G divides F every intermediate leading term
    stays divisible by the leading term of G.
    """
    if G.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if F.is_zero():
        return MPoly.zero(F.spec, F.n)
    gk = G.leading_key()
    glc = G.terms[gk]
    quot: dict[tuple, FieldElement] = {}
    rem = F
    while not rem.is_zero():
        rk = rem.leading_key()
        if any(r < g for r, g in zip(rk, gk)):
            return None
        k = tuple(r - g for r, g in zip(rk, gk))
        c = rem.terms[rk] / glc
        quot[k] = c
        rem = rem - G * MPoly(F.spec, F.n, {k: c})
    return MPoly(F.spec, F.n, quot)


def _canon_monic(G: MPoly) -> MPoly:
    """Scale so the lexicographically leading coefficient is one."""
    if G.is_zero():
        return G
    c = G.terms[G.leading_key()]
    return G if c == 1 else G * c.inverse()


def _canon_first(G: MPoly) -> tuple[FieldElement, MPoly]:
    """Scale so the lexicographically first nonzero coefficient is one."""
    c = G.terms[min(G.terms)]
    return c, G * c.inverse()


def _to_upoly(f: MPoly) -> Poly:
    assert f.n == 1
    out = [f.spec.zero()] * (f.deg_in(0) + 1)
    for (e,), c in f.terms.items():
        out[e] = c
    return Poly.from_coeffs(f.spec, out)


def _from_upoly(p: Poly, n: int = 1) -> MPoly:
    terms = {}
    for e, c in enumerate(p.coeffs):
        if not c.is_zero():
            terms[(e,) + (0,) * (n - 1)] = c
    return MPoly(p.spec, n, terms)


def _content_last(f: MPoly) -> MPoly:
    """Gcd of the coefficients of f viewed as a polynomial in its last
    variable; an (n-1)-variate polynomial."""
    acc = MPoly.zero(f.spec, f.n - 1)
    for c in f.last_var_coeffs():
        acc = mpoly_gcd(acc, c)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc


def _primitive_last(f: MPoly) -> MPoly:
    if f.is_zero():
        return f
    quot = mpoly_divexact(f, _content_last(f).lift_last())
    assert quot is not None, "content must divide"
    return quot


def _leading_in_last(f: MPoly) -> MPoly:
    """Leading coefficient in the last variable, kept n-variate."""
    d = f.deg_in(f.n - 1)
    return MPoly(
        f.spec, f.n, {k[:-1] + (0,): c for k, c in f.terms.items() if k[-1] == d}
    )


def _prem_last(f: MPoly, g: MPoly) -> MPoly:
    """Pseudo-remainder of f by g in the last variable (f scaled by powers
    of the leading coefficient of g so the division stays polynomial)."""
    last = f.n - 1
    dg = g.deg_in(last)
    lc_g = _leading_in_last(g)
    r = f
    while not r.is_zero() and r.deg_in(last) >= dg:
        dr = r.deg_in(last)
        lc_r = _leading_in_last(r)
        shift = MPoly.monomial(
            f.spec, tuple(dr - dg if t == last else 0 for t in range(f.n))
        )
        r = r * lc_g - g * (lc_r * shift)
    return r


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, scaled so its leading coefficient is one.

    Primitive polynomial remainder sequence: split off the content in the
    last variable, recurse on contents, and run pseudo-division on the
    primitive parts.
    """
    if not isinstance(b, MPoly) or a.n != b.n or not _same_spec(a.spec, b.spec):
        raise SpecMismatchError("gcd of polynomials over different domains")
    if a.is_zero():
        return _canon_monic(b)
    if b.is_zero():
        return _canon_monic(a)
    if a.n == 1:
        return _from_upoly(poly_gcd(_to_upoly(a), _to_upoly(b)))
    last = a.n - 1
    c = mpoly_gcd(_content_last(a), _content_last(b)).lift_last()
    u, v = _primitive_last(a), _primitive_last(b)
    if u.deg_in(last) < v.deg_in(last):
        u, v = v, u
    while not v.is_zero():
        r = _prem_last(u, v)
        u, v = v, _primitive_last(r)
    return _canon_monic(u * c)


# --------------------------------------------------------------------------
# rational functions


class MRatFun:
    """A(X1..Xn) / B(X1..Xn) with gcd(A, B) = 1 and B scaled to leading
    coefficient one."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        # private: use make()
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: MPoly, den: MPoly) -> "MRatFun":
        if not _same_spec(num.spec, den.spec) or num.n != den.n:
            raise SpecMismatchError("numerator and denominator over different domains")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = mpoly_gcd(num, den)
        if g.total_degree() > 0:
            num = mpoly_divexact(num, g)
            den = mpoly_divexact(den, g)
            assert num is not None and den is not None
        c = den.terms[den.leading_key()]
        if c != 1:
            inv = c.inverse()
            num = num * inv
            den = den * inv
        return cls(num, den)

    @classmethod
    def from_poly(cls, p: MPoly) -> "MRatFun":
        return cls(p, MPoly.one(p.spec, p.n))

    @property
    def spec(self) -> FieldSpec:
        return self.den.spec

    @property
    def n(self) -> int:
        return self.den.n

    @property
    def degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, MRatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"MRatFun({self})"

    def __str__(self) -> str:
        if self.den == MPoly.one(self.spec, self.n):
            return str(self.num)
        return f"{self.num} / {self.den}"

    def index_key(self) -> tuple:
        return (self.num.index_key(), self.den.index_key())

    def eval(self, xs):
        """Value at a point: a field element, INFINITY at a pole, or
        UNDEFINED where numerator and denominator vanish together."""
        b = self.den(xs)
        a = self.num(xs)
        if b.is_zero():
            return UNDEFINED if a.is_zero() else INFINITY
        return a / b


def mrat_eval(f: MRatFun, xs):
    return f.eval(xs)


def _require_mrat(f: MRatFun, name: str) -> None:
    if f.is_constant():
        raise ValidationError(f"{name} must be nonconstant")


# --------------------------------------------------------------------------
# pair counting over F_q^n x F_q


def _grid(spec: FieldSpec, n: int):
    return itertools.product(spec.elements(), repeat=n)


def count_pairs_mv(f: MRatFun, g: RatFun) -> int:
    """|{(x-vector, y) : f defined at x-vector and f(x-vector) = g(y)}|.

    Values are compared in F_q plus infinity; undefined points contribute
    nothing.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    spec = f.spec
    limits.check_enumerable(spec.order ** (f.n + 1), "pair grid")
    sizes = _fiber_sizes(g)
    # UNDEFINED equals no value of g, so undefined points add nothing
    return sum(sizes.get(f.eval(xs), 0) for xs in _grid(spec, f.n))


def count_undefined(f: MRatFun) -> int:
    """Number of grid points where f has no value."""
    limits.check_enumerable(f.spec.order**f.n, "definedness scan")
    return sum(1 for xs in _grid(f.spec, f.n) if f.eval(xs) is UNDEFINED)


# --------------------------------------------------------------------------
# hypothesis checking


def t41_threshold_ok(q: int, d: int, delta: int, eps) -> bool:
    """q >= 7.8 (d+delta)^{13/3} / eps^2, decided exactly by comparing
    q^3 eps^6 against (39/5)^3 (d+delta)^13."""
    eps = _check_epsilon(eps)
    return Fraction(q) ** 3 * eps**6 >= Fraction(39, 5) ** 3 * (d + delta) ** 13


def check_t41(f: MRatFun, g: RatFun, eps) -> DecompReport:
    """The multivariate graded criterion.

    Pair condition: count_pairs_mv(f, g) >= q^n (floor(delta/2) + eps);
    threshold: q >= 7.8 (d+delta)^{13/3} / eps^2.  The reported threshold is
    the exact rational lower bound for q^3 (the cube kills the fractional
    exponent), so condition_iii compares q^3 against it.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    _require_mrat(f, "f")
    require_nonconstant(g, "g")
    eps = _check_epsilon(eps)
    spec = f.spec
    q = spec.order
    d, delta = f.degree, g.degree
    pairs = count_pairs_mv(f, g)
    pair_threshold = Fraction(q**f.n) * (delta // 2 + eps)
    threshold = Fraction(39, 5) ** 3 * (d + delta) ** 13 / eps**6
    return DecompReport(
        q=q,
        d=d,
        delta=delta,
        condition_iii=ThresholdCheck(q, threshold, Fraction(q) ** 3 >= threshold),
        pair_count=pairs,
        pair_threshold=pair_threshold,
    )


# --------------------------------------------------------------------------
# verification and constructive search


def mrat_compose(g: RatFun, h: MRatFun) -> Optional[MRatFun]:
    """g(h(X1..Xn)) as a reduced multivariate rational function, or None
    when h is the constant at a pole of g (the composition has no value)."""
    if not _same_spec(g.spec, h.spec):
        raise SpecMismatchError("g and h must live over the same field")
    delta = g.degree
    u, v = h.num, h.den
    upow = [MPoly.one(h.spec, h.n)]
    vpow = [MPoly.one(h.spec, h.n)]
    for _ in range(delta):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)

    def homog(p: Poly) -> MPoly:
        acc = MPoly.zero(h.spec, h.n)
        for i, c in enumerate(p.coeffs):
            if not c.is_zero():
                acc = acc + upow[i] * vpow[delta - i] * c
        return acc

    num_c = homog(g.num)
    den_c = homog(g.den)
    if den_c.is_zero():
        return None
    return MRatFun.make(num_c, den_c)


def verify_h_mv(f: MRatFun, g: RatFun, h: MRatFun) -> bool:
    """Does f equal g(h) symbolically, after full reduction?"""
    if f.n != h.n:
        raise SpecMismatchError("f and h must use the same variables")
    composed = mrat_compose(g, h)
    return composed is not None and composed == f


def _collapse_key(F: MPoly) -> tuple[list[int], list[int]]:
    """Mixed-radix weights for folding all variables onto one.

    Divisor degrees never exceed the degrees of F variable by variable, so
    with radix deg_i + 1 the exponent vectors of every divisor (and of any
    product of divisors that still divides F) encode injectively and
    without carries.
    """
    rads = [F.deg_in(i) + 1 for i in range(F.n)]
    bases = [1]
    for r in rads[:-1]:
        bases.append(bases[-1] * r)
    return rads, bases


def _collapse(F: MPoly, bases: list[int]) -> Poly:
    out = [F.spec.zero()] * (1 + sum(d * b for d, b in zip(
        (F.deg_in(i) for i in range(F.n)), bases)))
    for k, c in F.terms.items():
        e = sum(ei * b for ei, b in zip(k, bases))
        out[e] = out[e] + c
    return Poly.from_coeffs(F.spec, out)


def _uncollapse(u: Poly, rads: list[int], bases: list[int], n: int) -> MPoly:
    terms = {}
    for e, c in enumerate(u.coeffs):
        if c.is_zero():
            continue
        key = []
        rest = e
        for i in range(n):
            if i + 1 < n:
                key.append((rest // bases[i]) % rads[i])
            else:
                key.append(rest // bases[i])
        terms[tuple(key)] = c
    return MPoly(u.spec, n, terms)


def mv_factor(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """Factor into irreducibles over F_q, mirroring the bivariate method.

    Returns (unit, [(factor, multiplicity), ...]); factors are scaled so
    their lexicographically first coefficient is one and sorted by total
    degree then coefficient indices.
    """
    if F.is_zero():
        raise ValidationError("cannot factor the zero polynomial")
    if F.is_constant():
        return F.coeff((0,) * F.n), []
    if F.total_degree() > DEGREE_CAP:
        raise SizeLimitError(
            f"factoring degree {F.total_degree()} exceeds the cap {DEGREE_CAP}"
        )
    spec = F.spec
    rads, bases = _collapse_key(F)
    _, ufacs = factor(_collapse(F, bases))
    remaining = [[p, m] for p, m in ufacs]
    current = F
    found: list[tuple[MPoly, int]] = []
    while not current.is_constant():
        facs = [(p, m) for p, m in remaining if m > 0]
        hit = None
        for vmult in _submultisets_by_degree(facs):
            prod = Poly.one(spec)
            for (p, _), mult in zip(facs, vmult):
                if mult:
                    prod = prod * p**mult
            cand = _uncollapse(prod, rads, bases, F.n)
            if mpoly_divexact(current, cand) is not None:
                hit = (vmult, facs, cand)
                break
        if hit is None:
            raise AssertionError("the full sub-multiset always divides")
        vmult, facs, cand = hit
        _, g = _canon_first(cand)
        mult = 0
        while True:
            quot = mpoly_divexact(current, g)
            if quot is None:
                break
            current = quot
            mult += 1
            for (p, _), used in zip(facs, vmult):
                if used:
                    for slot in remaining:
                        if slot[0] == p:
                            slot[1] -= used
                            assert slot[1] >= 0
                            break
        found.append((g, mult))
    unit = current.coeff((0,) * F.n)
    found.sort(key=lambda fm: (fm[0].total_degree(), fm[0].index_key()))
    return unit, found


def _mv_divisors(c: MPoly, max_total: int) -> list[MPoly]:
    """Divisors of c with total degree <= max_total, deterministically
    ordered; scaling is canonical per irreducible factor."""
    _, facs = mv_factor(c)
    divisors = [MPoly.one(c.spec, c.n)]
    for p, m in facs:
        grown = []
        for dv in divisors:
            acc = dv
            for e in range(m + 1):
                if e:
                    acc = acc * p
                if acc.total_degree() > max_total:
                    break
                grown.append(acc)
        divisors = grown
    divisors.sort(key=lambda h: (h.total_degree(), h.index_key()))
    return divisors


def _lambda_candidates_mv(
    coeffs: list[MPoly], num0: MPoly, den0: MPoly
) -> list[FieldElement]:
    """Nonzero scalars t for which y = t*num0/den0 could be a root; proposed
    from one grid specialization, with a symbolic fallback for fields too
    small to contain a usable point.  Never trusted: callers verify."""
    spec = num0.spec
    n = num0.n
    delta = len(coeffs) - 1
    c_top = coeffs[-1]
    limits.check_enumerable(spec.order**n, "specialization grid")
    for xs in _grid(spec, n):
        if c_top(xs).is_zero() or num0(xs).is_zero() or den0(xs).is_zero():
            continue
        n0, d0 = num0(xs), den0(xs)
        phi = Poly.from_coeffs(
            spec,
            [coeffs[j](xs) * n0**j * d0 ** (delta - j) for j in range(delta + 1)],
        )
        return [t for t in roots(phi) if not t.is_zero()]

    # symbolic fallback: collect, per monomial, the coefficient polynomial
    # in t of sum_j c_j num0^j den0^{delta-j} t^j, and intersect their roots
    terms = [coeffs[j] * num0**j * den0 ** (delta - j) for j in range(delta + 1)]
    keys = set()
    for t in terms:
        keys.update(t.terms)
    common = Poly.zero(spec)
    for key in sorted(keys):
        psi = Poly.from_coeffs(spec, [t.coeff(key) for t in terms])
        common = poly_gcd(common, psi)
        if common.is_one():
            return []
    return [t for t in roots(common) if not t.is_zero()]


def find_h_mv(
    f: MRatFun,
    g: RatFun,
    max_vars: int = FIND_H_MAX_VARS,
    max_degree_sum: int = FIND_H_MAX_DEGREE_SUM,
) -> Optional[MRatFun]:
    """Some h(X1..Xn) with f = g(h), or None if the search finds no root.

    Same rational-root strategy as the univariate search: a root
    y = t*N/D of sum_j c_j(X-vector) Y^j has N dividing c_0 and D dividing
    c_delta (up to the scalar t), and composition degrees multiply, so both
    divisors are enumerated up to total degree d/delta.  A None outside the
    oracle-checked small regime is best-effort, not a proof of
    non-existence.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    _require_mrat(f, "f")
    require_nonconstant(g, "g")
    d, delta = f.degree, g.degree
    if f.n > max_vars:
        raise SizeLimitError(f"search supports at most {max_vars} variables")
    if d + delta > max_degree_sum:
        raise SizeLimitError(
            f"combined degree {d + delta} exceeds the search cap {max_degree_sum}"
        )
    if d % delta != 0:
        return None
    e = d // delta
    spec = f.spec
    pn = list(g.num.coeffs) + [spec.zero()] * (delta + 1 - len(g.num.coeffs))
    qn = list(g.den.coeffs) + [spec.zero()] * (delta + 1 - len(g.den.coeffs))
    coeffs = [f.num * qj - f.den * pj for pj, qj in zip(pn, qn)]
    c0, c_top = coeffs[0], coeffs[-1]
    assert not c0.is_zero() and not c_top.is_zero()

    found: list[MRatFun] = []
    nums = _mv_divisors(c0, e)
    dens = _mv_divisors(c_top, e)
    for num0 in nums:
        for den0 in dens:
            if max(num0.total_degree(), den0.total_degree()) != e:
                continue
            if mpoly_gcd(num0, den0).total_degree() > 0:
                continue
            for t in _lambda_candidates_mv(coeffs, num0, den0):
                cand = MRatFun.make(num0 * t, den0)
                if mrat_compose(g, cand) == f:
                    found.append(cand)
    if not found:
        return None
    return min(found, key=lambda h: h.index_key())
