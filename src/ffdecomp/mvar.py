"""Multivariate polynomials and rational functions over F_q, and f = g(h).

MPoly is the one polynomial type in several variables: f(X1..Xn) here, and
with n = 2 the plane curves of bipoly.  Polynomial arithmetic is sparse over
exponent vectors; gcds run by primitive-part recursion on the last variable.
mv_factor is the one factorizer.  A plane curve is factored by Hensel
lifting: the factors of one squarefree fiber F(x0, Y) are lifted to power
series in X - x0 and recombined by Zassenhaus' subset search.  With more
variables, and for the curves no fiber over F_q serves, it collapses all
variables onto one with a mixed-radix substitution, factors the image with
the univariate machinery, and recombines the univariate factors.

Univariate reduced rational functions have a value (possibly infinity) at
every point; with several variables the numerator and denominator can vanish
together, so evaluation gains a third outcome, UNDEFINED, and pair counting
skips exactly those points.  Pair counts evaluate f on indices, a line of q
points along Xn at a time; decomp.count_pairs is the case n = 1.

find_h_mv, and decomp.find_h as its case n = 1, finds h as a root Y = h(X)
of the curve A(X)Q(Y) - B(X)P(Y): Newton iteration lifts each root at the
first usable point of F_q^n, or of F_{q^r}^n when F_q is too small to hold
one, to a truncated power series; a linear system reads it back as N/D, and
composing verifies it, so a None is a proof.  An inseparable g = g1(Y^p) is
reduced to g1.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import limits
from .decomp import DecompReport, ThresholdCheck, _check_epsilon
from .errors import SizeLimitError, SpecMismatchError, ValidationError
from .gf_core import FieldElement, FieldEmbedding, FieldSpec, _same_spec, extend_field
from .upoly import (
    INFINITY,
    Poly,
    RatFun,
    _coeff_str,
    _distinct_degree_parts,
    _equal_degree_parts,
    factor,
    poly_gcd,
    poly_invmod,
    require_nonconstant,
    roots,
)

# Caps of the constructive search: at most FIND_H_MAX_VARS variables and
# d + delta at most FIND_H_MAX_DEGREE_SUM.  They are the sizes the search is
# tested at, not bounds derived from the cost of lifting.
FIND_H_MAX_VARS = 3
FIND_H_MAX_DEGREE_SUM = 10

# Factoring enumerates subsets of the factors of a fiber, or sub-multisets of
# the factorization of the collapsed image, so both the total degree and the
# number of candidate subsets need hard stops; the cap holds for every n.
# A plane curve is lifted from the fiber with the fewest factors among the
# first _FIBERS usable ones, or the first _MAX_FIBERS while each of them has
# more than _MAX_FIBER_FACTORS.  Recombining r lifted factors tests up to
# 2^(r-1) subsets at about a millisecond each, so a curve with no fiber of at
# most _MAX_FIBER_FACTORS factors among those is collapsed instead.
DEGREE_CAP = 24
_MAX_SUBSETS = 1 << 20
_FIBERS = 3
_MAX_FIBERS = 12
_MAX_FIBER_FACTORS = 9


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
        return terms_str(self, [f"X{i + 1}" for i in range(self.n)])

    def __repr__(self) -> str:
        return f"MPoly({self.spec.descriptor}, {self})"


def map_coeffs(F: MPoly, emb: FieldEmbedding) -> MPoly:
    """Apply a field embedding to every coefficient."""
    if not _same_spec(F.spec, emb.source):
        raise SpecMismatchError("embedding source does not match the polynomial")
    return MPoly(emb.target, F.n, {k: emb(c) for k, c in F.terms.items()})


def terms_str(F: MPoly, names) -> str:
    """F as a sum of terms in decreasing exponent order, the variables
    written with the given names."""
    if not F.terms:
        return "0"
    parts = []
    for key in sorted(F.terms, reverse=True):
        c = F.terms[key]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, key) if e)
        if not mono:
            parts.append(_coeff_str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{_coeff_str(c)}*{mono}")
    return "+".join(parts)


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
    if a.is_constant() or b.is_constant():
        return MPoly.one(a.spec, a.n)
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


# --------------------------------------------------------------------------
# pair counting over F_q^n x F_q


# Value codes of the grid evaluator: a value's index in F_q, or one of these
# at a pole and where A and B vanish together.
_INF, _UNDEF = -1, -2


def _horner_line(spec: FieldSpec, cs) -> list[int]:
    """The values at x = 0..q-1 of the polynomial with coefficient indices cs."""
    add, mul = spec._add, spec._mul
    xs = range(spec.order)
    line = [cs[-1]] * spec.order
    for c in reversed(cs[:-1]):
        if c:
            line = [add(mul(a, x), c) for a, x in zip(line, xs)]
        else:
            line = [mul(a, x) for a, x in zip(line, xs)]
    return line


def _lines(P: MPoly):
    """P's values at the points of F_q^n in grid order, one line of q values
    along Xn at a time, by Horner's rule from the coefficients of the powers
    of Xn, themselves evaluated recursively; no q^n list is built."""
    if P.n == 1:
        yield _horner_line(P.spec, _to_upoly(P)._indices() or [0])
        return
    rows = P.last_var_coeffs() or [MPoly.zero(P.spec, P.n - 1)]
    for cols in zip(*map(_lines, rows)):
        for cs in zip(*cols):
            yield _horner_line(P.spec, cs)


def _value_lines(f):
    """The value codes of f = A/B, an MRatFun or a RatFun (n = 1), as _lines
    yields them."""
    if isinstance(f, RatFun):
        f = MRatFun(_from_upoly(f.num), _from_upoly(f.den))
    if f.den.is_constant():  # reduced, so B = 1
        yield from _lines(f.num)
        return
    mul, inv = f.spec._mul, f.spec._inv
    for la, lb in zip(_lines(f.num), _lines(f.den)):
        yield [mul(a, inv(b)) if b else _INF if a else _UNDEF for a, b in zip(la, lb)]


def _fibers(g: RatFun) -> tuple[list[int], Counter, int]:
    """g's value codes at the points of F_q in index order, its fiber sizes
    keyed by value code, and the code of g(infinity)."""
    limits.check_enumerable(g.spec.order, "fiber scan")
    line = next(_value_lines(g))
    v = g.eval(INFINITY)
    return line, Counter(line), _INF if v is INFINITY else v.index


def _pair_count(f, g: RatFun) -> int:
    """The sum over the points x of F_q^n of |{y in F_q : g(y) = f(x)}|."""
    get = _fibers(g)[1].get
    zeros = itertools.repeat(0)
    # _UNDEF codes no value of g, so undefined points add nothing
    return sum(sum(map(get, line, zeros)) for line in _value_lines(f))


def count_pairs_mv(f: MRatFun, g: RatFun) -> int:
    """|{(x-vector, y) : f defined at x-vector and f(x-vector) = g(y)}|.

    Values are compared in F_q plus infinity; undefined points contribute
    nothing.  decomp.count_pairs is the case n = 1.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    limits.check_enumerable(f.spec.order, "pair grid", f.n)
    return _pair_count(f, g)


def count_undefined(f: MRatFun) -> int:
    """Number of grid points where f has no value."""
    limits.check_enumerable(f.spec.order, "definedness scan", f.n)
    return sum(line.count(_UNDEF) for line in _value_lines(f))


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
    require_nonconstant(f, "f")
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
    when h is the constant at a pole of g (the composition has no value).
    No gcd is needed: a prime dividing both forms would divide both parts of
    the reduced h or make h a common root of P and Q modulo it."""
    if not _same_spec(g.spec, h.spec):
        raise SpecMismatchError("g and h must live over the same field")
    delta = g.degree
    upow, vpow = [MPoly.one(h.spec, h.n)], [MPoly.one(h.spec, h.n)]
    for _ in range(delta):
        upow.append(upow[-1] * h.num)
        vpow.append(vpow[-1] * h.den)
    num_c, den_c = (
        sum((upow[i] * vpow[delta - i] * c for i, c in enumerate(p.coeffs) if c), MPoly.zero(h.spec, h.n))
        for p in (g.num, g.den)
    )
    if den_c.is_zero():
        return None
    c = den_c.terms[den_c.leading_key()].inverse()
    return MRatFun(num_c * c, den_c * c)


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


def _submultisets_by_degree(facs: list[tuple[Poly, int]]):
    """All nonempty choices of multiplicities, ordered by product degree."""
    ranges = [range(m + 1) for _, m in facs]
    count = 1
    for r in ranges:
        count *= len(r)
    if count > _MAX_SUBSETS:
        raise SizeLimitError(
            f"factor recombination would test {count} subsets "
            f"(limit {_MAX_SUBSETS})"
        )
    degs = [p.degree for p, _ in facs]
    vectors = [v for v in itertools.product(*ranges) if any(v)]
    vectors.sort(key=lambda v: (sum(m * d for m, d in zip(v, degs)), v))
    return vectors


def mv_factor(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """Factor into irreducibles over F_q.

    Returns (unit, [(factor, multiplicity), ...]); factors are scaled so
    their lexicographically first coefficient is one and sorted by total
    degree then coefficient indices, so the result does not depend on the
    algorithm.  A plane curve (n = 2) is factored by Hensel lifting at one
    fiber (_plane_factors); more variables, and curves that are not
    squarefree in Y or have no usable fiber over F_q with few enough
    factors, are collapsed onto one variable (_mv_factor_by_collapse).
    """
    if F.is_zero():
        raise ValidationError("cannot factor the zero polynomial")
    if F.is_constant():
        return F.coeff((0,) * F.n), []
    if F.total_degree() > DEGREE_CAP:
        raise SizeLimitError(
            f"factoring degree {F.total_degree()} exceeds the cap {DEGREE_CAP}"
        )
    found = _plane_factors(F) if F.n == 2 else None
    if found is None:
        return _mv_factor_by_collapse(F)
    found = [(_canon_first(g)[1], m) for g, m in found]
    found.sort(key=lambda fm: (fm[0].total_degree(), fm[0].index_key()))
    # the lexicographically first term of a product is the product of the
    # first terms, and each factor's first coefficient is one
    return F.terms[min(F.terms)], found


def _mv_factor_by_collapse(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """mv_factor by collapsing F onto one variable, for any n; at n = 2 the
    fallback and the test oracle of _plane_factors.

    The collapse is injective on the monomials of every divisor of F, so
    each factor corresponds to a sub-multiset of the univariate
    factorization of the image; testing the sub-multisets in order of
    increasing product degree means the first one whose lift divides F is
    irreducible (a proper divisor of the lift would have shown up earlier).
    """
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


# --------------------------------------------------------------------------
# plane curves by Hensel lifting at one fiber: power series in t = X - x0
# are lists of Polys in Y, coefficient k of t^k at index k


def _series_mul(a: list[Poly], b: list[Poly], prec: int) -> list[Poly]:
    out = []
    for k in range(prec):
        acc = Poly.zero(a[0].spec)
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def _transpose(ps: list[Poly], width: int) -> list[Poly]:
    """[p_0, p_1, ...] -> the polynomials sum_k p_k[j] T^k for j < width."""
    z = ps[0].spec.zero()
    return [
        Poly.from_coeffs(z.spec, [p.coeffs[j] if j < len(p.coeffs) else z for p in ps])
        for j in range(width)
    ]


def _from_cols(cols: list[Poly]) -> MPoly:
    """sum_j cols[j](X) Y^j."""
    return MPoly(cols[0].spec, 2, {
        (i, j): c for j, col in enumerate(cols) for i, c in enumerate(col.coeffs) if c
    })


def _hensel_lift(G: list[Poly], lc: list[Poly], fs: list[Poly], prec: int) -> list[list[Poly]]:
    """Monic F_i = f_i + O(t) with G = lc * prod F_i mod t^prec, for lc(t)
    the coefficient of the top power of Y in G, a series of constants, and
    G(0) = lc(0) prod f_i with pairwise coprime monic f_i.  One power of t a step: the error e, of
    Y-degree below deg_Y G, is sum_i (e s_i mod f_i) prod_{j != i} f_j where
    s_i is the inverse of prod_{j != i} f_j modulo f_i."""
    c0 = lc[0].lc().inverse()
    whole = functools.reduce(Poly.__mul__, fs)
    ss = [poly_invmod(whole // f, f) for f in fs]
    lifted = [[f] for f in fs]
    for k in range(1, prec):
        have = functools.reduce(lambda a, b: _series_mul(a, b, k + 1), lifted, lc)
        e = (G[k] - have[k]) * c0
        for F, f, s in zip(lifted, fs, ss):
            F.append(e * s % f)
    return lifted


def _plane_factors(F: MPoly) -> Optional[list[tuple[MPoly, int]]]:
    """The irreducible factors of a plane curve with their multiplicities,
    unscaled, or None when mv_factor has to collapse F instead.

    The content in Y is factored as a polynomial in X; it leaves P,
    primitive in Y.  A point x0 is usable when P(x0, Y) keeps the Y-degree
    and is squarefree; that fails only at the zeros of lc_Y P and of the
    discriminant in Y, at most deg lc_Y + (2 d_Y - 1) d_X of them unless
    the discriminant is zero (P not squarefree: None).  Of the first
    _FIBERS usable points the fiber with the fewest factors is kept, and
    the scan stops at one with at most two, which need at most one test;
    an irreducible fiber proves P irreducible.  While every fiber has more
    than _MAX_FIBER_FACTORS factors the scan goes on to _MAX_FIBERS usable
    points, and returns None if it finds no smaller fiber, since the
    subsets to test grow as 2^(r-1).  The monic factors of the
    fiber are lifted to power series in t = X - x0 to precision
    deg_X P + 1.  A divisor H of P times lc_Y(P) / lc_Y(H) has X-degree at
    most deg_X P, so Zassenhaus recombination, trying the subsets in order
    of size, reads H as the primitive part of lc_Y(P) * product mod t^prec,
    shifted back.  What is left is irreducible once no subset of at most
    half the remaining factors divides it.
    """
    spec = F.spec
    cols = [_to_upoly(c) for c in F.last_var_coeffs()]
    content = functools.reduce(poly_gcd, cols)
    cols = [c // content for c in cols]
    found = [(_from_upoly(p, 2), m) for p, m in factor(content)[1]]
    P, dy, dx = _from_cols(cols), len(cols) - 1, max(c.degree for c in cols)
    if dy <= 1:  # a constant, or primitive of degree one in Y
        return found + [(P, 1)] * dy
    bad, best, usable = cols[-1].degree + (2 * dy - 1) * dx, None, 0
    for x in map(spec.from_index, range(spec.order)):
        fiber = Poly.from_coeffs(spec, [c(x) for c in cols])
        if fiber.degree == dy and poly_gcd(fiber, fiber.derivative()).is_one():
            parts = _distinct_degree_parts(fiber.monic())
            r = sum(g.degree // d for g, d in parts)
            if best is None or r < best[1]:
                best = x, r, parts
            usable += 1
            enough = usable >= _FIBERS and best[1] <= _MAX_FIBER_FACTORS
            if r <= 2 or enough or usable == _MAX_FIBERS:
                break
        elif best is None:
            bad -= 1
            if bad < 0:
                return None
    if best is None or best[1] > _MAX_FIBER_FACTORS:
        return None
    x0, r, parts = best
    if r == 1:
        return found + [(P, 1)]
    fs = [f for g, d in parts for f in _equal_degree_parts(g, d)]
    prec = dx + 1
    tcols = [c.compose(Poly.from_coeffs(spec, [x0, 1])) for c in cols]
    lc = [Poly.constant(c) for c in tcols[-1].coeffs]
    lifted = _hensel_lift(_transpose(tcols, prec), lc, fs, prec)
    back = Poly.from_coeffs(spec, [-x0, 1])
    rest, size = list(range(len(fs))), 1
    while 2 * size <= len(rest):
        for subset in itertools.combinations(rest, size):
            prod = functools.reduce(lambda a, i: _series_mul(a, lifted[i], prec), subset, lc)
            hcols = _transpose(prod, max(len(p.coeffs) for p in prod))
            c = functools.reduce(poly_gcd, hcols)
            H = _from_cols([(h // c).compose(back) for h in hcols])
            quot = mpoly_divexact(P, H) if H.deg_in(0) <= P.deg_in(0) else None
            if quot is not None:
                found.append((H, 1))
                P, rest = quot, [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return found + [(P, 1)]


# --------------------------------------------------------------------------
# roots Y = h(X1..Xn) of the curve sum_j c_j(X) Y^j, for find_h_mv and find_h


@functools.lru_cache(maxsize=16)
def _jet_ring(n: int, top: int):
    """Power series in n variables cut above total degree top, stored as
    dense lists of field indices over `mons`, the monomials of degree <= top
    in order of degree.  `prods` lists the (i, j, k) with mons[i] + mons[j]
    = mons[k] in order of the degree of k; `cut[t]` and `start[t]` count the
    products and the monomials of degree below t.  For n = 1 the product
    index is i + j, and prods and cut are None."""
    mons = sorted(
        (k for k in itertools.product(range(top + 1), repeat=n) if sum(k) <= top),
        key=lambda k: (sum(k), k),
    )
    degs = [sum(k) for k in mons]
    start = tuple(bisect.bisect_left(degs, t) for t in range(top + 2))
    if n == 1:
        return tuple(mons), None, None, start
    pos = {k: i for i, k in enumerate(mons)}
    prods = sorted(
        (sum(a) + sum(b), i, j, pos[tuple(x + y for x, y in zip(a, b))])
        for i, a in enumerate(mons)
        for j, b in enumerate(mons)
        if sum(a) + sum(b) <= top
    )
    cut = [bisect.bisect_left(prods, (t,)) for t in range(top + 2)]
    return tuple(mons), tuple(pr[1:] for pr in prods), tuple(cut), start


def _jet_mul(spec: FieldSpec, ring, a: list[int], b: list[int], prec: int) -> list[int]:
    """a * b below total degree prec; no term of higher degree is formed."""
    add, mul = spec._add, spec._mul
    mons, prods, cut, _ = ring
    out = [0] * len(mons)
    if prods is None:  # one variable: convolve
        for i, ai in enumerate(a[:prec]):
            if ai:
                k = i
                for bj in b[: prec - i]:
                    if bj:
                        out[k] = add(out[k], mul(ai, bj))
                    k += 1
        return out
    for i, j, k in prods[: cut[prec]]:
        if a[i] and b[j]:
            out[k] = add(out[k], mul(a[i], b[j]))
    return out


def _newton(spec: FieldSpec, ring, cs: list[list[int]], y0: int, s0: int) -> list[int]:
    """The root y of sum_j cs[j] Y^j with y(0) = y0, to the ring's degree,
    for a simple root y0 with s0 = 1/F_Y(0, y0).  Each step doubles the
    precision of y and of s = 1/F_Y(y)."""
    add, neg, mul = spec._add, spec._neg, spec._mul

    def sub(a, b):
        return [add(u, neg(v)) for u, v in zip(a, b)]

    def horner(cs, y, prec):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = [add(u, v) for u, v in zip(_jet_mul(spec, ring, acc, y, prec), c)]
        return acc

    dcs = [[mul(spec.element(j).index, v) for v in c] for j, c in enumerate(cs)][1:]
    zeros = [0] * (len(ring[0]) - 1)
    y, s, two = [y0] + zeros, [s0] + zeros, [spec.element(2).index] + zeros
    prec, end = 1, len(ring[3]) - 1
    while prec < end:
        prec = min(2 * prec, end)
        y = sub(y, _jet_mul(spec, ring, horner(cs, y, prec), s, prec))
        if prec < end:
            ds = _jet_mul(spec, ring, horner(dcs, y, prec), s, prec)
            s = _jet_mul(spec, ring, s, sub(two, ds), prec)
    return y


def _kernel_line(spec: FieldSpec, rows: list[list[int]], ncols: int) -> Optional[list[int]]:
    """A vector spanning the kernel of the matrix when the kernel is a line,
    else None: Gaussian elimination on field indices, then back substitution
    with the one free column set to 1."""
    add, neg, mul = spec._add, spec._neg, spec._mul
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        c = spec._inv(rows[r][col])
        rows[r][col:] = top = [mul(c, v) for v in rows[r][col:]]  # zero before col
        for row in rows[r + 1:]:
            if row[col]:
                c = neg(row[col])
                row[col:] = [add(u, mul(c, v)) for u, v in zip(row[col:], top)]
        pivots.append(col)
    if ncols - len(pivots) != 1:
        return None
    out = [0] * ncols
    out[min(set(range(ncols)) - set(pivots))] = 1
    for r in reversed(range(len(pivots))):
        acc = 0
        for u, v in zip(rows[r], out):
            if u and v:
                acc = add(acc, mul(u, v))
        out[pivots[r]] = neg(acc)
    return out


def _shift(F: MPoly, s, top: int) -> MPoly:
    """The terms of total degree <= top of F(X + s)."""
    out: dict[tuple, FieldElement] = {}
    for key, c0 in F.terms.items():
        for t in itertools.product(*(range(k + 1) for k in key)):
            if sum(t) <= top:
                c = c0
                for k, ti, si in zip(key, t, s):
                    if k != ti:
                        c = c * si ** (k - ti) * math.comb(k, ti)
                out[t] = out[t] + c if t in out else c
    return MPoly(F.spec, F.n, {t: c for t, c in out.items() if c})


def _by_largest_index(q: int, n: int):
    """The index vectors of {0..q-1}^n by increasing largest entry m, lexicographic for n = 1."""
    for m in range(q):
        for i in range(n):  # the first entry equal to m
            for head in itertools.product(range(m), repeat=i):
                for tail in itertools.product(range(m + 1), repeat=n - 1 - i):
                    yield head + (m,) + tail


def _usable_point(coeffs: list[MPoly], t: int):
    """(s, F(s, Y), F_Y(s, Y)) for the first point s of F_q^n, F_q the field
    of the coefficients, with c_delta(s) != 0 and F(s, Y) squarefree, or None.
    The points that fail are zeros of c_delta times the discriminant in Y, of
    degree at most t; by Schwartz-Zippel a nonzero one has a non-zero in each
    box S^n with |S| > t and at most t q^(n-1) zeros in F_q^n, so the scan
    goes box by box and stops after t q^(n-1) failures."""
    spec, n = coeffs[0].spec, coeffs[0].n
    q, delta = spec.order, len(coeffs) - 1
    tries = min(q**n, t * q ** (n - 1) + 1)
    limits.check_enumerable(tries, "specialization grid")
    for idx in itertools.islice(_by_largest_index(q, n), tries):
        s = [spec.from_index(i) for i in idx]
        phi = Poly.from_coeffs(spec, [c(s) for c in coeffs])
        dphi = phi.derivative()
        if phi.degree == delta and poly_gcd(phi, dphi).is_one():
            return s, phi, dphi
    return None


def _lifted_roots(coeffs: list[MPoly], e: int) -> list[MRatFun]:
    """A candidate for each root of degree e of F = sum_j coeffs[j](X) Y^j,
    squarefree in Y, with coefficients in F_q.

    A root N/D has D | c_delta, so its value at a usable point s is a simple
    root of F(s, Y), which Newton iteration lifts uniquely to a power series
    y in X - s.  To total degree 2e, D is the kernel of [D y]_nu = 0 for
    e < |nu| <= 2e, a line exactly when the root has degree e, and N = D y
    to degree e.  If F_q^n holds no usable point, then q <= t (_usable_point)
    and the lifting runs at a point of F_Q^n, Q = q^r the least power above
    t; a root scaled to leading coefficient one is kept when its
    coefficients lie in F_q.
    """
    base, n, delta = coeffs[0].spec, coeffs[0].n, len(coeffs) - 1
    t = coeffs[-1].total_degree() + (2 * delta - 2) * max(c.total_degree() for c in coeffs)
    found, down = _usable_point(coeffs, t), None
    if found is None:  # so q <= t
        _, emb = extend_field(base, next(r for r in itertools.count(2) if base.order**r > t))
        down = {emb(a).index: a for a in base.elements()}
        coeffs = [map_coeffs(c, emb) for c in coeffs]
        found = _usable_point(coeffs, t)
        assert found is not None, "the discriminant in Y is not zero"
    s, phi, dphi = found
    spec = phi.spec
    ring = mons, prods, cut, start = _jet_ring(n, 2 * e)
    ncols, minus_s = start[e + 1], [-x for x in s]
    cs = [_shift(c, s, 2 * e).terms for c in coeffs]
    cs = [[c[k].index if k in c else 0 for k in mons] for c in cs]
    out = []
    for y0 in roots(phi):
        y = _newton(spec, ring, cs, y0.index, dphi(y0).inverse().index)
        if prods is None:  # one variable: a Hankel matrix
            rows = [[y[k - i] for i in range(ncols)] for k in range(e + 1, 2 * e + 1)]
        else:
            by_k: dict[int, list[int]] = {}
            for i, j, k in prods[cut[e + 1]:]:
                if i < ncols and y[j]:
                    row = by_k.setdefault(k, [0] * ncols)
                    row[i] = spec._add(row[i], y[j])
            rows = list(by_k.values())
        den = _kernel_line(spec, rows, ncols)
        if den is not None:
            num = _jet_mul(spec, ring, den + [0] * (len(mons) - ncols), y, e + 1)
            num, den = (
                _shift(MPoly(spec, n, {k: spec.from_index(c) for k, c in zip(mons, v) if c}), minus_s, e)
                for v in (num, den)
            )
            c = den.terms[den.leading_key()].inverse()
            num, den = num * c, den * c
            if down is not None:  # back to F_q, if every coefficient lies there
                terms = [{k: down.get(a.index) for k, a in F.terms.items()} for F in (num, den)]
                if any(None in ts.values() for ts in terms):
                    continue
                num, den = (MPoly(base, n, ts) for ts in terms)
            out.append(MRatFun(num, den))  # reduced if verified: degree e
    return out


def _pth_root(F: MPoly) -> Optional[MPoly]:
    """G with G^p = F when F lies in F_q[X1^p..Xn^p], else None."""
    p, q = F.spec.p, F.spec.order
    if any(x % p for k in F.terms for x in k):
        return None
    return MPoly(F.spec, F.n, {tuple(x // p for x in k): c ** (q // p) for k, c in F.terms.items()})


def _curve_roots(f: MRatFun, g: RatFun, e: int) -> list[MRatFun]:
    """Candidates, not yet verified, for every root of degree e of the curve
    A(X)Q(Y) - B(X)P(Y) of f = A/B and g = P/Q.

    For a separable g the curve is squarefree in Y, as P(Y) - tQ(Y) is
    separable over F_q(t) and so over F_q(X) through t = f.  An inseparable
    g = g1(Y^p) (P' = Q' = 0) has the roots H^(1/p) for the roots H of the
    curve of f and g1 that lie in F_q(X1^p..Xn^p).
    """
    spec = f.spec
    if g.num.derivative().is_zero() and g.den.derivative().is_zero():
        p = spec.p
        g1 = RatFun.make(
            Poly.from_coeffs(spec, g.num.coeffs[::p]), Poly.from_coeffs(spec, g.den.coeffs[::p])
        )
        roots_p = [(_pth_root(H.num), _pth_root(H.den)) for H in _curve_roots(f, g1, e * p)]
        return [MRatFun(a, b) for a, b in roots_p if a is not None and b is not None]
    zeros = [spec.zero()] * (g.degree + 1)
    P, Q = (list(u.coeffs) + zeros[len(u.coeffs):] for u in (g.num, g.den))
    coeffs = [f.num * qj - f.den * pj for pj, qj in zip(P, Q)]
    assert not coeffs[0].is_zero() and not coeffs[-1].is_zero()
    if len(coeffs) == 2:  # g of degree one: its one root is exact
        return [MRatFun.make(-coeffs[0], coeffs[1])]
    return _lifted_roots(coeffs, e)


def find_h_mv(f: MRatFun, g: RatFun) -> Optional[MRatFun]:
    """Some h(X1..Xn) with f = g(h), or None.

    f = g(h) exactly when Y = h(X), of total degree d/delta, is a root of
    the curve A(X)Q(Y) - B(X)P(Y) = sum_j c_j(X) Y^j.  Every such root (at
    most delta) is lifted from one point and confirmed by composing, so None
    is a proof.  The valid root with lexicographically smallest coefficient
    indices wins.
    """
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    require_nonconstant(f, "f")
    require_nonconstant(g, "g")
    d, delta = f.degree, g.degree
    if f.n > FIND_H_MAX_VARS:
        raise SizeLimitError(f"search supports at most {FIND_H_MAX_VARS} variables")
    if d + delta > FIND_H_MAX_DEGREE_SUM:
        raise SizeLimitError(
            f"combined degree {d + delta} exceeds the search cap {FIND_H_MAX_DEGREE_SUM}"
        )
    if d % delta != 0:
        return None
    e = d // delta
    found = [h for h in _curve_roots(f, g, e) if h.degree == e and mrat_compose(g, h) == f]
    return min(found, key=MRatFun.index_key, default=None)
