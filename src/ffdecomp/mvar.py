"""Multivariate polynomials and rational functions over F_q, and f = g(h).

MPoly is the one polynomial type in several variables: f(X1..Xn) here, and
with n = 2 the plane curves of bipoly.  It stores {exponent vector: field
index}, and its arithmetic, evaluation and the lifting below compute on
those indices; `terms`, `coeff()` and the printed form read them back as
FieldElements.  Arithmetic is sparse over exponent vectors; gcds run by
primitive-part recursion on the last variable.
mv_factor is the one factorizer, for plane curves.  The factors of one
squarefree fiber F(x0, Y) are lifted to power series in X - x0 and
recombined by Zassenhaus' subset search; a curve with zero Y-derivative is
a p-th power or is factored with X and Y swapped, one with repeated factors
through its squarefree part, and one with no usable fiber over F_q at a
fiber over an extension F_{q^r}.

Univariate reduced rational functions have a value (possibly infinity) at
every point; with several variables the numerator and denominator can vanish
together, so evaluation gains a third outcome, UNDEFINED, and pair counting
skips exactly those points.  Pair counts evaluate f on indices, a line of q
points along Xn at a time; decomp.count_pairs is the case n = 1.

find_h_mv, and decomp.find_h as its case n = 1, finds h as a root Y = h(X)
of the curve A(X)Q(Y) - B(X)P(Y): each root at the first usable point of
F_q^n, or of F_{q^r}^n when F_q is too small to hold one, is lifted one
total degree at a time to a truncated power series; a linear system reads
it back as N/D, and is empty when the curve's leading coefficient c_delta
is a constant, as D divides c_delta.
The candidates are tried in MRatFun.index_key order, a check at one point
rejects most without composing, and the first whose composition gives f
wins, for one variable or several; composing is the only proof, so a None
is a proof.  An inseparable g = g1(Y^p) is reduced to g1.

The report types, the argument check of (f, g) and the graded report that
check_t41 shares with decomp.check_t31 live here too, so decomp builds on
this module and not the reverse.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import limits
from .errors import SizeLimitError, SpecMismatchError, ValidationError
from .gf_core import FieldElement, FieldEmbedding, FieldSpec, _same_spec, extend_field, power
from .upoly import (
    INFINITY,
    Poly,
    RatFun,
    _distinct_degree_parts,
    _equal_degree_parts,
    _homogenized,
    _root_indices,
    factor,
    poly_gcd,
    poly_invmod,
    require_nonconstant,
    terms_str,
)

# Caps of the constructive search for n >= 2 (one variable is not capped):
# at most FIND_H_MAX_VARS variables and d + delta at most FIND_H_MAX_DEGREE_SUM,
# the sizes the search is tested at, not bounds derived from its cost.
FIND_H_MAX_VARS = 3
FIND_H_MAX_DEGREE_SUM = 10

# Factoring is refused above total degree DEGREE_CAP.  A plane curve is
# lifted from the fiber with the fewest factors among the first _FIBERS
# usable ones, or the first _MAX_FIBERS while each of them has more than
# _MAX_FIBER_FACTORS.  Recombining r lifted factors tests up to 2^(r-1)
# subsets, and more than _MAX_SUBSETS tests are refused.  Measured on a
# 2-vCPU x86 machine (Python 3.11), a test of up to three of 24 linear
# factors at degree 24 costs about 4 ms, and lifting the 24 factors 0.1 s,
# so a refusal comes after at most about 6 s.
DEGREE_CAP = 24
_MAX_SUBSETS = 1500
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
    """A polynomial in n variables over F_q held as `idx`, {exponent vector:
    coefficient index} with no zero index; `terms` reads it as FieldElements."""

    __slots__ = ("spec", "n", "idx")

    def __init__(self, spec: FieldSpec, n: int, idx: dict[tuple, int]):
        # private: callers go through from_terms and friends
        self.spec = spec
        self.n = n
        self.idx = idx

    @classmethod
    def from_terms(cls, spec: FieldSpec, n: int, terms) -> "MPoly":
        if n < 1:
            raise ValidationError("need at least one variable")
        add = spec._add
        out: dict[tuple, int] = {}
        for key, c in dict(terms).items():
            key = tuple(int(e) for e in key)
            if len(key) != n:
                raise ValidationError(f"exponent vector {key} does not have {n} entries")
            if any(e < 0 for e in key):
                raise ValidationError("exponents must be nonnegative")
            c = add(out.pop(key, 0), spec.element(c).index)
            if c:
                out[key] = c
        return cls(spec, n, out)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "MPoly":
        return cls(spec, n, {})

    @classmethod
    def one(cls, spec: FieldSpec, n: int) -> "MPoly":
        return cls(spec, n, {(0,) * n: 1})

    @classmethod
    def constant(cls, value: FieldElement, n: int) -> "MPoly":
        return cls.from_terms(value.spec, n, {(0,) * n: value})

    @classmethod
    def variable(cls, spec: FieldSpec, n: int, i: int) -> "MPoly":
        """The variable X_{i+1} (zero-based index i)."""
        if not 0 <= i < n:
            raise ValidationError(f"variable index {i} out of range for {n} variables")
        key = tuple(1 if t == i else 0 for t in range(n))
        return cls(spec, n, {key: 1})

    @classmethod
    def monomial(cls, spec: FieldSpec, key: tuple) -> "MPoly":
        return cls(spec, len(key), {tuple(key): 1})

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, FieldElement]:
        elems = self.spec._elems
        return {k: elems[c] for k, c in self.idx.items()}

    def is_zero(self) -> bool:
        return not self.idx

    def is_constant(self) -> bool:
        return all(not any(k) for k in self.idx)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.idx), default=-1)

    def deg_in(self, i: int) -> int:
        return max((k[i] for k in self.idx), default=-1)

    def coeff(self, key: tuple) -> FieldElement:
        return self.spec._elems[self.idx.get(tuple(key), 0)]

    def leading_key(self) -> tuple:
        """Largest exponent vector in lexicographic order."""
        if not self.idx:
            raise ValidationError("zero polynomial has no leading term")
        return max(self.idx)

    def index_key(self) -> tuple:
        """Deterministic sort key over the sparse terms."""
        return tuple(sorted((*k, c) for k, c in self.idx.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            _same_spec(self.spec, other.spec)
            and self.n == other.n
            and self.idx == other.idx
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.modulus, self.n, frozenset(self.idx.items())))

    def __bool__(self) -> bool:
        return bool(self.idx)

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
        add = self.spec._add
        idx = dict(self.idx)
        for k, c in other.idx.items():
            c = add(idx.pop(k, 0), c)
            if c:
                idx[k] = c
        return MPoly(self.spec, self.n, idx)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        neg = self.spec._neg
        return MPoly(self.spec, self.n, {k: neg(c) for k, c in self.idx.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return (-self) + self._coerce(other)

    def _scale(self, c: int) -> "MPoly":
        """The product with the field element of index c."""
        if not c:
            return MPoly.zero(self.spec, self.n)
        mul = self.spec._mul
        return MPoly(self.spec, self.n, {k: mul(v, c) for k, v in self.idx.items()})

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (FieldElement, int)):
            return self._scale(self.spec.element(other).index)
        other = self._coerce(other)
        add, mul = self.spec._add, self.spec._mul
        idx: dict[tuple, int] = {}
        for k1, c1 in self.idx.items():
            for k2, c2 in other.idx.items():
                k = tuple([a + b for a, b in zip(k1, k2)])
                c = add(idx.pop(k, 0), mul(c1, c2))
                if c:
                    idx[k] = c
        return MPoly(self.spec, self.n, idx)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValidationError("negative power of a polynomial")
        return power(self, n, MPoly.one(self.spec, self.n))

    # -- evaluation and views --------------------------------------------------

    def _eval(self, xs) -> int:
        """The index of the value at the point of coordinate indices xs, with
        one table of powers per coordinate, grown as the terms need it."""
        add, mul = self.spec._add, self.spec._mul
        tables = [[1, x] for x in xs]
        acc = 0
        for k, c in self.idx.items():
            for row, e in zip(tables, k):
                if e:
                    while len(row) <= e:
                        row.append(mul(row[-1], row[1]))
                    c = mul(c, row[e])
            acc = add(acc, c)
        return acc

    def __call__(self, xs) -> FieldElement:
        spec = self.spec
        xs = [spec.element(x).index for x in xs]
        if len(xs) != self.n:
            raise ValidationError(f"need {self.n} coordinates, got {len(xs)}")
        return spec._elems[self._eval(xs)]

    def last_var_coeffs(self) -> list["MPoly"]:
        """Coefficients c_j(X1..X_{n-1}) with self = sum_j c_j * Xn^j."""
        if self.n < 2:
            raise ValidationError("need at least two variables to split off the last")
        if not self.idx:
            return []
        rows: list[dict] = [dict() for _ in range(self.deg_in(self.n - 1) + 1)]
        for k, c in self.idx.items():
            rows[k[-1]][k[:-1]] = c
        return [MPoly(self.spec, self.n - 1, row) for row in rows]

    def lift_last(self) -> "MPoly":
        """The same polynomial viewed in one more variable (absent from it)."""
        return MPoly(self.spec, self.n + 1, {k + (0,): c for k, c in self.idx.items()})

    def __str__(self) -> str:
        return terms_str(self.spec, self.idx, [f"X{i + 1}" for i in range(self.n)])

    def __repr__(self) -> str:
        return f"MPoly({self.spec.descriptor}, {self})"


def map_coeffs(F: MPoly, emb: FieldEmbedding) -> MPoly:
    """Apply a field embedding to every coefficient."""
    if not _same_spec(F.spec, emb.source):
        raise SpecMismatchError("embedding source does not match the polynomial")
    return MPoly(emb.target, F.n, {k: emb.map_index(c) for k, c in F.idx.items()})


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
    mul, inv_lc = F.spec._mul, F.spec._inv(G.idx[gk])
    quot: dict[tuple, int] = {}
    rem = F
    while not rem.is_zero():
        rk = rem.leading_key()
        if any(r < g for r, g in zip(rk, gk)):
            return None
        k = tuple(r - g for r, g in zip(rk, gk))
        c = mul(rem.idx[rk], inv_lc)
        quot[k] = c
        rem = rem - G * MPoly(F.spec, F.n, {k: c})
    return MPoly(F.spec, F.n, quot)


def _canon_monic(G: MPoly) -> MPoly:
    """Scale so the lexicographically leading coefficient is one."""
    if G.is_zero():
        return G
    c = G.idx[G.leading_key()]
    return G if c == 1 else G._scale(G.spec._inv(c))


def _canon_first(G: MPoly) -> MPoly:
    """Scale so the lexicographically first nonzero coefficient is one."""
    return G._scale(G.spec._inv(G.idx[min(G.idx)]))


def _to_upoly(f: MPoly) -> Poly:
    assert f.n == 1
    return Poly(f.spec, [f.idx.get((e,), 0) for e in range(f.deg_in(0) + 1)])


def _from_upoly(p: Poly, n: int = 1) -> MPoly:
    pad = (0,) * (n - 1)
    return MPoly(p.spec, n, {(e,) + pad: c for e, c in enumerate(p.idx) if c})


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
    return MPoly(f.spec, f.n, {k[:-1] + (0,): c for k, c in f.idx.items() if k[-1] == d})


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
        c = den.spec._inv(den.idx[den.leading_key()])
        return cls(num._scale(c), den._scale(c))

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
        """The canonical key of an h: the indices of N, then D, at each monomial
        of degree <= deg h in _jet_ring's order, zeros included (constant first)."""
        mons = _jet_ring(self.n, self.degree)[0]
        return tuple(P.idx.get(k, 0) for P in (self.num, self.den) for k in mons)

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


def _lines(P: MPoly):
    """P's values at the points of F_q^n in grid order, one line of q values
    along Xn at a time, by the field's line evaluator (FieldSpec._values) on
    the coefficients of the powers of Xn, themselves evaluated recursively;
    no q^n list is built."""
    if P.n == 1:
        yield P.spec._values(_to_upoly(P).idx or (0,))
        return
    rows = P.last_var_coeffs() or [MPoly.zero(P.spec, P.n - 1)]
    for cols in zip(*map(_lines, rows)):
        for cs in zip(*cols):
            yield P.spec._values(cs)


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


def _fibers(g: RatFun) -> tuple[list[int], list[int], int]:
    """g's value codes at the points of F_q in index order, its fiber sizes
    indexed by value code, and the code of g(infinity).  The sizes take
    q + 2 slots: slot _INF counts g's poles in F_q and slot _UNDEF stays 0."""
    q = g.spec.order
    limits.check_enumerable(q, "fiber scan")
    line = next(_value_lines(g))
    sizes = [0] * (q + 2)
    for v in line:
        sizes[v] += 1
    v = g.eval(INFINITY)
    return line, sizes, _INF if v is INFINITY else v.index


def _pair_count(f, g: RatFun) -> int:
    """The sum over the points x of F_q^n of |{y in F_q : g(y) = f(x)}|."""
    sizes = _fibers(g)[1].__getitem__
    # _UNDEF codes no value of g, so undefined points add nothing
    return sum(sum(map(sizes, line)) for line in _value_lines(f))


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
# hypothesis checking: the reports and argument checks of decomp's criteria
# and of check_t41


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


def _require_pair(f, g: RatFun) -> FieldSpec:
    """The field of f, a RatFun or an MRatFun, and g, after checking that
    they share it and that both are nonconstant, in that order."""
    if not _same_spec(f.spec, g.spec):
        raise SpecMismatchError("f and g must live over the same field")
    require_nonconstant(f, "f")
    require_nonconstant(g, "g")
    return f.spec


def _check_epsilon(eps) -> Fraction:
    eps = Fraction(eps)
    # a report prints eps^-6, so each part of eps keeps to a seventh of the L
    # digits int() prints: L/7 digits are about 10L/21 bits (no limit: L = 0)
    bits = getattr(sys, "get_int_max_str_digits", int)() * 10 // 21
    if 0 < bits < max(abs(eps.numerator), eps.denominator).bit_length():
        raise SizeLimitError("epsilon has too many digits to print its report")
    if not 0 < eps <= 1:
        raise ValidationError(f"epsilon {eps} must satisfy 0 < eps <= 1")
    return eps


def _graded_report(
    f, g: RatFun, pairs: int, n: int, eps: Fraction, threshold: ThresholdCheck
) -> DecompReport:
    """The report of a graded criterion: the pair count with its bound
    q^n (floor(delta/2) + eps), and the criterion's threshold check."""
    q, delta = f.spec.order, g.degree
    return DecompReport(
        q=q,
        d=f.degree,
        delta=delta,
        condition_iii=threshold,
        pair_count=pairs,
        pair_threshold=Fraction(q**n) * (delta // 2 + eps),
    )


def t41_threshold(q: int, d: int, delta: int, eps: Fraction) -> ThresholdCheck:
    """q >= 7.8 (d+delta)^{13/3} / eps^2, decided exactly: the threshold is
    the rational lower bound (39/5)^3 (d+delta)^13 / eps^6 for q^3 (the cube
    kills the fractional exponent), and the check compares q^3 against it."""
    threshold = Fraction(39, 5) ** 3 * (d + delta) ** 13 / eps**6
    return ThresholdCheck(q, threshold, q**3 >= threshold)


def t41_threshold_ok(q: int, d: int, delta: int, eps) -> bool:
    """The verdict of t41_threshold, after checking eps."""
    return t41_threshold(q, d, delta, _check_epsilon(eps)).passed


def check_t41(f: MRatFun, g: RatFun, eps) -> DecompReport:
    """The multivariate graded criterion.

    Pair condition: count_pairs_mv(f, g) >= q^n (floor(delta/2) + eps);
    threshold: t41_threshold, on q^3.
    """
    q = _require_pair(f, g).order
    eps = _check_epsilon(eps)
    threshold = t41_threshold(q, f.degree, g.degree, eps)
    limits.check_enumerable(q, "pair grid", f.n)
    return _graded_report(f, g, _pair_count(f, g), f.n, eps, threshold)


# --------------------------------------------------------------------------
# verification and constructive search


def mrat_compose(g: RatFun, h: MRatFun) -> Optional[MRatFun]:
    """g(h(X1..Xn)) as a reduced multivariate rational function, or None
    when h is the constant at a pole of g (the composition has no value).
    No gcd is needed: a prime dividing both forms would divide both parts of
    the reduced h or make h a common root of P and Q modulo it."""
    if not _same_spec(g.spec, h.spec):
        raise SpecMismatchError("g and h must live over the same field")
    num, den = _homogenized(g, h.num, h.den)
    if den.is_zero():
        return None
    c = h.spec._inv(den.idx[den.leading_key()])
    return MRatFun(num._scale(c), den._scale(c))


def verify_h_mv(f: MRatFun, g: RatFun, h: MRatFun) -> bool:
    """Does f equal g(h) symbolically, after full reduction?"""
    if f.n != h.n:
        raise SpecMismatchError("f and h must use the same variables")
    composed = mrat_compose(g, h)
    return composed is not None and composed == f


def mv_factor(F: MPoly) -> tuple[FieldElement, list[tuple[MPoly, int]]]:
    """Factor a plane curve (n = 2) into irreducibles over F_q.

    Returns (unit, [(factor, multiplicity), ...]); factors are scaled so
    their lexicographically first coefficient is one and sorted by total
    degree then coefficient indices, so the result does not depend on the
    algorithm.  _plane_factors lifts the factors of one fiber F(x0, Y).
    """
    if F.n != 2:
        raise ValidationError(f"mv_factor factors plane curves, not {F.n} variables")
    if F.is_zero():
        raise ValidationError("cannot factor the zero polynomial")
    if F.is_constant():
        return F.coeff((0,) * F.n), []
    if F.total_degree() > DEGREE_CAP:
        raise SizeLimitError(
            f"factoring degree {F.total_degree()} exceeds the cap {DEGREE_CAP}"
        )
    found = [(_canon_first(g), m) for g, m in _plane_factors(F)]
    found.sort(key=lambda fm: (fm[0].total_degree(), fm[0].index_key()))
    # the lexicographically first term of a product is the product of the
    # first terms, and each factor's first coefficient is one
    return F.coeff(min(F.idx)), found


# --------------------------------------------------------------------------
# usable points: where a polynomial sum_j c_j(X) Y^j in F_q[X1..Xn][Y] keeps
# its Y-degree and a squarefree fiber, so the fiber's roots or factors lift


def _by_largest_index(q: int, n: int):
    """The index vectors of {0..q-1}^n by increasing largest entry m, lexicographic for n = 1."""
    for m in range(q):
        for i in range(n):  # the first entry equal to m
            for head in itertools.product(range(m), repeat=i):
                for tail in itertools.product(range(m + 1), repeat=n - 1 - i):
                    yield head + (m,) + tail


def _bad_degree(coeffs: list[MPoly]) -> int:
    """Bounds the degree of c_delta times the discriminant in Y, a form of
    degree 2 delta - 2 in the c_j."""
    return coeffs[-1].total_degree() + (2 * len(coeffs) - 4) * max(c.total_degree() for c in coeffs)


def _usable_points(coeffs: list[MPoly]):
    """(s, F(s, Y), F_Y(s, Y)) for each point s of F_q^n, given by its
    coordinate indices, F_q the field of the coefficients, with
    c_delta(s) != 0 and F(s, Y) squarefree, box by box
    (_by_largest_index).  The points that fail are zeros of a polynomial
    of degree at most t = _bad_degree; by Schwartz-Zippel a nonzero one has
    a non-zero in each box S^n with |S| > t and at most t q^(n-1) zeros in
    F_q^n, so the scan stops after t q^(n-1) failures."""
    spec, n = coeffs[0].spec, coeffs[0].n
    q, delta, t = spec.order, len(coeffs) - 1, _bad_degree(coeffs)
    bad = t * q ** (n - 1)
    limits.check_enumerable(min(q**n, bad + 1), "specialization grid")
    for s in _by_largest_index(q, n):
        phi = Poly(spec, [c._eval(s) for c in coeffs])
        dphi = phi.derivative()
        if phi.degree == delta and poly_gcd(phi, dphi).is_one():
            yield s, phi, dphi
        else:
            bad -= 1
            if bad < 0:
                return


def _over_extension(coeffs: list[MPoly]):
    """Coefficients over F_Q, Q = q^r the least power of q above _bad_degree,
    so F_Q^n holds a usable point unless the discriminant in Y is zero; their
    _usable_points; and `down`, which maps a polynomial over F_Q to F_q when
    every coefficient lies there, else to None."""
    base, t = coeffs[0].spec, _bad_degree(coeffs)
    _, emb = extend_field(base, next(r for r in itertools.count(2) if base.order**r > t))
    back = {emb.map_index(a): a for a in range(base.order)}

    def down(F: MPoly) -> Optional[MPoly]:
        idx = {k: back.get(c) for k, c in F.idx.items()}
        return None if None in idx.values() else MPoly(base, F.n, idx)

    coeffs = [map_coeffs(c, emb) for c in coeffs]
    return coeffs, _usable_points(coeffs), down


def _pth_root(F: MPoly) -> Optional[MPoly]:
    """G with G^p = F when F lies in F_q[X1^p..Xn^p], else None."""
    spec = F.spec
    p, e = spec.p, spec.order // spec.p
    if any(x % p for k in F.idx for x in k):
        return None
    return MPoly(spec, F.n, {tuple(x // p for x in k): spec._pow(c, e) for k, c in F.idx.items()})


def swap(F: MPoly) -> MPoly:
    """A plane curve with X and Y exchanged."""
    return MPoly(F.spec, 2, {(j, i): c for (i, j), c in F.idx.items()})


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
    spec = ps[0].spec
    return [Poly(spec, [p.idx[j] if j < len(p.idx) else 0 for p in ps]) for j in range(width)]


def _from_cols(cols: list[Poly]) -> MPoly:
    """sum_j cols[j](X) Y^j."""
    return MPoly(cols[0].spec, 2, {
        (i, j): c for j, col in enumerate(cols) for i, c in enumerate(col.idx) if c
    })


def _hensel_lift(G: list[Poly], lc: list[Poly], fs: list[Poly], prec: int) -> list[list[Poly]]:
    """Monic F_i = f_i + O(t) with G = lc * prod F_i mod t^prec, for lc(t)
    the coefficient of the top power of Y in G, a series of constants, and
    G(0) = lc(0) prod f_i with pairwise coprime monic f_i.  One power of t a step: the error e, of
    Y-degree below deg_Y G, is sum_i (e s_i mod f_i) prod_{j != i} f_j where
    s_i is the inverse of prod_{j != i} f_j modulo f_i.

    The partial products P_j = lc F_1 ... F_j are kept below the power of
    the step, so step k costs O(r k) products, not a whole product: the
    coefficient of t^k in P_r, with every F_i[k] still zero, gives e; then
    P_j[k] = P_{j-1}[k] f_j + sum_{0<m<k} P_{j-1}[m] F_j[k-m] + P_{j-1}[0] F_j[k]."""
    spec = fs[0].spec
    zero, c0 = Poly.zero(spec), spec._inv(lc[0].idx[-1])
    whole = functools.reduce(Poly.__mul__, fs)
    ss = [poly_invmod(whole // f, f) for f in fs]
    lifted, parts = [[f] for f in fs], [[lc[0]]]
    for f in fs:
        parts.append([parts[-1][0] * f])
    for k in range(1, prec):
        parts[0].append(lc[k] if k < len(lc) else zero)
        mids = [sum((P[m] * F[k - m] for m in range(1, k)), zero) for F, P in zip(lifted, parts)]
        have = functools.reduce(lambda a, fm: a * fm[0] + fm[1], zip(fs, mids), parts[0][k])
        e = (G[k] - have)._scale(c0)
        for F, f, s, mid, P, Q in zip(lifted, fs, ss, mids, parts, parts[1:]):
            F.append(e * s % f)
            Q.append(P[k] * f + mid + P[0] * F[k])
    return lifted


def _plane_factors(F: MPoly) -> list[tuple[MPoly, int]]:
    """The irreducible factors of a plane curve with their multiplicities,
    unscaled.

    The content in Y is factored in X, leaving P primitive in Y.  If P_Y = 0,
    P is a p-th power (P_X = 0 too) or is factored with X and Y swapped.
    Else, when F_q holds no usable point (_usable_points) and gcd(P, P_Y) is
    not constant, the squarefree P / gcd(P, P_Y) is factored, multiplicities
    are read by exact division, and the quotient left has zero Y-derivative.
    Otherwise P is lifted at a fiber and recombined (_recombine), over an
    extension (_over_extension) when F_q holds no usable point.
    """
    p = F.spec.p
    cols = [_to_upoly(c) for c in F.last_var_coeffs()]
    content = functools.reduce(poly_gcd, cols)
    cols = [c // content for c in cols]
    found = [(_from_upoly(g, 2), m) for g, m in factor(content)[1]]
    P, dy = _from_cols(cols), len(cols) - 1
    if dy <= 1:  # a constant, or primitive of degree one in Y
        return found + [(P, 1)] * dy
    if all(c.is_zero() for j, c in enumerate(cols) if j % p):  # P_Y = 0
        root = _pth_root(P)
        if root is not None:
            return found + [(H, m * p) for H, m in _plane_factors(root)]
        return found + [(swap(H), m) for H, m in _plane_factors(swap(P))]
    coeffs, down = [_from_upoly(c) for c in cols], None
    points = _usable_points(coeffs)
    first = next(points, None)
    if first is None:
        G = mpoly_gcd(P, _from_cols([c._scale(j % p) for j, c in enumerate(cols)][1:]))
        if not G.is_constant():
            for H, _ in _plane_factors(mpoly_divexact(P, G)):
                m, quot = 0, mpoly_divexact(P, H)
                while quot is not None:
                    P, m, quot = quot, m + 1, mpoly_divexact(quot, H)
                found.append((H, m))
            return found + _plane_factors(P)
        coeffs, points, down = _over_extension(coeffs)
        cols, first = [_to_upoly(c) for c in coeffs], next(points)
    return found + _recombine(P, cols, itertools.chain([first], points), down)


def _recombine(P: MPoly, cols: list[Poly], points, down) -> list[tuple[MPoly, int]]:
    """The irreducible factors of P, primitive and squarefree in Y of degree
    at least two, from the usable points of cols, its coefficients in Y,
    over F_q, or over F_Q when `down` (_over_extension) is given.

    A fiber's factors are counted, not split: each distinct-degree part
    (g, d) holds deg g / d of them, and over a field of order at most
    upoly.EVAL_ROOTS_MAX_ORDER each root is a part of its own, found with
    no T^q mod f, so a fiber of degree <= 3 is counted by its roots alone.
    Of the first _FIBERS usable fibers the one with the fewest factors is
    kept, and the scan stops at one with at most two; an irreducible fiber
    proves P irreducible.  While every fiber has more than
    _MAX_FIBER_FACTORS factors the scan goes on to _MAX_FIBERS fibers.  The
    fiber's monic factors are lifted to power series in t = X - x0 to
    precision deg_X P + 1, which bounds the X-degree of a divisor H of P
    times lc_Y(P) / lc_Y(H).  So Zassenhaus recombination reads H as the
    primitive part of lc_Y(P) * product mod t^prec, shifted back, trying
    subsets by size; over F_Q, H scaled to first coefficient one must lie
    over F_q, so the first subset accepted is F_q-irreducible.  What is left
    is irreducible once no subset of at most half the factors divides it.
    """
    best, usable = None, 0
    for s, fiber, _ in points:
        parts = list(_distinct_degree_parts(fiber.monic()))
        r = sum(g.degree // d for g, d in parts)
        if best is None or r < best[1]:
            best = s[0], r, parts
        usable += 1
        enough = usable >= _FIBERS and best[1] <= _MAX_FIBER_FACTORS
        if r <= 2 or enough or usable == _MAX_FIBERS:
            break
    x0, r, parts = best
    if r == 1:
        return [(P, 1)]
    spec, prec = cols[0].spec, max(c.degree for c in cols) + 1
    fs = [f for g, d in parts for f in _equal_degree_parts(g, d)]
    tcols = [c.compose(Poly(spec, (x0, 1))) for c in cols]
    lc = [Poly(spec, (c,)) for c in tcols[-1].idx]
    lifted = _hensel_lift(_transpose(tcols, prec), lc, fs, prec)
    back = Poly(spec, (spec._neg(x0), 1))
    found, rest, size, tests = [], list(range(len(fs))), 1, 0
    while 2 * size <= len(rest):
        for subset in itertools.combinations(rest, size):
            tests += 1
            if tests > _MAX_SUBSETS:
                raise SizeLimitError(
                    f"factor recombination needs more than {_MAX_SUBSETS} subset tests"
                )
            prod = functools.reduce(lambda a, i: _series_mul(a, lifted[i], prec), subset, lc)
            hcols = _transpose(prod, max(len(p.idx) for p in prod))
            c = functools.reduce(poly_gcd, hcols)
            H = _from_cols([(h // c).compose(back) for h in hcols])
            if down is not None:
                H = down(_canon_first(H))
            if H is not None and H.deg_in(0) <= P.deg_in(0):
                quot = mpoly_divexact(P, H)
                if quot is not None:
                    found.append((H, 1))
                    P, rest = quot, [i for i in rest if i not in subset]
                    break
        else:
            size += 1
    return found + [(P, 1)]


# --------------------------------------------------------------------------
# roots Y = h(X1..Xn) of the curve sum_j c_j(X) Y^j, for find_h_mv


@functools.lru_cache(maxsize=16)
def _jet_ring(n: int, top: int):
    """Power series in n variables cut above total degree top, stored as
    dense lists of field indices over `mons`, the monomials of degree <= top
    in order of degree; _lifted_roots takes top = e + min(e, deg c_delta),
    MRatFun.index_key top = deg h.  `prods` lists the (i, j, k) with
    mons[i] + mons[j] = mons[k] in order of the degree of k; `cut[t]` and
    `start[t]` count the products and the monomials of degree below t.  For
    n = 1 prods and cut are None, and _degree_prods builds the pairs of each
    degree."""
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


def _degree_prods(ring, t: int):
    """The (i, j, k) with mons[i] + mons[j] = mons[k] of total degree t; for
    one variable the t + 1 pairs are built here, so no table is kept."""
    prods, cut = ring[1], ring[2]
    if prods is None:
        return [(i, t - i, t) for i in range(t + 1)]
    return prods[cut[t]:cut[t + 1]]


def _jet_mul(spec: FieldSpec, ring, a: list[int], b: list[int], prec: int) -> list[int]:
    """a * b below total degree prec; no term of higher degree is formed."""
    add, mul = spec._add, spec._mul
    out = [0] * len(ring[0])
    for t in range(prec):
        for i, j, k in _degree_prods(ring, t):
            if a[i] and b[j]:
                out[k] = add(out[k], mul(a[i], b[j]))
    return out


def _lift_root(spec: FieldSpec, ring, cs: list[list[int]], y0: int, s0: int) -> list[int]:
    """The root y of F = sum_j cs[j] Y^j with y(0) = y0, to the ring's degree,
    for a simple root y0 with s0 = 1/F_Y(0, y0), one total degree t at a
    time: y_t = -s0 [F(y_{<t})]_t.  The powers y^j are kept to degree t as
    well; [y_{<t}^j]_t is formed from y_{<t}, and j y0^(j-1) y_t is added
    once y_t is known, so degree t costs only the products landing in it."""
    add, neg, mul = spec._add, spec._neg, spec._mul
    start = ring[3]
    y = [y0] + [0] * (len(ring[0]) - 1)
    pows, slopes, yj = [y], [], y0  # y^1..y^delta; slopes[j - 2] = j y0^(j-1)
    for j in range(2, len(cs)):
        slopes.append(mul(j % spec.p, yj))
        yj = mul(yj, y0)
        pows.append([yj] + [0] * (len(y) - 1))
    ns0, top = neg(s0), len(start) - 2
    for t in range(1, top + 1):
        part, lo = _degree_prods(ring, t), start[t]
        for prev, cur in zip(pows, pows[1:]):  # y^j = y * y^(j-1), y_t still 0
            for i, j, k in part:
                if y[i] and prev[j]:
                    cur[k] = add(cur[k], mul(y[i], prev[j]))
        acc = cs[0][lo:start[t + 1]]
        for c, pw in zip(cs[1:], pows):
            for i, j, k in part:
                if c[i] and pw[j]:
                    acc[k - lo] = add(acc[k - lo], mul(c[i], pw[j]))
        y[lo:start[t + 1]] = [mul(ns0, v) if v else 0 for v in acc]
        if t < top:
            for d, pw in zip(slopes, pows[1:]):
                if d:
                    for k in range(lo, start[t + 1]):
                        if y[k]:
                            pw[k] = add(pw[k], mul(d, y[k]))
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
    """The terms of total degree <= top of F(X + s), s given by its
    coordinate indices."""
    spec = F.spec
    add, mul, p = spec._add, spec._mul, spec.p
    tables = [[spec._pow(x, e) for e in range(F.deg_in(i) + 1)] for i, x in enumerate(s)]
    out: dict[tuple, int] = {}
    for key, c0 in F.idx.items():
        for t in itertools.product(*(range(k + 1) for k in key)):
            if sum(t) <= top:
                c = c0
                for k, ti, row in zip(key, t, tables):
                    if k != ti:
                        c = mul(mul(c, row[k - ti]), math.comb(k, ti) % p)
                out[t] = add(out.get(t, 0), c)
    return MPoly(spec, F.n, {t: c for t, c in out.items() if c})


def _lifted_roots(coeffs: list[MPoly], e: int) -> list[MRatFun]:
    """A candidate for each root of degree e of F = sum_j coeffs[j](X) Y^j,
    squarefree in Y, with coefficients in F_q.

    A root N/D has D | c_delta, so deg D <= m = min(e, deg c_delta), and
    its value at a usable point s is a simple root of F(s, Y), which lifts
    uniquely to a power series y in X - s, one total degree at a time
    (_lift_root).  To total degree e + m, D is the kernel of [D y]_nu = 0
    for e < |nu| <= e + m over the polynomials of degree <= m, and N = D y
    to degree e; both read the products of each degree from _degree_prods.
    A D' in that kernel, with N' = D' y to degree e, has D' N = D N' (both
    sides have degree <= e + m), so D | D': the kernel is the D u with
    deg u <= min(m - deg D, e - deg N), a line when the root has degree e.
    When c_delta is a constant, as for polynomial f and g, m = 0: the
    system is empty, D = 1 and N is y cut at degree e.  At the origin, the
    usual point, the shifts to s and back are truncations and are not
    computed.  If F_q^n holds no usable point, the lifting runs at a point
    of an extension F_Q^n (_over_extension); a root scaled to leading
    coefficient one is kept when its coefficients lie in F_q.
    """
    n, down = coeffs[0].n, None
    found = next(_usable_points(coeffs), None)
    if found is None:
        coeffs, points, down = _over_extension(coeffs)
        found = next(points, None)
        assert found is not None, "the discriminant in Y is not zero"
    s, phi, dphi = found
    spec = phi.spec
    m = min(e, coeffs[-1].total_degree())  # deg D <= m, as D | c_delta
    top = e + m
    ring = mons, _, _, start = _jet_ring(n, top)
    ncols = start[m + 1]
    if any(s):
        coeffs = [_shift(c, s, top) for c in coeffs]
    # the monomials stop at degree e + m, so reading them truncates
    cs = [[c.idx.get(k, 0) for k in mons] for c in coeffs]
    out = []
    for y0 in _root_indices(phi):
        y = _lift_root(spec, ring, cs, y0, spec._inv(dphi._eval(y0)))
        by_k: dict[int, list[int]] = {}  # [D y]_k for e < |k| <= e + m, a row each
        for t in range(e + 1, top + 1):
            for i, j, k in _degree_prods(ring, t):
                if i < ncols and y[j]:
                    row = by_k.setdefault(k, [0] * ncols)
                    row[i] = spec._add(row[i], y[j])
        den = _kernel_line(spec, list(by_k.values()), ncols)
        if den is not None:
            num = _jet_mul(spec, ring, den + [0] * (len(mons) - ncols), y, e + 1)
            num, den = (MPoly(spec, n, {k: c for k, c in zip(mons, v) if c}) for v in (num, den))
            if any(s):  # both have total degree <= e: shift them back whole
                minus_s = [spec._neg(x) for x in s]
                num, den = _shift(num, minus_s, e), _shift(den, minus_s, e)
            c = spec._inv(den.idx[den.leading_key()])
            num, den = num._scale(c), den._scale(c)
            if down is not None:  # back to F_q, if every coefficient lies there
                num, den = down(num), down(den)
                if num is None or den is None:
                    continue
            out.append(MRatFun(num, den))  # reduced if verified: degree e
    return out


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
            Poly(spec, g.num.idx[::p]), Poly(spec, g.den.idx[::p])
        )
        roots_p = [(_pth_root(H.num), _pth_root(H.den)) for H in _curve_roots(f, g1, e * p)]
        return [MRatFun(a, b) for a, b in roots_p if a is not None and b is not None]
    zeros = (0,) * (g.degree + 1)
    P, Q = (u.idx + zeros[len(u.idx):] for u in (g.num, g.den))
    coeffs = [f.num._scale(qj) - f.den._scale(pj) for pj, qj in zip(P, Q)]
    assert not coeffs[0].is_zero() and not coeffs[-1].is_zero()
    if len(coeffs) == 2:  # g of degree one: its one root is exact
        return [MRatFun.make(-coeffs[0], coeffs[1])]
    return _lifted_roots(coeffs, e)


def find_h_mv(f: MRatFun, g: RatFun) -> Optional[MRatFun]:
    """Some h(X1..Xn) with f = g(h), or None; decomp.find_h is the case n = 1.

    f = g(h) exactly when Y = h(X), of total degree d/delta, is a root of
    the curve A(X)Q(Y) - B(X)P(Y) = sum_j c_j(X) Y^j.  Every such root (at
    most delta) is lifted from one point to total degree e + min(e, deg
    c_delta), as its denominator divides c_delta, so a polynomial f with a
    polynomial g needs no linear solve; the candidates are tried in
    MRatFun.index_key order.  One that has the wrong degree, or for which
    A Q^(N, D) and B P^(N, D) differ at the point (1..1), cannot compose to
    f and is passed over; the first whose composition gives f is the answer,
    the valid root with the least key.  Only composing proves, so None is a
    proof.  The caps FIND_H_MAX_VARS and FIND_H_MAX_DEGREE_SUM hold for n >= 2.
    """
    _require_pair(f, g)
    d, delta = f.degree, g.degree
    if f.n > FIND_H_MAX_VARS:
        raise SizeLimitError(f"search supports at most {FIND_H_MAX_VARS} variables")
    if f.n > 1 and d + delta > FIND_H_MAX_DEGREE_SUM:
        raise SizeLimitError(
            f"combined degree {d + delta} exceeds the search cap {FIND_H_MAX_DEGREE_SUM}"
        )
    if d % delta != 0:
        return None
    e = d // delta
    # f = g(h) makes A Q^(N, D) = B P^(N, D) an identity, P^ and Q^ the parts
    # of g homogenized as in upoly._homogenized, so a mismatch at one point
    # rejects h without composing; a match proves nothing
    add, mul = f.spec._add, f.spec._mul
    one = [1] * f.n
    a, b = f.num._eval(one), f.den._eval(one)
    for h in sorted((h for h in _curve_roots(f, g, e) if h.degree == e), key=MRatFun.index_key):
        u, v = h.num._eval(one), h.den._eval(one)
        pv = qv = 0
        ui = 1  # sum_i c_i u^i v^(delta-i) by Horner in v
        for pi, qi in itertools.zip_longest(g.num.idx, g.den.idx, fillvalue=0):
            pv, qv = add(mul(pv, v), mul(pi, ui)), add(mul(qv, v), mul(qi, ui))
            ui = mul(ui, u)
        if mul(a, qv) == mul(b, pv) and mrat_compose(g, h) == f:
            return h
    return None
