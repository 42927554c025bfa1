"""Univariate polynomials and rational functions over a finite field.

A polynomial stores its coefficients as field indices, a dense tuple with
the constant term first and no trailing zeros, and every kernel computes on
them through the field's index primitives.  FieldElements are made only at
the boundary: `coeffs`, `lc()`, values, roots and the printed form.  An int
given to arithmetic means n * 1, never an index.  Rational functions are
kept reduced with a monic denominator, which makes structural equality the
same as mathematical equality.  Evaluation is over the projective line: a
rational function takes values in F_q plus a single point at infinity.  The
composition sum and the term printer serve mvar's MPoly as well.
"""

from __future__ import annotations

import functools
import random
from typing import Union

from . import limits
from .errors import ConstantInputError, SpecMismatchError, ValidationError
from .gf_core import FieldElement, FieldSpec, power


class _Infinity:
    """The extra point of the projective line; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

PointOrInf = Union[FieldElement, _Infinity]


class Poly:
    """A polynomial over F_q held as `idx`, the indices of its coefficients,
    constant term first; `coeffs` reads them as FieldElements."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx):
        # private: callers go through from_coeffs / from_ints; trailing zeros are trimmed
        n = len(idx)
        while n and not idx[n - 1]:
            n -= 1
        self.spec = spec
        self.idx = tuple(idx[:n])

    @classmethod
    def from_coeffs(cls, spec: FieldSpec, coeffs) -> "Poly":
        return cls(spec, [spec.element(c).index for c in coeffs])

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints) -> "Poly":
        return cls(spec, [int(c) % spec.p for c in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @classmethod
    def constant(cls, value: FieldElement) -> "Poly":
        return cls(value.spec, (value.index,))

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        spec = self.spec
        return tuple([FieldElement(spec, c) for c in self.idx])

    @property
    def degree(self) -> int:
        # -1 marks the zero polynomial (its true degree is minus infinity,
        # and -1 never collides with the degree of a nonzero polynomial)
        return len(self.idx) - 1

    def is_zero(self) -> bool:
        return not self.idx

    def is_one(self) -> bool:
        return self.idx == (1,)

    def is_constant(self) -> bool:
        return len(self.idx) <= 1

    def lc(self) -> FieldElement:
        if not self.idx:
            raise ValidationError("zero polynomial has no leading coefficient")
        return FieldElement(self.spec, self.idx[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.idx == other.idx

    def __hash__(self) -> int:
        return hash((self.spec.p, self.idx))

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        return terms_str(self.spec, {(e,): c for e, c in enumerate(self.idx) if c}, "X")

    def index_key(self) -> tuple[int, ...]:
        """Deterministic sort key: coefficient indices, constant term first."""
        return self.idx

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if self.spec != other.spec:
                raise SpecMismatchError("mixing polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return Poly(self.spec, (self.spec.element(other).index,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.idx, other.idx
        if len(a) < len(b):
            a, b = b, a
        add = self.spec._add
        return Poly(self.spec, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        neg = self.spec._neg
        return Poly(self.spec, [neg(c) for c in self.idx])

    def _scale(self, c: int) -> "Poly":
        """The product with the field element of index c."""
        mul = self.spec._mul
        return Poly(self.spec, [mul(a, c) for a in self.idx])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self._scale(self.spec.element(other).index)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        a, b = self.idx, other.idx
        if not a or not b:
            return Poly.zero(spec)
        add, mul = spec._add, spec._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] = add(out[j], mul(ai, bj))
        return Poly(spec, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValidationError("negative polynomial power")
        return power(self, e, Poly.one(self.spec))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        add, mul = spec._add, spec._mul
        r, b = list(self.idx), other.idx
        inv_lc = spec._inv(b[-1])
        neg_b = [spec._neg(x) for x in b[:-1]]
        db = len(neg_b)
        q = [0] * max(0, len(r) - db)
        while len(r) > db:
            c = mul(r.pop(), inv_lc)  # the leading term cancels exactly
            shift = len(r) - db
            q[shift] = c
            for i, x in enumerate(neg_b, shift):
                r[i] = add(r[i], mul(c, x))
            while r and not r[-1]:
                r.pop()
        return Poly(spec, q), Poly(spec, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.idx[-1] == 1:
            return self
        return self._scale(self.spec._inv(self.idx[-1]))

    def derivative(self) -> "Poly":
        spec = self.spec
        mul, p = spec._mul, spec.p
        return Poly(spec, [mul(c, i % p) for i, c in enumerate(self.idx)][1:])

    def _eval(self, x: int) -> int:
        """The index of the value at the element of index x, by Horner's rule."""
        add, mul = self.spec._add, self.spec._mul
        acc = 0
        for c in reversed(self.idx):
            acc = add(mul(acc, x), c)
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        spec = self.spec
        return FieldElement(spec, self._eval(spec.element(x).index))

    def compose(self, other: "Poly") -> "Poly":
        spec = self.spec
        acc = Poly.zero(spec)
        for c in reversed(self.idx):
            acc = acc * other + Poly(spec, (c,))
        return acc


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) is the monic normalization of a."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_invmod(a: Poly, m: Poly) -> Poly:
    """a^-1 mod m by the extended Euclidean algorithm; a must be coprime to m."""
    r0, r1, s0, s1 = m, a % m, Poly.zero(m.spec), Poly.one(m.spec)
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
    if r0.degree != 0:
        raise ZeroDivisionError(f"{a} is not invertible modulo {m}")
    return s0._scale(m.spec._inv(r0.idx[0]))


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    if mod.is_constant():
        raise ValidationError("powmod modulus must be nonconstant")
    return power(base % mod, e, Poly.one(base.spec), lambda a, b: a * b % mod)


# --------------------------------------------------------------------------
# factorization: squarefree split, then distinct degree, then equal degree.


def _pth_root(f: Poly) -> Poly:
    # f = g(X^p); the coefficient p-th root is Frobenius applied k-1 times
    spec = f.spec
    e = spec.order // spec.p
    return Poly(spec, [spec._pow(c, e) for c in f.idx[::spec.p]])


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    # monic f; returns pairwise coprime squarefree polys with multiplicities
    p = f.spec.p
    res: list[tuple[Poly, int]] = []
    df = f.derivative()
    if df.is_zero():
        for g, m in _squarefree_parts(_pth_root(f)):
            res.append((g, m * p))
        return res
    c = poly_gcd(f, df)
    w = f // c
    i = 1
    while not w.is_one():
        y = poly_gcd(w, c)
        z = w // y
        if not z.is_one():
            res.append((z, i))
        w = y
        c = c // y
        i += 1
    if not c.is_one():
        for g, m in _squarefree_parts(_pth_root(c)):
            res.append((g, m * p))
    return res


def _distinct_degree_parts(f: Poly):
    # Monic f.  Yields its linear part at d = 1, then (product of the
    # irreducibles of degree d, d) of the cofactor v for d = 2, 3, ...  The
    # linear part is what the root finder has at no further cost: over a
    # field of order at most EVAL_ROOTS_MAX_ORDER, T - a for each root a
    # from _root_indices, one entry each in index_key order as
    # _equal_degree_parts sorts them; above it, the rational part
    # gcd(T^q - T, f) in one entry, whose T^q mod f is raised on for d >= 2.
    # Below the cutoff T^q mod v is computed only once deg v >= 4: a v of
    # degree <= 3 with no root is irreducible, and the 2d > deg v exit
    # yields it.  For squarefree f the parts are its irreducible factors
    # grouped by degree.  f need not be squarefree: a repeated factor g
    # lies in a part of degree at most deg g <= deg f / 2, so the first
    # part is (f, deg f) exactly when f is irreducible.
    spec = f.spec
    q = spec.order
    x = Poly.x(spec)
    if q <= EVAL_ROOTS_MAX_ORDER:
        h = None
        linear = sorted((Poly(spec, (spec._neg(a), 1)) for a in _root_indices(f)), key=Poly.index_key)
    else:
        h = _frobenius(f)
        u = _rational_part(f, h)
        linear = [u] if u.degree > 0 else []
    for g in linear:
        yield g, 1
    v = f // functools.reduce(Poly.__mul__, linear, Poly.one(spec))
    d = 1
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            yield v, v.degree
            return
        h = poly_powmod(_frobenius(v) if h is None else h, q, v)
        g = poly_gcd(h - x, v)
        if g.degree > 0:
            yield g, d
            v = v // g


def _factor_seed(f: Poly, d: int) -> str:
    spec = f.spec
    parts = [str(spec.p), str(spec.k)]
    parts.extend(str(c) for c in spec.modulus)
    parts.append("|")
    parts.extend(map(str, f.idx))
    parts.append(f"d{d}")
    return ":".join(parts)


def _random_poly(rng: random.Random, spec: FieldSpec, deg_below: int) -> Poly:
    q = spec.order
    return Poly(spec, [rng.randrange(q) for _ in range(deg_below)])


def _equal_degree_parts(f: Poly, d: int) -> list[Poly]:
    # monic squarefree f, all irreducible factors of degree d
    spec = f.spec
    if f.degree == d:
        return [f]
    rng = random.Random(_factor_seed(f, d))
    q = spec.order
    out: list[Poly] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        for _ in range(256):
            a = _random_poly(rng, spec, g.degree)
            if a.is_constant():
                continue
            if spec.p == 2:
                t = a % g
                acc = t
                for _ in range(spec.k * d - 1):
                    t = t * t % g
                    acc = acc + t
                b = acc
            else:
                b = poly_powmod(a, (q**d - 1) // 2, g) - 1
            c = poly_gcd(b, g)
            if 0 < c.degree < g.degree:
                stack.append(c.monic())
                stack.append((g // c).monic())
                break
        else:  # pragma: no cover
            raise RuntimeError("equal-degree splitting failed to converge")
    out.sort(key=lambda h: h.index_key())
    return out


def factor(a: Poly) -> tuple[FieldElement, list[tuple[Poly, int]]]:
    """Full factorization into monic irreducibles with multiplicities.

    Returns (unit, factors) with factors sorted by (degree, coefficients),
    so the result is deterministic; the random splitting inside is seeded
    from the input's coefficients.
    """
    if a.is_zero():
        raise ValidationError("cannot factor the zero polynomial")
    unit = a.lc()
    if a.is_constant():
        return unit, []
    f = a.monic()
    found: list[tuple[Poly, int]] = []
    for g, mult in _squarefree_parts(f):
        for h, d in _distinct_degree_parts(g):
            for irr in _equal_degree_parts(h, d):
                found.append((irr, mult))
    found.sort(key=lambda fm: (fm[0].degree, fm[0].index_key()))
    return unit, found


def is_irreducible(f: Poly) -> bool:
    """The first part of f's distinct-degree factorization is f itself, at
    degree deg f (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14);
    a root or a repeated factor comes first as a part of smaller degree, so
    no squarefree test is needed and the split stops at the first part."""
    if f.degree <= 0:
        return False
    m = f.monic()
    return next(_distinct_degree_parts(m)) == (m, m.degree)


def roots(f: Poly) -> list[FieldElement]:
    """Distinct roots of f in the base field, sorted by coordinate index."""
    return [FieldElement(f.spec, r) for r in _root_indices(f)]


# Over a field of order at most this, roots and root counts are read from
# the values at every element (FieldSpec._values); above it they come from
# gcd(f, T^q - T) and equal-degree splitting.  It also chooses the linear
# step of _distinct_degree_parts, and so of factor, is_irreducible and
# mvar's fibers: at or below it the roots are read from the values and no
# T^q mod f is computed for a cofactor of degree <= 3; above it the step
# is gcd(f, T^q - T), unsplit.  mvar's root search reads its fibers the
# same way.  Both routes cost about linearly in deg f, so the cutoff bounds
# q alone.  Time of the gcd route over time of evaluation for
# _root_indices, on 30 random monic f of each degree 2, 3, 6, 12 and 24,
# the least of 7 passes (Python 3.11, one Xeon core):
#   F_2^7, F_127                      2.65-8.80
#   F_2^8, F_3^5, F_251, F_257        1.47-5.14
#   F_17^2, F_7^3                     0.99-2.17
#   F_2^9                             0.77-0.94 from degree 3 on
# so evaluation wins up to q = 256 and loses at q = 512.
EVAL_ROOTS_MAX_ORDER = 256


def _root_indices(f: Poly) -> list[int]:
    """The indices of the distinct roots of f in the base field, ascending.

    Over a field of order at most EVAL_ROOTS_MAX_ORDER they are the zeros
    of f's values at every element; above it, the roots of the rational
    part, split into linear factors by equal-degree splitting, sorted."""
    if f.spec.order <= EVAL_ROOTS_MAX_ORDER and not f.is_zero():
        return [x for x, v in enumerate(f.spec._values(f.idx)) if not v]
    u = _rational_part(f)
    return sorted(f.spec._neg(g.idx[0]) for g in _equal_degree_parts(u, 1)) if u.degree else []


def num_distinct_roots(f: Poly) -> int:
    """Count of distinct roots in the base field without extracting them:
    the number of zero values over a field of order at most
    EVAL_ROOTS_MAX_ORDER, the degree of the rational part above it."""
    if f.degree == 1:
        return 1
    if f.spec.order <= EVAL_ROOTS_MAX_ORDER:
        return len(_root_indices(f))
    return _rational_part(f).degree


def _has_simple_root(u: Poly) -> bool:
    """Whether u has a simple root in the base field, a root where u' is not
    zero; bipoly's line scan looks for nonsingular points with it.  Over a
    field of order at most EVAL_ROOTS_MAX_ORDER the roots are the zeros of
    u's values at every element, and u' is evaluated at each; above it, a
    simple root is a root of the rational part gcd(u, T^q - T) that the gcd
    with u' does not keep."""
    if u.is_zero():
        return False
    du = u.derivative()
    if u.spec.order <= EVAL_ROOTS_MAX_ORDER:
        return any(du._eval(x) for x in _root_indices(u))
    rational = _rational_part(u)
    return rational.degree > poly_gcd(rational, du).degree


def _rational_part(f: Poly, xq: Poly | None = None) -> Poly:
    """gcd(f, T^q - T): the monic product of T - a over the distinct roots a
    of f in the base field, each once; xq, when given, is T^q mod f."""
    if f.is_zero():
        raise ValidationError("zero polynomial has every root")
    if f.is_constant():
        return Poly.one(f.spec)
    return poly_gcd((_frobenius(f) if xq is None else xq) - Poly.x(f.spec), f)


def _frobenius(f: Poly) -> Poly:
    """T^q mod f, for nonzero f: the one power of T to the field order.  For
    f of degree <= 1 it is T mod f, since a^q = a for every a in F_q."""
    x = Poly.x(f.spec)
    return x % f if f.degree <= 1 else poly_powmod(x, f.spec.order, f)


# --------------------------------------------------------------------------
# rational functions


class RatFun:
    """Reduced rational function: gcd(num, den) = 1, den monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # private: use make()
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFun":
        if num.spec != den.spec:
            raise SpecMismatchError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        c = den.spec._inv(den.idx[-1])
        return cls(num._scale(c), den._scale(c))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls(p, Poly.one(p.spec))

    @property
    def spec(self) -> FieldSpec:
        return self.den.spec

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFun({self})"

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"{self.num} / {self.den}"

    def eval(self, x: PointOrInf) -> PointOrInf:
        """Value on the projective line; poles map to infinity."""
        if x is INFINITY:
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INFINITY
            if dn < dd:
                return self.spec.zero()
            return self.num.lc() / self.den.lc()
        b = self.den(x)
        if b.is_zero():
            # reducedness guarantees the numerator does not vanish here
            return INFINITY
        a = self.num(x)
        if self.den.is_one():
            return a
        return a / b


def _homogenized(g: RatFun, u, v) -> tuple:
    """The numerator and denominator sum_i c_i u^i v^(delta-i) of g(u/v),
    delta = deg g, for u and v both Poly or both MPoly."""
    delta = g.degree
    upow, vpow = [u**0], [v**0]
    for _ in range(delta):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    zero = upow[0]._scale(0)
    return tuple(
        sum((upow[i] * vpow[delta - i]._scale(c) for i, c in enumerate(p.idx) if c), zero)
        for p in (g.num, g.den)
    )


def rat_compose(g: RatFun, h: RatFun) -> RatFun:
    """g(h(X)) as a reduced rational function.

    No gcd is needed: the homogenized parts are coprime, as in
    mvar.mrat_compose, so only the denominator is made monic.  Degrees
    multiply whenever both inputs are nonconstant.  Raises if the
    composition is the constant infinity (h constant at a pole of g).
    """
    if g.spec != h.spec:
        raise SpecMismatchError("composing rational functions over different fields")
    num, den = _homogenized(g, h.num, h.den)
    if den.is_zero():
        raise ValidationError("composition is identically infinite")
    c = g.spec._inv(den.idx[-1])
    out = RatFun(num._scale(c), den._scale(c))
    if not g.is_constant() and not h.is_constant():
        assert out.degree == g.degree * h.degree
    return out


def fiber(g: RatFun, v: PointOrInf) -> set[FieldElement]:
    """{x in F_q : g(x) = v}, computed by root-finding."""
    spec = g.spec
    limits.check_enumerable(spec.order, "fiber computation")
    if v is INFINITY:
        u = g.den
    else:
        u = g.num - g.den * spec.element(v)
    if u.is_zero():
        # g is the constant v
        return set(spec.elements())
    return set(roots(u))


def require_nonconstant(f: RatFun, name: str) -> None:
    if f.is_constant():
        raise ConstantInputError(f"{name} must be nonconstant")


# --------------------------------------------------------------------------
# plain-text rendering (parsing lives in the cli-facing module)


def terms_str(spec: FieldSpec, idx: dict, names) -> str:
    """The polynomial {exponent vector: coefficient index} as a sum of terms
    from the largest exponent vector down, the variables written with the
    given names; a coefficient prints as its FieldElement does (an integer,
    or a coordinate list in brackets)."""
    if not idx:
        return "0"
    parts = []
    for key in sorted(idx, reverse=True):
        c = idx[key]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, key) if e)
        if not mono:
            parts.append(str(FieldElement(spec, c)))
        else:
            parts.append(mono if c == 1 else f"{FieldElement(spec, c)}*{mono}")
    return "+".join(parts)
