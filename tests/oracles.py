"""Brute-force reference computations shared by the test modules.

Everything here trades speed for obviousness: double loops, exhaustive
candidate enumeration, no clever algebra.  Results are cached where the
enumeration is expensive but deterministic.
"""

import itertools
from collections import Counter

from ffdecomp.errors import SizeLimitError
from ffdecomp.mvar import (
    UNDEFINED,
    MPoly,
    MRatFun,
    mpoly_divexact,
    mpoly_gcd,
    mrat_compose,
    mv_factor,
)
from ffdecomp.upoly import INFINITY, Poly, RatFun, factor, poly_gcd, rat_compose, roots

_CANDIDATE_CACHE: dict = {}

# collapse_factor refuses a univariate image whose factorization has more
# sub-multisets than this
_MAX_SUBMULTISETS = 1 << 20


def _curve_coeffs(f, g):
    """c_j = A q_j - B p_j, the coefficient of Y^j in A(X)Q(Y) - B(X)P(Y)."""
    zero = g.spec.zero()
    pad = [list(u.coeffs) + [zero] * (g.degree + 1 - len(u.coeffs)) for u in (g.num, g.den)]
    return [f.num * qj - f.den * pj for pj, qj in zip(*pad)]


def all_ratfuns(spec, degree):
    """Every reduced rational function of exactly the given degree."""
    key = (spec.p, spec.modulus, degree)
    if key in _CANDIDATE_CACHE:
        return _CANDIDATE_CACHE[key]
    seen = {}
    q = spec.order
    # every reduced form has a monic denominator, so only those are tried
    dens = [
        Poly.from_coeffs(spec, [spec.from_index(i) for i in dc] + [spec.one()])
        for n in range(degree + 1)
        for dc in itertools.product(range(q), repeat=n)
    ]
    for nc in itertools.product(range(q), repeat=degree + 1):
        num = Poly.from_coeffs(spec, [spec.from_index(i) for i in nc])
        for den in dens:
            h = RatFun.make(num, den)
            if h.degree == degree:
                seen.setdefault(h.index_key(), h)
    out = [seen[k] for k in sorted(seen)]
    _CANDIDATE_CACHE[key] = out
    return out


def brute_find_all(f, g):
    """All h with f = g(h), by checking every candidate of the forced degree.

    Candidates are prefiltered by comparing value vectors pointwise before
    paying for a symbolic composition.
    """
    spec = f.spec
    d, delta = f.degree, g.degree
    if d % delta != 0:
        return []
    points = list(spec.elements())
    fvals = [f.eval(x) for x in points]
    hits = []
    for h in all_ratfuns(spec, d // delta):
        if all(g.eval(h.eval(x)) == v for x, v in zip(points, fvals)):
            if rat_compose(g, h) == f:
                hits.append(h)
    return hits


def _monic_divisors(a, max_deg):
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


def _lambda_candidates(coeffs, num0, den0):
    """Nonzero scalars t for which y = t*num0/den0 could be a root.

    Proposed from one specialization x0 with c_delta(x0), num0(x0), den0(x0)
    all nonzero; in a field too small to contain such a point, from the
    polynomial conditions on t implied by every X-coefficient.
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

    # E(t) = sum_j c_j num0^j den0^{delta-j} t^j must be the zero polynomial
    # in X; each X-coefficient is a polynomial in t
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


def divisor_find_h(f, g):
    """find_h by enumerating the divisor lattices of the curve's end coefficients.

    A root y = t*N/D of F(X, Y) = sum_j c_j(X) Y^j with N, D monic and
    coprime has N | c_0 and D | c_delta, so every pair of monic divisors of
    degree <= d/delta is tried, with the scalar t proposed by one
    specialization and every candidate confirmed by composing.  Exponential
    in the number of factors of c_0 and c_delta.
    """
    d, delta = f.degree, g.degree
    if d % delta != 0:
        return None
    e = d // delta
    coeffs = _curve_coeffs(f, g)
    found = []
    for num0 in _monic_divisors(coeffs[0], e):
        for den0 in _monic_divisors(coeffs[-1], e):
            if max(num0.degree, den0.degree) != e:
                continue
            if not poly_gcd(num0, den0).is_one():
                continue
            for t in _lambda_candidates(coeffs, num0, den0):
                cand = RatFun.make(num0 * t, den0)
                if rat_compose(g, cand) == f:
                    found.append(cand)
    return min(found, key=lambda h: h.index_key(), default=None)


def collapse_key(F):
    """Mixed-radix weights for folding all variables onto one.

    Divisor degrees never exceed the degrees of F variable by variable, so
    with radix deg_i + 1 the exponent vectors of every divisor (and of any
    product of divisors that still divides F) encode injectively and
    without carries.  At n = 2 this is the Kronecker substitution
    Y -> X^(deg_X F + 1).
    """
    rads = [F.deg_in(i) + 1 for i in range(F.n)]
    bases = [1]
    for r in rads[:-1]:
        bases.append(bases[-1] * r)
    return rads, bases


def collapse(F, bases):
    """The univariate image of F under the weights of collapse_key."""
    out = [F.spec.zero()] * (1 + sum(d * b for d, b in zip(
        (F.deg_in(i) for i in range(F.n)), bases)))
    for k, c in F.terms.items():
        e = sum(ei * b for ei, b in zip(k, bases))
        out[e] = out[e] + c
    return Poly.from_coeffs(F.spec, out)


def uncollapse(u, rads, bases, n):
    """The polynomial in n variables whose collapse is u."""
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


def _submultisets_by_degree(facs):
    """All nonempty choices of multiplicities, ordered by product degree."""
    ranges = [range(m + 1) for _, m in facs]
    count = 1
    for r in ranges:
        count *= len(r)
    if count > _MAX_SUBMULTISETS:
        raise SizeLimitError(
            f"factor recombination would test {count} subsets "
            f"(limit {_MAX_SUBMULTISETS})"
        )
    degs = [p.degree for p, _ in facs]
    vectors = [v for v in itertools.product(*ranges) if any(v)]
    vectors.sort(key=lambda v: (sum(m * d for m, d in zip(v, degs)), v))
    return vectors


def collapse_factor(F):
    """mv_factor for any number of variables, by collapsing F onto one
    variable; the oracle of mv_factor at n = 2.

    The collapse is injective on the monomials of every divisor of F, so
    each factor corresponds to a sub-multiset of the univariate
    factorization of the image; testing the sub-multisets in order of
    increasing product degree means the first one whose lift divides F is
    irreducible (a proper divisor of the lift would have shown up earlier).
    Factors are scaled and sorted as mv_factor scales and sorts them.
    """
    spec = F.spec
    rads, bases = collapse_key(F)
    _, ufacs = factor(collapse(F, bases))
    remaining = [[p, m] for p, m in ufacs]
    current = F
    found = []
    while not current.is_constant():
        facs = [(p, m) for p, m in remaining if m > 0]
        hit = None
        for vmult in _submultisets_by_degree(facs):
            prod = Poly.one(spec)
            for (p, _), mult in zip(facs, vmult):
                if mult:
                    prod = prod * p**mult
            cand = uncollapse(prod, rads, bases, F.n)
            if mpoly_divexact(current, cand) is not None:
                hit = (vmult, facs, cand)
                break
        if hit is None:
            raise AssertionError("the full sub-multiset always divides")
        vmult, facs, cand = hit
        g = cand * cand.terms[min(cand.terms)].inverse()
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


def _mv_divisors(c, max_total):
    """Divisors of c with total degree <= max_total, deterministically
    ordered; scaling is canonical per irreducible factor.  Plane curves are
    factored by mv_factor, other polynomials by collapse_factor."""
    _, facs = mv_factor(c) if c.n == 2 else collapse_factor(c)
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


def _lambda_candidates_mv(coeffs, num0, den0):
    """Nonzero scalars t for which y = t*num0/den0 could be a root; proposed
    from one grid specialization, with a symbolic fallback for fields too
    small to contain a usable point."""
    spec = num0.spec
    delta = len(coeffs) - 1
    c_top = coeffs[-1]
    for xs in itertools.product(spec.elements(), repeat=num0.n):
        if c_top(xs).is_zero() or num0(xs).is_zero() or den0(xs).is_zero():
            continue
        n0, d0 = num0(xs), den0(xs)
        phi = Poly.from_coeffs(
            spec,
            [coeffs[j](xs) * n0**j * d0 ** (delta - j) for j in range(delta + 1)],
        )
        return [t for t in roots(phi) if not t.is_zero()]

    # per monomial, the coefficient polynomial in t of
    # sum_j c_j num0^j den0^{delta-j} t^j must vanish
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


def divisor_find_h_mv(f, g):
    """find_h_mv by enumerating the divisor lattices of the curve's end
    coefficients: a root y = t*N/D of sum_j c_j(X) Y^j has N | c_0 and
    D | c_delta, so every pair of divisors of total degree <= d/delta is
    tried, with the scalar t proposed by one specialization and every
    candidate confirmed by composing.  Exponential in the number of factors
    of c_0 and c_delta."""
    d, delta = f.degree, g.degree
    if d % delta != 0:
        return None
    e = d // delta
    coeffs = _curve_coeffs(f, g)
    found = []
    for num0 in _mv_divisors(coeffs[0], e):
        for den0 in _mv_divisors(coeffs[-1], e):
            if max(num0.total_degree(), den0.total_degree()) != e:
                continue
            if mpoly_gcd(num0, den0).total_degree() > 0:
                continue
            for t in _lambda_candidates_mv(coeffs, num0, den0):
                cand = MRatFun.make(num0 * t, den0)
                if mrat_compose(g, cand) == f:
                    found.append(cand)
    return min(found, key=lambda h: h.index_key(), default=None)


def brute_pairs(f, g):
    """Pair count by the definition: a full double loop over F_q x F_q."""
    spec = f.spec
    return sum(
        1
        for x in spec.elements()
        for y in spec.elements()
        if f.eval(x) == g.eval(y)
    )


def _grid(spec, n):
    return itertools.product(spec.elements(), repeat=n)


def usable_points(f, g):
    """The points s of F_q^n where the curve of f (an MRatFun) and g has
    c_delta(s) != 0 and a squarefree fiber sum_j c_j(s) Y^j: the points the
    root search can lift at, by scanning the whole grid."""
    coeffs = _curve_coeffs(f, g)
    out = []
    for xs in _grid(f.spec, f.n):
        phi = Poly.from_coeffs(f.spec, [c(xs) for c in coeffs])
        if phi.degree == g.degree and poly_gcd(phi, phi.derivative()).is_one():
            out.append(xs)
    return out


def pointwise_fiber_sizes(g):
    """Fiber size of each value g takes on F_q (infinity too), one
    FieldElement evaluation per point."""
    return Counter(map(g.eval, g.spec.elements()))


def pointwise_count_pairs(f, g):
    """count_pairs by its definition: the sum over x in F_q of N_g(f(x))."""
    sizes = pointwise_fiber_sizes(g)
    return sum(sizes.get(f.eval(x), 0) for x in f.spec.elements())


def pointwise_count_pairs_mv(f, g):
    """count_pairs_mv by its definition: the sum over the points of F_q^n of
    N_g(f(x)); an UNDEFINED value is no value of g."""
    sizes = pointwise_fiber_sizes(g)
    return sum(sizes.get(f.eval(xs), 0) for xs in _grid(f.spec, f.n))


def pointwise_count_undefined(f):
    """The points of F_q^n where MRatFun.eval gives UNDEFINED."""
    return sum(1 for xs in _grid(f.spec, f.n) if f.eval(xs) is UNDEFINED)


def pointwise_t1_scan(f, g):
    """(condition (i), the exceptions counted by condition (ii)) of check_t1,
    point by point."""
    sizes = pointwise_fiber_sizes(g)
    image = set(sizes) | {g.eval(INFINITY)}
    cond_i = all(f.eval(x) in image for x in f.spec.elements())
    exceptions = sum(size for size in sizes.values() if 2 * size <= g.degree)
    exceptions += 2 * sizes.get(g.eval(INFINITY), 0) <= g.degree
    return cond_i, exceptions


def pointwise_small_fibers(g):
    """(small_points, small_values) of small_fiber_diagnostics, point by point."""
    sizes = pointwise_fiber_sizes(g)
    points = [a for a in [*g.spec.elements(), INFINITY] if 2 * sizes.get(g.eval(a), 0) <= g.degree]
    values = {g.eval(a) for a in points if a is not INFINITY}
    return frozenset(points), frozenset(values)


def schoolbook_mul(a, b):
    """Coefficients of a * b by the double loop over FieldElement products."""
    spec = a.spec
    if a.is_zero() or b.is_zero():
        return []
    out = [spec.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ai * bj
    return out


def schoolbook_divmod(a, b):
    """(quotient, remainder) coefficient lists by long division on FieldElements."""
    spec = a.spec
    r = list(a.coeffs)
    db = len(b.coeffs) - 1
    q = [spec.zero()] * max(0, len(r) - db)
    while len(r) - 1 >= db:
        c = r[-1] / b.coeffs[-1]
        shift = len(r) - 1 - db
        q[shift] = c
        for i, bi in enumerate(b.coeffs):
            r[shift + i] = r[shift + i] - c * bi
        while r and r[-1].is_zero():
            r.pop()
    return q, r


def horner(f, x):
    """f(x) by Horner's rule on FieldElements."""
    acc = f.spec.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc
