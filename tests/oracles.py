"""Brute-force reference computations shared by the test modules.

Everything here trades speed for obviousness: double loops, exhaustive
candidate enumeration, no clever algebra.  Results are cached where the
enumeration is expensive but deterministic.
"""

import functools
import heapq
import itertools
import math
from collections import Counter

from ffdecomp.errors import SizeLimitError, ValidationError
from ffdecomp.gf_core import extend_field, prime_factors
from ffdecomp.mvar import (
    UNDEFINED,
    MPoly,
    MRatFun,
    _curve_roots,
    _degree_prods,
    _from_upoly,
    _jet_mul,
    _jet_ring,
    _kernel_line,
    _lift_root,
    _over_extension,
    _series_mul,
    _shift,
    _usable_points,
    map_coeffs,
    mpoly_divexact,
    mpoly_gcd,
    mrat_compose,
    mv_factor,
)
from ffdecomp.parsing import MAX_DEGREE, MAX_NESTING
from ffdecomp.upoly import (
    INFINITY,
    Poly,
    RatFun,
    _equal_degree_parts,
    _root_indices,
    _squarefree_parts,
    factor,
    poly_gcd,
    poly_invmod,
    poly_powmod,
    rat_compose,
    roots,
)

_CANDIDATE_CACHE: dict = {}

# collapse_factor refuses a factorization once it has tested this many
# sub-multisets of the univariate image's factors
_MAX_SUBMULTISETS = 1 << 20


def _curve_coeffs(f, g):
    """c_j = A q_j - B p_j, the coefficient of Y^j in A(X)Q(Y) - B(X)P(Y)."""
    zero = g.spec.zero()
    pad = [list(u.coeffs) + [zero] * (g.degree + 1 - len(u.coeffs)) for u in (g.num, g.den)]
    return [f.num * qj - f.den * pj for pj, qj in zip(*pad)]


def h_key(h):
    """The key by which find_h breaks ties: MRatFun.index_key of h's
    one-variable view, the key of find_h_mv."""
    return MRatFun(_from_upoly(h.num), _from_upoly(h.den)).index_key()


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
                seen.setdefault(h_key(h), h)
    out = [seen[k] for k in sorted(seen)]
    _CANDIDATE_CACHE[key] = out
    return out


def subspace_product(spec, basis):
    """prod_{u in U}(X - u) over the F_p-span U of the basis, one linear
    factor at a time: about |U|^2 coefficient steps."""
    span = {spec.zero()}
    for b in basis:
        b = spec.element(b)
        span = {s + i * b for s in span for i in range(spec.p)}
    prod = Poly.one(spec)
    for u in sorted(span, key=lambda el: el.index):
        prod = prod * Poly.from_coeffs(spec, [-u, spec.one()])
    return RatFun.from_poly(prod)


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
    return min(found, key=h_key, default=None)


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
    return MPoly.from_terms(u.spec, n, terms)


def _submultisets_by_degree(facs):
    """Every nonempty choice of multiplicities, lazily, ordered by product
    degree and then by the vector; refuses the one past _MAX_SUBMULTISETS.

    A vector's parent lowers its last nonzero entry by one, so each vector
    is pushed once, by its parent, and has a larger degree than it; the
    heap therefore pops the vectors in order.
    """
    degs = [p.degree for p, _ in facs]
    tops = [m for _, m in facs]
    heap = [(0, (0,) * len(facs), 0)]
    tested = 0
    while heap:
        degree, v, last = heapq.heappop(heap)
        if degree:
            tested += 1
            if tested > _MAX_SUBMULTISETS:
                raise SizeLimitError(
                    f"factor recombination tested more than {_MAX_SUBMULTISETS} subsets"
                )
            yield v
        for i in range(last, len(v)):
            if v[i] < tops[i]:
                heapq.heappush(heap, (degree + degs[i], v[:i] + (v[i] + 1,) + v[i + 1:], i))


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


def find_h_by_composing_all(f, g):
    """find_h_mv without its screen or its early stop: compose every
    candidate of mvar._curve_roots of the right degree, then take the least
    valid one by MRatFun.index_key."""
    d, delta = f.degree, g.degree
    if d % delta != 0:
        return None
    e = d // delta
    found = [h for h in _curve_roots(f, g, e) if h.degree == e and mrat_compose(g, h) == f]
    return min(found, key=MRatFun.index_key, default=None)


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


# The element oracles below compute on FieldElements, coefficient lists
# constant term first, the way Poly and MPoly computed before they held
# field indices.


def _trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _list_mul(spec, x, y):
    if not x or not y:
        return []
    out = [spec.zero()] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] = out[i + j] + xi * yj
    return out


def schoolbook_mul(a, b):
    """Coefficients of a * b by the double loop over FieldElement products."""
    return _list_mul(a.spec, list(a.coeffs), list(b.coeffs))


def schoolbook_add(a, b):
    """Coefficients of a + b, added one FieldElement at a time."""
    x, y = list(a.coeffs), list(b.coeffs)
    if len(x) < len(y):
        x, y = y, x
    for i, c in enumerate(y):
        x[i] = x[i] + c
    return _trim(x)


def schoolbook_sub(a, b):
    """Coefficients of a - b."""
    return schoolbook_add(a, Poly.from_coeffs(b.spec, [-c for c in b.coeffs]))


def schoolbook_derivative(a):
    """Coefficients of a', each c_i times the integer i."""
    return _trim([c * i for i, c in enumerate(a.coeffs)][1:])


def schoolbook_monic(a):
    """Coefficients of a divided by its leading coefficient."""
    if a.is_zero():
        return []
    inv = a.coeffs[-1].inverse()
    return [c * inv for c in a.coeffs]


def schoolbook_compose(a, b):
    """Coefficients of a(b), by Horner's rule on FieldElement lists."""
    acc = []
    for c in reversed(a.coeffs):
        acc = _list_mul(a.spec, acc, list(b.coeffs)) or [a.spec.zero()]
        acc[0] = acc[0] + c
        _trim(acc)
    return acc


def term_add(F, G):
    """The terms of F + G, added one FieldElement at a time."""
    terms = dict(F.terms)
    for k, c in G.terms.items():
        s = terms.get(k, F.spec.zero()) + c
        if s.is_zero():
            terms.pop(k, None)
        else:
            terms[k] = s
    return terms


def term_mul(F, G):
    """The terms of F * G, by the double loop over the terms."""
    terms = {}
    for k1, c1 in F.terms.items():
        for k2, c2 in G.terms.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            terms[k] = terms.get(k, F.spec.zero()) + c1 * c2
    return {k: c for k, c in terms.items() if not c.is_zero()}


def term_eval(F, xs):
    """F at the point xs, each term's powers x**e taken on FieldElements."""
    acc = F.spec.zero()
    for k, c in F.terms.items():
        for x, e in zip(xs, k):
            if e:
                c = c * x**e
        acc = acc + c
    return acc


def term_shift(F, s, top):
    """The terms of total degree <= top of F(X + s), s a list of FieldElements,
    by the binomial expansion of every term."""
    out = {}
    for key, c0 in F.terms.items():
        for t in itertools.product(*(range(k + 1) for k in key)):
            if sum(t) <= top:
                c = c0
                for k, ti, si in zip(key, t, s):
                    if k != ti:
                        c = c * si ** (k - ti) * math.comb(k, ti)
                out[t] = out[t] + c if t in out else c
    return {t: c for t, c in out.items() if c}


def hensel_lift_by_recomputing(G, lc, fs, prec):
    """mvar._hensel_lift with the whole product lc * prod F_i recomputed to
    precision k + 1 at every power k of t: r * prec^3 series products."""
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


def newton_lift_by_doubling(spec, ring, cs, y0, s0):
    """mvar._lift_root by Newton iteration: each step doubles the precision
    of y and of s = 1/F_Y(y), recomputing F(y) and F_Y(y) whole by Horner's
    rule on mvar._jet_mul products."""
    add, neg, mul = spec._add, spec._neg, spec._mul

    def sub(a, b):
        return [add(u, neg(v)) for u, v in zip(a, b)]

    def horner(cs, y, prec):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = [add(u, v) for u, v in zip(_jet_mul(spec, ring, acc, y, prec), c)]
        return acc

    dcs = [[mul(j % spec.p, v) for v in c] for j, c in enumerate(cs)][1:]
    zeros = [0] * (len(ring[0]) - 1)
    y, s, two = [y0] + zeros, [s0] + zeros, [2 % spec.p] + zeros
    prec, end = 1, len(ring[3]) - 1
    while prec < end:
        prec = min(2 * prec, end)
        y = sub(y, _jet_mul(spec, ring, horner(cs, y, prec), s, prec))
        if prec < end:
            ds = _jet_mul(spec, ring, horner(dcs, y, prec), s, prec)
            s = _jet_mul(spec, ring, s, sub(two, ds), prec)
    return y


def lifted_roots_to_2e(coeffs, e):
    """mvar._lifted_roots with every root lifted to total degree 2e and D
    sought among all polynomials of degree <= e, whatever c_delta's degree:
    the kernel of [D y]_nu = 0 for e < |nu| <= 2e."""
    n, down = coeffs[0].n, None
    found = next(_usable_points(coeffs), None)
    if found is None:
        coeffs, points, down = _over_extension(coeffs)
        found = next(points)
    s, phi, dphi = found
    spec = phi.spec
    ring = mons, _, _, start = _jet_ring(n, 2 * e)
    ncols = start[e + 1]
    if any(s):
        coeffs = [_shift(c, s, 2 * e) for c in coeffs]
    cs = [[c.idx.get(k, 0) for k in mons] for c in coeffs]
    out = []
    for y0 in _root_indices(phi):
        y = _lift_root(spec, ring, cs, y0, spec._inv(dphi._eval(y0)))
        rows = {}
        for t in range(e + 1, 2 * e + 1):
            for i, j, k in _degree_prods(ring, t):
                if i < ncols and y[j]:
                    row = rows.setdefault(k, [0] * ncols)
                    row[i] = spec._add(row[i], y[j])
        den = _kernel_line(spec, list(rows.values()), ncols)
        if den is None:
            continue
        num = _jet_mul(spec, ring, den + [0] * (len(mons) - ncols), y, e + 1)
        num, den = (MPoly(spec, n, {k: c for k, c in zip(mons, v) if c}) for v in (num, den))
        if any(s):
            minus_s = [spec._neg(x) for x in s]
            num, den = _shift(num, minus_s, e), _shift(den, minus_s, e)
        c = spec._inv(den.idx[den.leading_key()])
        num, den = num._scale(c), den._scale(c)
        if down is not None:
            num, den = down(num), down(den)
            if num is None or den is None:
                continue
        out.append(MRatFun(num, den))
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


def distinct_degree_parts_by_powering(f):
    """upoly._distinct_degree_parts powering T^q from d = 1, for monic
    squarefree f: (product of the irreducibles of degree d, d) for each d
    with any, the linear ones in one product found by gcd(T^q - T, f)."""
    spec, q = f.spec, f.spec.order
    x = Poly.x(spec)
    res, v, h, d = [], f, x, 0
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            res.append((v, v.degree))
            break
        h = poly_powmod(h, q, v)
        g = poly_gcd(h - x, v)
        if g.degree > 0:
            res.append((g, d))
            v = v // g
            h = h % v
    return res


def factor_by_powering(a):
    """upoly.factor with distinct_degree_parts_by_powering as its
    distinct-degree step."""
    f = a.monic()
    found = [
        (irr, mult)
        for g, mult in _squarefree_parts(f)
        for h, d in distinct_degree_parts_by_powering(g)
        for irr in _equal_degree_parts(h, d)
    ]
    found.sort(key=lambda fm: (fm[0].degree, fm[0].index_key()))
    return a.lc(), found


# --------------------------------------------------------------------------
# absolute irreducibility by re-factoring over extensions


def _is_absolutely_irreducible_by_extension(F):
    """The definitional test, kept as the oracle for is_absolutely_irreducible.

    An F_q-irreducible polynomial splits over the algebraic closure into a
    Galois orbit of s conjugate factors with s dividing the total degree, and
    it then splits over F_{q^r} for every prime r dividing s.  So it is enough
    to re-factor over F_q and over F_{q^r} for the primes r dividing the degree.
    """
    for r in [1, *prime_factors(F.total_degree())]:
        G = F
        if r > 1:
            _, emb = extend_field(F.spec, r)
            G = map_coeffs(F, emb)
        _, facs = mv_factor(G)
        if len(facs) != 1 or facs[0][1] != 1:
            return False
    return True


# --------------------------------------------------------------------------
# the text parser that reads a character at a time and adds FieldElements


def _charwise_split_top_level(text, sep):
    """Split on a separator that sits outside every bracket and paren."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced brackets in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValidationError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return parts


def _charwise_clip(text, width=40):
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def _charwise_read_int(text, what, context):
    try:
        return int(text)
    except ValueError:
        if text.strip().lstrip("+-").isdecimal():
            raise SizeLimitError(f"{what} in {_charwise_clip(context)} has too many digits") from None
        raise ValidationError(f"malformed {what} in {_charwise_clip(context)}") from None


def _charwise_element(spec, coords):
    if len(coords) > spec.k:
        raise ValidationError(f"{len(coords)} coordinates is too many for {spec!r}")
    return spec.element(coords + [0] * (spec.k - len(coords)))


def _charwise_check_degree(d, what):
    if d > MAX_DEGREE:
        raise SizeLimitError(f"{what} {d} exceeds the parser cap {MAX_DEGREE}")


class _CharTokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch):
        if self.take() != ch:
            raise ValidationError(f"expected {ch!r} at position {self.pos} of {self.text!r}")

    def integer(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ValidationError(f"expected a number at position {start} of {self.text!r}")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            raise SizeLimitError(f"number at position {start} has too many digits") from None


def _charwise_expr(tok, spec, depth=0):
    acc = _charwise_term(tok, spec, depth)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        rhs = _charwise_term(tok, spec, depth)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _charwise_term(tok, spec, depth):
    acc = _charwise_factor(tok, spec, depth)
    while tok.peek() == "*":
        tok.take()
        rhs = _charwise_factor(tok, spec, depth)
        _charwise_check_degree(acc.degree + rhs.degree, "degree")
        acc = acc * rhs
    return acc


def _charwise_factor(tok, spec, depth):
    if depth > MAX_NESTING:
        raise ValidationError(f"nested deeper than {MAX_NESTING} levels at position {tok.pos}")
    if tok.peek() == "-":
        tok.take()
        return -_charwise_factor(tok, spec, depth + 1)
    atom = _charwise_atom(tok, spec, depth)
    if tok.peek() == "^":
        tok.take()
        e = tok.integer()
        _charwise_check_degree(e, "exponent")
        _charwise_check_degree(atom.degree * e, "degree")
        return atom**e
    return atom


def _charwise_atom(tok, spec, depth):
    ch = tok.peek()
    if ch == "(":
        tok.take()
        inner = _charwise_expr(tok, spec, depth + 1)
        tok.expect(")")
        return inner
    if ch == "[":
        tok.take()
        coords = [tok.integer()]
        while tok.peek() == ",":
            tok.take()
            coords.append(tok.integer())
        tok.expect("]")
        return Poly.constant(_charwise_element(spec, coords))
    if ch in ("X", "x"):
        tok.take()
        return Poly.x(spec)
    if ch.isdecimal():
        return Poly.constant(spec.element(tok.integer()))
    raise ValidationError(f"unexpected {ch!r} at position {tok.pos} of {tok.text!r}")


def charwise_parse_poly(spec, text):
    """parsing.parse_poly, one character at a time on FieldElements."""
    tok = _CharTokens(text)
    out = _charwise_expr(tok, spec)
    if tok.peek():
        raise ValidationError(f"trailing input at position {tok.pos} of {text!r}")
    return out


def charwise_parse_ratfun(spec, text):
    parts = _charwise_split_top_level(text, "/")
    if len(parts) == 1:
        return RatFun.from_poly(charwise_parse_poly(spec, parts[0]))
    if len(parts) != 2:
        raise ValidationError(f"more than one top-level '/' in {text!r}")
    num = charwise_parse_poly(spec, parts[0])
    den = charwise_parse_poly(spec, parts[1])
    if den.is_zero():
        raise ValidationError("zero denominator")
    return RatFun.make(num, den)


def _charwise_parse_element(spec, text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        coords = [_charwise_read_int(c, "coefficient", text) for c in text[1:-1].split(",")]
        return _charwise_element(spec, coords)
    return spec.element(_charwise_read_int(text, "coefficient", text))


def _charwise_term_list(spec, text):
    terms = {}
    width = None
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff_text, sep, exp_text = chunk.partition(":")
        exp_text = exp_text.strip()
        if not sep or not exp_text.startswith("(") or not exp_text.endswith(")"):
            raise ValidationError(f"malformed term {_charwise_clip(chunk)}; expected 'c:(i,j)'")
        key = tuple([_charwise_read_int(e, "exponent", chunk) for e in exp_text[1:-1].split(",")])
        for e in key:
            _charwise_check_degree(e, "exponent")
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ValidationError(
                f"term {_charwise_clip(chunk)} has {len(key)} exponents, earlier terms had {width}"
            )
        c = _charwise_parse_element(spec, coeff_text)
        if key in terms:
            c = terms[key] + c
        terms[key] = c
    if width is None:
        raise ValidationError("empty term list")
    return terms


def charwise_parse_bipoly(spec, text):
    terms = _charwise_term_list(spec, text)
    if any(len(k) != 2 for k in terms):
        raise ValidationError("bivariate terms need exponent pairs (i,j)")
    return MPoly.from_terms(spec, 2, terms)


def charwise_parse_mpoly(spec, text, n=None):
    terms = _charwise_term_list(spec, text)
    if n is None:
        n = len(next(iter(terms)))
    return MPoly.from_terms(spec, n, terms)


def charwise_parse_mratfun(spec, text):
    parts = _charwise_split_top_level(text, "/")
    if len(parts) == 1:
        return MRatFun.from_poly(charwise_parse_mpoly(spec, parts[0]))
    if len(parts) != 2:
        raise ValidationError(f"more than one top-level '/' in {text!r}")
    num = charwise_parse_mpoly(spec, parts[0])
    den = charwise_parse_mpoly(spec, parts[1], n=num.n)
    if den.is_zero():
        raise ValidationError("zero denominator")
    return MRatFun.make(num, den)
