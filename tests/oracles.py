"""Brute-force reference computations shared by the test modules.

Everything here trades speed for obviousness: double loops, exhaustive
candidate enumeration, no clever algebra.  Results are cached where the
enumeration is expensive but deterministic.
"""

import itertools

from ffdecomp.upoly import Poly, RatFun, rat_compose

_CANDIDATE_CACHE: dict = {}


def all_ratfuns(spec, degree):
    """Every reduced rational function of exactly the given degree."""
    key = (spec.p, spec.modulus, degree)
    if key in _CANDIDATE_CACHE:
        return _CANDIDATE_CACHE[key]
    seen = {}
    coeff_tuples = list(itertools.product(range(spec.order), repeat=degree + 1))
    for nc in coeff_tuples:
        num = Poly.from_coeffs(spec, [spec.from_index(i) for i in nc])
        for dc in coeff_tuples:
            den = Poly.from_coeffs(spec, [spec.from_index(i) for i in dc])
            if den.is_zero():
                continue
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


def brute_pairs(f, g):
    """Pair count by the definition: a full double loop over F_q x F_q."""
    spec = f.spec
    return sum(
        1
        for x in spec.elements()
        for y in spec.elements()
        if f.eval(x) == g.eval(y)
    )


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
