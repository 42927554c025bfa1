"""The three workloads: seeded inputs, command lines and known answers.

Each workload turns a seed into a list of operations before any timing.
An operation is one or two ffdecomp command lines; its answer is checked
afterwards with the reference arithmetic in refarith, never with ffdecomp.
The field, the kind of g and the degrees follow an order that is the same
for every seed, and the seed only draws coefficients and curve seeds, so
runs of any length see the same mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import refarith as ra

# Operations generated per run; a run that finishes them all starts over.
OPS_PER_RUN = 1200

EPS = Fraction(1, 2)


class Op:
    """One closed-loop operation: its command lines and what to check."""

    __slots__ = ("argvs", "check", "label")

    def __init__(self, argvs: list[list[str]], check, label: str):
        self.argvs = argvs
        self.check = check  # callable(list of stdout texts) -> error text or None
        self.label = label


def _rand_poly(rng: random.Random, F: ra.Field, degree: int) -> list[int]:
    return [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)]


def _pair_histogram(F: ra.Field, num, den) -> dict:
    hist: dict = {}
    for x in range(F.q):
        v = ra.rat_eval(F, num, den, x)
        hist[v] = hist.get(v, 0) + 1
    return hist


def _load(text: str, command: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{command}: output is not a JSON object")
    return doc


# --------------------------------------------------------------------------
# decompose: check-t31 then find-h on one (f, g) over an extension field

# Fields in cycle order: F_32 and F_101 in 12 operations of every 20,
# F_81 and F_128 in 6, the large-q tail F_256 and F_512 in 2.
_DECOMPOSE_CYCLE = [
    (2, 5), (101, 1), (3, 4), (2, 5), (101, 1), (2, 7), (2, 5), (101, 1),
    (2, 8), (3, 4), (2, 5), (101, 1), (2, 7), (2, 5), (101, 1), (3, 4),
    (2, 9), (2, 5), (101, 1), (2, 7),
]


def _decompose_gs(F: ra.Field) -> list[tuple[str, list[int]]]:
    """The inner functions g of degree 2-3 that exist over F, by family.

    Over F_512 only degree 2: one pair count with a cubic g there takes
    2 s, and a few of them would decide a run's throughput.
    """
    degrees = (2,) if F.q >= 512 else (2, 3)
    out = []
    if F.k > 1 and F.p in degrees:  # Artin-Schreier X^p - X with F_p a subfield
        out.append(("artin_schreier", [0, F.neg(1)] + [0] * (F.p - 2) + [1]))
    for d in degrees:
        if (F.q - 1) % d == 0:
            out.append(("power", [0] * d + [1]))
    out += [("random", [d]) for d in degrees]
    return out


def _check_decompose(F, g, f, planted):
    q, delta, d = F.q, len(g) - 1, len(f) - 1

    def check(outs: list[str]):
        hist_g = _pair_histogram(F, g, [1])
        pairs = sum(n * hist_g.get(v, 0) for v, n in _pair_histogram(F, f, [1]).items())
        t31 = _load(outs[0], "check-t31")
        if (t31["q"], t31["d"], t31["delta"]) != (q, d, delta):
            return f"check-t31 reports q, d, delta = {t31['q']}, {t31['d']}, {t31['delta']}"
        if t31["pair_count"] != pairs:
            return f"check-t31 pair_count {t31['pair_count']} != {pairs}"
        if t31["pair_threshold"] != str(q * (delta // 2 + EPS)):
            return f"check-t31 pair_threshold {t31['pair_threshold']}"
        if t31["cond_iii"]["threshold"] != str(Fraction((d + delta) ** 4) / EPS**2):
            return f"check-t31 threshold {t31['cond_iii']['threshold']}"
        fh = _load(outs[1], "find-h")
        if fh["h"] is None:
            return "find-h found no h for a planted decomposition" if planted else None
        if not fh["verified"]:
            return "find-h returned an unverified h"
        num, den = ra.parse_ratfun(F, fh["h"])
        for x in ra.projective_line(F):
            hx = ra.rat_eval(F, num, den, x)
            gx = ra.INF if hx in (ra.INF, ra.UNDEF) else ra.peval(F, g, hx)
            if gx != ra.rat_eval(F, f, [1], x):
                return f"g(h(x)) != f(x) at x = {x} for h = {fh['h']}"
        return None

    return check


def _strata(name: str, items: list) -> list:
    """items in an order fixed by name alone, the same for every seed."""
    out = list(items)
    random.Random(name).shuffle(out)
    return out


def decompose_ops(seed: int, count: int = OPS_PER_RUN) -> list[Op]:
    rng = random.Random(f"decompose/{seed}")
    plans = {}
    for pk in set(_DECOMPOSE_CYCLE):
        F = ra.Field(*pk)
        combos = [(g, e, planted) for g in _decompose_gs(F) for e in (2, 3) for planted in (True, False)]
        plans[pk] = (F, _strata(f"decompose/{F.q}", combos))
    seen = dict.fromkeys(plans, 0)
    ops = []
    for i in range(count):
        pk = _DECOMPOSE_CYCLE[i % len(_DECOMPOSE_CYCLE)]
        F, strata = plans[pk]
        (kind, g), e, planted = strata[seen[pk] % len(strata)]
        seen[pk] += 1
        if kind == "random":
            g = _rand_poly(rng, F, g[0])
        if planted:
            f = ra.compose(F, g, _rand_poly(rng, F, e))
        else:
            f = _rand_poly(rng, F, (len(g) - 1) * e)
        ftext, gtext = ra.fmt_poly(F, f), ra.fmt_poly(F, g)
        argvs = [
            ["check-t31", "--field", F.descriptor, "--f", ftext, "--g", gtext, "--eps", str(EPS)],
            ["find-h", "--field", F.descriptor, "--f", ftext, "--g", gtext],
        ]
        label = f"q={F.q} {kind} g deg {len(g) - 1}, {'planted' if planted else 'random'} f deg {len(f) - 1}"
        ops.append(Op(argvs, _check_decompose(F, g, f, planted), label))
    return ops


# --------------------------------------------------------------------------
# bound-sweep: verify-bounds --count 1 on one sampled curve

# Conics and norm forms over the fields of the projective-band acceptance
# criterion, and one operation in 26 a random degree <= 4 curve over the
# small fields of that criterion, in its proportions (q = 2, 3, 4, 5 as
# 120 : 110 : 90 : 85).  A random quartic costs 0.01-1 s at q <= 5 and up to
# 5 s at q = 13, so quartics over larger fields, or more of them, would make
# a run's throughput depend on which curves its seed drew: one in 13 already
# made them 30% of a run's time and nine tenths of its seed-to-seed variance.
_SWEEP_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
_SWEEP_QUARTIC_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (2, 1), (3, 1), (2, 2), (5, 1),
    (2, 1), (3, 1), (2, 2), (5, 1), (2, 1), (3, 1),
]
_SWEEP_QUARTIC_EVERY = 26


def _check_sweep(kind: str, q: int):
    def check(outs: list[str]):
        doc = _load(outs[0], "verify-bounds")
        reports = doc["reports"]
        if not reports:
            return "verify-bounds returned no reports"
        for r in reports:
            if r["q"] != q:
                return f"report {r['instance']} has q = {r['q']}"
            if r["pass"] is not True:
                return f"report {r['instance']} does not pass"
            if kind == "norm_form" and r["classification"] != "not-absolutely-irreducible":
                return f"norm form factor {r['instance']} classified {r['classification']}"
            if (
                kind == "conic"
                and r["instance"].endswith("/projective")
                and r["classification"] == "absolutely-irreducible"
                and r["observed"] != q + 1
            ):
                return f"conic {r['instance']} has {r['observed']} projective points, not {q + 1}"
        if doc["violations"] != 0:
            return f"{doc['violations']} violations reported"
        return None

    return check


def bound_sweep_ops(seed: int, count: int = OPS_PER_RUN) -> list[Op]:
    rng = random.Random(f"bound-sweep/{seed}")
    ops = []
    n_quartic = n_other = 0
    for i in range(count):
        if i % _SWEEP_QUARTIC_EVERY == _SWEEP_QUARTIC_EVERY - 1:
            kind = "random"
            p, k = _SWEEP_QUARTIC_FIELDS[n_quartic % len(_SWEEP_QUARTIC_FIELDS)]
            n_quartic += 1
        else:
            kind = "conic" if n_other % 2 == 0 else "norm_form"
            p, k = _SWEEP_FIELDS[(n_other // 2) % len(_SWEEP_FIELDS)]
            n_other += 1
        descriptor = str(p) if k == 1 else f"{p}^{k}"
        curve_seed = rng.randrange(1 << 31)
        argv = [
            "verify-bounds", "--field", descriptor, "--kind", kind,
            "--count", "1", "--max-degree", "4", "--seed", str(curve_seed),
        ]
        ops.append(Op([argv], _check_sweep(kind, p**k), f"q={p**k} {kind} seed {curve_seed}"))
    return ops


# --------------------------------------------------------------------------
# multivar: find-h-mv then check-t41 on a 2-variable f over a prime field

_MV_FIELDS = [3, 5, 7, 11]
_MV_GS = [("X^2", [0, 0, 1]), ("X^2+X", [0, 1, 1]), ("X^3", [0, 0, 0, 1])]


def _rand_mpoly(rng: random.Random, F: ra.Field, degree: int) -> dict:
    while True:
        a = {
            (i, j): rng.randrange(F.q)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        }
        a = {key: c for key, c in a.items() if c}
        if ra.mdegree(a) == degree:
            return a


def _check_multivar(F, g, f, planted):
    q, delta = F.q, len(g) - 1
    d = ra.mdegree(f)

    def check(outs: list[str]):
        hist_g = _pair_histogram(F, g, [1])
        pairs = sum(hist_g.get(ra.meval(F, f, x, y), 0) for x in range(q) for y in range(q))
        fh = _load(outs[0], "find-h-mv")
        t41 = _load(outs[1], "check-t41")
        if (t41["q"], t41["d"], t41["delta"], t41["n"]) != (q, d, delta, 2):
            return f"check-t41 reports q, d, delta, n = {t41['q']}, {t41['d']}, {t41['delta']}, {t41['n']}"
        if t41["pair_count"] != pairs:
            return f"check-t41 pair_count {t41['pair_count']} != {pairs}"
        if t41["pair_threshold"] != str(q**2 * (delta // 2 + EPS)):
            return f"check-t41 pair_threshold {t41['pair_threshold']}"
        if fh["h"] is None:
            return "find-h-mv found no h for a planted decomposition" if planted else None
        if not fh["verified"]:
            return "find-h-mv returned an unverified h"
        num, den = ra.parse_mratfun(F, fh["h"])
        for x in range(q):
            for y in range(q):
                hx = ra.mrat_eval(F, num, den, x, y)
                if hx in (ra.INF, ra.UNDEF):
                    return f"h = {fh['h']} has no finite value at ({x}, {y})"
                if ra.peval(F, g, hx) != ra.meval(F, f, x, y):
                    return f"g(h) != f at ({x}, {y}) for h = {fh['h']}"
        return None

    return check


def multivar_ops(seed: int, count: int = OPS_PER_RUN) -> list[Op]:
    rng = random.Random(f"multivar/{seed}")
    fields = {p: ra.Field(p) for p in _MV_FIELDS}
    # deg h <= 2 keeps find_h_mv under a second (deg h = 3 with a
    # quadratic g takes up to 2.4 s at q = 11); one f in four is random.
    # With X^3 only deg h = 1.  A planted h^3 with deg h = 2 makes mv_factor
    # enumerate 4^k factor subsets, which on one input raised the peak RSS
    # by 11 MB, so peak_rss_mb would depend on whether a run reached it; a
    # random f of degree 6 took 0.1-1.6 s, and one such f in 17 operations
    # made them 39% of a run's time and four fifths of its seed-to-seed
    # variance.
    square, square_plus, cube = _MV_GS
    combos = [
        (g, e, planted)
        for g in (square, square_plus)
        for e in (1, 2)
        for planted in (True, True, True, False)
    ]
    combos += [(cube, 1, planted) for planted in (True, True, True, False)]
    strata = _strata("multivar", combos)
    ops = []
    for i in range(count):
        F = fields[_MV_FIELDS[i % len(_MV_FIELDS)]]
        (gname, g), e, planted = strata[(i // len(_MV_FIELDS)) % len(strata)]
        delta = len(g) - 1
        if planted:
            f = ra.mcompose(F, g, _rand_mpoly(rng, F, e))
        else:
            f = _rand_mpoly(rng, F, delta * e)
        ftext = ra.fmt_term_list(F, f)
        argvs = [
            ["find-h-mv", "--field", F.descriptor, "--f", ftext, "--g", gname],
            ["check-t41", "--field", F.descriptor, "--f", ftext, "--g", gname, "--eps", str(EPS)],
        ]
        label = f"q={F.q} g={gname}, {'planted' if planted else 'random'} f deg {ra.mdegree(f)}"
        ops.append(Op(argvs, _check_multivar(F, g, f, planted), label))
    return ops


WORKLOADS = {
    "decompose": decompose_ops,
    "bound-sweep": bound_sweep_ops,
    "multivar": multivar_ops,
}

# Field descriptors each workload builds during set-up.
FIELDS = {
    "decompose": sorted({str(p) if k == 1 else f"{p}^{k}" for p, k in _DECOMPOSE_CYCLE}),
    "bound-sweep": [str(p) if k == 1 else f"{p}^{k}" for p, k in _SWEEP_FIELDS],
    "multivar": [str(p) for p in _MV_FIELDS],
}

# The traced pass runs whole cycles of the mix, a number that depends only
# on the workload and --seconds: (operations per cycle, seconds one cycle
# takes at the reference speed, each operation run untraced and traced).
TRACE_CYCLES = {
    "decompose": (len(_DECOMPOSE_CYCLE), 10.0),
    "bound-sweep": (_SWEEP_QUARTIC_EVERY, 2.5),
    "multivar": (len(_MV_FIELDS) * 20, 6.4),
}


def trace_ops(name: str, seconds: float) -> int:
    """Operations in a traced pass: the whole cycles that about fill `seconds`."""
    per_cycle, cycle_seconds = TRACE_CYCLES[name]
    return per_cycle * max(1, round(seconds / cycle_seconds))
