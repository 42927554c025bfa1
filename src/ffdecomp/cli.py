"""Command-line experiment runner.

Every subcommand prints one machine-readable report.  JSON reports carry
the tool version, the field descriptor, and the seed (null when the command
uses none), with keys sorted so identical runs produce identical bytes.
Exit codes separate verdicts from failures: 0 means the computation ran
(even if the verdict is "hypotheses fail" or "no h found"), 2 means the
input did not validate, 3 means a size limit refused the work.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
from typing import Optional

from . import __version__, limits
from .bipoly import count_affine, count_projective, curve_str, kronecker_factor
from .bounds import CSV_HEADER, SampleConfig, verify_bounds_on_sample
from .decomp import (
    check_t1,
    check_t31,
    count_pairs,
    find_h,
    gen_g_family,
    small_fiber_diagnostics,
)
from .errors import SizeLimitError, ValidationError
from .mvar import DecompReport, check_t41, find_h_mv
from .parsing import (
    parse_bipoly,
    parse_element,
    parse_field,
    parse_fraction,
    parse_mratfun,
    parse_point,
    parse_poly,
    parse_ratfun,
    point_str,
)
from .upoly import INFINITY, factor, fiber, rat_compose


def _factor_payload(unit, facs, fmt=str) -> dict:
    return {
        "unit": str(unit),
        "factors": [
            {"factor": fmt(p), "multiplicity": m} for p, m in facs
        ],
    }


def _sorted_points(points) -> list[str]:
    finite = sorted((p for p in points if p is not INFINITY), key=lambda e: e.index)
    out = [str(p) for p in finite]
    if INFINITY in points:
        out.append("inf")
    return out


def _cmd_field_info(args, spec) -> dict:
    return {
        "p": spec.p,
        "k": spec.k,
        "order": spec.order,
        "modulus": list(spec.modulus),
        "descriptor": spec.descriptor,
    }


def _cmd_eval(args, spec) -> dict:
    f = parse_ratfun(spec, args.f)
    x = parse_point(spec, args.x)
    return {"f": str(f), "x": point_str(x), "value": point_str(f.eval(x))}


def _cmd_compose(args, spec) -> dict:
    g = parse_ratfun(spec, args.g)
    h = parse_ratfun(spec, args.h)
    result = rat_compose(g, h)
    return {"g": str(g), "h": str(h), "result": str(result), "degree": result.degree}


def _cmd_factor_u(args, spec) -> dict:
    unit, facs = factor(parse_poly(spec, args.poly))
    return _factor_payload(unit, facs)


def _cmd_factor_b(args, spec) -> dict:
    unit, facs = kronecker_factor(parse_bipoly(spec, args.poly))
    return _factor_payload(unit, facs, curve_str)


def _cmd_count_affine(args, spec) -> dict:
    F = parse_bipoly(spec, args.poly)
    return {"curve": curve_str(F), "count": count_affine(F)}


def _cmd_count_projective(args, spec) -> dict:
    F = parse_bipoly(spec, args.poly)
    return {"curve": curve_str(F), "count": count_projective(F)}


def _cmd_count_pairs(args, spec) -> dict:
    f = parse_ratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    return {"f": str(f), "g": str(g), "pairs": count_pairs(f, g)}


def _cmd_fibers(args, spec) -> dict:
    g = parse_ratfun(spec, args.g)
    if args.value is not None:
        v = parse_point(spec, args.value)
        pts = fiber(g, v)
        return {
            "g": str(g),
            "value": point_str(v),
            "fiber": _sorted_points(pts),
            "size": len(pts),
        }
    diag = small_fiber_diagnostics(g)
    return {
        "g": str(g),
        "delta": g.degree,
        "small_points": _sorted_points(diag.small_points),
        "small_values": _sorted_points(diag.small_values),
        "finite_small_count": diag.finite_small_count,
        "value_count": diag.value_count,
    }


def _cmd_check_t1(args, spec) -> dict:
    f = parse_ratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    return check_t1(f, g).to_json_dict()


def _cmd_check_t31(args, spec) -> dict:
    f = parse_ratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    return check_t31(f, g, parse_fraction(args.eps)).to_json_dict()


def _cmd_check_t41(args, spec) -> dict:
    f = parse_mratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    rep = check_t41(f, g, parse_fraction(args.eps)).to_json_dict()
    rep["n"] = f.n
    return rep


def _cmd_find_h(args, spec) -> dict:
    f = parse_ratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    h = find_h(f, g)
    rep = DecompReport(q=spec.order, d=f.degree, delta=g.degree).with_h(h)
    return rep.to_json_dict()


def _cmd_find_h_mv(args, spec) -> dict:
    f = parse_mratfun(spec, args.f)
    g = parse_ratfun(spec, args.g)
    h = find_h_mv(f, g)
    rep = DecompReport(q=spec.order, d=f.degree, delta=g.degree).with_h(h)
    out = rep.to_json_dict()
    out["n"] = f.n
    return out


def _cmd_gen_g(args, spec) -> dict:
    kind = args.kind
    params: dict = {}
    if kind == "artin_schreier":
        if args.r is None:
            raise ValidationError("artin_schreier needs --r")
        params["r"] = args.r
    elif kind == "subspace":
        if not args.basis:
            raise ValidationError("subspace needs --basis")
        params["basis"] = [
            parse_element(spec, chunk) for chunk in args.basis.split(";")
        ]
    elif kind == "power":
        if args.d is None:
            raise ValidationError("power needs --d")
        params["d"] = args.d
    elif kind in ("moebius_pre", "moebius_post"):
        if args.g is None or args.phi is None:
            raise ValidationError(f"{kind} needs --g and --phi")
        params["g"] = parse_ratfun(spec, args.g)
        params["phi"] = parse_ratfun(spec, args.phi)
    g = gen_g_family(spec, kind, **params)
    return {"kind": kind, "g": str(g), "degree": g.degree}


def _cmd_verify_bounds(args, spec) -> Optional[dict]:
    config = SampleConfig(
        p=spec.p,
        k=spec.k,
        kind=args.kind,
        count=args.count,
        max_degree=args.max_degree,
        seed=args.seed,
    )
    reports = verify_bounds_on_sample(config)
    if args.format == "csv":
        print(CSV_HEADER)
        for rep in reports:
            print(rep.csv_row())
        return None
    return {
        "kind": args.kind,
        "count": args.count,
        "max_degree": args.max_degree,
        "violations": sum(1 for r in reports if not r.passed),
        "reports": [
            {
                "instance": r.instance,
                "q": r.q,
                "degree": r.degree,
                "classification": r.classification,
                "observed": r.observed,
                "bound": r.bound,
                "pass": r.passed,
            }
            for r in reports
        ],
    }


_HANDLERS = {
    "field-info": _cmd_field_info,
    "eval": _cmd_eval,
    "compose": _cmd_compose,
    "factor-u": _cmd_factor_u,
    "factor-b": _cmd_factor_b,
    "count-affine": _cmd_count_affine,
    "count-projective": _cmd_count_projective,
    "count-pairs": _cmd_count_pairs,
    "fibers": _cmd_fibers,
    "check-t1": _cmd_check_t1,
    "check-t31": _cmd_check_t31,
    "check-t41": _cmd_check_t41,
    "find-h": _cmd_find_h,
    "find-h-mv": _cmd_find_h_mv,
    "gen-g": _cmd_gen_g,
    "verify-bounds": _cmd_verify_bounds,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="ffdecomp",
        description="Exact decomposition and point-count experiments over finite fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="override the enumeration size limit for this run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", required=True, help='field descriptor, e.g. 7 or 2^11')
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="output format (csv applies to verify-bounds only)",
        )
        return p

    add("field-info", "describe a field: order, modulus, descriptor")

    p = add("eval", "evaluate a rational function at a point of the projective line")
    p.add_argument("--f", required=True)
    p.add_argument("--x", required=True, help="a field element or 'inf'")

    p = add("compose", "compose two rational functions g(h)")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)

    p = add("factor-u", "factor a univariate polynomial into irreducibles")
    p.add_argument("--poly", required=True)

    p = add("factor-b", "factor a bivariate polynomial (term list c:(i,j); ...)")
    p.add_argument("--poly", required=True)

    p = add("count-affine", "count affine points of a plane curve")
    p.add_argument("--poly", required=True)

    p = add("count-projective", "count projective points of a plane curve")
    p.add_argument("--poly", required=True)

    p = add("count-pairs", "count pairs (x, y) with f(x) = g(y)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = add("fibers", "fiber of g over a value, or the small-fiber survey")
    p.add_argument("--g", required=True)
    p.add_argument("--value", default=None)

    p = add("check-t1", "fixed-threshold decomposition hypotheses for (f, g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = add("check-t31", "graded decomposition hypotheses with a tolerance eps")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--eps", required=True, help="exact rational, e.g. 1/2")

    p = add("check-t41", "multivariate hypotheses (f as term list, univariate g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--eps", required=True, help="exact rational, e.g. 1/2")

    p = add("find-h", "search for h with f = g(h)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = add("find-h-mv", "search for multivariate h with f = g(h)")
    p.add_argument("--f", required=True, help="term list, optionally 'num / den'")
    p.add_argument("--g", required=True)

    p = add("gen-g", "build an example inner function g")
    p.add_argument(
        "--kind",
        required=True,
        choices=("artin_schreier", "subspace", "power", "moebius_pre", "moebius_post"),
    )
    p.add_argument("--r", type=int, default=None, help="kernel size for artin_schreier")
    p.add_argument("--basis", default=None, help="semicolon-separated elements")
    p.add_argument("--d", type=int, default=None, help="exponent for power")
    p.add_argument("--g", default=None, help="base g for the moebius wrappers")
    p.add_argument("--phi", default=None, help="degree-1 map for the moebius wrappers")

    p = add("verify-bounds", "sample curves and check point-count bounds")
    p.add_argument("--kind", choices=("random", "conic", "norm_form"), default="random")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    saved_limit = limits.MAX_ORDER
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads --name=-- as an empty list
                raise ValidationError(f"no value for --{name.replace('_', '-')} ('--' is not one)")
        if args.max_order is not None:
            if args.max_order < 2:
                raise ValidationError("--max-order must be at least 2")
            limits.MAX_ORDER = args.max_order
        elif limits.MAX_ORDER < 2:
            raise ValidationError(f"{limits.ENV_VAR} must be an integer of at least 2")
        if args.format == "csv" and args.command != "verify-bounds":
            raise ValidationError("csv output is only available for verify-bounds")
        spec = parse_field(args.field)
        payload = _HANDLERS[args.command](args, spec)
        if payload is not None:
            doc = {
                "version": __version__,
                "field": spec.descriptor,
                "seed": getattr(args, "seed", None),
            }
            doc.update(payload)
            print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    except (ValidationError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        limits.MAX_ORDER = saved_limit


def main(argv=None) -> int:
    # a reader that stops early (| head) ends the command as it ends other
    # filters, by SIGPIPE, instead of with a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
