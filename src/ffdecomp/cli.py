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
        "reports": [r.as_dict() for r in reports],
    }


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree and its option table, built once: parse_args keeps
    no state between calls.  The table maps each command to its Actions, as
    add_argument returned them, by option string, to its Namespace items
    before any option is read, in argparse's order, and to its handler."""
    parser = argparse.ArgumentParser(
        prog="ffdecomp",
        description="Exact decomposition and point-count experiments over finite fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    max_order = parser.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="override the enumeration size limit for this run",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table: dict = {}

    def add(name: str, help_text: str, handler):
        p = sub.add_parser(name, help=help_text)
        options, defaults = {}, {max_order.dest: max_order.default, sub.dest: name}
        table[name] = options, defaults, handler

        def option(*names, **kwargs) -> None:
            action = p.add_argument(*names, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default

        option("--field", required=True, help='field descriptor, e.g. 7 or 2^11')
        option(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="output format (csv applies to verify-bounds only)",
        )
        return option

    add("field-info", "describe a field: order, modulus, descriptor", _cmd_field_info)

    option = add("eval", "evaluate a rational function at a point of the projective line", _cmd_eval)
    option("--f", required=True)
    option("--x", required=True, help="a field element or 'inf'")

    option = add("compose", "compose two rational functions g(h)", _cmd_compose)
    option("--g", required=True)
    option("--h", required=True)

    option = add("factor-u", "factor a univariate polynomial into irreducibles", _cmd_factor_u)
    option("--poly", required=True)

    option = add("factor-b", "factor a bivariate polynomial (term list c:(i,j); ...)", _cmd_factor_b)
    option("--poly", required=True)

    option = add("count-affine", "count affine points of a plane curve", _cmd_count_affine)
    option("--poly", required=True)

    option = add("count-projective", "count projective points of a plane curve", _cmd_count_projective)
    option("--poly", required=True)

    option = add("count-pairs", "count pairs (x, y) with f(x) = g(y)", _cmd_count_pairs)
    option("--f", required=True)
    option("--g", required=True)

    option = add("fibers", "fiber of g over a value, or the small-fiber survey", _cmd_fibers)
    option("--g", required=True)
    option("--value", default=None)

    option = add("check-t1", "fixed-threshold decomposition hypotheses for (f, g)", _cmd_check_t1)
    option("--f", required=True)
    option("--g", required=True)

    option = add("check-t31", "graded decomposition hypotheses with a tolerance eps", _cmd_check_t31)
    option("--f", required=True)
    option("--g", required=True)
    option("--eps", required=True, help="exact rational, e.g. 1/2")

    option = add("check-t41", "multivariate hypotheses (f as term list, univariate g)", _cmd_check_t41)
    option("--f", required=True)
    option("--g", required=True)
    option("--eps", required=True, help="exact rational, e.g. 1/2")

    option = add("find-h", "search for h with f = g(h)", _cmd_find_h)
    option("--f", required=True)
    option("--g", required=True)

    option = add("find-h-mv", "search for multivariate h with f = g(h)", _cmd_find_h_mv)
    option("--f", required=True, help="term list, optionally 'num / den'")
    option("--g", required=True)

    option = add("gen-g", "build an example inner function g", _cmd_gen_g)
    option(
        "--kind",
        required=True,
        choices=("artin_schreier", "subspace", "power", "moebius_pre", "moebius_post"),
    )
    option("--r", type=int, default=None, help="kernel size for artin_schreier")
    option("--basis", default=None, help="semicolon-separated elements")
    option("--d", type=int, default=None, help="exponent for power")
    option("--g", default=None, help="base g for the moebius wrappers")
    option("--phi", default=None, help="degree-1 map for the moebius wrappers")

    option = add("verify-bounds", "sample curves and check point-count bounds", _cmd_verify_bounds)
    option("--kind", choices=("random", "conic", "norm_form"), default="random")
    option("--count", type=int, default=100)
    option("--max-degree", type=int, default=4)
    option("--seed", type=int, default=0)

    return parser, table


def _read_canonical(argv, table) -> Optional[argparse.Namespace]:
    """argparse's Namespace for a line `<command> --option value ...` whose
    values convert by type into their choices and none starts with `-`
    (argparse reads that as option-like); None for any other line."""
    entry = table.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    options, defaults, _ = entry
    given = {}
    for text, value in zip(argv[1::2], argv[2::2]):
        action = options.get(text)
        if action is None or value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse reports these
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(action.required and action not in given for action in options.values()):
        return None
    values = dict(defaults)
    values.update((action.dest, value) for action, value in given.items())
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    parser, table = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _read_canonical(argv, table)
    if args is None:
        args = parser.parse_args(argv)
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
        payload = table[args.command][2](args, spec)
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
