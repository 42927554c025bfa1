"""End-to-end tests for the command-line interface.

Each test drives run() in-process and inspects the captured stdout (the
environment variable read at import is tested in a subprocess), so the
exit-code contract and the report layout are pinned down together: 0 for a
completed computation (whatever the verdict), 2 for inputs that do not
validate, 3 for work the size limit refuses.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import ffdecomp
from ffdecomp import __version__, cli, limits, mvar
from ffdecomp.cli import main, run
from ffdecomp.gf_core import build_field
from ffdecomp.mvar import MPoly, MRatFun, mrat_compose
from ffdecomp.upoly import Poly, RatFun


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_field_info_extension(capsys):
    doc = run_json(capsys, ["field-info", "--field", "2^4"])
    assert doc["p"] == 2
    assert doc["k"] == 4
    assert doc["order"] == 16
    assert doc["modulus"] == [1, 0, 0, 1, 1]
    assert doc["field"] == "2^4"
    assert doc["version"]
    assert doc["seed"] is None


def test_eval_pole_maps_to_inf(capsys):
    doc = run_json(capsys, ["eval", "--field", "7", "--f", "1 / X", "--x", "0"])
    assert doc["value"] == "inf"


def test_eval_at_infinity(capsys):
    doc = run_json(capsys, ["eval", "--field", "7", "--f", "X^2+1", "--x", "inf"])
    assert doc["value"] == "inf"


def test_compose(capsys):
    doc = run_json(
        capsys, ["compose", "--field", "7", "--g", "X^2", "--h", "X+1 / X"]
    )
    assert doc["result"] == "X^2+2*X+1 / X^2"
    assert doc["degree"] == 2


def test_factor_u(capsys):
    doc = run_json(capsys, ["factor-u", "--field", "5", "--poly", "X^2+1"])
    assert doc["unit"] == "1"
    labels = sorted(f["factor"] for f in doc["factors"])
    assert labels == ["X+2", "X+3"]


def test_factor_b(capsys):
    doc = run_json(
        capsys, ["factor-b", "--field", "3", "--poly", "1:(2,0); 2:(0,2)"]
    )
    labels = sorted(f["factor"] for f in doc["factors"])
    assert labels == ["2*X+Y", "X+Y"]


def test_count_affine_and_projective(capsys):
    affine = run_json(
        capsys, ["count-affine", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"]
    )
    proj = run_json(
        capsys, ["count-projective", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"]
    )
    assert affine["count"] == 7
    assert proj["count"] == 8


def _doc(**fields) -> str:
    doc = {"version": __version__, "seed": None, **fields}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["factor-b", "--field", "3", "--poly", "1:(2,0); 2:(0,2)"],
            _doc(field="3", unit="2", factors=[
                {"factor": "X+Y", "multiplicity": 1},
                {"factor": "2*X+Y", "multiplicity": 1},
            ]),
        ),
        (
            ["factor-b", "--field", "2^2", "--poly", "[0,1]:(2,0); 1:(0,2); 1:(1,1)"],
            _doc(field="2^2", unit="[1,0]", factors=[
                {"factor": "[0,1]*X^2+X*Y+Y^2", "multiplicity": 1},
            ]),
        ),
        (
            ["count-affine", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"],
            _doc(field="7", curve="X^2+6*Y", count=7),
        ),
        (
            ["count-projective", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"],
            _doc(field="7", curve="X^2+6*Y", count=8),
        ),
        (
            ["count-projective", "--field", "3^2", "--poly", "1:(2,0); 1:(0,2); [0,1]:(0,0)"],
            _doc(field="3^2", curve="X^2+Y^2+[0,1]", count=10),
        ),
    ],
    ids=["factor-b", "factor-b-extension", "count-affine", "count-projective",
         "count-projective-extension"],
)
def test_curve_commands_exact_output(capsys, argv, expected):
    # curves print with X and Y, while find-h-mv prints X1 and X2
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_count_pairs_example(capsys):
    doc = run_json(capsys, ["count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2"])
    assert doc["pairs"] == 13


def test_fibers_survey(capsys):
    doc = run_json(capsys, ["fibers", "--field", "7", "--g", "X^2"])
    assert doc["delta"] == 2
    assert doc["small_points"] == ["0", "inf"]
    assert doc["small_values"] == ["0"]
    assert doc["finite_small_count"] == 1


def test_fibers_single_value(capsys):
    doc = run_json(capsys, ["fibers", "--field", "7", "--g", "X^2", "--value", "2"])
    assert doc["fiber"] == ["3", "4"]
    assert doc["size"] == 2
    top = run_json(capsys, ["fibers", "--field", "7", "--g", "X^2", "--value", "inf"])
    assert top["fiber"] == []


def test_check_t1_report(capsys):
    doc = run_json(
        capsys, ["check-t1", "--field", "7", "--f", "(X^2+1)^2", "--g", "X^2"]
    )
    assert doc["cond_i"] is True
    assert doc["cond_ii"] == {"exceptions": 2, "budget": 48}
    assert doc["cond_iii"] == {"threshold": "1296"}
    assert doc["q"] == 7 and doc["d"] == 4 and doc["delta"] == 2


def test_check_t31_rational_threshold(capsys):
    doc = run_json(
        capsys,
        ["check-t31", "--field", "7", "--f", "X^2", "--g", "X^2", "--eps", "1/2"],
    )
    assert doc["pair_count"] == 13
    assert doc["pair_threshold"] == "21/2"
    assert doc["cond_iii"] == {"threshold": "1024"}


def test_check_t41_reports_variable_count(capsys):
    doc = run_json(
        capsys,
        [
            "check-t41",
            "--field",
            "7",
            "--f",
            "1:(2,2); 2:(1,1); 1:(0,0)",
            "--g",
            "X^2",
            "--eps",
            "1",
        ],
    )
    assert doc["n"] == 2
    assert doc["pair_threshold"] == "98"
    assert doc["d"] == 4 and doc["delta"] == 2


def test_find_h_example(capsys):
    doc = run_json(
        capsys, ["find-h", "--field", "7", "--f", "(X^2+1)^2", "--g", "X^2"]
    )
    assert doc["h"] == "X^2+1"
    assert doc["verified"] is True


def test_find_h_negative_verdict_exits_zero(capsys):
    doc = run_json(capsys, ["find-h", "--field", "7", "--f", "X^3", "--g", "X^2"])
    assert doc["h"] is None
    assert doc["verified"] is False


def _timed_find_h(capsys, f, g):
    t0 = time.monotonic()
    doc = run_json(capsys, ["find-h", "--field", "101", "--f", f, "--g", g])
    return doc, time.monotonic() - t0


def test_find_h_forty_linear_factors_answers_quickly(capsys):
    # c_0 has 2^40 monic divisors, which a divisor search would walk
    f = "*".join(f"(X-{i})" for i in range(1, 41))
    doc, elapsed = _timed_find_h(capsys, f, "X^2")
    assert doc["h"] is None and doc["verified"] is False
    assert elapsed < 1.0


def test_find_h_planted_square_of_degree_twenty(capsys):
    inner = "*".join(f"(X-{i})" for i in range(1, 21)) + "+3"
    doc, elapsed = _timed_find_h(capsys, f"({inner})^2", "X^2")
    assert doc["verified"] is True
    assert doc["h"].startswith("100*X^20+")  # -(inner): constant term 15 beats 86
    assert elapsed < 1.0


def test_find_h_without_a_usable_point_lifts_over_an_extension(capsys, monkeypatch):
    # f(0) = f(1) = 0 over F_2, where the fiber Y^3 + Y = Y(Y + 1)^2 is not
    # squarefree, so the roots are lifted at a point of F_{2^7}; the curve,
    # of degree 27, is never factored
    def no_factoring(F):
        raise AssertionError(f"the root search factored {F}")

    monkeypatch.setattr(mvar, "mv_factor", no_factoring)
    f = "(X^9+X^3+X)^3+X^9+X^3+X"
    doc = run_json(capsys, ["find-h", "--field", "2", "--f", f, "--g", "X^3+X"])
    assert doc["h"] == "X^9+X^3+X" and doc["verified"] is True


def test_find_h_inseparable_g_above_the_factoring_cap_answers(capsys):
    # X^2 is inseparable over F_8: the search moves to g1 = X, whose one root
    # X^26+X is not a square in F_8(X), so no curve is factored
    doc = run_json(capsys, ["find-h", "--field", "2^3", "--f", "X^26+X", "--g", "X^2"])
    assert doc["h"] is None and doc["verified"] is False


def test_find_h_inseparable_g_planted_degree_three_hundred_answers_quickly(capsys):
    # g = X^2 over F_8 reduces to g1 = X, whose one root is f itself
    t0 = time.monotonic()
    doc = run_json(capsys, ["find-h", "--field", "2^3", "--f", "X^600+X^2+1", "--g", "X^2"])
    assert doc["verified"] is True and doc["h"].startswith("X^300+X+")
    assert time.monotonic() - t0 < 1.0


def _timed_find_h_mv(capsys, f, g):
    t0 = time.monotonic()
    doc = run_json(capsys, ["find-h-mv", "--field", "11", "--f", f, "--g", g])
    return doc, time.monotonic() - t0


def _term_list(terms):
    return "; ".join(f"{c}:({','.join(map(str, k))})" for k, c in sorted(terms.items()))


def _random_terms(rng, n, degree):
    keys = [k for k in itertools.product(range(degree + 1), repeat=n) if sum(k) <= degree]
    terms = {k: rng.randrange(11) for k in keys}
    terms[(degree,) + (0,) * (n - 1)] = 1 + rng.randrange(10)
    return {k: c for k, c in terms.items() if c}


def test_find_h_mv_random_f_at_the_search_cap_answers_quickly(capsys):
    # n = 3 and d + delta = 10: a divisor search walked the divisors of c_0
    # and c_delta for over a minute
    f = _term_list(_random_terms(random.Random(11), 3, 8))
    doc, elapsed = _timed_find_h_mv(capsys, f, "X^2+X")
    assert doc["h"] is None and doc["verified"] is False
    assert elapsed < 1.0


def test_find_h_mv_planted_degree_four_answers_quickly(capsys):
    spec = build_field(11)
    h = MPoly.from_terms(spec, 3, _random_terms(random.Random(12), 3, 4))
    g = RatFun.from_poly(Poly.from_ints(spec, [0, 0, 1]))
    f = mrat_compose(g, MRatFun.from_poly(h)).num
    doc, elapsed = _timed_find_h_mv(capsys, _term_list({k: c.index for k, c in f.terms.items()}), "X^2")
    assert doc["verified"] is True
    assert doc["h"] in (str(h), str(-h))
    assert elapsed < 1.0


def test_find_h_mv_example(capsys):
    doc = run_json(
        capsys,
        [
            "find-h-mv",
            "--field",
            "5",
            "--f",
            "1:(2,2); 2:(1,1); 1:(0,0)",
            "--g",
            "X^2",
        ],
    )
    assert doc["h"] == "X1*X2+1"
    assert doc["verified"] is True
    assert doc["n"] == 2


def test_gen_g_power(capsys):
    doc = run_json(capsys, ["gen-g", "--field", "7", "--kind", "power", "--d", "3"])
    assert doc["g"] == "X^3"
    assert doc["degree"] == 3


def test_gen_g_subspace(capsys):
    doc = run_json(
        capsys, ["gen-g", "--field", "3^2", "--kind", "subspace", "--basis", "1"]
    )
    assert doc["degree"] == 3


def test_gen_g_moebius(capsys):
    doc = run_json(
        capsys,
        [
            "gen-g",
            "--field",
            "7",
            "--kind",
            "moebius_post",
            "--g",
            "X^2",
            "--phi",
            "1 / X",
        ],
    )
    assert doc["degree"] == 2


def test_gen_g_missing_parameter_is_validation_error(capsys):
    assert run(["gen-g", "--field", "7", "--kind", "power"]) == 2
    assert "power needs --d" in capsys.readouterr().err


def test_verify_bounds_csv(capsys):
    code = run(
        [
            "verify-bounds",
            "--field",
            "7",
            "--kind",
            "conic",
            "--count",
            "2",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,q,degree,classification,observed,bound,pass"
    assert len(lines) > 1
    for line in lines[1:]:
        assert line.split(",")[1] == "7"


def test_verify_bounds_json_counts_violations(capsys):
    doc = run_json(
        capsys,
        ["verify-bounds", "--field", "5", "--kind", "random", "--count", "4",
         "--seed", "3"],
    )
    assert doc["seed"] == 3
    assert doc["violations"] == 0
    assert len(doc["reports"]) >= 4
    for rep in doc["reports"]:
        assert rep["pass"] is True


@pytest.mark.parametrize("max_degree", ["0", "-1"])
def test_verify_bounds_refuses_random_curves_of_degree_below_one(capsys, max_degree):
    start = time.perf_counter()
    code = run(["verify-bounds", "--field", "5", "--kind", "random",
                f"--max-degree={max_degree}", "--count", "2"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: max degree of random curves must be positive\n"


def test_identical_invocations_identical_bytes(capsys):
    argv = ["check-t31", "--field", "7", "--f", "(X^2+1)^2", "--g", "X^2",
            "--eps", "1/3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_malformed_input_exits_two(capsys):
    assert run(["eval", "--field", "7", "--f", "X^^2", "--x", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["eval", "--field", "4", "--f", "X", "--x", "1"]) == 2
    capsys.readouterr()
    assert run(["find-h", "--field", "7", "--f", "3", "--g", "X^2"]) == 2
    capsys.readouterr()
    assert run(["check-t31", "--field", "7", "--f", "X^4", "--g", "X^2",
                "--eps", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "X" + ")" * 3000, "-" * 3000 + "X"],
    ids=["parentheses", "unary-minus"],
)
def test_deeply_nested_expression_exits_two(capsys, text):
    # --f=... so that argparse does not read a leading '-' as an option
    assert run(["eval", "--field", "7", f"--f={text}", "--x", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_csv_rejected_outside_verify_bounds(capsys):
    assert run(["count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2",
                "--format", "csv"]) == 2
    assert "verify-bounds" in capsys.readouterr().err


def test_max_order_exits_three_and_restores_limit(capsys):
    before = limits.MAX_ORDER
    assert run(["--max-order", "5", "count-pairs", "--field", "7",
                "--f", "X^2", "--g", "X^2"]) == 3
    assert limits.MAX_ORDER == before
    capsys.readouterr()


def test_max_order_refuses_a_field_built_before(capsys):
    before = limits.MAX_ORDER
    argv = ["count-pairs", "--field", "2^5", "--f", "X^2", "--g", "X^2"]
    doc = run_json(capsys, argv)  # builds F_32, which is then kept
    assert run(["--max-order", "31"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert limits.MAX_ORDER == before
    assert run_json(capsys, argv) == doc


def test_cached_parser_matches_fresh_parser(capsys):
    before = limits.MAX_ORDER
    argvs = [
        ["factor-b", "--field", "3", "--poly", "1:(2,0); 2:(0,2)"],
        ["--max-order", "5", "count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2"],
        ["count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2"],
        ["verify-bounds", "--field", "5", "--kind", "conic", "--count", "2", "--seed", "3"],
        ["verify-bounds", "--field", "5", "--kind", "conic", "--count", "2"],
        ["find-h-mv", "--field", "5", "--f", "1:(2,2); 2:(1,1); 1:(0,0)", "--g", "X^2"],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 3, 0, 0, 0, 0]
    assert json.loads(fresh[4][1])["seed"] == 0
    for _ in range(2):
        assert [outcome(argv) for argv in argvs] == fresh
    assert cli._build_parser() is cli._build_parser()
    assert limits.MAX_ORDER == before


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--field", "7", "--f", "X^1025", "--x", "1"],
        ["eval", "--field", "7", "--f", "(X^2)^513", "--x", "1"],
        ["eval", "--field", "7", "--f", "X^600*X^600", "--x", "1"],
        ["eval", "--field", "7", "--f", "X^" + "9" * 5000, "--x", "1"],
        ["count-affine", "--field", "7", "--poly", "1:(100000000,0)"],
        ["find-h-mv", "--field", "5", "--f", "1:(0,1025); 1:(1,0)", "--g", "X^2"],
    ],
    ids=["exponent", "power-degree", "product-degree", "digits", "term-list", "mv-term-list"],
)
def test_degree_above_the_parser_cap_exits_three(capsys, argv):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_term_list_exponent_with_too_many_digits_exits_three(capsys):
    term = "1:(" + "9" * 5000 + ",0)"
    assert run(["count-affine", "--field", "7", "--poly", term]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert len(captured.err) < 200


def test_degree_at_the_parser_cap_parses(capsys):
    doc = run_json(capsys, ["eval", "--field", "7", "--f", "X^1024", "--x", "2"])
    assert doc["value"] == "2"  # 2 has order 3 mod 7, and 1024 = 1 mod 3
    doc = run_json(capsys, ["count-affine", "--field", "2", "--poly", "1:(1024,0); 1:(0,1)"])
    assert doc["count"] == 2


def test_unknown_command_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command", "--field", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "field", [str(2**4423 - 1), "2^" + "9" * 1000, "7^30"], ids=["huge-p", "huge-k", "7^30"]
)
def test_field_beyond_the_limit_exits_three_at_once(capsys, field):
    start = time.perf_counter()
    assert run(["field-info", "--field", field]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value", ["abc", "1", "-5", ""])
def test_malformed_max_order_variable_exits_two(value):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffdecomp.__file__)))
    env = dict(os.environ, FFDECOMP_MAX_ORDER=value, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ffdecomp.cli", "field-info", "--field", "5"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: FFDECOMP_MAX_ORDER must be an integer of at least 2"]


def test_main_delegates(capsys):
    assert main(["field-info", "--field", "5"]) == 0
    capsys.readouterr()
