"""End-to-end tests for the command-line interface.

Each test drives run() in-process and inspects the captured stdout (the
environment variable read at import is tested in a subprocess), so the
exit-code contract and the report layout are pinned down together: 0 for a
completed computation (whatever the verdict), 2 for inputs that do not
validate, 3 for work the size limit refuses.
"""

import contextlib
import io
import itertools
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import ffdecomp
from ffdecomp import __version__, cli, limits, mvar
from ffdecomp.cli import main, run
from ffdecomp.gf_core import TABLE_MAX_ORDER, build_field
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


def test_find_h_and_find_h_mv_give_the_same_h(capsys):
    # 5*X / X+2 and 6*X+4 / X+4 both compose to f; one key, the dense
    # coefficient indices with the constant term first, picks the first
    g = "(2*X^2+4*X+3)/(X^2+5*X+3)"
    doc = run_json(capsys, ["find-h", "--field", "7", "--f", "(6*X^2+6*X+3)/(X^2+5*X+3)", "--g", g])
    f_mv = "6:(2); 6:(1); 3:(0) / 1:(2); 5:(1); 3:(0)"
    doc_mv = run_json(capsys, ["find-h-mv", "--field", "7", "--f", f_mv, "--g", g])
    assert (doc["h"], doc_mv["h"]) == ("5*X / X+2", "5*X1 / X1+2")


def test_find_h_mv_tie_in_two_variables_reads_the_constant_term_first(capsys):
    # X1^2+X2 and X1^2+X2+1 both compose to f under X^2+X over F_2
    f = "1:(4,0); 1:(0,2); 1:(2,0); 1:(0,1)"
    doc = run_json(capsys, ["find-h-mv", "--field", "2", "--f", f, "--g", "X^2+X"])
    assert doc["h"] == "X1^2+X2"


def test_find_h_mv_in_one_variable_is_not_capped(capsys):
    # d + delta = 12 is above the search cap, which holds for n >= 2 only;
    # find-h answers the same f
    doc = run_json(capsys, ["find-h-mv", "--field", "7", "--f", "1:(10)", "--g", "X^2"])
    assert doc["h"] == "X1^5" and doc["verified"] is True
    assert run_json(capsys, ["find-h", "--field", "7", "--f", "X^10", "--g", "X^2"])["h"] == "X^5"


def test_gen_g_power(capsys):
    doc = run_json(capsys, ["gen-g", "--field", "7", "--kind", "power", "--d", "3"])
    assert doc["g"] == "X^3"
    assert doc["degree"] == 3


def test_gen_g_subspace(capsys):
    doc = run_json(
        capsys, ["gen-g", "--field", "3^2", "--kind", "subspace", "--basis", "1"]
    )
    assert doc["degree"] == 3


def test_gen_g_subspace_over_a_large_prime_answers_quickly(capsys):
    # the span of 1 is F_p, and the linearized recurrence gives X^p - X at
    # once; a product of the p linear factors took minutes
    t0 = time.monotonic()
    doc = run_json(capsys, ["gen-g", "--field", "65537", "--kind", "subspace", "--basis", "1"])
    assert doc["g"] == "X^65537+65536*X"
    assert time.monotonic() - t0 < 1.0


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
    assert run(["eval", "--field", "7", "--f", "X^\u00b2", "--x", "1"]) == 2
    assert "digits" not in capsys.readouterr().err
    assert run(["eval", "--field", "4", "--f", "X", "--x", "1"]) == 2
    capsys.readouterr()
    assert run(["find-h", "--field", "7", "--f", "3", "--g", "X^2"]) == 2
    capsys.readouterr()
    assert run(["check-t31", "--field", "7", "--f", "X^4", "--g", "X^2",
                "--eps", "2"]) == 2
    capsys.readouterr()


_EPS_ERROR = "error: epsilon 2 must satisfy 0 < eps <= 1\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["check-t31", "--f", "3", "--g", "X^2"], "error: f must be nonconstant\n"),
        (["check-t41", "--f", "3:(0,0)", "--g", "X^2"], "error: f must be nonconstant\n"),
        (["check-t31", "--f", "X^4", "--g", "X^2"], _EPS_ERROR),
        (["check-t41", "--f", "1:(2,2); 1:(0,0)", "--g", "X^2"], _EPS_ERROR),
    ],
    ids=["t31-constant-f", "t41-constant-f", "t31-bad-eps", "t41-bad-eps"],
)
def test_graded_checks_refuse_a_constant_f_before_a_bad_eps(capsys, argv, err):
    # the argument check of f and g runs before the check of eps
    assert run(argv + ["--field", "7", "--eps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("eps", ["1e5000", "1e-800", "1/" + "7" * 700])
@pytest.mark.parametrize(
    "argv",
    [["check-t31", "--f", "X^4", "--g", "X^2"], ["check-t41", "--f", "1:(2,2); 1:(0,0)", "--g", "X^2"]],
    ids=["t31", "t41"],
)
def test_graded_checks_refuse_an_eps_whose_report_could_not_be_printed(capsys, argv, eps):
    # the report holds eps^-6, and int() prints a limited number of digits;
    # 1e5000 printed a traceback where the range check quoted it
    assert run(argv + ["--field", "7", "--eps", eps]) == 3
    assert capsys.readouterr() == ("", "error: epsilon has too many digits to print its report\n")
    assert run(argv + ["--field", "7", "--eps", "1e-600"]) == 0


@pytest.mark.parametrize("eps", ["1e-9999999", "1e9999999"])
def test_an_eps_with_a_huge_exponent_is_refused_before_its_power_is_built(capsys, eps):
    # Fraction() alone spends seconds building 10^9999999
    t0 = time.perf_counter()
    assert run(["check-t31", "--field", "7", "--f", "X^4", "--g", "X^2", "--eps", eps]) == 3
    elapsed = time.perf_counter() - t0
    assert capsys.readouterr() == ("", "error: epsilon has too many digits to print its report\n")
    assert elapsed < 1, f"{elapsed:.2f} s"


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


_EXPRESSIONS = st.recursive(
    st.sampled_from(["X", "x", "1", "2", "12", "[1,1]", "\u0663"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " - "]), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.tuples(inner, st.sampled_from(["^2", "^3"])).map("".join),
    ),
    max_leaves=6,
)
_TERM_LISTS = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.tuples(
            st.sampled_from(["1", "2", "-1", "[1,1]"]),
            st.lists(st.integers(0, 3).map(str), min_size=width, max_size=width).map(",".join),
        ).map("{0[0]}:({0[1]})".format),
        min_size=1,
        max_size=4,
    ).map("; ".join)
)


def _edited(texts, alphabet="X1+-*^()[],/:; \t\u00b2Y"):
    """texts with one character of alphabet inserted, replaced or deleted."""
    chars = st.sampled_from(list(alphabet) + [""])
    return st.tuples(texts, st.integers(0, 30), chars, st.booleans()).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + (not t[3]) :]
    )


def _cli_texts(valid):
    """Texts for one option: mostly what it takes, and edits and noise."""
    noise = st.text("Xx0123456789+-*^()[],/:; \t", max_size=20)
    return st.one_of(valid, valid, _edited(valid), noise)


_RATIONAL = _EXPRESSIONS | st.tuples(_EXPRESSIONS, st.just(" / "), _EXPRESSIONS).map("".join)
_TEXT_OPTIONS = {
    "eval": (("--f", _RATIONAL),),
    "compose": (("--g", _RATIONAL), ("--h", _RATIONAL)),
    "find-h": (("--f", _RATIONAL), ("--g", _RATIONAL)),
    "find-h-mv": (
        ("--f", _TERM_LISTS | st.tuples(_TERM_LISTS, st.just(" / "), _TERM_LISTS).map("".join)),
        ("--g", _RATIONAL),
    ),
}


def _command_lines(command):
    """command and each of its text options, set to a drawn text."""
    options = [
        _cli_texts(texts).map(f"{option}={{}}".format) for option, texts in _TEXT_OPTIONS[command]
    ]
    return st.tuples(st.just(command), *options)


@settings(max_examples=150, deadline=5000)
@given(
    st.sampled_from(["7", "3^2", "2^5", "101"]),
    st.sampled_from(sorted(_TEXT_OPTIONS)).flatmap(_command_lines),
)
def test_text_boundary_fuzz_ends_in_a_known_exit(field, command_and_options):
    # every text ends in an answer (exit 0) or one error line (exit 2 for an
    # invalid input, 3 for one too large), never in a traceback
    command, *options = command_and_options
    argv = [command, "--field", field, *options, *(["--x=2"] if command == "eval" else [])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert out.getvalue() == ""


_SWEEP_FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "11", "13"]
# random curves of degree 4 over F_13 take seconds, so they stay on q <= 5
_RANDOM_CURVE_FIELDS = ["2", "3", "2^2", "5"]
_ODD_VALUES = ["", "x", "1.5", "0x2", " 2", "\uff12", "1e1", "-", "--", "Conic", "9" * 5000]


def _sweep_options(kind):
    """verify-bounds options for one --kind, with values valid in form."""
    fields = _RANDOM_CURVE_FIELDS if kind == "random" else _SWEEP_FIELDS
    return st.tuples(
        st.sampled_from(fields),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(-(10**12), 10**12),
    ).map(
        lambda t: {
            "--field": t[0], "--kind": kind, "--count": str(t[1]),
            "--max-degree": str(t[2]), "--seed": str(t[3]),
        }
    )


@settings(max_examples=150, deadline=5000)
@given(
    st.sampled_from(["random", "conic", "norm_form"]).flatmap(_sweep_options),
    st.lists(
        st.tuples(
            st.sampled_from(["--kind", "--count", "--max-degree", "--seed"]),
            st.sampled_from(_ODD_VALUES) | st.text("-x.e ", max_size=4),
        ),
        max_size=1,
    ),
)
def test_verify_bounds_fuzz_ends_in_a_known_exit(options, odd):
    # every option text ends in a report with no violation (exit 0) or in an
    # exit 2 with one error line; argparse refuses a value that is no int or
    # no choice itself, with its usage lines above that error line
    options.update(odd)
    argv = ["verify-bounds", *(f"{name}={value}" for name, value in options.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv
    if code == 0:
        assert json.loads(out.getvalue())["violations"] == 0, argv
    else:
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if "error: " in line]
        assert errors == lines[-1:], (argv, lines)
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""


_CURVE_TERM_LISTS = st.lists(
    st.tuples(
        st.sampled_from(["1", "2", "-1", "0", "[1,1]"]), st.integers(0, 3), st.integers(0, 3)
    ).map("{0[0]}:({0[1]},{0[2]})".format),
    min_size=1,
    max_size=6,
).map("; ".join)


@settings(max_examples=150, deadline=5000)
@given(
    st.sampled_from(["factor-b", "count-affine", "count-projective"]),
    st.sampled_from(_SWEEP_FIELDS),
    st.one_of(
        _CURVE_TERM_LISTS, _CURVE_TERM_LISTS, _edited(_CURVE_TERM_LISTS), st.text(max_size=30)
    ),
)
def test_term_list_fuzz_ends_in_a_known_exit(command, field, poly):
    # every --poly text ends in a report (exit 0) or in an exit 2 or 3 with
    # one error line, below argparse's usage lines when argparse refuses it
    argv = [command, "--field", field, f"--poly={poly}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv
    if code == 0:
        json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if "error: " in line]
        assert errors == lines[-1:], (argv, lines)
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--field", "7", "--f=--", "--x=2"],
        ["find-h-mv", "--field", "7", "--f=--", "--g=X^2"],
        ["compose", "--field", "7", "--g=X", "--h=--"],
        ["verify-bounds", "--field", "7", "--count=--"],
        ["--max-order=--", "field-info", "--field", "7"],
        ["field-info", "--field=--"],
    ],
)
def test_option_value_of_two_dashes_exits_two(capsys, argv):
    # argparse hands --name=-- over as an empty list, not as the text "--"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no value for --")
    assert len(captured.err.splitlines()) == 1


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
    # main restores the default SIGPIPE action; put back the test process's own
    saved = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    try:
        assert main(["field-info", "--field", "5"]) == 0
    finally:
        if saved is not None:
            signal.signal(signal.SIGPIPE, saved)
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_pipe_ends_the_command_without_a_traceback():
    # the report, about 170 kB, outgrows the pipe, so the command is still
    # writing when the reader closes it after 150 bytes, as `| head -c 150` does
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffdecomp.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffdecomp.cli", "verify-bounds", "--field", "7",
         "--kind", "conic", "--count", "400"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(150)
    proc.stdout.close()
    proc.wait(timeout=60)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert len(head) == 150
    assert "Traceback" not in err and err == ""
    assert proc.returncode == -signal.SIGPIPE


# --------------------------------------------------------------------------
# the canonical reader: run reads `<command> --option value ...` from the
# option table that _build_parser keeps beside the parser, and leaves every
# other command line to argparse


def _plain_value(action):
    """Value texts that argparse stores for action as they are, converted."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 300).map(str)
    return st.sampled_from(["7", "2^3", "X^2+1", "X+1 / X", "1/2", "1:(1,1); 2:(0,0)", "inf", "x y"])


def _option_at(draw, argv, options):
    """A drawn index of an option token of argv, or None when it has none."""
    found = [i for i, token in enumerate(argv) if token in options]
    return draw(st.sampled_from(found)) if found else None


def _abbreviate(draw, argv, options):
    i = _option_at(draw, argv, options)
    if i is not None:
        argv[i] = argv[i][: draw(st.integers(3, max(3, len(argv[i]) - 1)))]


def _join_with_equals(draw, argv, options):
    i = _option_at(draw, argv, options)
    if i is not None and i + 1 < len(argv):
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]


def _odd_value(draw, argv, options):
    i = _option_at(draw, argv, options)
    if i is not None and i + 1 < len(argv):
        argv[i + 1] = draw(st.sampled_from(["-1", "-X", "", " 2", "\u0663"]))


def _wrong_value(draw, argv, options):
    # a non-int for --count, --seed, --r or --d, a non-choice for --kind or --format
    found = [i for i, token in enumerate(argv[:-1]) if token in options
             and (options[token].type is int or options[token].choices is not None)]
    if found:
        i = draw(st.sampled_from(found))
        argv[i + 1] = draw(st.sampled_from(["x", "1.5", "0x2", "Conic", "JSON", "xml"]))


def _repeat_option(draw, argv, options):
    i = _option_at(draw, argv, options)
    if i is not None:
        argv += [argv[i], draw(_plain_value(options[argv[i]]))]


def _drop_option(draw, argv, options):
    i = _option_at(draw, argv, options)
    if i is not None:
        del argv[i : i + 2]


def _insert_token(draw, argv, options):
    # -h, --help, a bare --, or a stray token
    token = draw(st.sampled_from(["-h", "--help", "--", "X", "7", "--nope", "field-info"]))
    argv.insert(draw(st.integers(1, len(argv))), token)


def _max_order(draw, argv, options):
    # before the command, where argparse reads it, or after it, where it does not
    argv[draw(st.sampled_from([0, 1])) : 0] = ["--max-order", draw(st.sampled_from(["5", "100"]))]


_EDITS = [_abbreviate, _join_with_equals, _odd_value, _wrong_value, _repeat_option,
          _drop_option, _insert_token, _max_order]


@settings(max_examples=500, deadline=2000)
@given(st.data())
def test_canonical_reader_agrees_with_argparse(data):
    # whenever the reader takes a line, argparse takes it too and gives the
    # same Namespace, key order included; an unedited line is always taken
    parser, table = cli._build_parser()
    command = data.draw(st.sampled_from(sorted(table)), label="command")
    options = table[command][0]
    actions = list(dict.fromkeys(options.values()))
    argv = [command]
    for action in data.draw(st.permutations([a for a in actions if a.required or data.draw(st.booleans())])):
        argv += [action.option_strings[0], data.draw(_plain_value(action))]
    edits = data.draw(st.lists(st.sampled_from(_EDITS), max_size=2), label="edits")
    for edit in edits:
        edit(data.draw, argv, options)
    read = cli._read_canonical(argv, table)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            expected = None
    if not edits:
        assert read is not None, argv
    if read is not None:
        assert expected is not None, argv
        assert list(vars(read).items()) == list(vars(expected).items()), argv


_README = Path(__file__).resolve().parent.parent / "README.md"
_README_LINES = [
    shlex.split(line)[1:] for line in _README.read_text().splitlines() if line.startswith("ffdecomp ")
]
_ONE_LINE_PER_COMMAND = [
    ["field-info", "--field", "3^2"],
    ["field-info", "--field", "7^30"],
    ["eval", "--field", "7", "--f", "X^2+1 / X", "--x", "3"],
    ["compose", "--field", "7", "--g", "X^2", "--h", "X+1 / X"],
    ["factor-u", "--field", "5", "--poly", "X^4+4"],
    ["factor-b", "--field", "3", "--poly", "1:(2,0); 2:(0,2)"],
    ["count-affine", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"],
    ["count-projective", "--field", "7", "--poly", "1:(2,0); 6:(0,1)"],
    ["count-pairs", "--field", "7", "--f", "X^2", "--g", "X^3"],
    ["fibers", "--field", "7", "--g", "X^3", "--value", "1"],
    ["check-t1", "--field", "7", "--f", "(X^2+1)^2", "--g", "X^2"],
    ["check-t31", "--field", "7", "--f", "X^4", "--g", "X^2", "--eps", "2"],
    ["check-t41", "--field", "5", "--f", "1:(2,2); 1:(0,0)", "--g", "X^2", "--eps", "1/2"],
    ["find-h", "--field", "2^3", "--f", "X^4+X", "--g", "X^2"],
    ["find-h-mv", "--field", "5", "--f", "1:(2,2); 2:(1,1); 1:(0,0)", "--g", "X^2"],
    ["gen-g", "--kind", "subspace", "--field", "7", "--kind", "power", "--d", "3"],
    ["verify-bounds", "--field", "5", "--kind", "conic", "--count", "2", "--seed", "3", "--format", "csv"],
]


def _outcome(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_lines_below_cover_every_command():
    assert len(_README_LINES) >= 7
    assert {argv[0] for argv in _ONE_LINE_PER_COMMAND} == set(cli._build_parser()[1])


@pytest.mark.parametrize("argv", _README_LINES + _ONE_LINE_PER_COMMAND, ids=" ".join)
def test_reader_and_argparse_give_the_same_run(capsys, monkeypatch, argv):
    # same stdout, stderr and exit code, an answer or a refusal, whichever reads the line
    assert cli._read_canonical(argv, cli._build_parser()[1]) is not None
    by_the_table = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_canonical", lambda argv, table: None)
    assert _outcome(capsys, argv) == by_the_table


@pytest.mark.parametrize(
    "argv",
    [
        ["count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2"],
        ["gen-g", "--field", "7", "--kind", "power"],
        ["--max-order", "5", "count-pairs", "--field", "7", "--f", "X^2", "--g", "X^2"],
        ["fibers", "--field", "7", "--g=X^2"],
    ],
    ids=["table", "table-exit-2", "argparse-exit-3", "argparse"],
)
def test_run_without_argv_and_main_read_sys_argv(capsys, monkeypatch, argv):
    # the installed ffdecomp script is cli:main, which passes no argv
    lines, read = [], cli._read_canonical
    monkeypatch.setattr(cli, "_read_canonical", lambda line, table: lines.append(line) or read(line, table))
    monkeypatch.setattr(sys, "argv", ["ffdecomp", *argv])
    expected = _outcome(capsys, sys.argv[1:])
    assert _outcome(capsys, None) == expected
    saved = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    try:
        assert (main(), *capsys.readouterr()) == expected
    finally:
        if saved is not None:
            signal.signal(signal.SIGPIPE, saved)
    assert lines == [argv] * 3


class _Overrun(BaseException):
    """The time given to a command ran out (a BaseException, so that no
    `except Exception` in the package catches it)."""


@contextlib.contextmanager
def _time_limit(seconds):
    """Interrupt the block with _Overrun after seconds of wall time, on
    platforms with interval timers."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def overrun(signum, frame):
        raise _Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _fuzzed(corpus, alphabet):
    """Texts for one option: mostly from corpus, and one-character edits and noise."""
    texts = st.sampled_from(corpus)
    return st.one_of(texts, texts, _edited(texts, alphabet), st.text(alphabet, max_size=8))


_FIELDS = _fuzzed(
    ["2", "3", "5", "7", "11", "101", "65537", "2^2", "2^3", "3^2", "2^5", "5^2", "3^2/2,2,1",
     "2^4/1,1,0,0,1"],
    "0123456789^/, -x\u0663",
)
_EPS = _fuzzed(
    ["1/2", "1", "1/3", "2/3", "0", "2", "-1/2", "1/0", "0.5", "1e-1", " 1/2 ", "\u0661/\u0662"],
    "0123456789/.-e \u0663",
)
_MAX_ORDERS = _fuzzed(
    ["2", "5", "31", "100", "1000000", "1", "0", "-3", "x", "", " 9", "\u0669", "9" * 30],
    "0123456789 -x\u0663",
)
_FUNCTIONS = st.sampled_from(["X^2", "X^3+X", "(X^2+1)^2", "X+1 / X", "X^4", "[0,1]*X^2", "x"])


def _maybe(texts):
    """texts, or None for an option left out."""
    return st.none() | texts


_FUZZED_COMMANDS = {
    "field-info": {},
    "factor-u": {"--poly": st.sampled_from(["X^2+1", "X^4+4", "X^6-1", "[1,1]*X", "0"])},
    "count-pairs": {"--f": _FUNCTIONS, "--g": _FUNCTIONS},
    "fibers": {"--g": _FUNCTIONS, "--value": _maybe(st.sampled_from(["0", "1", "inf", "[0,1]", "x"]))},
    "check-t1": {"--f": _FUNCTIONS, "--g": _FUNCTIONS},
    "check-t31": {"--f": _FUNCTIONS, "--g": _FUNCTIONS, "--eps": _EPS},
    "check-t41": {
        "--f": st.sampled_from(["1:(2,2); 2:(1,1); 1:(0,0)", "1:(2,0); 1:(0,2)", "1:(3,0)",
                                "1:(1,1) / 1:(0,1); 1:(0,0)"]),
        "--g": _FUNCTIONS,
        "--eps": _EPS,
    },
    "gen-g": {
        "--kind": st.sampled_from(["artin_schreier", "subspace", "power", "moebius_pre", "moebius_post"]),
        "--r": _maybe(st.sampled_from(["1", "2", "3", "4", "8", "9"])),
        "--d": _maybe(st.sampled_from(["0", "1", "2", "3", "4", "6"])),
        "--basis": _maybe(st.sampled_from(["1", "1;[0,1]", "[1,1]", ";"])),
        "--g": _maybe(_FUNCTIONS),
        "--phi": _maybe(st.sampled_from(["1 / X", "X+1", "X^2", "2*X+1 / X+3"])),
    },
}


def _fuzzed_line(command):
    """(--max-order text or None, command, its options in a drawn order)."""
    options = st.fixed_dictionaries({"--field": _FIELDS, **_FUZZED_COMMANDS[command]}).map(
        lambda drawn: [(name, text) for name, text in drawn.items() if text is not None]
    )
    return st.tuples(_maybe(_MAX_ORDERS), st.just(command), options.flatmap(st.permutations))


def _known_to_take_minutes(command, options, max_order):
    """Whether the size limit lets the line through to work that takes
    minutes: the pair counts and the fiber survey over q^n > 2^20 points or
    over an extension field past the log tables.  The limit caps the field,
    not the work (ROADMAP items 6 and 11); test_known_slow_lines_take_minutes
    pins these."""
    options = dict(options)
    base, caret, exp = options["--field"].strip().partition("/")[0].partition("^")
    try:
        p, k = int(base), int(exp) if caret else 1
        limit = limits.MAX_ORDER if max_order is None else int(max_order)
    except ValueError:
        return False
    if p < 2 or not 1 <= k < limit.bit_length():
        return False  # refused before any work
    q = p**k
    walks = ("count-pairs", "fibers", "check-t1", "check-t31", "check-t41")
    if command in walks and "--value" not in options:
        points = q ** (2 if command == "check-t41" else 1)
        return q <= limit and (points > 2**20 or k > 1 and q > TABLE_MAX_ORDER)
    return False


@settings(max_examples=300, deadline=5000)
@given(st.sampled_from(sorted(_FUZZED_COMMANDS)).flatmap(_fuzzed_line))
def test_command_fuzz_in_separate_tokens_ends_in_a_known_exit(line):
    # options as separate tokens, so that canonical lines are read from the
    # table and the rest by argparse; each ends in a report (exit 0) or in an
    # exit 2 or 3 with one error line, below argparse's usage lines when
    # argparse refuses it, and never in a traceback
    max_order, command, options = line
    assume(not _known_to_take_minutes(command, options, max_order))
    head = [] if max_order is None else ["--max-order", max_order]
    argv = [*head, command, *itertools.chain.from_iterable(options)]
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(30), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3), argv
    if code == 0:
        json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        errors = [line for line in lines if "error: " in line]
        assert lines and errors == lines[-1:], (argv, lines)
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["count-pairs", "--field", "2^17", "--f", "(X^2+[0,1])/(X+[0,0,1])", "--g", "X^3"],
        ["check-t41", "--field", "8191", "--f", "1:(2,2); 1:(0,0)", "--g", "X^2", "--eps", "1/2"],
    ],
    ids=["extension-past-the-tables", "plane-grid-below-the-limit"],
)
def test_known_slow_lines_take_minutes(capsys, argv):
    # each is within the size limit and takes minutes (ROADMAP items 6 and
    # 11), so it is an expected failure; once its work is capped it ends at
    # once, and then this test fails until the line leaves both lists
    try:
        with _time_limit(1):
            code = run(argv)
    except _Overrun:
        code = None  # xfail outside the handler, so that no _Overrun traceback is chained
    capsys.readouterr()
    if code is None:
        pytest.xfail("the size limit caps the field, not the work")
    pytest.fail(f"ended at once with exit {code}: drop it here and from _known_to_take_minutes")


def _cubes_of_quadrics(seed):
    """"N^3 / D^3" as term lists, for two random quadrics N and D in X1, X2
    and X3 over F_7 drawn from seed."""
    rng = random.Random(seed)
    keys = [key for key in itertools.product(range(3), repeat=3) if sum(key) <= 2]
    lists = []
    for _ in range(2):
        terms = {}
        while not any(terms.get(key) for key in keys if sum(key) == 2):
            terms = {key: rng.randrange(7) for key in keys}
        cube = MPoly.from_terms(build_field(7), 3, terms) ** 3
        lists.append("; ".join(f"{c}:({','.join(map(str, key))})" for key, c in sorted(cube.idx.items())))
    return " / ".join(lists)


@pytest.mark.parametrize(
    "argv",
    [
        ["factor-b", "--field", "13", "--poly", "1:(0,12); -1:(14,0); 1:(2,0); -1:(0,0)"],
        ["find-h-mv", "--field", "7", "--f", _cubes_of_quadrics(3), "--g", "X^3"],
    ],
    ids=["recombination-by-subsets", "gcd-of-coprime-cubes"],
)
def test_found_slow_inputs_take_seconds(capsys, argv):
    # the factor-b line tests subsets for about 3 s and is then refused with
    # exit 3 (ROADMAP item 3); the find-h-mv line takes about 9 s, nearly
    # all of it in mpoly_gcd of the two coprime cubes while f is read (item
    # 4); so each is an expected failure, and once its item lands the line
    # ends at once, and this test fails until the line is removed here
    try:
        with _time_limit(1):
            code = run(argv)
    except _Overrun:
        code = None  # xfail outside the handler, so that no _Overrun traceback is chained
    capsys.readouterr()
    if code is None:
        pytest.xfail("slow on a small input")
    pytest.fail(f"ended at once with exit {code}: drop it here")
