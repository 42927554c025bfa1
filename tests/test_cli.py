"""End-to-end tests for the command-line interface.

Each test drives run() in-process and inspects the captured stdout, so the
exit-code contract and the report layout are pinned down together: 0 for a
completed computation (whatever the verdict), 2 for inputs that do not
validate, 3 for work the size limit refuses.
"""

import json

import pytest

from ffdecomp import limits
from ffdecomp.cli import main, run


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


def test_unknown_command_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command", "--field", "7"])
    assert exc.value.code == 2


def test_main_delegates(capsys):
    assert main(["field-info", "--field", "5"]) == 0
    capsys.readouterr()
