"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refarith as ra  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ff():
    return run.import_ffdecomp()


# --------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name]

    def argvs(seed):
        return [op.argvs for op in make(seed, count=40)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_mix_does_not_depend_on_the_seed(name):
    make = workloads.WORKLOADS[name]

    def fields(seed):
        return [op.argvs[0][:3] for op in make(seed, count=60)]

    assert fields(1) == fields(2)


# --------------------------------------------------------------------------
# spans


def _tree() -> spans.Recorder:
    """A hand-built trace of one operation (times in seconds).

    bench.op 0-10
      cli.run 1-9
        bounds.verify_bounds_on_sample 2-8
          bipoly.is_absolutely_irreducible 2.5-7.5
            bipoly.kronecker_factor 3-4
              upoly.factor 3.25-3.75
            bipoly.kronecker_factor 5-7
              bipoly.kronecker_factor 5.5-6.5
    """
    rec = spans.Recorder()
    op = rec.add("bench.op", 0, 10)
    cli = rec.add("cli.run", 1, 9, op)
    vb = rec.add("bounds.verify_bounds_on_sample", 2, 8, cli)
    irr = rec.add("bipoly.is_absolutely_irreducible", 2.5, 7.5, vb)
    kf1 = rec.add("bipoly.kronecker_factor", 3, 4, irr)
    rec.add("upoly.factor", 3.25, 3.75, kf1)
    kf2 = rec.add("bipoly.kronecker_factor", 5, 7, irr)
    rec.add("bipoly.kronecker_factor", 5.5, 6.5, kf2)
    return rec


def test_self_and_busy_time_on_a_hand_built_tree():
    rows = spans.summarize(_tree())
    expect_self = {
        "bench.op": 2.0,
        "cli.run": 2.0,
        "bounds.verify_bounds_on_sample": 1.0,
        "bipoly.is_absolutely_irreducible": 2.0,
        "bipoly.kronecker_factor": 0.5 + 1.0 + 1.0,
        "upoly.factor": 0.5,
    }
    for name, value in expect_self.items():
        assert rows[name]["self_s"] == pytest.approx(value), name
    # the nested kronecker_factor is inside another one: busy once, called thrice
    assert rows["bipoly.kronecker_factor"]["busy_s"] == pytest.approx(3.0)
    assert rows["bipoly.kronecker_factor"]["calls"] == 3
    assert rows["bipoly.is_absolutely_irreducible"]["busy_s"] == pytest.approx(5.0)
    # self times partition the root span
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)


def test_summarize_scales_each_operation_by_its_own_factor():
    rec = _tree()
    rec.add("bench.op", 20, 24, op=1)
    rows = spans.summarize(rec, [2.0, 0.5])
    assert rows["bench.op"]["busy_s"] == pytest.approx(10.0 * 2.0 + 4.0 * 0.5)
    assert rows["upoly.factor"]["self_s"] == pytest.approx(0.5 * 2.0)


def test_children_per_call_counts_direct_children_only():
    rec = _tree()
    irr, kf = "bipoly.is_absolutely_irreducible", "bipoly.kronecker_factor"
    assert spans.children_per_call(rec, irr, kf) == 2
    assert spans.children_per_call(rec, "decomp.find_h", "upoly.rat_compose") == 0


def test_found_share():
    rec = _tree()
    rec.found[3] = True
    assert spans.found_share(rec, "bipoly.is_absolutely_irreducible") == 1.0
    assert spans.found_share(rec, "bipoly.kronecker_factor") == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_whole_cycles_set_by_the_arguments(name):
    per_cycle, cycle_seconds = workloads.TRACE_CYCLES[name]
    count = workloads.trace_ops(name, 40)
    assert count % per_cycle == 0 and count == workloads.trace_ops(name, 40)
    assert workloads.trace_ops(name, 0.01) == per_cycle
    assert workloads.trace_ops(name, 4 * cycle_seconds) == 4 * per_cycle


# --------------------------------------------------------------------------
# known-answer bookkeeping


def test_verdicts_check_once_and_keep_no_text_beyond_the_digest_ops():
    checked = []

    def check(outs):
        checked.append(outs)
        return None if outs == ["right"] else "wrong"

    n = run.DIGEST_OPS + 2
    v = run.Verdicts([workloads.Op([["x"]], check, f"op{i}") for i in range(n)])
    for _ in range(3):
        for idx in range(n):
            v.record(idx, ["right"], None)
    assert len(checked) == n and v.failed == 0 and v.attempted == 3 * n
    assert set(v.texts) == set(range(run.DIGEST_OPS))
    v.record(n - 1, ["other"], None)  # differs from the first run of that input
    v.record(0, [], "raised")
    assert v.failed == 2 and len(checked) == n
    w = run.Verdicts([workloads.Op([["x"]], check, "bad")])
    w.record(0, ["wrong"], None)
    w.record(0, ["wrong"], None)  # a repeat keeps the verdict of the first run
    assert w.failed == 2 and len(checked) == n + 1


# --------------------------------------------------------------------------
# percentiles


def test_percentile_reports_sample_count():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == (90, 100, 10)
    assert run.percentile(values, 50) == (50, 100, 50)
    assert run.percentile(list(range(1, 110)), 90) == (99, 109, 10)
    assert run.percentile([4.0], 90) == (4.0, 1, 0)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_reference_speed_scaling_cancels_a_slow_stretch():
    ref, w = run.REFERENCE_PROBE_S, run.PROBE_WINDOW
    n = 10 * w
    # the same work: the second half runs on a machine 1.5 times slower
    times = [0.010] * (n // 2) + [0.015] * (n // 2)
    probes = [ref] * (n // 2) + [1.5 * ref] * (n // 2)
    scaled = run.at_reference_speed(times, probes)
    assert scaled[: n // 2 - w] == pytest.approx([0.010] * (n // 2 - w))
    assert scaled[n // 2 + w:] == pytest.approx([0.010] * (n // 2 - w))
    # one slow probe does not move the speed of its neighbours
    probes = [ref] * n
    probes[n // 2] = 10 * ref
    assert run.at_reference_speed([0.010] * n, probes) == pytest.approx([0.010] * n)


# --------------------------------------------------------------------------
# name patching


def _names(ff):
    modules = [m for n, m in sys.modules.items() if n == "ffdecomp" or n.startswith("ffdecomp.")]
    return {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}


def test_tracer_patches_callers_and_restores_every_name(ff):
    op = workloads.Op(
        [["check-t31", "--field", "7", "--f", "X^4+2*X^2+1", "--g", "X^2", "--eps", "1/2"]],
        check=None,
        label="t31",
    )
    before = _names(ff)
    rec = spans.Recorder()
    with spans.Tracer(rec):
        assert hasattr(ff.decomp.count_affine, "__wrapped__")
        assert hasattr(ff.cli.run, "__wrapped__")
        outs, err = run.execute(ff.cli, op)
    assert err is None
    names = rec.names
    assert names[0] == "cli.run"
    affine = names.index("bipoly.count_affine")
    assert names[rec.parents[affine]] == "decomp.count_pairs"

    after = _names(ff)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__qualname__", "") == "_wrap.<locals>.traced" for v in after.values())

    # an untraced run afterwards records nothing and prints the same bytes
    count = len(rec)
    again, err = run.execute(ff.cli, op)
    assert err is None and again == outs
    assert len(rec) == count


# --------------------------------------------------------------------------
# reference arithmetic and known-answer checks


@pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (101, 1), (2, 9), (3, 2), (13, 1)])
def test_reference_field_matches_ffdecomp(ff, p, k):
    F = ra.Field(p, k)
    spec = ff.gf_core.build_field(p, k)
    assert F.modulus == spec.modulus
    rng = random.Random(p * 100 + k)
    for _ in range(50):
        a, b = rng.randrange(F.q), rng.randrange(1, F.q)
        ea, eb = spec.from_index(a), spec.from_index(b)
        assert F.mul(a, b) == (ea * eb).index
        assert F.add(a, b) == (ea + eb).index
        assert F.inv(b) == eb.inverse().index
        assert F.fmt(a) == str(ea)


def test_reference_composition_matches_ffdecomp(ff):
    F = ra.Field(3, 4)
    spec = ff.gf_core.build_field(3, 4)
    rng = random.Random(3)
    g = [rng.randrange(F.q) for _ in range(3)] + [1]
    h = [rng.randrange(F.q) for _ in range(3)]
    parse = ff.parsing.parse_ratfun
    composed = ff.upoly.rat_compose(parse(spec, ra.fmt_poly(F, g)), parse(spec, ra.fmt_poly(F, h)))
    assert ra.fmt_poly(F, ra.compose(F, g, h)) == str(composed)
    assert ra.parse_poly(F, str(composed)) == ra.compose(F, g, h)


def _tamper(text: str, **changes) -> str:
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def test_decompose_check_accepts_the_answer_and_rejects_a_wrong_one(ff):
    op = next(op for op in workloads.decompose_ops(5, count=30) if "q=32 " in op.label and "planted" in op.label)
    outs, err = run.execute(ff.cli, op)
    assert err is None
    assert op.check(outs) is None
    assert op.check([_tamper(outs[0], pair_count=-1), outs[1]]) is not None
    assert op.check([outs[0], _tamper(outs[1], h=None, verified=False)]) is not None
    assert op.check([outs[0], _tamper(outs[1], h="X")]) is not None


def test_multivar_check_accepts_the_answer_and_rejects_a_wrong_one(ff):
    op = next(op for op in workloads.multivar_ops(5, count=8) if "q=3 " in op.label and "planted" in op.label)
    outs, err = run.execute(ff.cli, op)
    assert err is None
    assert op.check(outs) is None
    assert op.check([_tamper(outs[0], h="X1+X2"), outs[1]]) is not None
    assert op.check([outs[0], _tamper(outs[1], pair_count=0)]) is not None


def test_bound_sweep_check_rejects_wrong_classifications():
    def doc(kind, **report):
        r = {"instance": "0/0/affine", "q": 5, "degree": 2, "classification": "absolutely-irreducible",
             "observed": 6, "bound": "", "pass": True}
        r.update(report)
        return [json.dumps({"violations": 0, "reports": [r]})]

    norm = workloads._check_sweep("norm_form", 5)
    assert norm(doc("norm_form", classification="not-absolutely-irreducible", observed=1)) is None
    assert norm(doc("norm_form")) is not None
    conic = workloads._check_sweep("conic", 5)
    assert conic(doc("conic", instance="0/0/projective")) is None
    assert conic(doc("conic", instance="0/0/projective", observed=7)) is not None
    assert conic(doc("conic", **{"pass": False})) is not None


def test_run_refuses_without_sources(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "missing")
    assert run.main(["--workload", "multivar", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
