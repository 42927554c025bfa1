"""ffdecomp benchmark: one client in a closed loop, one process, one thread.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 40 --trace 0

Each operation is one or two in-process calls to ffdecomp.cli.run(argv)
with stdout captured, so it covers what a user's command covers: parsing,
the compute layers and the JSON report.  Inputs come from the seed and are
built before any timing; answers are checked after timing with the
reference arithmetic in refarith.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics; the line before it
holds run information (header, sample counts, output digest).

--trace 0 reports the end-to-end metrics, with times scaled to a reference
machine speed that a probe measures before each operation.  --trace 1 runs
a fixed number of operations (whole mix cycles, set by the workload and
--seconds, not by a deadline) twice each, untraced and traced, and reports
per-layer metrics from the spans of the traced runs; see NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
DIGEST_OPS = 24  # the digest covers the outputs of the first DIGEST_OPS operations
KERNEL_FIELDS = (("q13", 13, 1), ("q9", 3, 2), ("q2048", 2, 11))
KERNEL_SECONDS = 0.1  # per (operation, field) pair

# The speed probe: a fixed pure-Python loop, timed before every operation and
# before every set-up.  The machine's speed drifts by 20% and more over tens
# of seconds (CPU time drifts with wall time), so the end-to-end times are
# scaled to the speed at which the probe takes REFERENCE_PROBE_S.
PROBE_LOOPS = 5000
REFERENCE_PROBE_S = 0.0005
PROBE_WINDOW = 10  # probes on each side of an operation that give its speed


def percentile(values, pct: float) -> tuple[float, int, int]:
    """Nearest-rank percentile: (value, sample count, samples above it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def probe() -> float:
    """Seconds for PROBE_LOOPS rounds of integer arithmetic; no ffdecomp code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Scale times[i] by REFERENCE_PROBE_S over the median probe near probes[i]."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(t * REFERENCE_PROBE_S / statistics.median(near))
    return out


def import_ffdecomp():
    """A fresh import of ffdecomp from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "ffdecomp" or n.startswith("ffdecomp.")]:
        del sys.modules[name]
    ff = importlib.import_module("ffdecomp")
    importlib.import_module("ffdecomp.cli")
    if Path(ff.__file__).resolve().parent != SRC / "ffdecomp":
        raise ImportError(f"ffdecomp imported from {ff.__file__}, not from {SRC}")
    return ff


def setup_once(fields: list[str]):
    """Import ffdecomp and build the workload's fields; (seconds, probe, package)."""
    gc.collect()  # start each set-up from the same heap, not after the last one's garbage
    speed = statistics.median(probe() for _ in range(3))
    t0 = time.perf_counter()
    ff = import_ffdecomp()
    for descriptor in fields:
        spec = ff.parsing.parse_field(descriptor)
        a = spec.from_index(spec.order - 1)
        (a * a).inverse()
    return time.perf_counter() - t0, speed, ff


def execute(cli, op: workloads.Op) -> tuple[list[str], str | None]:
    """Run an operation's command lines; (stdout texts, error or None)."""
    outs = []
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            return outs, f"{argv[0]} raised {type(exc).__name__}: {exc}"
        if rc != 0:
            return outs, f"{argv[0]} exited with {rc}: {err.getvalue().strip()}"
        outs.append(out.getvalue())
    return outs, None


class Verdicts:
    """Known-answer checks, outside the timed region.

    The first successful run of an operation is checked at once and only
    the sha256 of its stdout is kept; a later run of the same operation is
    compared with that digest at once and gets the same verdict.  Memory
    therefore does not grow with the number of operations run.  The stdout
    texts themselves are kept only for the first DIGEST_OPS operations.
    """

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.seen: dict[int, tuple[bytes, str | None]] = {}  # idx -> (stdout sha256, verdict)
        self.texts: dict[int, list[str]] = {}  # idx < DIGEST_OPS -> stdout texts
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, idx: int, outs: list[str], err: str | None) -> None:
        self.attempted += 1
        if err is None:
            key = hashlib.sha256("\0".join(outs).encode()).digest()
            known = self.seen.get(idx)
            if known is None:
                try:
                    err = self.ops[idx].check(outs)
                except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                    err = f"malformed output: {type(exc).__name__}: {exc}"
                self.seen[idx] = (key, err)
                if idx < DIGEST_OPS:
                    self.texts[idx] = outs
            elif key != known[0]:
                err = "output differs from an earlier run of the same input"
            else:
                err = known[1]
        if err is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {idx} ({self.ops[idx].label}): {err}")

    def digest(self, cli) -> str:
        """sha256 of the stdout of the first DIGEST_OPS operations, in order."""
        h = hashlib.sha256()
        for idx in range(min(DIGEST_OPS, len(self.ops))):
            if idx not in self.texts:
                outs, err = execute(cli, self.ops[idx])
                self.record(idx, outs, err)
            for text in self.texts.get(idx, []):
                h.update(text.encode())
        return h.hexdigest()


def closed_loop(cli, ops, seconds: float, verdicts: Verdicts) -> tuple[list[float], list[float]]:
    """Run operations back to back for `seconds`; (latencies, probes).

    A speed probe runs before each operation, and the known-answer check
    after it, both outside its latency.
    """
    latencies = []
    probes = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    end = 0.0
    while end < deadline:
        idx = len(latencies) % len(ops)
        probes.append(probe())
        t0 = time.perf_counter()
        outs, err = execute(cli, ops[idx])
        end = time.perf_counter()
        latencies.append(end - t0)
        verdicts.record(idx, outs, err)
    return latencies, probes


def traced_loop(cli, ops, count: int, verdicts: Verdicts, rec: spans.Recorder):
    """Run the first `count` operations untraced and traced, alternating which goes first.

    The count, not a deadline, ends the pass, so the same code records the
    same spans on every run.  A speed probe runs before each operation.
    Returns (untraced seconds, traced seconds, probes).
    """
    tracer = spans.Tracer(rec)
    untraced = traced = 0.0
    probes = []
    gc.collect()
    for i in range(count):
        idx = i % len(ops)
        probes.append(probe())
        runs = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                rec.op_id = i
                with tracer:
                    t0 = time.perf_counter()
                    root = rec.open("bench.op")
                    runs[True] = execute(cli, ops[idx])
                    rec.close(root)
                    traced += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                runs[False] = execute(cli, ops[idx])
                untraced += time.perf_counter() - t0
        outs, err = runs[False]
        if err is None and runs[True] != runs[False]:
            err = "the traced run printed different output"
        verdicts.record(idx, outs, err)
    return untraced, traced, probes


def field_kernel_ns(ff, seed: int) -> dict[str, float]:
    """Median ns per FieldElement mul, add and inv on F_13, F_9, F_2048.

    Scaled to the reference speed, like the end-to-end times, by probes
    run before and after each measurement.
    """
    rng = random.Random(f"kernel/{seed}")
    out = {}
    for tag, p, k in KERNEL_FIELDS:
        spec = ff.gf_core.build_field(p, k)
        xs = [spec.from_index(rng.randrange(1, spec.order)) for _ in range(256)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        for name, loop in (("mul", _mul_loop), ("add", _add_loop), ("inv", _inv_loop)):
            probes = [probe() for _ in range(3)]
            samples = []
            stop = time.perf_counter() + KERNEL_SECONDS
            while len(samples) < 3 or time.perf_counter() < stop:
                samples.append(loop(pairs) / len(pairs))
            probes += [probe() for _ in range(3)]
            speed = REFERENCE_PROBE_S / statistics.median(probes)
            out[f"gf_core.{name}_ns.{tag}"] = statistics.median(samples) * speed * 1e9
    return out


def _mul_loop(pairs) -> float:
    t0 = time.perf_counter()
    for a, b in pairs:
        a * b
    return time.perf_counter() - t0


def _add_loop(pairs) -> float:
    t0 = time.perf_counter()
    for a, b in pairs:
        a + b
    return time.perf_counter() - t0


def _inv_loop(pairs) -> float:
    t0 = time.perf_counter()
    for a, _ in pairs:
        a.inverse()
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ffdecomp").rglob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_metrics(rec: spans.Recorder, untraced: float, traced: float, probes: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced pass; span times scaled to the reference speed."""
    speed = at_reference_speed([1.0] * len(probes), probes)  # indexed by operation id
    rows = spans.summarize(rec, speed)
    none = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for name in spans.SPAN_NAMES:
        row = rows.get(name, none)
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.busy_s"] = (row["busy_s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    irr = "bipoly.is_absolutely_irreducible"
    out[f"{irr}.refactors_per_call"] = (
        spans.children_per_call(rec, irr, "bipoly.kronecker_factor"), "count/call")
    out[f"{irr}.true_share"] = (spans.found_share(rec, irr), "ratio")
    for search, compose in (("decomp.find_h", "upoly.rat_compose"), ("mvar.find_h_mv", "mvar.mrat_compose")):
        out[f"{search}.compositions_per_call"] = (spans.children_per_call(rec, search, compose), "count/call")
        out[f"{search}.found_share"] = (spans.found_share(rec, search), "ratio")
    op, cli_run = rows.get("bench.op", none), rows.get("cli.run", none)
    out["bench.op.self_s"] = (op["self_s"], "s")
    out["trace.overhead_share"] = (traced / untraced - 1, "ratio")
    # traced wall time that no boundary function below cli.run claims
    out["trace.unclaimed_share"] = ((op["self_s"] + cli_run["self_s"]) / op["busy_s"], "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ffdecomp" / "__init__.py").is_file():
        print(f"error: no ffdecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    fields = workloads.FIELDS[args.workload]
    setups = []  # (seconds, probe); only the last set-up's package is kept
    try:
        for _ in range(SETUP_REPEATS):
            seconds, speed, ff = setup_once(fields)
            setups.append((seconds, speed))
    except ImportError as exc:
        print(f"error: cannot import ffdecomp: {exc}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed)
    cli = ff.cli
    verdicts = Verdicts(ops)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }

    if args.trace:
        kernel = field_kernel_ns(ff, args.seed)
        rec = spans.Recorder()
        count = workloads.trace_ops(args.workload, args.seconds)
        untraced, traced, probes = traced_loop(cli, ops, count, verdicts, rec)
        digest = verdicts.digest(cli)
        metrics = {name: (v, "ns") for name, v in kernel.items()}
        metrics.update(layer_metrics(rec, untraced, traced, probes))
        metrics["src.lines"] = (info["src_lines"], "lines")
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        rec.write_tsv(span_file)
        info.update(traced_ops=count, spans=len(rec), span_file=str(span_file.relative_to(ROOT)))
    else:
        raw, probes = closed_loop(cli, ops, args.seconds, verdicts)
        digest = verdicts.digest(cli)
        latencies = at_reference_speed(raw, probes)
        p50, n, beyond50 = percentile(latencies, 50)
        p90, _, beyond90 = percentile(latencies, 90)
        setup_times = at_reference_speed([s for s, _ in setups], [p for _, p in setups])
        metrics = {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_share": (1 - verdicts.failed / verdicts.attempted, "ratio"),
        }
        info.update(
            latency_samples=n,
            p50_samples_above=beyond50,
            p90_samples_above=beyond90,
            probe_median_s=statistics.median(probes),
            unscaled_ops_per_s=len(raw) / sum(raw),
            unscaled_latency_p50_ms=percentile(raw, 50)[0] * 1e3,
            unscaled_latency_p90_ms=percentile(raw, 90)[0] * 1e3,
            unscaled_setup_s=statistics.median(s for s, _ in setups),
        )

    info.update(
        digest=digest,
        digest_ops=DIGEST_OPS,
        distinct_ops=len(verdicts.seen),
        fail_share=verdicts.failed / verdicts.attempted,
        failures=verdicts.messages,
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
