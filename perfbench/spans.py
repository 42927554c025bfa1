"""Layer spans recorded from outside ffdecomp.

A Tracer replaces each boundary function, wherever an ffdecomp module holds
it under a name (the defining module and every module that imported it),
with a wrapper that records a span: name, start, end, parent span and
operation id.  Spans stay in parallel lists in memory; uninstall() puts
every original function back, so untraced calls pay nothing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, defining module, function); a span is named "<layer>.<function>".
TARGETS = [
    ("gf_core", "gf_core", "build_field"),
    ("gf_core", "gf_core", "extend_field"),
    ("upoly", "upoly", "factor"),
    ("upoly", "upoly", "roots"),
    ("upoly", "upoly", "rat_compose"),
    ("upoly", "upoly", "num_distinct_roots"),
    ("upoly", "upoly", "poly_gcd"),
    ("bipoly", "bipoly", "build_F"),
    ("bipoly", "bipoly", "count_affine"),
    ("bipoly", "bipoly", "count_projective"),
    ("bipoly", "bipoly", "kronecker_factor"),
    ("bipoly", "bipoly", "is_absolutely_irreducible"),
    ("decomp", "decomp", "check_t31"),
    ("decomp", "decomp", "count_pairs"),
    ("decomp", "decomp", "find_h"),
    ("mvar", "mvar", "find_h_mv"),
    ("mvar", "mvar", "check_t41"),
    ("mvar", "mvar", "count_pairs_mv"),
    ("mvar", "mvar", "mv_factor"),
    ("mvar", "mvar", "mpoly_gcd"),
    ("mvar", "mvar", "mrat_compose"),
    ("bounds", "bounds", "verify_bounds_on_sample"),
    ("parsing", "parsing", "parse_field"),
    ("parsing", "parsing", "parse_ratfun"),
    ("parsing", "parsing", "parse_mratfun"),
    ("cli", "cli", "run"),
]

SPAN_NAMES = [f"{layer}.{fn}" for layer, _, fn in TARGETS]


class Recorder:
    """Spans in parallel lists, indexed by span id in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []  # -1 for a root span
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.found: list[bool] = []  # the call returned something other than None/False
        self.stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self.found.append(False)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = 0) -> int:
        """Append a finished span (for tests and hand-built trees)."""
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.starts.append(start)
        self.ends.append(end)
        self.found.append(False)
        return len(self.names) - 1

    def write_tsv(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


def _wrap(rec: Recorder, name: str, fn):
    open_span, close_span, found = rec.open, rec.close, rec.found

    def traced(*args, **kwargs):
        idx = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(idx)
        found[idx] = result is not None and result is not False
        return result

    traced.__wrapped__ = fn
    return traced


class Tracer:
    """Install and remove span-recording wrappers on the ffdecomp modules."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.installed = False
        self._plan_cache = None

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every holder of a target."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ffdecomp" or name.startswith("ffdecomp."))
        ]
        plan = []
        for layer, module, fn_name in TARGETS:
            orig = getattr(sys.modules[f"ffdecomp.{module}"], fn_name)
            wrapper = _wrap(self.rec, f"{layer}.{fn_name}", orig)
            for m in modules:
                plan += [(m, attr, orig, wrapper) for attr, v in vars(m).items() if v is orig]
        return plan

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for m, attr, _, wrapper in self._plan_cache:
            setattr(m, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for m, attr, orig, _ in reversed(self._plan_cache or []):
            setattr(m, attr, orig)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --------------------------------------------------------------------------
# aggregation


def summarize(rec: Recorder, scale: list[float] | None = None) -> dict[str, dict]:
    """calls, busy_s and self_s per span name.

    self_s is a span's duration minus the durations of its direct children
    (children of one span never overlap in a single thread).  busy_s counts
    a span only when no ancestor has the same name, so a recursive or
    re-entered function is busy once, not once per nesting level.  With
    `scale`, a span's duration is multiplied by scale[its operation id].
    """
    n = len(rec)
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    if scale is not None:
        dur = [d * scale[op] for d, op in zip(dur, rec.ops)]
    child = [0.0] * n
    for i, p in enumerate(rec.parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    names, parents = rec.names, rec.parents
    for i in range(n):
        name = names[i]
        row = out[name]
        row["calls"] += 1
        row["self_s"] += dur[i] - child[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            row["busy_s"] += dur[i]
    return dict(out)


def children_per_call(rec: Recorder, parent_name: str, child_name: str) -> float:
    """Spans named child_name whose parent is named parent_name, per parent."""
    names, parents = rec.names, rec.parents
    calls = names.count(parent_name)
    if not calls:
        return 0.0
    hits = sum(1 for i, p in enumerate(parents) if p >= 0 and names[i] == child_name and names[p] == parent_name)
    return hits / calls


def found_share(rec: Recorder, name: str) -> float:
    """Share of the calls to name that returned a result (not None/False)."""
    hits = [f for n, f in zip(rec.names, rec.found) if n == name]
    return sum(hits) / len(hits) if hits else 0.0
