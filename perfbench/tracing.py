"""In-memory span tracing around the calls into each advplan layer.

Tracing wraps public names where their callers look them up (module
attributes such as ``advplan.harness.run`` and class attributes such as
``InefficiencyFn.__call__``), so the program under test runs unmodified.
Every span records (name, start, end, parent) plus the time covered by its
children; self time is the span minus that. Calls that happen hundreds of
thousands of times per round (cost-kernel calls, plan-matrix restacking) are
aggregated into per-name counters instead of individual spans, but their time
still counts as child time of the span they ran in.

Spans stay in memory until the run ends. Pool workers forked (or spawned,
see ``run.py``) by the program inherit the wrappers; each worker keeps its
own spans and writes them to ``worker-<pid>.json`` in the trace directory
when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from multiprocessing import util as mp_util
from pathlib import Path

# Aggregated leaf calls: span name -> (owner path, attribute).
LEAVES = {
    "costs.call": ("advplan.costs:InefficiencyFn", "__call__"),
    "costs.batch": ("advplan.costs:InefficiencyFn", "batch"),
    "plans.value_matrix": ("advplan.plans:PlanSet", "value_matrix"),
}

# Individually recorded spans: (owner path, attribute, span name).
SPANS = (
    ("advplan.harness", "run", "engine.run"),
    ("advplan.engine", "run", "engine.run"),
    ("advplan.harness", "run_baseline", "engine.baseline"),
    ("advplan.harness", "load_plan_sets", "plans.load"),
    ("advplan.harness", "build_balanced_binary", "topology.build"),
    ("advplan.harness", "random_adversaries", "adversary.placement"),
    ("advplan.harness", "make_profile", "adversary.placement"),
    ("advplan.harness", "sample_k_subsets", "adversary.placement"),
    ("advplan.harness", "cumulative_positions", "adversary.placement"),
    ("advplan.harness:SweepGrid", "write_csv", "harness.csv_write"),
    ("advplan.harness:SweepGrid", "read_csv", "harness.csv_read"),
    ("advplan.harness", "multi_otsu", "analytics.multi_otsu"),
    ("advplan.harness", "pareto_front", "analytics.fronts"),
    ("advplan.harness", "knee_mmd", "analytics.fronts"),
    ("advplan.harness", "render_heatmap", "heatmap.render"),
)


def _resolve(path: str):
    import importlib

    module_name, _, cls = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def _engine_work(args, result) -> int:
    """Agent-iterations of one engine run: n times iterations used."""
    plan_sets = args[1] if len(args) > 1 else ()
    return len(plan_sets) * int(getattr(result, "iterations_used", 0))


def _svg_bytes(args, result) -> int:
    try:
        return Path(result).stat().st_size
    except (TypeError, OSError):
        return 0


_EXTRA = {"engine.run": _engine_work, "heatmap.render": _svg_bytes}


class Tracer:
    """Span recorder for one process; the wrappers call ``open``/``close``."""

    def __init__(self, trace_dir: Path, worker: bool = False):
        self.trace_dir = Path(trace_dir)
        # A worker registers its exit dump on its first call.
        self.pid = None if worker else os.getpid()
        self._reset()
        self._patched: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        # span: [name, start, end, parent index or -1, child seconds, extra, pid]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {name: [0, 0.0, 0] for name in LEAVES}

    def _own_process(self) -> None:
        """A forked worker starts its own record and dumps it when it exits."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()
            mp_util.Finalize(None, self.dump_worker, exitpriority=100)

    def open(self, name: str) -> int:
        self._own_process()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, 0, self.pid])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, extra: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = extra
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _leaf(self, name: str, seconds: float, rows: int) -> None:
        self._own_process()
        agg = self.leaves[name]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += rows
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def _span_wrapper(self, fn, name: str):
        extra_of = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, extra_of(args, result) if extra_of else 0)

        return wrapper

    def _leaf_wrapper(self, fn, name: str):
        # Only the batch kernel has rows: args are (self, candidates).
        count_rows = name == "costs.batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, time.perf_counter() - start,
                           len(args[1]) if count_rows else 0)

        return wrapper

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            replacement = classmethod(wrapper_of(raw.__func__))
        else:
            current = getattr(owner, attr, None)
            if current is None:
                return  # the layer no longer exposes this name; it reads as zero
            replacement = wrapper_of(current)
            raw = current
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, (path, attr) in LEAVES.items():
            self._patch(_resolve(path), attr, lambda fn, n=name: self._leaf_wrapper(fn, n))
        for path, attr, name in SPANS:
            self._patch(_resolve(path), attr, lambda fn, n=name: self._span_wrapper(fn, n))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def record(self) -> dict:
        return {"pid": self.pid, "spans": self.spans, "leaves": self.leaves}

    def dump_worker(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.record()), encoding="utf-8")

    def collect_workers(self) -> list[dict]:
        """Read and remove the records pool workers have written so far."""
        records = []
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            records.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return records


COMMANDS = ("sweep", "structural", "analyze", "resume")


def layer_metrics(records: list[dict], rounds: int, resume_rows: int) -> dict:
    """Per-round layer figures from the spans of every traced process.

    ``resume_rows`` is the number of rows the resume commands wrote; the
    rows they did not recompute through the engine count as reused.
    """
    spans, leaves = [], {name: [0, 0.0, 0] for name in LEAVES}
    for record in records:
        own = record["spans"]
        for name, start, end, parent, child, extra, _pid in own:
            if end is not None:
                spans.append((name, start, end, child, extra,
                              own[parent][0] if parent >= 0 else None))
        for name, agg in record["leaves"].items():
            for i in range(3):
                leaves[name][i] += agg[i]

    def named(name):
        return [s for s in spans if s[0] == name]

    def seconds(name):
        return sum(s[2] - s[1] for s in named(name)) / rounds

    def median_ms(name):
        durations = [s[2] - s[1] for s in named(name)]
        return statistics.median(durations) * 1e3 if durations else 0.0

    engine = named("engine.run")
    work = sum(s[4] for s in engine)
    windows = [(s[1], s[2]) for s in named("cli.resume")]
    resumed = [s for s in engine if any(a <= s[1] <= b for a, b in windows)]
    recomputed = sum(1 for s in resumed if s[5] != "engine.baseline")
    executor = [s for s in spans if s[0] in ("cli.sweep", "cli.structural", "cli.resume")]
    metrics = {
        "engine.run.calls": len(engine) / rounds,
        "engine.run.ms_p50": median_ms("engine.run"),
        "engine.us_per_agent_iter": (
            sum(s[2] - s[1] for s in engine) / work * 1e6 if work else 0.0),
        "plans.load.s": seconds("plans.load"),
        "topology.build.s": seconds("topology.build"),
        "adversary.placement.calls": len(named("adversary.placement")) / rounds,
        "adversary.placement.s": seconds("adversary.placement"),
        "harness.self_s": sum(s[2] - s[1] - s[3] for s in executor) / rounds,
        "harness.csv_write.s": seconds("harness.csv_write"),
        "harness.csv_read.s": seconds("harness.csv_read"),
        "harness.resume.engine_calls": len(resumed) / rounds,
        "harness.resume.rows_reused": max(0, resume_rows - recomputed) / rounds,
        "analytics.multi_otsu.calls": len(named("analytics.multi_otsu")) / rounds,
        "analytics.multi_otsu.ms_p50": median_ms("analytics.multi_otsu"),
        "analytics.fronts.s": seconds("analytics.fronts"),
        "heatmap.render.calls": len(named("heatmap.render")) / rounds,
        "heatmap.render.s": seconds("heatmap.render"),
        "heatmap.svg_bytes": sum(s[4] for s in named("heatmap.render")) / rounds,
    }
    for name, (calls, secs, rows) in leaves.items():
        metrics[f"{name}.calls"] = calls / rounds
        metrics[f"{name}.s"] = secs / rounds
        if name == "costs.batch":
            metrics["costs.batch.rows"] = rows / rounds
    for command in COMMANDS:
        metrics[f"cli.{command}.s"] = seconds(f"cli.{command}")
    return metrics
