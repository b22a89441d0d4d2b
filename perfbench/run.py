"""Benchmark of the advplan command line, end to end and per layer.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeat 5 --seconds 20 --trace 0

One run builds its inputs from ``--seed`` (set up at least three times and
for at least three seconds; the median is ``setup_s``), then repeats whole
rounds of the workload's ``advplan`` commands for about ``--seconds``,
checks the outputs of the last round against the benchmark's own
computation, and prints one JSON object as its last line of standard
output. ``--trace 0`` reports the end-to-end
metrics of untraced rounds. ``--trace 1`` traces the rounds at each layer
boundary, follows each traced round with an untraced one to measure the
tracing overhead, adds the solution-quality probe, and reports the
per-layer metrics. ``--repeat N``
runs the benchmark N times with consecutive seeds in fresh processes and
prints the median and quartiles of every metric.

Everything the benchmark writes stays under ``perfbench/_work`` in the
checkout; a run deletes its own inputs and outputs when it ends and keeps
only the span file of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
TRACE_ENV = "PERFBENCH_TRACE_DIR"
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_LIMIT = 15

# Machine-speed calibration. The 2-core host this benchmark was tuned on
# alternates, in periods of one to twenty seconds, between its normal speed
# and one about 60% slower, for interpreter and numpy work alike. Each timed
# step is therefore bracketed by a fixed loop of the same kind of work that
# does not touch advplan, and its wall time is rescaled to the speed at
# which that loop takes CAL_REF seconds (this host at its normal speed).
CAL_REF = 0.016
CAL_STEPS = 1500
CAL_DATA = np.random.default_rng(0).standard_normal((4, 24))

sys.path.insert(1, str(SRC))

import tracing  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get(TRACE_ENV):
    # A pool worker started with the spawn method imports this file afresh;
    # it traces its own calls and writes them out when it exits.
    tracing.Tracer(Path(os.environ[TRACE_ENV]), worker=True).install()


def import_program():
    """The checkout's own advplan, or exit non-zero without a result."""
    try:
        import advplan
        import advplan.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import advplan from {SRC}: {exc}")
    if Path(advplan.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: advplan was imported from {advplan.__file__}, not {SRC}")
    return advplan, advplan.cli


def import_command_line() -> None:
    """Import the advplan package afresh, as every user call does.

    Its modules are executed again in this process and then swapped back for
    the ones already loaded, so later calls (and pickling for the pool) see
    the same objects as before. The interpreter, numpy and PyYAML are already
    loaded: their start-up cost is not advplan's, and timing it in a fresh
    process moved the set-up median by up to 40% between otherwise identical
    sets of runs on the 2-core host this benchmark was tuned on.
    """
    ours = [name for name in sys.modules if name == "advplan" or name.startswith("advplan.")]
    loaded = {name: sys.modules.pop(name) for name in ours}
    try:
        importlib.import_module("advplan.cli")
    finally:
        for name in [n for n in sys.modules if n == "advplan" or n.startswith("advplan.")]:
            del sys.modules[name]
        sys.modules.update(loaded)


def calibration() -> float:
    """Seconds the calibration loop takes right now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(CAL_STEPS):
            acc += float(np.var(CAL_DATA[i & 3])) + (i * 0.5) % 3
        best = min(best, time.perf_counter() - start)
    return best


def _calibration_helper(conn) -> None:
    while conn.recv():
        conn.send(calibration())


class Calibrator:
    """Times the calibration loop on this process's CPU and, for workloads
    whose pool workers use both CPUs, at the same moment in a helper process
    on the other; the slower CPU then sets the pace.

    The helper is forked: the spawn method would also start multiprocessing's
    resource tracker, a process that outlives the run by a moment."""

    def __init__(self, parallel: bool):
        self.conn = self.helper = None
        if parallel:
            ctx = multiprocessing.get_context("fork")
            self.conn, child = ctx.Pipe()
            self.helper = ctx.Process(target=_calibration_helper, args=(child,), daemon=True)
            self.helper.start()

    def __call__(self) -> float:
        if self.conn is None:
            return calibration()
        self.conn.send(True)
        own = calibration()
        return max(own, self.conn.recv())

    def close(self) -> None:
        if self.helper is not None:
            self.conn.send(False)
            self.helper.join(timeout=30)
            if self.helper.is_alive():
                self.helper.kill()
                self.helper.join()


def stop_children() -> None:
    """Stop and reap every process this one started that is still there.

    The program's pool and the calibration helper are joined where they are
    used; this catches whatever an early exit or a multiprocessing helper
    (such as the resource tracker) left behind, so that no process outlives
    the run.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError, ValueError):
            pids.update(int(pid) for pid in path.read_text().split())
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def rescaled(seconds: float, before: float, after: float) -> float:
    """Wall time at the reference speed, given calibrations around it."""
    return seconds * CAL_REF * 2 / (before + after)


def run_round(cli, ops, calibrate, tracer=None) -> list[tuple]:
    """Execute every command of one round; returns (op, wall, error) each,
    with the wall time rescaled to the reference speed."""
    results = []
    for op in ops:
        if op.partial is not None:
            dest = op.output.parent / "runs.partial.csv"
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(op.partial, dest)
        error = None
        before = calibrate()
        span = tracer.open(f"cli.{op.kind}") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(op.argv)
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        wall = rescaled(wall, before, calibrate())
        if error is None and op.expected is not None and (
            not op.output.exists() or op.output.read_bytes() != op.expected
        ):
            error = "output differs from a fresh sweep of the same config"
        results.append((op, wall, error))
    return results


def round_figures(workload, results) -> dict:
    """Agent-iterations delivered per second, one figure per input set.

    Every row of every run CSV a set's timed commands wrote counts
    n x iterations, rows a resume took over from its partial file included:
    that is the work the user gets back. The time includes ``analyze``.
    """
    work = [0] * workload.sets
    wall = [0.0] * workload.sets
    resumed = 0
    for op, seconds, error in results:
        if not op.timed:
            continue
        wall[op.input_set] += seconds
        if op.output is None or error is not None:
            continue
        text = op.output.read_text(encoding="utf-8").splitlines()
        col = text[0].split(",").index("iterations")
        work[op.input_set] += sum(workload.n * int(line.split(",")[col]) for line in text[1:])
        resumed += len(text) - 1 if op.kind == "resume" else 0
    return {
        "agent_iters_per_s": [w / t if t else 0.0 for w, t in zip(work, wall)],
        "resume_rows": resumed,
        "wall": sum(seconds for _, seconds, _ in results),
    }


def digest(rnd: Path) -> str:
    """Hash of every output a round wrote, for the determinism check."""
    h = hashlib.sha256()
    for path in sorted(p for p in rnd.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(rnd)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure(args) -> dict:
    advplan, cli = import_program()
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    trace_dir = run_dir / "trace"
    shutil.rmtree(run_dir, ignore_errors=True)
    calibrate = Calibrator(parallel=workload.workers > 1)
    try:
        # Short set-ups repeat until they have taken SETUP_SECONDS, so that
        # their median rests on more than three samples.
        setup, inputs, spent = [], [None] * workload.sets, 0.0
        while len(setup) < max(SETUP_REPEATS, workload.sets) or (
            spent < SETUP_SECONDS and len(setup) < SETUP_LIMIT
        ):
            i = len(setup)
            before = calibrate()
            start = time.perf_counter()
            import_command_line()
            index = i % workload.sets
            inputs[index] = workload.prepare(cli, run_dir / f"setup-{i}", args.seed, index)
            spent += time.perf_counter() - start
            setup.append(rescaled(time.perf_counter() - start, before, calibrate()))
            shutil.rmtree(run_dir / f"setup-{i - workload.sets}", ignore_errors=True)

        tracer = tracing.Tracer(trace_dir) if args.trace else None

        def tracing_on(on: bool) -> None:
            if on:
                os.environ[TRACE_ENV] = str(trace_dir)
                tracer.install()
            else:
                tracer.uninstall()
                os.environ.pop(TRACE_ENV)

        figures, plain, digests, attempted, failures = [], [], set(), 0, []

        def one_round(rnd: Path, tracer=None) -> dict:
            nonlocal attempted
            results = run_round(cli, workload.round_ops(inputs, rnd), calibrate, tracer)
            attempted += len(results)
            failures.extend(f"{op.kind}: {error}" for op, _, error in results if error)
            digests.add(digest(rnd))
            return round_figures(workload, results)

        # Whole rounds only; stop when another one would end further past
        # --seconds than stopping now falls short of it. A traced run follows
        # every traced round with an untraced one, so the overhead compares
        # rounds measured moments apart.
        start = time.perf_counter()
        while True:
            rnd = run_dir / f"round-{len(figures)}"
            if tracer:
                tracing_on(True)
            figures.append(one_round(rnd, tracer))
            if len(figures) > 1:
                shutil.rmtree(run_dir / f"round-{len(figures) - 2}")
            if tracer:
                tracing_on(False)
                plain.append(one_round(run_dir / "untraced"))
                shutil.rmtree(run_dir / "untraced")
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / len(figures)) >= args.seconds:
                break
        peak = peak_rss_mb()

        problems = []
        if len(digests) != 1:
            problems.append("rounds with the same inputs wrote different outputs")
        for one in inputs:
            try:
                problems += workload.check(advplan, one, rnd, args.seed)
            except Exception as exc:  # a missing or malformed output is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        for line in sorted(set(failures)):
            print(f"perfbench: failed operation: {line}", file=sys.stderr)
        for line in problems:
            print(f"perfbench: check failed: {line}", file=sys.stderr)

        if args.trace:
            records = [tracer.record(), *tracer.collect_workers()]
            traced = figures
            metrics = tracing.layer_metrics(
                records, len(traced), sum(f["resume_rows"] for f in traced))
            metrics["trace.overhead_s"] = (
                statistics.median(f["wall"] for f in traced)
                - statistics.median(f["wall"] for f in plain)
            )
            hits, gap = checks.optimality_probe(advplan)
            metrics["engine.opt_hits"] = hits
            metrics["engine.opt_gap_p50"] = gap
            WORK.mkdir(parents=True, exist_ok=True)
            (WORK / f"trace-{workload.name}-s{args.seed}.json").write_text(
                json.dumps({"rounds": len(traced), "records": records}), encoding="utf-8")
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                # The median over every (round, input set) pair: one dataset
                # that converges unusually fast or slow moves it little.
                "agent_iters_per_s": statistics.median(
                    rate for f in figures for rate in f["agent_iters_per_s"]),
                "peak_rss_mb": peak,
            }
    finally:
        calibrate.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _units(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def repeat(args) -> None:
    """Run each workload ``--repeat`` times in fresh processes; print quartiles."""
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    summary = {}
    for name in names:
        results = []
        for i in range(args.repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"perfbench: {name} seed {args.seed + i} exited with {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        summary[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {},
        }
        for metric, info in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": info["unit"]}
            print(f"{name:16s} {metric:30s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f" spread {spread:7.3f} {info['unit']}")
        print(f"{name:16s} correct {summary[name]['correct']} "
              f"failed/attempted {summary[name]['failed']}/{summary[name]['attempted']}")
    print(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with consecutive seeds and print quartiles")
    args = parser.parse_args()
    if args.repeat:
        repeat(args)
        return
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    try:
        result = measure(args)
    finally:
        stop_children()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
