"""Command-line harness around generation, runs, sweeps, and analysis.

Exit codes: 0 on success, 2 on configuration/usage problems, 3 on runtime
failures inside an otherwise valid setup.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import harness
from .adversary import AttackSpec
from .costs import InefficiencyFn
from .engine import RunConfig, run_baseline
from .engine import run as engine_run
from .errors import AdvplanError, ConfigError
from .plans import (
    generate_gaussian_plans,
    generate_voting_targets,
    load_plan_sets,
    load_target_signal,
    save_plan_sets,
    save_target_signal,
)
from .topology import build_balanced_binary

log = logging.getLogger("advplan")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="sweep config YAML")
    parser.add_argument("--workdir", default=None, help="base for relative config paths")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advplan", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize Gaussian plan files or voting targets")
    gen.add_argument("--agents", type=int, default=None)
    gen.add_argument("--plans", type=int, default=None)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--levels",
        default=None,
        help="comma-separated distinct level values; emits one target file per permutation",
    )

    single = sub.add_parser("run", help="execute one experiment and print its metrics")
    single.add_argument("--plans-dir", default=None)
    single.add_argument("--agents", type=int, default=None)
    single.add_argument("--plans", type=int, default=None)
    single.add_argument("--dim", type=int, default=2)
    single.add_argument("--gen-seed", type=int, default=0)
    single.add_argument("--severity", type=float, required=True)
    single.add_argument("--placement", default="random",
                        choices=("random", "layer", "cumulative"))
    single.add_argument("--count", type=int, default=None)
    single.add_argument("--fraction", type=float, default=None)
    single.add_argument("--layer", type=int, default=None)
    single.add_argument("--ratio", type=int, default=None)
    single.add_argument("--direction", default=None)
    single.add_argument("--m", type=int, default=None)
    single.add_argument("--topology-seed", type=int, default=0)
    single.add_argument("--seed", type=int, default=0, help="placement / run seed")
    single.add_argument("--ineff", default="variance", choices=("variance", "rss"))
    single.add_argument("--target", default=None, help="target-signal file for rss")
    single.add_argument("--scaling", default="identity")
    single.add_argument("--max-iterations", type=int, default=40)
    single.add_argument("--selections", action="store_true",
                        help="include per-agent selections in the output")

    sweep = sub.add_parser("sweep", help="run the full (severity x scale) sweep")
    _add_config_args(sweep)
    sweep.add_argument("--resume", action="store_true")

    structural = sub.add_parser("structural", help="run layer-wise or cumulative placements")
    _add_config_args(structural)
    structural.add_argument("--mode", required=True, choices=("layer", "cumulative"))

    estimate = sub.add_parser("estimate", help="print the experiment count of a config")
    _add_config_args(estimate)

    ana = sub.add_parser("analyze", help="zones, fronts, knees, and heatmaps from results")
    ana.add_argument("--results", required=True, nargs="+", help="run CSVs to pool")
    ana.add_argument("--out", required=True)
    ana.add_argument("--bins", type=int, default=256)
    ana.add_argument("--exclude-beta", type=float, action="append", default=[])

    plot = sub.add_parser("plot", help="re-render heatmaps from run CSVs")
    plot.add_argument("--results", required=True, nargs="+")
    plot.add_argument("--out", required=True)
    plot.add_argument("--exclude-beta", type=float, action="append", default=[])
    return parser


def _cmd_generate(args) -> int:
    out = Path(args.out)
    wrote = []
    if args.agents is not None:
        if args.plans is None:
            raise ConfigError("--plans is required when generating agent plan files")
        plan_sets = generate_gaussian_plans(args.agents, args.plans, args.dim, seed=args.seed)
        wrote.extend(save_plan_sets(plan_sets, out))
        log.info("wrote %d plan files to %s", len(plan_sets), out)
    if args.levels is not None:
        levels = [float(tok) for tok in args.levels.split(",")]
        targets = generate_voting_targets(levels, d=len(levels))
        for idx, signal in enumerate(targets):
            wrote.append(save_target_signal(signal, out / f"target_{idx:03d}.target"))
        log.info("wrote %d target files to %s", len(targets), out)
    if not wrote:
        raise ConfigError("nothing to generate: pass --agents/--plans and/or --levels")
    return 0


def _cmd_run(args) -> int:
    if args.plans_dir:
        plan_sets = load_plan_sets(args.plans_dir)
    elif args.agents is not None and args.plans is not None:
        plan_sets = generate_gaussian_plans(args.agents, args.plans, args.dim, seed=args.gen_seed)
    else:
        raise ConfigError("pass --plans-dir or --agents/--plans")
    n = len(plan_sets)
    topology = build_balanced_binary(n, permutation_seed=args.topology_seed)
    spec = AttackSpec(
        severity=args.severity,
        placement=args.placement,
        count=args.count,
        fraction=args.fraction,
        layer=args.layer,
        ratio=args.ratio,
        direction=args.direction,
        m=args.m,
        sample_seed=args.seed,
    )
    adversaries = spec.materialize(topology)
    target = load_target_signal(args.target).values if args.target else None
    config = RunConfig(
        max_iterations=args.max_iterations,
        inefficiency=InefficiencyFn(kind=args.ineff, target=target, scaling=args.scaling),
        rng_seed=args.seed,
    )
    profile = harness.profile_for(topology, adversaries, args.severity)
    outcome = engine_run(topology, plan_sets, profile, config)
    baseline = run_baseline(topology, plan_sets, config)
    legitimate = set(outcome.discomfort_per_agent) - adversaries
    payload = {
        "agents": n,
        "adversaries": sorted(adversaries),
        "severity": args.severity,
        "inefficiency": outcome.global_inefficiency,
        "discomfort_total": outcome.mean_discomfort(),
        "discomfort_legit": outcome.mean_discomfort(legitimate) if legitimate else 0.0,
        "baseline_inefficiency": baseline.global_inefficiency,
        "compromised": (
            outcome.mean_discomfort(legitimate) - baseline.mean_discomfort(legitimate)
            if legitimate
            else 0.0
        ),
        "iterations": outcome.iterations_used,
        "combined_cost_trace": outcome.combined_cost_trace,
    }
    if args.selections:
        payload["selections"] = {str(a): i for a, i in sorted(outcome.selections.items())}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config, workdir=args.workdir, master_seed=args.seed)
    grid = harness.run_sweep(cfg, resume=args.resume)
    print(f"{len(grid.rows)} runs -> {Path(cfg.output_dir) / 'runs.csv'}")
    return 0


def _cmd_structural(args) -> int:
    cfg = harness.load_config(args.config, workdir=args.workdir, master_seed=args.seed)
    grid = harness.run_structural(cfg, mode=args.mode)
    print(f"{len(grid.rows)} runs -> {Path(cfg.output_dir) / f'structural_{args.mode}.csv'}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = harness.load_config(args.config, workdir=args.workdir, master_seed=args.seed)
    print(harness.estimate_experiment_count(cfg))
    return 0


def _pooled_grid(paths) -> harness.SweepGrid:
    grid = harness.SweepGrid()
    for path in paths:
        grid.rows.extend(harness.SweepGrid.read_csv(path).rows)
    if not grid.rows:
        raise ConfigError("no rows found in the given result files")
    return grid


def _cmd_analyze(args) -> int:
    grid = _pooled_grid(args.results)
    bundle = harness.analyze(
        grid, output_dir=args.out, bins=args.bins, exclude_beta=tuple(args.exclude_beta)
    )
    print(f"analysis written to {bundle.output_dir}")
    return 0


def _cmd_plot(args) -> int:
    grid = _pooled_grid(args.results)
    bundle = harness.analyze(grid, output_dir=args.out, exclude_beta=tuple(args.exclude_beta))
    svgs = sorted(p.name for p in Path(bundle.output_dir).glob("*.svg"))
    print(f"{len(svgs)} heatmaps written to {bundle.output_dir}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "structural": _cmd_structural,
    "estimate": _cmd_estimate,
    "analyze": _cmd_analyze,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except AdvplanError as exc:
        log.error("runtime error: %s", exc)
        return 3
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
