"""Command-line harness around generation, runs, sweeps, and analysis.

Exit codes: 0 on success, 2 on configuration/usage problems, 3 on runtime
failures inside an otherwise valid setup.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

from . import harness
from .adversary import (
    cumulative_positions,
    layer_adversary_count,
    random_adversaries,
    sample_k_subsets,
)
from .costs import InefficiencyFn
from .engine import RunConfig
from .errors import AdvplanError, ConfigError
from .plans import (
    generate_gaussian_plans,
    generate_voting_targets,
    save_plan_sets,
    save_target_signal,
)
from .topology import agents_in_layer, build_balanced_binary

log = logging.getLogger("advplan")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="sweep config YAML")
    parser.add_argument("--workdir", default=None, help="base for relative config paths")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it was."""
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


def _check_seeds(args, *names: str) -> None:
    """Raise ``ConfigError`` for the first negative seed option; numpy takes none."""
    for name in names:
        if getattr(args, name) < 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 0, got {getattr(args, name)}")


def _cmd_generate(args) -> int:
    _check_seeds(args, "seed")
    out = Path(args.out)
    if args.agents is not None and args.plans is None:
        raise ConfigError("--plans is required when generating agent plan files")
    levels = None if args.levels is None else [_level(tok) for tok in args.levels.split(",")]
    try:
        plan_sets = [] if args.agents is None else generate_gaussian_plans(
            args.agents, args.plans, args.dim, seed=args.seed
        )
        targets = [] if levels is None else generate_voting_targets(levels, d=len(levels))
    except AdvplanError as exc:
        raise ConfigError(f"invalid generate arguments: {exc}") from exc
    if not plan_sets and not targets:
        raise ConfigError("nothing to generate: pass --agents/--plans and/or --levels")
    if plan_sets:
        save_plan_sets(plan_sets, out)
        log.info("wrote %d plan files to %s", len(plan_sets), out)
    for idx, target in enumerate(targets):
        save_target_signal(target, out / f"target_{idx:03d}.target")
    if targets:
        log.info("wrote %d target files to %s", len(targets), out)
    return 0


def _level(token: str) -> float:
    """One ``--levels`` value, a finite number."""
    try:
        level = float(token)
    except ValueError:
        level = math.nan
    if not math.isfinite(level):
        raise ConfigError(f"--levels: {token!r} is not a finite number")
    return level


def _adversaries(args, topology) -> set[int]:
    """The adversary set ``advplan run`` asks for, drawn as sweep cells draw theirs."""
    if args.placement == "random":
        if args.count is None and args.fraction is None:
            raise ConfigError("random placement needs --count or --fraction")
        if args.fraction is not None and not 0.0 <= args.fraction <= 1.0:
            raise ConfigError(f"--fraction must be in [0, 1], got {args.fraction}")
        count = args.count if args.count is not None else round(args.fraction * topology.node_count)
        return random_adversaries(topology, count, seed=args.seed)
    if args.placement == "layer":
        if args.layer is None or args.ratio is None:
            raise ConfigError("layer placement needs --layer and --ratio")
        members = sorted(agents_in_layer(topology, args.layer))
        count = layer_adversary_count(len(members), args.ratio)
        return set(sample_k_subsets(members, count, cap=1, seed=args.seed)[0])
    if args.direction is None or args.m is None:
        raise ConfigError("cumulative placement needs --direction and --m")
    return cumulative_positions(topology, args.direction, args.m)


def _cmd_run(args) -> int:
    _check_seeds(args, "seed", "topology_seed")
    if not 0.0 < args.severity <= 1.0:
        raise ConfigError(f"--severity must be in (0, 1], got {args.severity}")
    # The plan flags are a dataset, loaded and checked as a config's dataset is.
    plan_sets = harness.load_dataset(harness.DatasetSpec(
        "files" if args.plans_dir else "gaussian", plans_dir=args.plans_dir,
        agents=args.agents, plans=args.plans, dim=args.dim, seed=args.gen_seed,
    ))
    # As in a sweep, a target is read only for RSS.
    rss_target = args.ineff == "rss" and args.target
    target = harness.load_target(args.target, plan_sets[0].dimension) if rss_target else None
    try:
        topology = build_balanced_binary(len(plan_sets), permutation_seed=args.topology_seed)
        adversaries = _adversaries(args, topology)
        ineff = InefficiencyFn(kind=args.ineff, target=target, scaling=args.scaling)
    except AdvplanError as exc:
        raise ConfigError(f"invalid run: {exc}") from exc
    config = RunConfig(max_iterations=args.max_iterations, inefficiency=ineff, rng_seed=args.seed)
    outcome, baseline, metrics = harness.run_attack(
        topology, plan_sets, config, adversaries, args.severity
    )
    payload = {
        "agents": len(plan_sets),
        "adversaries": sorted(adversaries),
        "severity": args.severity,
        "inefficiency": metrics["inefficiency"],
        "discomfort_total": metrics["discomfort_total"],
        "discomfort_legit": metrics["discomfort_legit"],
        "baseline_inefficiency": baseline.global_inefficiency,
        "compromised": metrics["compromised"],
        "iterations": metrics["iterations"],
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
    print(sum(
        harness.estimate_experiment_count(pop, len(harness.load_inputs(pop, pop.placements)[0]))
        for pop in harness.populations(cfg)
    ))
    return 0


def _pooled_grid(paths) -> harness.SweepGrid:
    grid = harness.SweepGrid()
    for path in paths:
        grid.rows.extend(harness.SweepGrid.read_csv(path).rows)
    if not grid.rows:
        raise ConfigError("no rows found in the given result files")
    return grid


def _cmd_analyze(args) -> int:
    if args.bins < 3:
        raise ConfigError(f"--bins must be at least 3 to hold three zones, got {args.bins}")
    grid = _pooled_grid(args.results)
    harness.analyze(
        grid, output_dir=args.out, bins=args.bins, exclude_beta=tuple(args.exclude_beta)
    )
    print(f"analysis written to {Path(args.out)}")
    return 0


def _cmd_plot(args) -> int:
    grid = _pooled_grid(args.results)
    written = harness.analyze(grid, args.out, exclude_beta=tuple(args.exclude_beta))
    print(f"{sum(path.suffix == '.svg' for path in written)} heatmaps written to {Path(args.out)}")
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
