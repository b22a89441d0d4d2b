"""Experiment orchestration: configs, sweeps, structural runs, CSVs, analysis.

A sweep config describes one dataset (a plan-file directory or a synthetic
Gaussian spec), the severity and scale grids, placement modes, and the
inefficiency setup. Every executed run becomes one long-format CSV row; cell
aggregation, zone segmentation, Pareto fronts, and heatmaps are derived from
those rows afterwards.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .adversary import (
    LAYER_RATIOS,
    cumulative_positions,
    layer_adversary_count,
    make_profile,
    random_adversaries,
    sample_k_subsets,
    severity_grid,
)
from .analytics import (
    MetricPoint,
    RvcLabel,
    classify_rvc,
    compromised_discomfort,
    knee_mmd,
    multi_otsu,
    pareto_front,
)
from .costs import InefficiencyFn
from .engine import BehaviorProfile, RunConfig, RunOutcome, run_batch, split_batches
from .errors import AdvplanError, ConfigError, DegenerateInputError, ParseError
from .heatmap import render_heatmap
from .plans import (
    PlanSet,
    TargetSignal,
    generate_gaussian_plans,
    load_plan_sets,
    load_target_signal,
)
from .topology import agents_in_layer, build_balanced_binary

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "dataset",
    "signal_id",
    "master_seed",
    "run_seed",
    "beta",
    "adv_count",
    "adv_fraction",
    "placement_mode",
    "layer",
    "direction",
    "m",
    "inefficiency",
    "discomfort_total",
    "discomfort_legit",
    "compromised",
    "iterations",
)

PLACEMENT_MODES = ("random", "layer", "cumulative")
ZONE_METRICS = ("inefficiency", "discomfort_total", "discomfort_legit", "compromised")
# Metrics whose degraded side is the low end (discomfort vanishes when
# adversaries take over), so their zone labels run in reverse.
REVERSED_ZONE_METRICS = ("discomfort_total", "discomfort_legit")

_KINDS = {Integral: "integers", Real: "numbers", str: "strings"}


def _check_types(config, types: dict) -> None:
    """Raise ``ConfigError`` naming the first field that holds a wrong type.

    ``types`` maps field names to ``_KINDS`` keys; a tuple field is checked
    item by item, and None passes only where it is the field's default.
    """
    optional = {f.name for f in fields(config) if f.default is None}
    for key, kind in types.items():
        value = getattr(config, key)
        if value is None and key in optional:
            continue
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, bool) or not isinstance(item, kind):
                raise ConfigError(f"{key} must hold {_KINDS[kind]}, got {item!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Where plans come from: a directory of plan files or a Gaussian spec."""

    kind: str
    name: str = ""
    plans_dir: str | None = None
    agents: int | None = None
    plans: int | None = None
    dim: int = 2
    seed: int = 0
    # Campaign grids, used only by experiment accounting.
    agents_grid: tuple[int, ...] | None = None
    plans_grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        ints = ("agents", "plans", "dim", "seed", "agents_grid", "plans_grid")
        _check_types(self, dict.fromkeys(ints, Integral))
        if self.kind not in ("gaussian", "files"):
            raise ConfigError(f"dataset kind must be 'gaussian' or 'files', got {self.kind!r}")
        if self.kind == "files" and not self.plans_dir:
            raise ConfigError("files dataset needs plans_dir")
        if self.kind == "gaussian" and not self.agents_grid:
            if self.agents is None or self.plans is None:
                raise ConfigError("gaussian dataset needs agents and plans counts")
        if not self.name:
            fallback = self.kind if self.kind == "gaussian" else Path(self.plans_dir).name
            object.__setattr__(self, "name", fallback)


@dataclass(frozen=True)
class SweepConfig:
    dataset: DatasetSpec
    severities: tuple[float, ...] = field(default_factory=lambda: tuple(severity_grid()))
    scales: tuple[int, ...] | None = None
    runs_per_cell: int = 100
    placements: tuple[str, ...] = ("random",)
    inefficiency_kind: str = "variance"
    inefficiency_scaling: str = "identity"
    target_files: tuple[str, ...] = ()
    max_iterations: int = 40
    initial_selection: str = "first_plan"
    combination_cap: int = 100
    layer_ratios: tuple[int, ...] = LAYER_RATIOS
    output_dir: str = "results"
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        _check_types(self, {
            "severities": Real, "scales": Integral, "runs_per_cell": Integral, "placements": str,
            "max_iterations": Integral, "combination_cap": Integral, "layer_ratios": Integral,
            "master_seed": Integral, "workers": Integral,
        })
        if self.runs_per_cell < 1:
            raise ConfigError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        if not self.severities:
            raise ConfigError("severity grid must be non-empty")
        for b in self.severities:
            if not 0.0 < b <= 1.0:
                raise ConfigError(f"severities must lie in (0, 1], got {b}")
        if self.scales is not None and not self.scales:
            raise ConfigError("scale grid must be non-empty when given")
        for mode in self.placements:
            if mode not in PLACEMENT_MODES:
                raise ConfigError(f"unknown placement mode {mode!r}")
        if self.inefficiency_kind == "rss" and not self.target_files:
            raise ConfigError("rss inefficiency needs at least one target file")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.combination_cap < 1:
            raise ConfigError(f"combination_cap must be >= 1, got {self.combination_cap}")


def load_config(
    path: str | Path,
    workdir: str | Path | None = None,
    master_seed: int | None = None,
) -> SweepConfig:
    """Parse a YAML sweep config; relative paths resolve against ``workdir``."""
    path = Path(path)
    base = Path(workdir) if workdir is not None else path.parent
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a mapping")

    def resolve(p: str) -> str:
        p = Path(p)
        return str(p if p.is_absolute() else base / p)

    def listed(section: dict, key: str, default=None) -> tuple | None:
        value = section.get(key, default)
        if value is not None and not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return None if value is None else tuple(value)

    ds, ineff = raw.get("dataset"), raw.get("inefficiency") or {}
    if not isinstance(ds, dict) or not isinstance(ineff, dict):
        raise ConfigError("config needs a dataset mapping, and inefficiency must be one too")
    dataset = DatasetSpec(
        kind=ds.get("kind", "gaussian"),
        name=ds.get("name", ""),
        plans_dir=resolve(ds["plans_dir"]) if ds.get("plans_dir") else None,
        agents=ds.get("agents"),
        plans=ds.get("plans"),
        dim=ds.get("dim", 2),
        seed=ds.get("seed", 0),
        agents_grid=listed(ds, "agents_grid") or None,
        plans_grid=listed(ds, "plans_grid") or None,
    )
    targets = listed(ineff, "target_files") or ()
    if "target_file" in ineff:
        targets = (*targets, ineff["target_file"])
    nested = {"inefficiency_kind", "inefficiency_scaling", "target_files"}
    stray = set(raw) - ({f.name for f in fields(SweepConfig)} - nested | {"inefficiency"})
    if stray:
        raise ConfigError(f"unknown config keys: {sorted(stray)}")
    return SweepConfig(
        dataset=dataset,
        severities=listed(raw, "severities", severity_grid()),
        scales=listed(raw, "scales"),
        runs_per_cell=raw.get("runs_per_cell", 100),
        placements=listed(raw, "placements", ("random",)),
        inefficiency_kind=ineff.get("kind", "variance"),
        inefficiency_scaling=ineff.get("scaling", "identity"),
        target_files=tuple(resolve(t) for t in targets),
        max_iterations=raw.get("max_iterations", 40),
        initial_selection=raw.get("initial_selection", "first_plan"),
        combination_cap=raw.get("combination_cap", 100),
        layer_ratios=listed(raw, "layer_ratios", LAYER_RATIOS),
        output_dir=resolve(raw.get("output_dir", "results")),
        master_seed=master_seed if master_seed is not None else raw.get("master_seed", 0),
        workers=raw.get("workers", 1),
    )


def derive_seed(master_seed: int, *tags) -> int:
    """Stable sub-seed from the master seed and a tag path (ints or strings)."""
    parts = [master_seed & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            parts.append(zlib.crc32(tag.encode()))
        else:
            parts.append(int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy=parts).generate_state(1)[0])


@dataclass(frozen=True)
class RunRecord:
    """One executed run, matching the long-format CSV schema."""

    dataset: str
    signal_id: str
    master_seed: int
    run_seed: int
    beta: float
    adv_count: int
    adv_fraction: float
    placement_mode: str
    layer: int | None
    direction: str
    m: int | None
    inefficiency: float
    discomfort_total: float
    discomfort_legit: float
    compromised: float
    iterations: int

    def to_row(self) -> list[str]:
        def fmt(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]

    def sort_key(self):
        return (
            self.dataset,
            self.signal_id,
            self.placement_mode,
            -1 if self.layer is None else self.layer,
            self.direction,
            -1 if self.m is None else self.m,
            self.beta,
            self.adv_count,
            self.run_seed,
        )

    @classmethod
    def from_row(cls, row: dict[str, str]) -> "RunRecord":
        """Parse each field by its annotation; an empty optional field is None."""
        parse = {"str": str, "int": int, "float": float}
        parse["int | None"] = lambda v: int(v) if v else None
        return cls(**{f.name: parse[f.type](row[f.name]) for f in fields(cls)})


@dataclass
class SweepGrid:
    """All run records of one sweep, plus the cell aggregations over them."""

    rows: list[RunRecord] = field(default_factory=list)

    def sorted_rows(self) -> list[RunRecord]:
        return sorted(self.rows, key=RunRecord.sort_key)

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for record in self.sorted_rows():
                writer.writerow(record.to_row())
        return path

    @classmethod
    def read_csv(cls, path: str | Path) -> "SweepGrid":
        """Rows of a results CSV; a malformed row raises ``ParseError``."""
        rows = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            missing = set(CSV_COLUMNS) - set(reader.fieldnames or CSV_COLUMNS)
            if missing:
                raise ParseError(f"{path}: missing columns {sorted(missing)}")
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"{len(row)} fields, expected {len(reader.fieldnames)}")
                    rows.append(RunRecord.from_row(row))
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
        return cls(rows=rows)

    def signals(self) -> list[str]:
        return sorted({r.signal_id for r in self.rows})

    def cell_means(self) -> dict[tuple[str, float, int], MetricPoint]:
        """Means per (signal, beta, adversary count) over random-placement rows."""
        groups: dict[tuple[str, float, int], list[RunRecord]] = {}
        for r in self.rows:
            if r.placement_mode != "random":
                continue
            groups.setdefault((r.signal_id, r.beta, r.adv_count), []).append(r)
        cells = {}
        for key, records in groups.items():
            # Fixed summation order keeps means identical no matter how the
            # rows were loaded.
            records = sorted(records, key=RunRecord.sort_key)
            cells[key] = MetricPoint(
                beta=key[1],
                adversary_fraction=records[0].adv_fraction,
                inefficiency=float(np.mean([r.inefficiency for r in records])),
                discomfort_total=float(np.mean([r.discomfort_total for r in records])),
                discomfort_legitimate=float(np.mean([r.discomfort_legit for r in records])),
                compromised=float(np.mean([r.compromised for r in records])),
                run_count=len(records),
            )
        return cells

    def structural_means(self, mode: str) -> dict[tuple, dict[str, float]]:
        """Mean metrics per structural cell.

        Layer cells key as (signal, layer, adv_count, beta); cumulative cells
        as (signal, direction, m, beta).
        """
        groups: dict[tuple, list[RunRecord]] = {}
        for r in self.rows:
            if r.placement_mode != mode:
                continue
            if mode == "layer":
                key = (r.signal_id, r.layer, r.adv_count, r.beta)
            else:
                key = (r.signal_id, r.direction, r.m, r.beta)
            groups.setdefault(key, []).append(r)
        return {
            key: {
                **{m: float(np.mean([getattr(r, m) for r in records])) for m in ZONE_METRICS},
                "run_count": len(records),
            }
            for key, records in (
                (key, sorted(recs, key=RunRecord.sort_key)) for key, recs in groups.items()
            )
        }


def _load_dataset(cfg: SweepConfig) -> list[PlanSet]:
    ds = cfg.dataset
    if ds.kind == "files":
        return load_plan_sets(ds.plans_dir)
    return generate_gaussian_plans(ds.agents, ds.plans, ds.dim, seed=ds.seed)


def _signals(cfg: SweepConfig) -> list[tuple[str, TargetSignal | None]]:
    if cfg.inefficiency_kind == "variance":
        return [("", None)]
    return [
        (str(idx), load_target_signal(path))
        for idx, path in enumerate(cfg.target_files)
    ]


def _run_config(cfg: SweepConfig, target: TargetSignal | None, rng_seed: int) -> RunConfig:
    ineff = InefficiencyFn(
        kind=cfg.inefficiency_kind,
        target=None if target is None else target.values,
        scaling=cfg.inefficiency_scaling,
    )
    return RunConfig(
        max_iterations=cfg.max_iterations,
        inefficiency=ineff,
        rng_seed=rng_seed,
        initial_selection=cfg.initial_selection,
    )


def _metrics_record(
    cfg: SweepConfig,
    signal_id: str,
    run_seed: int,
    beta: float,
    adversaries: set[int],
    outcome: RunOutcome,
    baseline: RunOutcome,
    n: int,
    placement_mode: str,
    layer: int | None = None,
    direction: str = "",
    m: int | None = None,
) -> RunRecord:
    legitimate = set(outcome.discomfort_per_agent) - set(adversaries)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        comp = compromised_discomfort(outcome, baseline, legitimate)
    return RunRecord(
        dataset=cfg.dataset.name,
        signal_id=signal_id,
        master_seed=cfg.master_seed,
        run_seed=run_seed,
        beta=beta,
        adv_count=len(adversaries),
        adv_fraction=len(adversaries) / n,
        placement_mode=placement_mode,
        layer=layer,
        direction=direction,
        m=m,
        inefficiency=outcome.global_inefficiency,
        discomfort_total=outcome.mean_discomfort(),
        discomfort_legit=outcome.mean_discomfort(legitimate) if legitimate else 0.0,
        compromised=comp,
        iterations=outcome.iterations_used,
    )


class _Cell(NamedTuple):
    """One run of a batch: its severity, adversaries, seed and CSV tags.

    ``error`` holds the exception when the adversary set could not be drawn.
    """

    beta: float
    run_seed: int
    adversaries: frozenset[int] = frozenset()
    count: int = 0
    layer: int | None = None
    direction: str = ""
    m: int | None = None
    error: AdvplanError | None = None


def profile_for(topology, adversaries, beta: float) -> BehaviorProfile:
    """Adversaries at severity ``beta``; with none, every agent legitimate."""
    if adversaries:
        return make_profile(topology, adversaries, beta)
    return BehaviorProfile.uniform(range(1, topology.node_count + 1), 0.0)


def _run_cells(topology, plan_sets: list[PlanSet], run_cfg: RunConfig, cells, isolate: bool):
    """Yield ``(cell, outcome)`` for the baseline, then for every cell.

    The baseline (every agent legitimate, seeded with ``run_cfg.rng_seed``)
    comes first. Runs go to the engine in the batches of ``split_batches``.
    With ``isolate``, a batch that fails is run again one cell at a time,
    and a cell that fails alone yields its exception as the outcome;
    without it, errors propagate.
    """

    def attempt(batch):
        profiles = []
        for cell in batch:
            if cell.error is not None:
                raise cell.error
            profiles.append(profile_for(topology, cell.adversaries, cell.beta))
        return run_batch(topology, plan_sets, profiles, run_cfg, [c.run_seed for c in batch])

    queue = itertools.chain([_Cell(beta=0.0, run_seed=run_cfg.rng_seed)], cells)
    for batch in split_batches(plan_sets, queue):
        try:
            outcomes = attempt(batch)
        except (AdvplanError, OSError):
            if not isolate:
                raise
            outcomes = []
            for cell in batch:
                try:
                    outcomes.extend(attempt([cell]))
                except (AdvplanError, OSError) as exc:
                    outcomes.append(exc)
        yield from zip(batch, outcomes)


def _cell_seeds(cfg: SweepConfig, signal_index: int, rep: int, scales: tuple[int, ...]):
    """``(beta, count, run_seed)`` of every cell of one (signal, repetition) task."""
    for beta_index, beta in enumerate(cfg.severities):
        for count in scales:
            yield beta, count, derive_seed(
                cfg.master_seed, "placement", signal_index, beta_index, count, rep
            )


def _task_keys(cfg: SweepConfig, signal_index: int, signal_id: str, rep: int, scales):
    """``RunRecord.sort_key`` of every row the task writes, without running it."""
    return [
        (cfg.dataset.name, signal_id, "random", -1, "", -1, beta, count, run_seed)
        for beta, count, run_seed in _cell_seeds(cfg, signal_index, rep, scales)
    ]


ERROR_COLUMNS = ("signal_id", "repetition", "beta", "adv_count", "error")


def _sweep_repetition(
    cfg: SweepConfig,
    plan_sets: list[PlanSet],
    signal_index: int,
    signal: tuple[str, TargetSignal | None],
    rep: int,
    scales: tuple[int, ...],
) -> tuple[list[RunRecord], list[dict]]:
    """All cells of one (signal, repetition) slice, sharing one baseline.

    A failing cell turns into an error entry instead of aborting the slice.
    """
    signal_id, target = signal
    n = len(plan_sets)
    topo_seed = derive_seed(cfg.master_seed, "topology", rep)
    topology = build_balanced_binary(n, permutation_seed=topo_seed)
    run_cfg = _run_config(cfg, target, rng_seed=topo_seed)

    def cells():
        for beta, count, run_seed in _cell_seeds(cfg, signal_index, rep, scales):
            try:
                adversaries = random_adversaries(topology, count, seed=run_seed)
                yield _Cell(beta, run_seed, frozenset(adversaries), count)
            except AdvplanError as exc:
                yield _Cell(beta, run_seed, count=count, error=exc)

    records: list[RunRecord] = []
    errors: list[dict] = []
    results = _run_cells(topology, plan_sets, run_cfg, cells(), isolate=True)
    _, baseline = next(results)
    if isinstance(baseline, Exception):
        errors.append(
            {"signal_id": signal_id, "repetition": rep, "beta": "", "adv_count": "",
             "error": f"baseline: {baseline}"}
        )
        return records, errors
    for cell, outcome in results:
        if isinstance(outcome, Exception):
            errors.append(
                {"signal_id": signal_id, "repetition": rep, "beta": cell.beta,
                 "adv_count": cell.count, "error": str(outcome)}
            )
        else:
            records.append(
                _metrics_record(
                    cfg, signal_id, cell.run_seed, cell.beta, cell.adversaries, outcome,
                    baseline, n, "random",
                )
            )
    return records, errors


def _read_partial(path: Path) -> list[RunRecord]:
    """Rows of a partial results file, less a torn last row.

    A row is torn when the file does not end with its line break; the file
    is truncated to the last complete row so appended rows start on a line
    of their own.
    """
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        log.warning("dropping the torn last row of %s", path)
        with open(path, "r+b") as handle:
            handle.truncate(end)
    return SweepGrid.read_csv(path).rows


def run_sweep(cfg: SweepConfig, resume: bool = False) -> SweepGrid:
    """Execute the random-placement sweep and write the sorted results CSV.

    Every (severity, scale) cell gets ``runs_per_cell`` runs; repetition ``r``
    reshuffles the agent-to-position permutation and reuses one cached
    baseline run per (signal, r) for the compromised-discomfort metric. Rows
    stream to a partial CSV as they are produced and are finalized into
    ``runs.csv``, sorted, at the end; the result is a pure function of the
    config and master seed, so serial and parallel executions emit identical
    sorted CSVs. A resume skips every (signal, repetition) task whose rows
    are all in the partial file already. A pool of ``workers`` processes runs
    the tasks only when more than one task is left for it.
    """
    if "random" not in cfg.placements:
        raise ConfigError("run_sweep needs the 'random' placement enabled")
    plan_sets = _load_dataset(cfg)
    n = len(plan_sets)
    scales = cfg.scales if cfg.scales is not None else tuple(range(1, n + 1))
    for count in scales:
        if not 0 <= count <= n:
            raise ConfigError(f"scale {count} outside 0..{n}")
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    final_path = outdir / "runs.csv"
    partial_path = outdir / "runs.partial.csv"

    existing: list[RunRecord] = []
    if resume and final_path.exists():
        log.info("sweep already finalized at %s; reusing", final_path)
        return SweepGrid.read_csv(final_path)
    if resume and partial_path.exists():
        existing = _read_partial(partial_path)
    done = {r.sort_key() for r in existing}

    signals = _signals(cfg)
    tasks = [
        (si, signal, rep)
        for si, signal in enumerate(signals)
        for rep in range(cfg.runs_per_cell)
        if not (done and done.issuperset(_task_keys(cfg, si, signal[0], rep, scales)))
    ]

    grid = SweepGrid(rows=list(existing))
    error_rows: list[dict] = []
    append_mode = bool(existing)
    with open(partial_path, "a" if append_mode else "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        if not append_mode:
            writer.writerow(CSV_COLUMNS)

        def emit(result: tuple[list[RunRecord], list[dict]]) -> None:
            records, errors = result
            error_rows.extend(errors)
            for record in records:
                if record.sort_key() in done:
                    continue
                grid.rows.append(record)
                writer.writerow(record.to_row())
            sink.flush()

        workers = min(cfg.workers, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_sweep_repetition, cfg, plan_sets, si, signal, rep, scales)
                    for si, signal, rep in tasks
                ]
                for future in futures:
                    emit(future.result())
        else:
            for si, signal, rep in tasks:
                emit(_sweep_repetition(cfg, plan_sets, si, signal, rep, scales))

    grid.write_csv(final_path)
    partial_path.unlink(missing_ok=True)
    if error_rows:
        _write_dict_csv(outdir / "errors.csv", error_rows, list(ERROR_COLUMNS))
        log.warning("%d cells failed; see %s", len(error_rows), outdir / "errors.csv")
    log.info("sweep finished: %d rows -> %s", len(grid.rows), final_path)
    return grid


def _layer_cells(cfg: SweepConfig, topology, signal_index: int):
    for layer in range(1, topology.layer_count + 1):
        members = sorted(agents_in_layer(topology, layer))
        counts = sorted({layer_adversary_count(len(members), p) for p in cfg.layer_ratios})
        for count in counts:
            config_seed = derive_seed(cfg.master_seed, "layercfg", layer, count)
            configs = sample_k_subsets(members, count, cfg.combination_cap, seed=config_seed)
            for beta_index, beta in enumerate(cfg.severities):
                for j, adversaries in enumerate(configs):
                    run_seed = derive_seed(
                        cfg.master_seed, "layerrun", signal_index, layer, count, beta_index, j
                    )
                    yield _Cell(beta, run_seed, adversaries, layer=layer)


def _cumulative_cells(cfg: SweepConfig, topology, signal_index: int):
    for direction in ("top_down", "bottom_up"):
        for m in range(1, topology.node_count + 1):
            adversaries = frozenset(cumulative_positions(topology, direction, m))
            for beta_index, beta in enumerate(cfg.severities):
                run_seed = derive_seed(
                    cfg.master_seed, "cumulative", signal_index, direction, m, beta_index
                )
                yield _Cell(beta, run_seed, adversaries, direction=direction, m=m)


def run_structural(cfg: SweepConfig, mode: str) -> SweepGrid:
    """Execute layer-wise or cumulative placements on the repetition-0 topology.

    Layer-wise runs cover, per layer, every distinct adversary count the
    configured ratios map to (duplicate counts collapse to one set of sampled
    configurations, whose metrics then stand for every ratio mapping to them).
    Cumulative runs grow the adversary set along the breadth-first order and
    its reverse, one run per (direction, m, severity).
    """
    mode = mode.strip().lower().replace("-", "_").replace("_wise", "")
    if mode not in ("layer", "cumulative"):
        raise ConfigError(f"structural mode must be 'layer' or 'cumulative', got {mode!r}")
    plan_sets = _load_dataset(cfg)
    n = len(plan_sets)
    topo_seed = derive_seed(cfg.master_seed, "topology", 0)
    topology = build_balanced_binary(n, permutation_seed=topo_seed)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells_for = _layer_cells if mode == "layer" else _cumulative_cells

    grid = SweepGrid()
    for si, (signal_id, target) in enumerate(_signals(cfg)):
        run_cfg = _run_config(cfg, target, rng_seed=topo_seed)
        results = _run_cells(
            topology, plan_sets, run_cfg, cells_for(cfg, topology, si), isolate=False
        )
        _, baseline = next(results)
        for cell, outcome in results:
            grid.rows.append(
                _metrics_record(
                    cfg, signal_id, cell.run_seed, cell.beta, cell.adversaries, outcome,
                    baseline, n, mode, layer=cell.layer, direction=cell.direction, m=cell.m,
                )
            )

    grid.write_csv(outdir / f"structural_{mode}.csv")
    return grid


def estimate_experiment_count(cfg: SweepConfig) -> int:
    """Evaluate the experiment-accounting formula without running anything.

    For a campaign dataset (agents_grid / plans_grid present) the count is the
    per-population product sum. Otherwise it is severity levels x signals x
    (core sweep runs + layer-wise combinations + cumulative runs), restricted
    to the placements the config enables. Layer-wise combinations count per
    distinct per-layer adversary count, mirroring how the runs execute.
    """
    ds = cfg.dataset
    severities = len(cfg.severities)
    if ds.agents_grid:
        if not ds.plans_grid:
            raise ConfigError("campaign accounting needs both agents_grid and plans_grid")
        return sum(
            a * severities * len(ds.plans_grid) * cfg.runs_per_cell
            for a in ds.agents_grid
        )
    if ds.kind == "files":
        n = len(load_plan_sets(ds.plans_dir))
    else:
        n = ds.agents
    signals = max(1, len(cfg.target_files)) if cfg.inefficiency_kind == "rss" else 1
    scales = cfg.scales if cfg.scales is not None else tuple(range(1, n + 1))
    per_signal = 0
    if "random" in cfg.placements:
        per_signal += cfg.runs_per_cell * len(scales)
    if "layer" in cfg.placements:
        topology = build_balanced_binary(n, permutation_seed=0)
        for layer in range(1, topology.layer_count + 1):
            size = len(topology.positions_in_layer(layer))
            counts = {layer_adversary_count(size, p) for p in cfg.layer_ratios}
            per_signal += sum(
                min(cfg.combination_cap, math.comb(size, k)) for k in counts
            )
    if "cumulative" in cfg.placements:
        per_signal += 2 * n
    return severities * signals * per_signal


@dataclass
class AnalysisBundle:
    """Analysis artifacts: thresholds and zones per metric, fronts with knees."""

    cells: dict
    thresholds: dict
    zones: dict
    front_rows: list[dict]
    output_dir: Path | None = None


def _zone_for(value: float, thresholds, reverse: bool) -> RvcLabel:
    if thresholds is None:
        return RvcLabel.RESILIENCE
    return classify_rvc(value, thresholds, reverse=reverse)


def _front_rows_for(
    cells: dict, signal: str, betas: list[float], counts: list[int]
) -> list[dict]:
    """Pareto fronts and knees per fixed-severity row and fixed-scale column."""
    rows = []
    axes = [
        ("per_beta", [(b, [(c, cells[(signal, b, c)]) for c in counts]) for b in betas]),
        ("per_scale", [(c, [(b, cells[(signal, b, c)]) for b in betas]) for c in counts]),
    ]
    for orientation, slices in axes:
        for fixed, members in slices:
            points = [
                (point.inefficiency, point.discomfort_legitimate)
                for _, point in members
            ]
            front = set(pareto_front(points))
            knee = knee_mmd(sorted(front))
            for (other, _), xy in zip(members, points):
                beta, count = (fixed, other) if orientation == "per_beta" else (other, fixed)
                rows.append(
                    {
                        "signal_id": signal,
                        "orientation": orientation,
                        "fixed": fixed,
                        "beta": beta,
                        "adv_count": count,
                        "inefficiency": xy[0],
                        "discomfort_legit": xy[1],
                        "on_front": xy in front,
                        "is_knee": xy == knee,
                    }
                )
    return rows


def _write_dict_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(v) if isinstance(v, float) else str(v) for v in (row[c] for c in columns)]
            )


def analyze(
    grid: SweepGrid,
    output_dir: str | Path | None = None,
    bins: int = 256,
    exclude_beta: tuple[float, ...] = (),
) -> AnalysisBundle:
    """Segment the sweep grid into R/V/C zones and extract fronts and knees.

    Otsu thresholds are computed per metric over the grid of cell means; a
    degenerate metric (fewer than three distinct values) downgrades to a
    single all-resilience zone with a warning. Fronts pair inefficiency with
    legitimate-agent discomfort along both grid orientations. When an output
    directory is given, cells, thresholds, zones, fronts, and per-metric SVG
    heatmaps (with knee and zone overlays) are written there; structural rows
    present in the grid get their own aggregated CSVs and heatmaps.
    """
    cells = grid.cell_means()
    if exclude_beta:
        cells = {
            key: point for key, point in cells.items() if key[1] not in exclude_beta
        }
    thresholds: dict = {}
    zones: dict = {}
    front_rows: list[dict] = []
    zone_rows: list[dict] = []
    signals = sorted({key[0] for key in cells})

    metric_of = {
        "inefficiency": lambda p: p.inefficiency,
        "discomfort_total": lambda p: p.discomfort_total,
        "discomfort_legit": lambda p: p.discomfort_legitimate,
        "compromised": lambda p: p.compromised,
    }

    for signal in signals:
        keys = sorted(key for key in cells if key[0] == signal)
        betas = sorted({k[1] for k in keys})
        counts = sorted({k[2] for k in keys})
        complete = all((signal, b, c) in cells for b in betas for c in counts)
        for metric in ZONE_METRICS:
            values = [metric_of[metric](cells[k]) for k in keys]
            try:
                t1, t2 = multi_otsu(values, classes=3, bins=bins)
                thresholds[(signal, metric)] = (t1, t2)
            except DegenerateInputError:
                warnings.warn(
                    f"metric {metric!r} of signal {signal!r} is degenerate; "
                    "zones default to resilience",
                    stacklevel=2,
                )
                thresholds[(signal, metric)] = None
            reverse = metric in REVERSED_ZONE_METRICS
            for key, value in zip(keys, values):
                zone = _zone_for(value, thresholds[(signal, metric)], reverse)
                zones[(signal, metric, key[1], key[2])] = zone
                zone_rows.append(
                    {
                        "signal_id": signal,
                        "metric": metric,
                        "beta": key[1],
                        "adv_count": key[2],
                        "value": value,
                        "zone": zone.value,
                    }
                )
        if complete and keys:
            front_rows.extend(_front_rows_for(cells, signal, betas, counts))
        elif keys:
            log.warning("grid for signal %r is ragged; skipping front extraction", signal)

    bundle = AnalysisBundle(
        cells=cells, thresholds=thresholds, zones=zones, front_rows=front_rows
    )
    if output_dir is None:
        return bundle

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle.output_dir = outdir

    cell_rows = [
        {
            "signal_id": key[0],
            "beta": key[1],
            "adv_count": key[2],
            "adv_fraction": point.adversary_fraction,
            "inefficiency": point.inefficiency,
            "discomfort_total": point.discomfort_total,
            "discomfort_legit": point.discomfort_legitimate,
            "compromised": point.compromised,
            "run_count": point.run_count,
        }
        for key, point in sorted(cells.items())
    ]
    _write_dict_csv(
        outdir / "cells.csv",
        cell_rows,
        ["signal_id", "beta", "adv_count", "adv_fraction", *ZONE_METRICS, "run_count"],
    )
    _write_dict_csv(
        outdir / "thresholds.csv",
        [
            {
                "signal_id": signal,
                "metric": metric,
                "t1": "" if pair is None else pair[0],
                "t2": "" if pair is None else pair[1],
            }
            for (signal, metric), pair in sorted(thresholds.items())
        ],
        ["signal_id", "metric", "t1", "t2"],
    )
    _write_dict_csv(
        outdir / "zones.csv",
        sorted(zone_rows, key=lambda r: (r["signal_id"], r["metric"], r["beta"], r["adv_count"])),
        ["signal_id", "metric", "beta", "adv_count", "value", "zone"],
    )
    _write_dict_csv(
        outdir / "fronts.csv",
        sorted(
            front_rows,
            key=lambda r: (r["signal_id"], r["orientation"], r["fixed"], r["beta"], r["adv_count"]),
        ),
        [
            "signal_id", "orientation", "fixed", "beta", "adv_count",
            "inefficiency", "discomfort_legit", "on_front", "is_knee",
        ],
    )

    knee_cells_by_signal: dict[str, set[tuple[float, int]]] = {}
    for row in front_rows:
        if row["is_knee"] and row["orientation"] == "per_beta":
            knee_cells_by_signal.setdefault(row["signal_id"], set()).add(
                (row["beta"], row["adv_count"])
            )
    for signal in signals:
        keys = [key for key in cells if key[0] == signal]
        betas = sorted({k[1] for k in keys})
        counts = sorted({k[2] for k in keys})
        if not all((signal, b, c) in cells for b in betas for c in counts):
            continue
        rows_desc = list(reversed(betas))
        for metric in ZONE_METRICS:
            matrix = [
                [metric_of[metric](cells[(signal, b, c)]) for c in counts]
                for b in rows_desc
            ]
            zone_letters = [
                [zones[(signal, metric, b, c)].value[0].upper() for c in counts]
                for b in rows_desc
            ]
            knees = {
                (rows_desc.index(b), counts.index(c))
                for b, c in knee_cells_by_signal.get(signal, set())
            }
            tag = f"_{signal}" if signal else ""
            base = outdir / f"heatmap{tag}_{metric}"
            render_heatmap(
                matrix,
                row_labels=[f"{b:g}" for b in rows_desc],
                col_labels=[str(c) for c in counts],
                path=base.with_suffix(".svg"),
                title=f"{metric} by severity x adversary count",
                knee_cells=knees if metric == "inefficiency" else set(),
                cell_labels=zone_letters,
                x_axis="adversaries",
                y_axis="severity",
            )
            header = ["beta", *counts]
            rows = [dict(zip(header, [b, *vals])) for b, vals in zip(rows_desc, matrix)]
            _write_dict_csv(base.with_suffix(".csv"), rows, header)

    _write_structural_outputs(grid, outdir, thresholds)
    return bundle


def _write_structural_outputs(grid: SweepGrid, outdir: Path, thresholds: dict) -> None:
    layer_cells = grid.structural_means("layer")
    if layer_cells:
        rows = [
            {"signal_id": sig, "layer": layer, "adv_count": count, "beta": beta, **metrics}
            for (sig, layer, count, beta), metrics in sorted(layer_cells.items())
        ]
        _write_dict_csv(
            outdir / "layer_cells.csv",
            rows,
            ["signal_id", "layer", "adv_count", "beta", *ZONE_METRICS, "run_count"],
        )
    cumulative_cells = grid.structural_means("cumulative")
    if cumulative_cells:
        rows = [
            {"signal_id": sig, "direction": direction, "m": m, "beta": beta, **metrics}
            for (sig, direction, m, beta), metrics in sorted(cumulative_cells.items())
        ]
        _write_dict_csv(
            outdir / "cumulative_cells.csv",
            rows,
            ["signal_id", "direction", "m", "beta", *ZONE_METRICS, "run_count"],
        )
        for signal in sorted({key[0] for key in cumulative_cells}):
            for direction in ("top_down", "bottom_up"):
                keys = [k for k in cumulative_cells if k[0] == signal and k[1] == direction]
                if not keys:
                    continue
                betas = sorted({k[3] for k in keys})
                ms = sorted({k[2] for k in keys})
                matrix = [
                    [cumulative_cells[(signal, direction, m, b)]["inefficiency"] for m in ms]
                    for b in reversed(betas)
                ]
                pair = thresholds.get((signal, "inefficiency"))
                letters = None
                if pair is not None:
                    letters = [
                        [classify_rvc(v, pair).value[0].upper() for v in row]
                        for row in matrix
                    ]
                tag = f"_{signal}" if signal else ""
                render_heatmap(
                    matrix,
                    row_labels=[f"{b:g}" for b in reversed(betas)],
                    col_labels=[str(m) for m in ms],
                    path=outdir / f"heatmap{tag}_cumulative_{direction}.svg",
                    title=f"inefficiency, cumulative {direction}",
                    cell_labels=letters,
                    x_axis="m",
                    y_axis="severity",
                )
