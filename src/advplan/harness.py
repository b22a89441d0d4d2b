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
import operator
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .adversary import (
    DIRECTIONS,
    LAYER_RATIOS,
    beta_rows,
    cumulative_positions,
    layer_adversary_count,
    random_adversary_draws,
    sample_k_subsets,
    severity_grid,
)
from .analytics import (
    RvcLabel,
    knee_mmd,
    multi_otsu,
    pareto_front,
    rvc_bands,
)
from .costs import InefficiencyFn, _canonical_kind, _canonical_scaling
from .engine import RunConfig, RunOutcome, run_batch, split_batches
from .errors import AdvplanError, ConfigError, DegenerateInputError, InvalidInputError, ParseError
from .heatmap import render_heatmap
from .plans import (
    PlanSet,
    generate_gaussian_plans,
    load_plan_sets,
    load_target_signal,
)
from .seeding import derive_seed, derive_seeds, pcg64_states
from .topology import agents_in_layer, build_balanced_binary

log = logging.getLogger(__name__)

PLACEMENT_MODES = ("random", "layer", "cumulative")
# The columns that, after signal_id, key one cell of each placement mode: cell
# means group rows by them, and error rows name a failed cell by them.
CELL_KEYS = {
    "random": ("beta", "adv_count"),
    "layer": ("layer", "adv_count", "beta"),
    "cumulative": ("direction", "m", "beta"),
}
ZONE_METRICS = ("inefficiency", "discomfort_total", "discomfort_legit", "compromised")
# Metrics whose degraded side is the low end (discomfort vanishes when
# adversaries take over), so their zone labels run in reverse.
REVERSED_ZONE_METRICS = ("discomfort_total", "discomfort_legit")
_RVC = tuple(RvcLabel)
FRONT_COLUMNS = (
    "signal_id", "orientation", "fixed", "beta", "adv_count",
    "inefficiency", "discomfort_legit", "on_front", "is_knee",
)

_KINDS = {int: (Integral, "integers"), float: (Real, "numbers"), str: (str, "strings")}


def _check_types(config) -> None:
    """Raise ``ConfigError`` naming the first field whose value its annotation
    does not admit.

    ``int``, ``float`` and ``str`` admit their ``_KINDS`` values, never a
    bool; ``tuple[X, ...]`` a list or tuple of X values, stored as a tuple;
    and ``X | None`` None too. Any other annotation is a class to be an
    instance of.
    """
    for key, hint in get_type_hints(type(config)).items():
        value = getattr(config, key)
        hint, *optional = get_args(hint) if get_origin(hint) is UnionType else (hint,)
        if value is None and optional:
            continue
        items = (value,)
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            hint, items = get_args(hint)[0], tuple(value)
            object.__setattr__(config, key, items)
        kind, noun = _KINDS.get(hint, (hint, hint.__name__))
        for item in items:
            if isinstance(item, bool) or not isinstance(item, kind):
                raise ConfigError(f"{key} must hold {noun}, got {item!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Where plans come from: a directory of plan files or a Gaussian spec."""

    kind: str = "gaussian"
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
        _check_types(self)
        if self.kind not in ("gaussian", "files"):
            raise ConfigError(f"dataset kind must be 'gaussian' or 'files', got {self.kind!r}")
        if self.kind == "files" and not self.plans_dir:
            raise ConfigError("files dataset needs plans_dir")
        if self.kind == "gaussian" and not self.agents_grid:
            if self.agents is None or self.plans is None:
                raise ConfigError("gaussian dataset needs agents and plans counts")
        if self.kind == "gaussian":
            for key, least in (("agents", 1), ("plans", 1), ("dim", 1), ("seed", 0)):
                value = getattr(self, key)
                if value is not None and value < least:
                    raise ConfigError(f"{key} must be >= {least}, got {value}")
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
        _check_types(self)
        # A severity is written as a float, so 1 reads back as it was written.
        object.__setattr__(self, "severities", tuple(map(float, self.severities)))
        try:
            # Kinds are compared by name from here on, so the canonical one is kept.
            object.__setattr__(self, "inefficiency_kind", _canonical_kind(self.inefficiency_kind))
            _canonical_scaling(self.inefficiency_scaling)
        except InvalidInputError as exc:
            raise ConfigError(f"inefficiency: {exc}") from None
        # The run settings follow RunConfig's rule; the mode keeps its canonical name.
        run = RunConfig(self.max_iterations, initial_selection=self.initial_selection)
        object.__setattr__(self, "initial_selection", run.initial_selection)
        if self.runs_per_cell < 1:
            raise ConfigError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        if not self.severities:
            raise ConfigError("severity grid must be non-empty")
        for b in self.severities:
            if not 0.0 < b <= 1.0:
                raise ConfigError(f"severities must lie in (0, 1], got {b}")
        if self.scales is not None and not self.scales:
            raise ConfigError("scale grid must be non-empty when given")
        for key in ("severities", "scales"):
            values = getattr(self, key) or ()
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat a value, got {list(values)}")
        for mode in self.placements:
            if mode not in PLACEMENT_MODES:
                raise ConfigError(f"unknown placement mode {mode!r}")
        for p in self.layer_ratios:
            if p not in LAYER_RATIOS:
                raise ConfigError(f"layer_ratios must lie in {LAYER_RATIOS}, got {p}")
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
    """Parse a YAML sweep config; relative paths resolve against ``workdir``.

    Each section goes to its dataclass by field name; a key left out takes
    the field's default, and an unknown key in any section raises.
    """
    path = Path(path)
    base = Path(workdir) if workdir is not None else path.parent
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a mapping")
    ds, ineff = raw.pop("dataset", None), raw.pop("inefficiency", None) or {}
    if not isinstance(ds, dict) or not isinstance(ineff, dict):
        raise ConfigError("config needs a dataset mapping, and inefficiency must be one too")
    # The inefficiency keys and the SweepConfig fields they fill.
    nested = {"kind": "inefficiency_kind", "scaling": "inefficiency_scaling",
              "target_files": "target_files"}
    for section, values, known in (
        ("config", raw, {f.name for f in fields(SweepConfig)} - {*nested.values()}),
        ("dataset", ds, {f.name for f in fields(DatasetSpec)}),
        ("inefficiency", ineff, {*nested, "target_file"}),
    ):
        stray = set(values) - known
        if stray:
            raise ConfigError(f"unknown {section} keys: {sorted(stray, key=str)}")

    def resolve(p):
        # A path of another type is left for the dataclass to reject.
        return str(base / p) if isinstance(p, str) else p

    targets = ineff.get("target_files", [])
    if isinstance(targets, list):
        # ``target_file`` names one more target.
        alias = [ineff["target_file"]] if "target_file" in ineff else []
        ineff["target_files"] = [resolve(t) for t in targets + alias]
    raw.update((name, ineff[key]) for key, name in nested.items() if key in ineff)
    if "plans_dir" in ds:
        ds["plans_dir"] = resolve(ds["plans_dir"])
    raw["output_dir"] = resolve(raw.get("output_dir", SweepConfig.output_dir))
    if master_seed is not None:
        raw["master_seed"] = master_seed
    return SweepConfig(dataset=DatasetSpec(**ds), **raw)


class RunRecord(NamedTuple):
    """One executed run: its fields are the long-format CSV columns, in order.

    A record is its own CSV row: ``csv.writer`` writes a float as its
    ``repr`` and None as an empty field.
    """

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


CSV_COLUMNS = RunRecord._fields
# Each RunRecord field is parsed by its annotation; an empty optional field is None.
_PARSERS = {str: str, int: int, float: float, int | None: lambda v: int(v) if v else None}
_FIELD_PARSERS = tuple((name, _PARSERS[kind]) for name, kind in get_type_hints(RunRecord).items())


@dataclass
class SweepGrid:
    """All run records of one sweep, plus the cell aggregations over them."""

    rows: list[RunRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> Path:
        """Sort the rows in place by ``RunRecord.sort_key`` and write them."""
        self.rows.sort(key=RunRecord.sort_key)
        _write_csv(Path(path), CSV_COLUMNS, self.rows)
        return Path(path)

    @classmethod
    def read_csv(cls, path: str | Path) -> "SweepGrid":
        """Rows of a results CSV; a malformed row raises ``ParseError``."""
        rows = []
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                header = next(reader, CSV_COLUMNS)
                missing = set(CSV_COLUMNS) - set(header)
                if missing:
                    raise ParseError(f"{path}: missing columns {sorted(missing)}")
                # A column named twice is read from its last place.
                at = {name: i for i, name in enumerate(header)}
                columns = [(at[name], parse) for name, parse in _FIELD_PARSERS]
                for row in filter(None, reader):
                    try:
                        if len(row) != len(header):
                            raise ValueError(f"{len(row)} fields, expected {len(header)}")
                        rows.append(RunRecord._make(parse(row[i]) for i, parse in columns))
                    except ValueError as exc:
                        line = reader.line_num
                        raise ParseError(f"{path}:{line}: malformed row: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
        return cls(rows=rows)

    def cell_means(self, mode: str) -> dict[tuple, dict]:
        """Mean metrics per cell of one placement mode, in cell-key order.

        The key is the signal plus the mode's ``CELL_KEYS`` columns; a value
        holds ``adv_fraction``, the ``ZONE_METRICS`` means and ``run_count``.
        Rows are sorted by cell, then sort key, and a mean is the ``.mean()``
        of a cell's slice of a metric column, so it sums in sort order however
        the rows were loaded (``np.add.reduceat`` would sum in another).
        """
        cell_of = operator.attrgetter("signal_id", *CELL_KEYS[mode])
        rows = [r for r in self.rows if r.placement_mode == mode]
        rows.sort(key=lambda r: (cell_of(r), r.sort_key()))
        keys = [cell_of(r) for r in rows]
        columns = {m: np.array([getattr(r, m) for r in rows]) for m in ZONE_METRICS}
        starts = [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
        means = {}
        for start, end in zip(starts, [*starts[1:], len(rows)]):
            means[keys[start]] = {
                "adv_fraction": rows[start].adv_fraction,
                **{m: float(column[start:end].mean()) for m, column in columns.items()},
                "run_count": end - start,
            }
        return means


def load_dataset(ds: DatasetSpec) -> list[PlanSet]:
    """The plan sets of a dataset; a campaign has no one population to load."""
    if ds.kind == "files":
        return load_plan_sets(ds.plans_dir)
    if ds.agents is None or ds.plans is None:
        raise ConfigError(
            "a dataset with agents_grid/plans_grid and no agents/plans is a campaign, which "
            "`advplan estimate` only counts; sweep and structural runs need agents and plans"
        )
    return generate_gaussian_plans(ds.agents, ds.plans, ds.dim, seed=ds.seed)


def load_target(path, dimension: int) -> np.ndarray:
    """The target signal in ``path``, refused unless it has the plans' dimension."""
    target = load_target_signal(path)
    if len(target) != dimension:
        raise ConfigError(f"target signal {path} has dimension {len(target)}, plans {dimension}")
    return target


def load_inputs(cfg: SweepConfig, modes: tuple[str, ...]) -> tuple[list[PlanSet], list[tuple]]:
    """The plan sets and ``(signal_id, target)`` pairs that the rows of the
    placement ``modes`` run on, checked before a command writes a file: random
    rows need every scale in 0..n, and each RSS target the plans' dimension."""
    plan_sets = load_dataset(cfg.dataset)
    n, d = len(plan_sets), plan_sets[0].dimension
    if "random" in modes:
        for count in _scales(cfg, n):
            if not 0 <= count <= n:
                raise ConfigError(f"scale {count} outside 0..{n}")
    if cfg.inefficiency_kind == "variance":
        return plan_sets, [("", None)]
    return plan_sets, [(str(i), load_target(path, d)) for i, path in enumerate(cfg.target_files)]


class _Cell(NamedTuple):
    """One run of a task: its severity, adversaries, seed and CSV tags."""

    beta: float
    run_seed: int
    adversaries: frozenset[int] = frozenset()
    adv_count: int = 0
    layer: int | None = None
    direction: str = ""
    m: int | None = None


def _metric_columns(topology, adversary_sets, outcomes, baseline: RunOutcome) -> dict:
    """The metric columns of runs ``outcomes[i]`` with ``adversary_sets[i]``
    that share one baseline run. Compromised discomfort is the legitimate
    agents' mean discomfort minus their mean in the baseline, 0 without
    legitimate agents. The order a mean sums its agents in sets its last
    bits: ``discomfort_total`` sums in tree-position order, the legitimate
    means in the iteration order of the Python set below (for a small set
    left by ``set.difference``, hash-table order). Each is a row mean of a
    C-contiguous matrix, one per count of legitimate agents, which sums a
    row as its own ``.mean()`` does; ``D[:, order]`` is not C-contiguous.
    """
    D = np.stack([outcome.discomfort for outcome in outcomes])
    everyone = set(range(1, topology.node_count + 1))
    legitimate = [np.fromiter(everyone.difference(adv), np.intp) - 1 for adv in adversary_sets]
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(legitimate):
        groups.setdefault(ids.size, []).append(i)
    legit, comp = np.zeros(len(outcomes)), np.zeros(len(outcomes))
    for rows in (rows for size, rows in groups.items() if size):
        ids = np.stack([legitimate[i] for i in rows])
        legit[rows] = np.ascontiguousarray(D[np.array(rows)[:, None], ids]).mean(axis=1)
        comp[rows] = legit[rows] - baseline.discomfort[ids].mean(axis=1)
    by_position = np.ascontiguousarray(D[:, np.asarray(topology.agent_at) - 1])
    return dict(
        inefficiency=[outcome.global_inefficiency for outcome in outcomes],
        discomfort_total=by_position.mean(axis=1).tolist(),
        discomfort_legit=legit.tolist(),
        compromised=comp.tolist(),
        iterations=[outcome.iterations_used for outcome in outcomes],
    )


def run_attack(topology, plan_sets: list[PlanSet], run_cfg: RunConfig, adversaries, beta: float):
    """``(outcome, baseline, metrics)`` of one attacked run.

    The attacked run and its baseline run as one batch, both seeded with
    ``run_cfg.rng_seed``; an error raises. ``metrics`` are the metric
    columns the run's CSV row would have.
    """
    betas = beta_rows(topology, [(), adversaries], [0.0, beta])
    baseline, outcome = run_batch(topology, plan_sets, betas, run_cfg, [run_cfg.rng_seed] * 2)
    columns = _metric_columns(topology, [adversaries], [outcome], baseline)
    return outcome, baseline, {name: column[0] for name, column in columns.items()}


def _run_cells(topology, plan_sets: list[PlanSet], run_cfg: RunConfig, cells):
    """Yield ``(cells, outcomes)`` per batch of ``split_batches`` that runs.

    The baseline (every agent legitimate, seeded with ``run_cfg.rng_seed``)
    is the first cell of the first batch. A batch that fails is run again
    one cell at a time: each cell yields ``([cell], outcomes)``, or
    ``([cell], error)`` when it fails alone. A ``ConfigError`` concerns
    every cell alike, so it propagates.
    """

    def attempt(batch):
        betas = beta_rows(topology, [c.adversaries for c in batch], [c.beta for c in batch])
        return run_batch(topology, plan_sets, betas, run_cfg, [c.run_seed for c in batch])

    queue = itertools.chain([_Cell(beta=0.0, run_seed=run_cfg.rng_seed)], cells)
    for batch in split_batches(plan_sets, queue):
        try:
            yield batch, attempt(batch)
        except ConfigError:
            raise
        except (AdvplanError, OSError):
            for cell in batch:
                try:
                    yield [cell], attempt([cell])
                except (AdvplanError, OSError) as exc:
                    yield [cell], exc


def _scales(cfg: SweepConfig, n: int) -> tuple[int, ...]:
    return cfg.scales if cfg.scales is not None else tuple(range(1, n + 1))


def _cell_seeds(cfg: SweepConfig, signal_index: int, rep: int, n: int):
    """Severities, counts and run seeds (a uint32 array) of the random-placement
    cells of one task, in cell order."""
    scales = _scales(cfg, n)
    betas = [beta for beta in cfg.severities for _ in scales]
    counts = [*scales] * len(cfg.severities)
    beta_index = np.repeat(np.arange(len(cfg.severities)), len(scales))
    tags = ("placement", signal_index, beta_index, np.array(counts), rep)
    return betas, counts, derive_seeds(cfg.master_seed, tags)


def _task_keys(cfg: SweepConfig, signal_index: int, signal_id: str, rep: int, n: int):
    """``RunRecord.sort_key`` of every row a sweep task writes, without running it."""
    betas, counts, seeds = _cell_seeds(cfg, signal_index, rep, n)
    return [
        (cfg.dataset.name, signal_id, "random", -1, "", -1, beta, count, run_seed)
        for beta, count, run_seed in zip(betas, counts, seeds.tolist())
    ]


def _random_cells(cfg: SweepConfig, topology, signal_index: int, rep: int):
    betas, counts, seeds = _cell_seeds(cfg, signal_index, rep, topology.node_count)
    # Every draw sets the whole state, so the generator's own seed never shows.
    rng = np.random.Generator(np.random.PCG64())
    draws = random_adversary_draws(topology, counts, pcg64_states(seeds), rng)
    for beta, count, run_seed, drawn in zip(betas, counts, seeds.tolist(), draws):
        yield _Cell(beta, run_seed, frozenset(drawn.tolist()), count)


def _layer_groups(cfg: SweepConfig, topology) -> list[tuple[int, int, list[int]]]:
    """``(layer, count, members)`` per layer and distinct adversary count that
    the configured ratios map to, with the layer's agents sorted."""
    groups = []
    for layer in range(1, topology.layer_count + 1):
        members = sorted(agents_in_layer(topology, layer))
        counts = sorted({layer_adversary_count(len(members), p) for p in cfg.layer_ratios})
        groups.extend((layer, count, members) for count in counts)
    return groups


def _layer_cells(cfg: SweepConfig, topology, signal_index: int, rep: int):
    groups = _layer_groups(cfg, topology)
    tags = np.array([group[:2] for group in groups], dtype=np.int64).reshape(-1, 2).T
    config_seeds = derive_seeds(cfg.master_seed, ("layercfg", *tags))
    rng = np.random.Generator(np.random.PCG64())
    picks = []
    for (layer, count, members), state in zip(groups, pcg64_states(config_seeds)):
        rng.bit_generator.state = state
        configs = sample_k_subsets(members, count, cfg.combination_cap, seed=rng)
        for beta_index, beta in enumerate(cfg.severities):
            picks.extend((layer, count, beta_index, j, beta, adv) for j, adv in enumerate(configs))
    tags = np.array([pick[:4] for pick in picks], dtype=np.int64).reshape(-1, 4).T
    run_seeds = derive_seeds(cfg.master_seed, ("layerrun", signal_index, *tags))
    for (layer, count, _, _, beta, adversaries), run_seed in zip(picks, run_seeds.tolist()):
        yield _Cell(beta, run_seed, adversaries, count, layer=layer)


def _cumulative_cells(cfg: SweepConfig, topology, signal_index: int, rep: int):
    n, severities = topology.node_count, len(cfg.severities)
    ms = np.repeat(np.arange(1, n + 1), severities)
    beta_index = np.tile(np.arange(severities), n)
    for direction in DIRECTIONS:
        tags = ("cumulative", signal_index, direction, ms, beta_index)
        run_seeds = iter(derive_seeds(cfg.master_seed, tags).tolist())
        for m in range(1, n + 1):
            adversaries = frozenset(cumulative_positions(topology, direction, m))
            for beta in cfg.severities:
                yield _Cell(beta, next(run_seeds), adversaries, m, direction=direction, m=m)


# The cells of one (signal, repetition) task, per placement mode.
_CELLS = {"random": _random_cells, "layer": _layer_cells, "cumulative": _cumulative_cells}


def _run_task(
    cfg: SweepConfig,
    plan_sets: list[PlanSet],
    mode: str,
    signal_index: int,
    signal: tuple[str, np.ndarray | None],
    rep: int,
) -> tuple[list[RunRecord], list[list]]:
    """Rows and error rows of one (signal, repetition) task of a placement mode.

    The cells share the repetition's topology and one baseline run. A cell
    that fails becomes an error row instead of aborting the task; an error
    row holds the signal, the repetition, the cell's ``CELL_KEYS`` columns
    and the error message.
    """
    signal_id, target = signal
    topo_seed = derive_seed(cfg.master_seed, "topology", rep)
    topology = build_balanced_binary(len(plan_sets), permutation_seed=topo_seed)
    ineff = InefficiencyFn(cfg.inefficiency_kind, target, cfg.inefficiency_scaling)
    run_cfg = RunConfig(
        cfg.max_iterations, ineff, rng_seed=topo_seed, initial_selection=cfg.initial_selection
    )
    cells = _CELLS[mode](cfg, topology, signal_index, rep)
    batches = _run_cells(topology, plan_sets, run_cfg, cells)
    keys = CELL_KEYS[mode]
    first, outcomes = next(batches)
    if isinstance(outcomes, Exception):
        return [], [[signal_id, rep, *[""] * len(keys), f"baseline: {outcomes}"]]
    baseline = outcomes[0]
    n, tags = topology.node_count, (cfg.dataset.name, signal_id, cfg.master_seed)
    records: list[RunRecord] = []
    errors: list[list] = []
    for batch, outcomes in itertools.chain([(first[1:], outcomes[1:])], batches):
        if isinstance(outcomes, Exception):
            cell_keys = (getattr(batch[0], key) for key in keys)
            errors.append([signal_id, rep, *cell_keys, str(outcomes)])
            continue
        if not batch:  # the baseline ran in a batch of its own
            continue
        adversary_sets = [cell.adversaries for cell in batch]
        columns = _metric_columns(topology, adversary_sets, outcomes, baseline)
        # Positional in field order: the tags, the cell, the metrics.
        for cell, metrics in zip(batch, zip(*columns.values())):
            count = len(cell.adversaries)
            records.append(RunRecord(
                *tags, cell.run_seed, cell.beta, count, count / n, mode,
                cell.layer, cell.direction, cell.m, *metrics,
            ))
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


def _execute(
    cfg: SweepConfig,
    mode: str,
    repetitions: range,
    results_name: str,
    errors_name: str,
    resume: bool = False,
) -> SweepGrid:
    """Run every (signal, repetition) task of one placement mode.

    ``load_inputs`` checks the inputs before any file is written. Rows
    stream to ``<results>.partial.csv`` as tasks finish, then go sorted to a
    temporary file that replaces ``results_name``. Failed cells go to
    ``errors_name``, which a run without failures removes. A pool of
    ``workers`` processes runs the tasks only when more than one is left.
    With ``resume`` (random placements only), the rows so far are read from
    the partial file or, without one, from the results file; a row that no
    task writes is a ``ConfigError``, and every task whose rows are all
    there is skipped.
    """
    plan_sets, signals = load_inputs(cfg, (mode,))
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    final_path, errors_path = outdir / results_name, outdir / errors_name
    partial_path = final_path.with_suffix(".partial.csv")

    # A resume reads the partial file, or the results file when no partial is left.
    source = next(filter(Path.exists, (partial_path, final_path)), None) if resume else None
    existing = _read_partial(source) if source else []
    done = {record.sort_key() for record in existing}
    tasks, written = [], set()
    for si, signal in enumerate(signals):
        for rep in repetitions:
            if done:
                keys = _task_keys(cfg, si, signal[0], rep, len(plan_sets))
                written.update(keys)
                if done.issuperset(keys):
                    continue
            tasks.append((si, signal, rep))
    if not done <= written:
        for line, record in enumerate(existing, start=2):
            if record.sort_key() not in written:
                raise ConfigError(
                    f"{source}:{line}: this config writes no row {record.sort_key()}; "
                    "resume with the config that wrote the file"
                )
    if source == final_path:
        # The finished rows become the partial file that the tasks left extend.
        os.replace(final_path, partial_path)

    grid = SweepGrid(rows=existing)
    error_rows: list[list] = []
    with open(partial_path, "a" if existing else "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        if not existing:
            writer.writerow(CSV_COLUMNS)

        def emit(result: tuple[list[RunRecord], list[list]]) -> None:
            records, errors = result
            error_rows.extend(errors)
            if done:
                records = [record for record in records if record.sort_key() not in done]
            grid.rows.extend(records)
            writer.writerows(records)
            sink.flush()

        workers = min(cfg.workers, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_task, cfg, plan_sets, mode, *task) for task in tasks]
                for future in futures:
                    emit(future.result())
        else:
            for task in tasks:
                emit(_run_task(cfg, plan_sets, mode, *task))

    if error_rows:
        _write_csv(errors_path, ["signal_id", "repetition", *CELL_KEYS[mode], "error"], error_rows)
        log.warning("%d cells failed; see %s", len(error_rows), errors_path)
    else:
        errors_path.unlink(missing_ok=True)
    staged = grid.write_csv(final_path.with_name(final_path.name + ".tmp"))
    os.replace(staged, final_path)
    partial_path.unlink(missing_ok=True)
    log.info("%d rows -> %s", len(grid.rows), final_path)
    return grid


def run_sweep(cfg: SweepConfig, resume: bool = False) -> SweepGrid:
    """Execute the random-placement sweep and write the sorted results CSV.

    Every (severity, scale) cell gets ``runs_per_cell`` runs; repetition ``r``
    reshuffles the agent-to-position permutation and shares one baseline run
    per (signal, r). Rows go to ``runs.csv``, failed cells to ``errors.csv``,
    both a pure function of the config and master seed. A resume skips every
    (signal, repetition) task whose rows are all in ``runs.partial.csv``, or
    in ``runs.csv`` when no partial file is left.
    """
    if "random" not in cfg.placements:
        raise ConfigError("run_sweep needs the 'random' placement enabled")
    return _execute(cfg, "random", range(cfg.runs_per_cell), "runs.csv", "errors.csv", resume)


def run_structural(cfg: SweepConfig, mode: str) -> SweepGrid:
    """Execute layer-wise or cumulative placements on the repetition-0 topology.

    Layer-wise runs cover, per layer, every distinct adversary count the
    configured ratios map to (ratios mapping to one count share its runs).
    Cumulative runs grow the adversary set along the breadth-first order and
    its reverse, one run per (direction, m, severity). Each signal is one
    task; rows go to ``structural_<mode>.csv``, failed cells to
    ``structural_<mode>_errors.csv``.
    """
    if mode not in ("layer", "cumulative"):
        raise ConfigError(f"structural mode must be 'layer' or 'cumulative', got {mode!r}")
    return _execute(cfg, mode, range(1), f"structural_{mode}.csv", f"structural_{mode}_errors.csv")


def estimate_experiment_count(cfg: SweepConfig) -> int:
    """Evaluate the experiment-accounting formula without running anything.

    A campaign dataset (agents_grid / plans_grid) counts the per-population
    product sum; any other severities x signals x (sweep runs + layer-wise
    combinations per distinct per-layer count + cumulative runs), over the
    placements the config enables.
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
    n = len(load_plan_sets(ds.plans_dir)) if ds.kind == "files" else ds.agents
    signals = len(cfg.target_files) if cfg.inefficiency_kind == "rss" else 1
    per_signal = 0
    if "random" in cfg.placements:
        per_signal += cfg.runs_per_cell * len(_scales(cfg, n))
    if "layer" in cfg.placements:
        topology = build_balanced_binary(n, permutation_seed=0)
        per_signal += sum(
            min(cfg.combination_cap, math.comb(len(members), count))
            for _, count, members in _layer_groups(cfg, topology)
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


def _zone_bands(values, thresholds, reverse: bool) -> np.ndarray:
    """``rvc_bands`` of the values; all resilience (0) without thresholds."""
    if thresholds is None:
        return np.zeros(np.shape(values), dtype=int)
    return rvc_bands(values, thresholds, reverse=reverse)


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
            points = [(cell["inefficiency"], cell["discomfort_legit"]) for _, cell in members]
            front = set(pareto_front(points))
            knee = knee_mmd(sorted(front))
            for (other, _), xy in zip(members, points):
                beta, count = (fixed, other) if orientation == "per_beta" else (other, fixed)
                values = (signal, orientation, fixed, beta, count, *xy, xy in front, xy == knee)
                rows.append(dict(zip(FRONT_COLUMNS, values)))
    return rows


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``; floats go out as their ``repr``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_heatmap(base: Path, title: str, x_axis: str, values: dict, zoning=None, knees=()):
    """Render ``values``, keyed ``(beta, column)``, as ``<base>.svg``.

    Rows run from the highest severity down. ``zoning`` is the
    ``(thresholds, reverse)`` pair that ``_zone_bands`` zones the values
    with, and each cell shows its zone's initial; None leaves cells
    unlabelled. ``knees`` lists the ``(beta, column)`` cells to outline.
    Returns the row severities, the columns and the matrix as drawn.
    """
    rows = sorted({b for b, _ in values}, reverse=True)
    cols = sorted({c for _, c in values})
    matrix = [[values[(b, c)] for c in cols] for b in rows]
    render_heatmap(
        matrix,
        row_labels=[f"{b:g}" for b in rows],
        col_labels=[str(c) for c in cols],
        path=base.with_suffix(".svg"),
        title=title,
        knee_cells={(rows.index(b), cols.index(c)) for b, c in knees},
        cell_labels=None if zoning is None else [
            ["RVC"[band] for band in row] for row in _zone_bands(matrix, *zoning).tolist()
        ],
        x_axis=x_axis,
        y_axis="severity",
    )
    return rows, cols, matrix


def analyze(
    grid: SweepGrid,
    output_dir: str | Path | None = None,
    bins: int = 256,
    exclude_beta: tuple[float, ...] = (),
) -> AnalysisBundle:
    """Segment the sweep grid into R/V/C zones and extract fronts and knees.

    Otsu thresholds are computed per metric over the random-placement cell
    means, the only cells ``exclude_beta`` removes; a degenerate metric (fewer
    than three distinct values) gets one all-resilience zone and a warning.
    Fronts pair inefficiency with legitimate-agent discomfort along both grid
    orientations. With an output directory, cells, thresholds, zones, fronts
    and heatmaps are written there, structural cells and cumulative heatmaps
    too. A non-finite cell mean that would be thresholded or drawn raises
    ``InvalidInputError`` naming its metric and signal, before any write.
    """
    means = {mode: grid.cell_means(mode) for mode in PLACEMENT_MODES}
    cells = {key: cell for key, cell in means["random"].items() if key[1] not in exclude_beta}
    means["random"] = cells
    for (signal, *cell_key), cell in means["cumulative"].items():
        if not math.isfinite(cell["inefficiency"]):
            raise InvalidInputError(f"metric 'inefficiency' of signal {signal!r}: cumulative "
                                    f"cell {tuple(cell_key)} is not finite")
    thresholds: dict = {}
    zones: dict = {}
    front_rows: list[dict] = []
    complete: list[str] = []

    for signal in sorted({key[0] for key in cells}):
        keys = [key for key in cells if key[0] == signal]
        betas = sorted({k[1] for k in keys})
        counts = sorted({k[2] for k in keys})
        for metric in ZONE_METRICS:
            values = np.array([cells[k][metric] for k in keys])
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
            except InvalidInputError as exc:
                raise InvalidInputError(f"metric {metric!r} of signal {signal!r}: {exc}") from exc
            reverse = metric in REVERSED_ZONE_METRICS
            bands = _zone_bands(values, thresholds[(signal, metric)], reverse)
            for key, band in zip(keys, bands.tolist()):
                zones[(signal, metric, key[1], key[2])] = _RVC[band]
        if len(keys) == len(betas) * len(counts):
            complete.append(signal)
            front_rows.extend(_front_rows_for(cells, signal, betas, counts))
        else:
            log.warning("grid for signal %r is ragged; skipping front extraction", signal)

    bundle = AnalysisBundle(cells=cells, thresholds=thresholds, zones=zones, front_rows=front_rows)
    if output_dir is None:
        return bundle

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    for mode, mode_cells in means.items():
        if mode_cells or mode == "random":
            extra = ["adv_fraction"] if mode == "random" else []
            columns = [*extra, *ZONE_METRICS, "run_count"]
            _write_csv(
                outdir / ("cells.csv" if mode == "random" else f"{mode}_cells.csv"),
                ["signal_id", *CELL_KEYS[mode], *columns],
                [[*key, *(cell[c] for c in columns)] for key, cell in mode_cells.items()],
            )
    _write_csv(
        outdir / "thresholds.csv",
        ["signal_id", "metric", "t1", "t2"],
        [[*key, *(pair or ("", ""))] for key, pair in sorted(thresholds.items())],
    )
    _write_csv(
        outdir / "zones.csv",
        ["signal_id", "metric", "beta", "adv_count", "value", "zone"],
        [
            [s, m, b, c, cells[(s, b, c)][m], zone.value]
            for (s, m, b, c), zone in sorted(zones.items())
        ],
    )
    _write_csv(
        outdir / "fronts.csv",
        FRONT_COLUMNS,
        sorted([row[c] for c in FRONT_COLUMNS] for row in front_rows),
    )

    knees: dict[str, set[tuple[float, int]]] = {}
    for row in front_rows:
        if row["is_knee"] and row["orientation"] == "per_beta":
            knees.setdefault(row["signal_id"], set()).add((row["beta"], row["adv_count"]))
    for signal in complete:
        tag = f"_{signal}" if signal else ""
        for metric in ZONE_METRICS:
            pair, reverse = thresholds[(signal, metric)], metric in REVERSED_ZONE_METRICS
            base = outdir / f"heatmap{tag}_{metric}"
            betas, cols, matrix = _write_heatmap(
                base,
                f"{metric} by severity x adversary count",
                "adversaries",
                {key[1:]: cell[metric] for key, cell in cells.items() if key[0] == signal},
                (pair, reverse),
                knees.get(signal, ()) if metric == "inefficiency" else (),
            )
            rows = [[b, *vals] for b, vals in zip(betas, matrix)]
            _write_csv(base.with_suffix(".csv"), ["beta", *cols], rows)
    cumulative = means["cumulative"]
    for signal, direction in sorted({key[:2] for key in cumulative}):
        values = {(k[3], k[2]): cell["inefficiency"] for k, cell in cumulative.items()
                  if k[:2] == (signal, direction)}
        if len(values) != len({b for b, _ in values}) * len({m for _, m in values}):
            log.warning("cumulative %s grid of signal %r is ragged; no heatmap", direction, signal)
            continue
        pair = thresholds.get((signal, "inefficiency"))
        tag = f"_{signal}" if signal else ""
        _write_heatmap(
            outdir / f"heatmap{tag}_cumulative_{direction}",
            f"inefficiency, cumulative {direction}",
            "m",
            values,
            None if pair is None else (pair, False),
        )
    return bundle
