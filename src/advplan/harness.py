"""Experiment orchestration: sweeps, structural runs, CSVs, analysis.

A sweep runs the cells of one ``config.SweepConfig``. Every executed run
becomes one long-format CSV row; cell aggregation, zone segmentation, Pareto
fronts, and heatmaps are derived from those rows afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import logging
import math
import operator
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .adversary import (
    DIRECTIONS,
    beta_rows,
    cumulative_positions,
    layer_adversary_count,
    random_adversary_draws,
    sample_k_subsets,
)
from .analytics import (
    RvcLabel,
    knee_mmd,
    multi_otsu,
    pareto_front,
    rvc_bands,
)
from .config import PLACEMENT_MODES, DatasetSpec, SweepConfig
from .costs import InefficiencyFn
from .engine import RunConfig, RunOutcome, check_magnitude, run_batch, split_batches
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

# The columns that, after signal_id, key one cell of each placement mode: cell
# means group rows by them, and error rows name a failed cell by them.
CELL_KEYS = {
    "random": ("beta", "adv_count"),
    "layer": ("layer", "adv_count", "beta"),
    "cumulative": ("direction", "m", "beta"),
}
# The cell table of each placement mode, and the other tables of an analysis.
CELL_FILES = {"random": "cells.csv", "layer": "layer_cells.csv",
              "cumulative": "cumulative_cells.csv"}
ANALYSIS_TABLES = (*CELL_FILES.values(), "thresholds.csv", "zones.csv", "fronts.csv")
ZONE_METRICS = ("inefficiency", "discomfort_total", "discomfort_legit", "compromised")
# Metrics whose degraded side is the low end (discomfort vanishes when
# adversaries take over), so their zone labels run in reverse.
REVERSED_ZONE_METRICS = ("discomfort_total", "discomfort_legit")
_RVC = tuple(RvcLabel)
FRONT_COLUMNS = (
    "signal_id", "orientation", "fixed", "beta", "adv_count",
    "inefficiency", "discomfort_legit", "on_front", "is_knee",
)


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
    """All run records of one sweep."""

    rows: list[RunRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> Path:
        """Sort the rows in place by ``RunRecord.sort_key`` and write them."""
        self.rows.sort(key=RunRecord.sort_key)
        return _write_csv(Path(path), CSV_COLUMNS, self.rows)

    @classmethod
    def read_csv(cls, path: str | Path) -> "SweepGrid":
        """Rows of a results CSV. A malformed row raises ``ParseError`` naming
        the line it starts on; so does a NaN ``beta`` or ``adv_fraction``,
        which no run writes and which would key no cell."""
        return cls(rows=[record for _, record in _numbered_records(path)])


def _numbered_records(path: str | Path):
    """``(first line, record)`` for each row of a results CSV, as ``read_csv``
    reads them; the reader counts lines, so blank and multi-line rows count."""
    line = 1
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
            line = reader.line_num + 1
            for row in reader:
                if row:
                    try:
                        if len(row) != len(header):
                            raise ValueError(f"{len(row)} fields, expected {len(header)}")
                        record = RunRecord._make(parse(row[i]) for i, parse in columns)
                        if math.isnan(record.beta) or math.isnan(record.adv_fraction):
                            raise ValueError(f"beta {record.beta!r} and adv_fraction "
                                             f"{record.adv_fraction!r}: a NaN keys no cell")
                    except ValueError as exc:
                        raise ParseError(f"{path}:{line}: malformed row: {exc}") from None
                    yield line, record
                line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}:{line}: malformed CSV: {exc}") from None


class _CellTable:
    """The cells of one placement mode as columns, in cell-key order: each
    cell's key, its first row's ``adv_fraction``, its ``ZONE_METRICS`` means
    (one array per metric) and its row count. A plain class: a ``NamedTuple``
    would compile code each time advplan is imported."""

    __slots__ = ("keys", "adv_fraction", "means", "run_count")

    def __init__(self, keys: list[tuple], adv_fraction: list[float],
                 means: dict[str, np.ndarray], run_count: list[int]):
        self.keys, self.adv_fraction, self.means, self.run_count = (
            keys, adv_fraction, means, run_count)


_ZONE_FIELDS = operator.itemgetter(*(CSV_COLUMNS.index(m) for m in ZONE_METRICS))


def _cell_table(rows: list[RunRecord], mode: str, exclude_beta=()) -> _CellTable:
    """The cell means of the rows of placement ``mode``, less the cells of
    the severities in ``exclude_beta``.

    Rows are sorted by cell, then sort key, and a mean is the row mean of a
    C-contiguous ``(cells, run_count)`` matrix, one matrix per distinct run
    count: that sums a cell in sort order as the ``.mean()`` of its own slice
    does, however the rows were loaded (``np.add.reduceat`` and a column
    mean would sum in other orders). A cell whose rows differ in dataset or
    ``adv_fraction`` pools two populations, and raises ``ConfigError``
    naming it.
    """
    cell_of = operator.attrgetter("signal_id", *CELL_KEYS[mode])
    rows = [r for r in rows if r.placement_mode == mode and r.beta not in exclude_beta]
    rows.sort(key=lambda r: (cell_of(r), r.sort_key()))
    keys = list(map(cell_of, rows))
    starts = [0, *(i for i in range(1, len(keys)) if keys[i] != keys[i - 1])][: len(keys)]
    # Rows of two populations in one cell would be averaged together, so a
    # cell's rows must agree on dataset and adv_fraction.
    datasets = np.array([r.dataset for r in rows])
    fractions = np.array([r.adv_fraction for r in rows], dtype=float)
    differ = (datasets[1:] != datasets[:-1]) | (fractions[1:] != fractions[:-1])
    differ[np.asarray(starts[1:], dtype=np.intp) - 1] = False
    for i in np.flatnonzero(differ)[:1].tolist():
        a, b = rows[i], rows[i + 1]
        raise ConfigError(
            f"{mode} cell {keys[i]} pools two populations: dataset {a.dataset!r} with "
            f"adv_fraction {a.adv_fraction!r}, and dataset {b.dataset!r} with adv_fraction "
            f"{b.adv_fraction!r}; analyze each population on its own"
        )
    sizes = np.diff([*starts, len(rows)])
    values = np.array(list(map(_ZONE_FIELDS, rows)), dtype=float).reshape(-1, len(ZONE_METRICS)).T
    means = np.empty((len(ZONE_METRICS), len(starts)))
    for size in set(sizes.tolist()):
        cells = np.flatnonzero(sizes == size)
        at = np.asarray(starts)[cells, None] + np.arange(size)
        # ``values[:, at]`` is not laid out in C order.
        means[:, cells] = np.ascontiguousarray(values[:, at]).mean(axis=2)
    return _CellTable(
        [keys[start] for start in starts],
        [rows[start].adv_fraction for start in starts],
        dict(zip(ZONE_METRICS, means)),
        sizes.tolist(),
    )


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
    """The plan sets and ``(signal_id, target)`` pairs that the rows of the placement
    ``modes`` run on, checked before a command writes a file: random rows need every
    scale in 0..n, each RSS target the plans' dimension, and costs that stay finite."""
    plan_sets = load_dataset(cfg.dataset)
    n, d = len(plan_sets), plan_sets[0].dimension
    if "random" in modes:
        for count in _scales(cfg, n):
            if not 0 <= count <= n:
                raise ConfigError(f"scale {count} outside 0..{n}")
    paths = cfg.target_files if cfg.inefficiency_kind == "rss" else ()
    targets = [load_target(path, d) for path in paths]
    values = np.concatenate([ps.value_matrix() for ps in plan_sets], axis=None)
    discomforts = np.concatenate([ps.discomforts() for ps in plan_sets])
    check_magnitude(n, d, values, discomforts, *targets)
    return plan_sets, [(str(i), target) for i, target in enumerate(targets)] or [("", None)]


class _Cell(NamedTuple):
    """One run of a task: its severity, seed, signal, adversaries and CSV tags.

    ``signal`` indexes the config's signals; an RSS run takes its target.
    """

    beta: float
    run_seed: int
    signal: int = 0
    adversaries: frozenset[int] = frozenset()
    adv_count: int = 0
    layer: int | None = None
    direction: str = ""
    m: int | None = None


def _metric_columns(topology, adversary_sets, outcomes, baselines: list[RunOutcome]) -> dict:
    """The metric columns of runs ``outcomes[i]`` with ``adversary_sets[i]``
    and baseline run ``baselines[i]``. Compromised discomfort is the
    legitimate agents' mean discomfort minus their mean in the baseline, 0
    without legitimate agents. The order a mean sums its agents in sets its last
    bits: ``discomfort_total`` sums in tree-position order, the legitimate
    means in the iteration order of the Python set below (for a small set
    left by ``set.difference``, hash-table order). Each is a row mean of a
    C-contiguous matrix, one per count of legitimate agents, which sums a
    row as its own ``.mean()`` does; ``D[:, order]`` is not C-contiguous.
    """
    D = np.stack([outcome.discomfort for outcome in outcomes])
    D0 = np.stack([baseline.discomfort for baseline in baselines])
    everyone = set(range(1, topology.node_count + 1))
    legitimate = [np.fromiter(everyone.difference(adv), np.intp) - 1 for adv in adversary_sets]
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(legitimate):
        groups.setdefault(ids.size, []).append(i)
    legit, comp = np.zeros(len(outcomes)), np.zeros(len(outcomes))
    for rows in (rows for size, rows in groups.items() if size):
        ids, at = np.stack([legitimate[i] for i in rows]), np.array(rows)[:, None]
        legit[rows] = np.ascontiguousarray(D[at, ids]).mean(axis=1)
        comp[rows] = legit[rows] - D0[at, ids].mean(axis=1)
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
    columns = _metric_columns(topology, [adversaries], [outcome], [baseline])
    return outcome, baseline, {name: column[0] for name, column in columns.items()}


def _run_cells(topology, plan_sets: list[PlanSet], run_cfg: RunConfig, cells):
    """Yield ``(batch, outcomes)`` per batch of ``split_batches``: outcome i
    is cell i's ``RunOutcome``, or the error that cell raises when it runs alone.

    An RSS cell runs against row ``cell.signal`` of ``run_cfg``'s target
    stack. A batch that fails runs again one cell at a time, so a failed
    batch of B > 1 cells costs 1 + B engine calls and 2B runs. A
    ``ConfigError`` concerns every cell alike, so it propagates.
    """

    def attempt(batch):
        betas = beta_rows(topology, [c.adversaries for c in batch], [c.beta for c in batch])
        ineff = run_cfg.inefficiency.take([c.signal for c in batch])
        try:
            return run_batch(topology, plan_sets, betas, replace(run_cfg, inefficiency=ineff),
                             [c.run_seed for c in batch])
        except ConfigError:
            raise
        except (AdvplanError, OSError) as exc:
            return exc

    for batch in split_batches(plan_sets, cells):
        outcomes = attempt(batch)
        if isinstance(outcomes, Exception):
            alone = map(attempt, ([cell] for cell in batch)) if len(batch) > 1 else [outcomes]
            outcomes = [out if isinstance(out, Exception) else out[0] for out in alone]
        yield batch, outcomes


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
        yield _Cell(beta, run_seed, signal_index, frozenset(drawn.tolist()), count)


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
        yield _Cell(beta, run_seed, signal_index, adversaries, count, layer=layer)


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
                yield _Cell(beta, next(run_seeds), signal_index, adversaries, m,
                            direction=direction, m=m)


# The cells of one (signal, repetition) pair, per placement mode.
_CELLS = {"random": _random_cells, "layer": _layer_cells, "cumulative": _cumulative_cells}


def _run_task(
    cfg: SweepConfig,
    plan_sets: list[PlanSet],
    mode: str,
    signals: list[tuple[str, np.ndarray | None]],
    group: list[int],
    rep: int,
) -> tuple[list[RunRecord], list[list]]:
    """Rows and error rows of one repetition of a placement mode, for the
    signals ``signals[si]`` with si in ``group``.

    The cells of all those signals share the repetition's topology and go
    through the engine together, each run against its own signal's target,
    and each signal has one baseline run. A cell that fails becomes an error
    row instead of aborting the task; an error row holds the signal, the
    repetition, the cell's ``CELL_KEYS`` columns and the error message, and
    each signal's error rows come in cell order. A signal whose baseline
    fails has that one error row and no rows.
    """
    topo_seed = derive_seed(cfg.master_seed, "topology", rep)
    topology = build_balanced_binary(len(plan_sets), permutation_seed=topo_seed)
    targets = None if cfg.inefficiency_kind == "variance" else np.stack([t for _, t in signals])
    ineff = InefficiencyFn(cfg.inefficiency_kind, targets, cfg.inefficiency_scaling)
    run_cfg = RunConfig(cfg.max_iterations, ineff, initial_selection=cfg.initial_selection)
    # Each signal's baseline comes before its cells, so it is known first.
    cells = itertools.chain(
        (_Cell(beta=0.0, run_seed=topo_seed, signal=si) for si in group),
        *(_CELLS[mode](cfg, topology, si, rep) for si in group),
    )
    keys = CELL_KEYS[mode]
    n = topology.node_count
    baselines: dict[int, RunOutcome | Exception] = {}
    records: list[RunRecord] = []
    errors: list[list] = []
    for batch, outcomes in _run_cells(topology, plan_sets, run_cfg, cells):
        ran = []
        for cell, outcome in zip(batch, outcomes):
            signal_id, failed = signals[cell.signal][0], isinstance(outcome, Exception)
            if cell.signal not in baselines:
                baselines[cell.signal] = outcome
                if failed:
                    errors.append([signal_id, rep, *[""] * len(keys), f"baseline: {outcome}"])
            elif isinstance(baselines[cell.signal], Exception):
                continue
            elif failed:
                cell_keys = (getattr(cell, key) for key in keys)
                errors.append([signal_id, rep, *cell_keys, str(outcome)])
            else:
                ran.append((cell, outcome, baselines[cell.signal]))
        if not ran:
            continue
        batch, outcomes, batch_baselines = zip(*ran)
        adversary_sets = [cell.adversaries for cell in batch]
        columns = _metric_columns(topology, adversary_sets, outcomes, batch_baselines)
        # Positional in field order: the tags, the cell, the metrics.
        for cell, metrics in zip(batch, zip(*columns.values())):
            count = len(cell.adversaries)
            records.append(RunRecord(
                cfg.dataset.name, signals[cell.signal][0], cfg.master_seed, cell.run_seed,
                cell.beta, count, count / n, mode, cell.layer, cell.direction, cell.m, *metrics,
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


def _group_signals(left: dict[int, list[int]], tasks: int) -> list[tuple[list[int], int]]:
    """``(signal indices, repetition)`` per task: each repetition's signals
    ``left[rep]`` cut into consecutive groups, the fewest that make at least
    ``tasks`` tasks, by cutting the repetition with the longest groups next."""
    parts = {rep: 1 for rep, group in left.items() if group}
    for _ in range(tasks - len(parts)):
        rep = max(parts, key=lambda r: len(left[r]) / parts[r])
        parts[rep] += 1
    tasks = []
    for rep, p in parts.items():
        group, size = left[rep], len(left[rep])
        tasks.extend((group[i * size // p : (i + 1) * size // p], rep) for i in range(p))
    return tasks


def _execute(
    cfg: SweepConfig,
    mode: str,
    repetitions: range,
    results_name: str,
    errors_name: str,
    resume: bool = False,
) -> SweepGrid:
    """Run every (signal, repetition) pair of one placement mode.

    ``load_inputs`` checks the inputs before any file is written. A task is
    one repetition with a consecutive group of its signals, whose runs share
    engine batches; each repetition's signals form the fewest groups that
    give ``min(workers, pairs left)`` tasks at least, so one worker runs one
    task per repetition. A pool of that many processes runs the tasks when
    it is more than one. Rows stream to ``<results>.partial.csv`` as tasks
    finish, then go sorted to a temporary file that replaces
    ``results_name``. Failed cells go to ``errors_name`` in (signal,
    repetition, cell) order; a run without failures removes it. With
    ``resume`` (random placements only), the rows so far are read from the
    partial file or, without one, from the results file; a row that no pair
    writes is a ``ConfigError``, and every pair whose rows are all there is
    skipped. A pool worker that dies raises ``AdvplanError`` naming the
    partial file, which keeps the rows of every task that finished before.
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
    left: dict[int, list[int]] = {rep: [] for rep in repetitions}
    written: set = set()
    for si, signal in enumerate(signals):
        for rep in repetitions:
            if done:
                keys = _task_keys(cfg, si, signal[0], rep, len(plan_sets))
                written.update(keys)
                if done.issuperset(keys):
                    continue
            left[rep].append(si)
    if not done <= written:
        line, key = next((line, record.sort_key()) for line, record in _numbered_records(source)
                         if record.sort_key() not in written)
        raise ConfigError(f"{source}:{line}: this config writes no row {key}; "
                          "resume with the config that wrote the file")
    if source == final_path:
        # The finished rows become the partial file that the tasks left extend.
        os.replace(final_path, partial_path)

    grid = SweepGrid(rows=existing)
    error_rows: list[list] = []
    with open(partial_path, "a" if existing else "w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        if not existing:
            writer.writerow(CSV_COLUMNS)

        workers = min(cfg.workers, sum(map(len, left.values())))
        tasks = _group_signals(left, workers)
        run = functools.partial(_run_task, cfg, plan_sets, mode, signals)
        # Results come in task order, from a pool when it has two workers or more.
        try:
            with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
                results = pool.map(run, *zip(*tasks)) if pool else itertools.starmap(run, tasks)
                for records, errors in results:
                    error_rows.extend(errors)
                    if done:
                        records = [record for record in records if record.sort_key() not in done]
                    grid.rows.extend(records)
                    writer.writerows(records)
                    sink.flush()
        except BrokenProcessPool as exc:
            hint = "; `advplan sweep --resume` continues from it" if mode == "random" else ""
            raise AdvplanError(f"a worker process died ({exc}); the rows of the tasks that "
                               f"finished are in {partial_path}{hint}") from None

    if error_rows:
        # Tasks run repetition by repetition; the file lists signal by signal.
        order = {signal_id: si for si, (signal_id, _) in enumerate(signals)}
        error_rows.sort(key=lambda row: (order[row[0]], row[1]))
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
    reshuffles the agent-to-position permutation and has one baseline run
    per (signal, r); with one worker, all of r's signals run in one task.
    Rows go to ``runs.csv``, failed cells to ``errors.csv``, both a pure
    function of the config and master seed. A resume skips every (signal,
    repetition) pair whose rows are all in ``runs.partial.csv``, or in
    ``runs.csv`` when no partial file is left.
    """
    if "random" not in cfg.placements:
        raise ConfigError("run_sweep needs the 'random' placement enabled")
    return _execute(cfg, "random", range(cfg.runs_per_cell), "runs.csv", "errors.csv", resume)


def run_structural(cfg: SweepConfig, mode: str) -> SweepGrid:
    """Execute layer-wise or cumulative placements on the repetition-0 topology.

    Layer-wise runs cover, per layer, every distinct adversary count the
    configured ratios map to (ratios mapping to one count share its runs).
    Cumulative runs grow the adversary set along the breadth-first order and
    its reverse, one run per (direction, m, severity). The signals run in
    one task, or in as many groups as there are workers to busy; rows go to
    ``structural_<mode>.csv``, failed cells to
    ``structural_<mode>_errors.csv``.
    """
    if mode not in ("layer", "cumulative"):
        raise ConfigError(f"structural mode must be 'layer' or 'cumulative', got {mode!r}")
    return _execute(cfg, mode, range(1), f"structural_{mode}.csv", f"structural_{mode}_errors.csv")


def estimate_experiment_count(cfg: SweepConfig, agents: int) -> int:
    """The rows one population of n = ``agents`` writes, counted without running
    anything: severities x signals x (sweep runs + layer-wise combinations per
    distinct per-layer count + cumulative runs), over the placements the config
    enables. Sum over ``populations``."""
    severities = len(cfg.severities)
    signals = len(cfg.target_files) if cfg.inefficiency_kind == "rss" else 1
    per_signal = 0
    if "random" in cfg.placements:
        per_signal += cfg.runs_per_cell * len(_scales(cfg, agents))
    if "layer" in cfg.placements:
        topology = build_balanced_binary(agents, permutation_seed=0)
        per_signal += sum(
            min(cfg.combination_cap, math.comb(len(members), count))
            for _, count, members in _layer_groups(cfg, topology)
        )
    if "cumulative" in cfg.placements:
        per_signal += 2 * agents
    return severities * signals * per_signal


def _front_rows_for(table: _CellTable, signal: str, layout) -> list[tuple]:
    """Pareto fronts and knees per fixed-severity row and fixed-scale column
    of the ``_heatmap_grid`` layout of ``signal``'s cells in ``table``, both
    walked in ascending order; a row holds the ``FRONT_COLUMNS`` values up to
    ``adv_count``, whether the cell is on the front and the knee, and the
    cell."""
    betas, counts, cells = layout
    # The layout puts the highest severity first.
    betas, cells = betas[::-1], cells[::-1].tolist()
    xs, ys = table.means["inefficiency"].tolist(), table.means["discomfort_legit"].tolist()
    axes = [
        ("per_beta", betas, [[(b, c, cell) for c, cell in zip(counts, row)]
                             for b, row in zip(betas, cells)]),
        ("per_scale", counts, [[(b, c, cell) for b, cell in zip(betas, column)]
                               for c, column in zip(counts, zip(*cells))]),
    ]
    rows = []
    for orientation, fixed_values, slices in axes:
        for fixed, members in zip(fixed_values, slices):
            points = [(xs[cell], ys[cell]) for *_, cell in members]
            front = set(pareto_front(points))
            knee = knee_mmd(sorted(front))
            rows += [(signal, orientation, fixed, b, c, xy in front, xy == knee, cell)
                     for (b, c, cell), xy in zip(members, points)]
    return rows


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``rows`` under ``header``; floats go out as their ``repr``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _heatmap_grid(index: dict) -> tuple[list, list, np.ndarray] | None:
    """``(rows, cols, cells)`` of a heatmap of the cells ``index`` maps
    ``(beta, column)`` to: the severities from the highest down, the columns,
    and the cell drawn at each place. None for a ragged grid, one with a
    place that no cell fills."""
    rows = sorted({b for b, _ in index}, reverse=True)
    cols = sorted({c for _, c in index})
    if len(index) != len(rows) * len(cols):
        return None
    return rows, cols, np.array([[index[(b, c)] for c in cols] for b in rows], dtype=np.intp)


def _file_tag(signal: str) -> str:
    """The part of a heatmap's file name that ``signal`` gives. A signal id that
    holds a path separator or NUL names no file in the output directory, and
    raises ``InvalidInputError``."""
    if {"/", "\0", os.sep, os.altsep} & set(signal):
        raise InvalidInputError(f"signal id {signal!r} cannot name a heatmap file")
    return f"_{signal}" if signal else ""


def _heatmap(what: str, title: str, x_axis: str, layout, matrix: np.ndarray,
             bands: np.ndarray | None = None, knees=()) -> dict:
    """The ``render_heatmap`` arguments that draw the ``matrix`` of values at
    the places of a ``_heatmap_grid`` layout, lettered with the zone
    ``bands`` at the same places (None leaves cells unlabelled) and outlining
    the ``(beta, column)`` knees.

    Values whose range overflows a float cannot be coloured, and raise
    ``InvalidInputError`` naming ``what``.
    """
    rows, cols, _ = layout
    # Python floats: numpy would warn where the range overflows.
    lo, hi = float(matrix.min()), float(matrix.max())
    if not (hi == lo or math.isfinite(hi - lo)):
        raise InvalidInputError(f"{what}: means from {lo!r} to {hi!r} span no finite range")
    return dict(
        matrix=matrix,
        row_labels=[f"{b:g}" for b in rows],
        col_labels=[str(c) for c in cols],
        title=title,
        knee_cells={(rows.index(b), cols.index(c)) for b, c in knees},
        cell_labels=None if bands is None else [["RVC"[z] for z in row] for row in bands.tolist()],
        x_axis=x_axis,
        y_axis="severity",
    )


def analyze(
    grid: SweepGrid,
    output_dir: str | Path,
    bins: int = 256,
    exclude_beta: tuple[float, ...] = (),
) -> list[Path]:
    """Segment the sweep grid into R/V/C zones and extract fronts and knees,
    write them to ``output_dir`` and return the paths written, in order.

    Otsu thresholds are computed per metric over the random-placement cell
    means, the only cells ``exclude_beta`` removes; a degenerate metric (fewer
    than three distinct values) gets one all-resilience zone and a warning.
    Fronts pair inefficiency with legitimate-agent discomfort along both grid
    orientations. Cells, thresholds, zones, fronts and heatmaps are written,
    structural cells and cumulative heatmaps too. Everything is computed
    before the first write: a non-finite cell mean that would be thresholded
    or drawn, one too large to score, means too close together to bin, and a
    heatmap whose range overflows raise ``InvalidInputError`` naming the
    metric and signal, and write nothing; so does a heatmap file name longer
    than the output directory's file system allows. Rows of two populations
    in one cell, whose dataset or ``adv_fraction`` differ, raise
    ``ConfigError`` naming the cell. An output directory that
    holds a table or heatmap this analysis would not write over, left by an
    earlier one, raises ``ConfigError`` naming the first such file, and
    nothing is written.
    """
    outdir = Path(output_dir)
    tables = {
        mode: _cell_table(grid.rows, mode, exclude_beta if mode == "random" else ())
        for mode in PLACEMENT_MODES
    }
    random, cumulative = tables["random"], tables["cumulative"]
    for cell in np.flatnonzero(~np.isfinite(cumulative.means["inefficiency"]))[:1].tolist():
        signal, *cell_key = cumulative.keys[cell]
        raise InvalidInputError(f"metric 'inefficiency' of signal {signal!r}: cumulative "
                                f"cell {tuple(cell_key)} is not finite")
    thresholds: dict = {}
    # Each metric's zone per random cell; a degenerate metric's stay 0.
    bands = {m: np.zeros(len(random.keys), dtype=int) for m in ZONE_METRICS}
    # (signal, metric, beta, adv_count, cell) per cell and metric.
    zone_rows: list[tuple] = []
    front_rows: list[tuple] = []
    # (file name, metric of a random grid's table or None, layout, render arguments).
    heatmaps: list[tuple] = []
    by_signal: dict[str, list[int]] = {}
    for cell, key in enumerate(random.keys):
        by_signal.setdefault(key[0], []).append(cell)

    for signal in sorted(by_signal):
        cells = by_signal[signal]
        tag = _file_tag(signal)
        for metric in ZONE_METRICS:
            values = random.means[metric][cells]
            try:
                pair = tuple(multi_otsu(values, bins=bins))
            except DegenerateInputError:
                warnings.warn(
                    f"metric {metric!r} of signal {signal!r} is degenerate; "
                    "zones default to resilience",
                    stacklevel=2,
                )
                pair = None
            except InvalidInputError as exc:
                raise InvalidInputError(f"metric {metric!r} of signal {signal!r}: {exc}") from exc
            else:
                reverse = metric in REVERSED_ZONE_METRICS
                bands[metric][cells] = rvc_bands(values, pair, reverse=reverse)
            thresholds[(signal, metric)] = pair
            zone_rows += [(signal, metric, *random.keys[cell][1:], cell) for cell in cells]
        layout = _heatmap_grid({random.keys[cell][1:]: cell for cell in cells})
        if layout is None:
            log.warning("grid for signal %r is ragged; skipping front extraction", signal)
            continue
        rows = _front_rows_for(random, signal, layout)
        front_rows += rows
        # The (beta, adv_count) of each per-severity knee.
        knees = {row[3:5] for row in rows if row[1] == "per_beta" and row[6]}
        heatmaps += [(f"heatmap{tag}_{metric}", metric, layout, _heatmap(
            f"metric {metric!r} of signal {signal!r}", f"{metric} by severity x adversary count",
            "adversaries", layout, random.means[metric][layout[2]], bands[metric][layout[2]],
            knees if metric == "inefficiency" else (),
        )) for metric in ZONE_METRICS]
    by_direction: dict[tuple, dict] = {}
    for cell, key in enumerate(cumulative.keys):
        by_direction.setdefault(key[:2], {})[(key[3], key[2])] = cell
    for signal, direction in sorted(by_direction):
        layout = _heatmap_grid(by_direction[(signal, direction)])
        if layout is None:
            log.warning("cumulative %s grid of signal %r is ragged; no heatmap", direction, signal)
            continue
        pair = thresholds.get((signal, "inefficiency"))
        matrix = cumulative.means["inefficiency"][layout[2]]
        tag = _file_tag(signal)
        heatmaps.append((f"heatmap{tag}_cumulative_{direction}", None, layout, _heatmap(
            f"metric 'inefficiency' of signal {signal!r}: cumulative {direction}",
            f"inefficiency, cumulative {direction}", "m", layout, matrix,
            None if pair is None else rvc_bands(matrix, pair),
        )))

    # The name limit, in bytes, of the file system the output will be on; -1 for
    # none, or where the platform has no ``pathconf``.
    base = outdir.absolute()
    while not base.exists():
        base = base.parent
    limit = os.pathconf(base, "PC_NAME_MAX") if hasattr(os, "pathconf") else -1
    for name, *_ in heatmaps:
        # A heatmap's table takes the name of its drawing, ".csv" for ".svg".
        size = len(os.fsencode(f"{name}.svg"))
        if 0 <= limit < size:
            raise InvalidInputError(f"heatmap file name {name + '.svg'!r} is {size} bytes, "
                                    f"more than the {limit} that {outdir} allows")

    # A file of an earlier analysis that this one would not write over would
    # leave the directory mixing the two.
    ours = {"thresholds.csv", "zones.csv", "fronts.csv",
            *(CELL_FILES[mode] for mode, table in tables.items() if table.keys or mode == "random"),
            *(f"{name}.svg" for name, *_ in heatmaps),
            *(f"{name}.csv" for name, metric, *_ in heatmaps if metric is not None)}
    for name in sorted(os.listdir(outdir)) if outdir.is_dir() else ():
        if name not in ours and (name in ANALYSIS_TABLES or (
                name.startswith("heatmap") and name.endswith((".svg", ".csv")))):
            raise ConfigError(f"{outdir / name} is from an earlier analysis, and this one "
                              "would not write over it; analyze into a fresh directory")

    outdir.mkdir(parents=True, exist_ok=True)
    # Each cell mean is formatted once, as the ``repr`` that ``csv.writer``
    # would write for it, and reused by every table that shows it.
    texts = {
        mode: {m: list(map(repr, table.means[m].tolist())) for m in ZONE_METRICS}
        for mode, table in tables.items()
    }
    written = []
    for mode, table in tables.items():
        if not table.keys and mode != "random":
            continue
        extra = ["adv_fraction"] if mode == "random" else []
        columns = [
            *(getattr(table, name) for name in extra),
            *(texts[mode][m] for m in ZONE_METRICS),
            table.run_count,
        ]
        written.append(_write_csv(
            outdir / CELL_FILES[mode],
            ["signal_id", *CELL_KEYS[mode], *extra, *ZONE_METRICS, "run_count"],
            [[*key, *cell] for key, cell in zip(table.keys, zip(*columns))],
        ))
    written.append(_write_csv(
        outdir / "thresholds.csv",
        ["signal_id", "metric", "t1", "t2"],
        [[*key, *(pair or ("", ""))] for key, pair in sorted(thresholds.items())],
    ))
    zone_rows.sort(key=operator.itemgetter(0, 1, 2, 3))
    zone_of = {m: [_RVC[band].value for band in bands[m].tolist()] for m in ZONE_METRICS}
    written.append(_write_csv(
        outdir / "zones.csv",
        ["signal_id", "metric", "beta", "adv_count", "value", "zone"],
        [[s, m, b, c, texts["random"][m][cell], zone_of[m][cell]]
         for s, m, b, c, cell in zone_rows],
    ))
    ineff, legit = texts["random"]["inefficiency"], texts["random"]["discomfort_legit"]
    written.append(_write_csv(
        outdir / "fronts.csv",
        FRONT_COLUMNS,
        [[*row[:5], ineff[row[-1]], legit[row[-1]], *row[5:7]]
         for row in sorted(front_rows, key=operator.itemgetter(slice(0, 5)))],
    ))
    for name, metric, (rows, cols, cells), args in heatmaps:
        written.append(render_heatmap(path=outdir / f"{name}.svg", **args))
        if metric is not None:
            column = texts["random"][metric]
            written.append(_write_csv(outdir / f"{name}.csv", ["beta", *cols], [
                [b, *(column[cell] for cell in row)] for b, row in zip(rows, cells.tolist())
            ]))
    return written
