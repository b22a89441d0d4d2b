import csv
import dataclasses
import itertools
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import oracle_engine
import pytest
import yaml

import advplan.harness as harness_mod
from advplan.adversary import (
    beta_rows,
    cumulative_positions,
    layer_adversary_count,
    random_adversaries,
    severity_grid,
)
from advplan.cli import main as cli_main
from advplan.engine import BehaviorProfile, RunConfig, RunOutcome, run, run_baseline
from advplan.errors import ConfigError, InvalidInputError, ParseError, RangeError
from advplan.harness import (
    DatasetSpec,
    RunRecord,
    SweepConfig,
    SweepGrid,
    analyze,
    derive_seed,
    estimate_experiment_count,
    load_config,
    populations,
    run_structural,
    run_sweep,
)
from advplan.plans import PlanSet, generate_gaussian_plans, save_plan_sets
from advplan.topology import agents_in_layer, build_balanced_binary
from test_seeding import old_sample_k_subsets, reference_draw, reference_seed


def small_config(tmp_path, **overrides):
    base = dict(
        dataset=DatasetSpec(kind="gaussian", agents=10, plans=3, dim=2, seed=4),
        severities=(0.3, 0.9),
        scales=(0, 2, 5, 10),
        runs_per_cell=3,
        output_dir=str(tmp_path / "out"),
        master_seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


def write_yaml(tmp_path, payload):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(payload))
    return path


def test_load_config_defaults_and_paths(tmp_path):
    path = write_yaml(
        tmp_path,
        {
            "dataset": {"kind": "gaussian", "agents": 8, "plans": 2},
            "output_dir": "results",
            "master_seed": 3,
        },
    )
    cfg = load_config(path)
    assert cfg.dataset.agents == 8
    assert len(cfg.severities) == 30
    assert cfg.scales is None
    assert cfg.runs_per_cell == 100
    assert cfg.output_dir == str(tmp_path / "results")
    assert cfg.master_seed == 3
    assert load_config(path, master_seed=99).master_seed == 99
    only = write_yaml(tmp_path, {"dataset": {"agents": 8, "plans": 2}})
    assert load_config(only) == SweepConfig(
        dataset=DatasetSpec(agents=8, plans=2), output_dir=str(tmp_path / "results")
    )


@pytest.mark.parametrize("text", [
    "a: .inf\nb: -.Inf\nc: .nan\n",
    "a: ~\nb: null\nc:\n",
    "a: yes\nb: No\nc: on\nd: off\ne: true\n",
    "a: 1e3\nb: 1.0e3\nc: 0x1f\nd: 017\ne: 1_000\nf: 1:30\ng: -0.0\nh: '3'\n",
    "base: &b {x: 1, y: [2, 3]}\nother: *b\nmerged: {<<: *b, y: 4}\n",
    "a: 2001-12-14\nb: !!str 12\n",
    "dataset:\n\tkind: gaussian\n",
    "a: [1, 2\n",
])
def test_config_yaml_parses_alike_under_both_loaders(tmp_path, text):
    from conftest import yaml_parses

    if yaml.__with_libyaml__:
        assert harness_mod._YAML_LOADER is yaml.CSafeLoader
        assert yaml_parses(text, yaml.CSafeLoader) == yaml_parses(text, yaml.SafeLoader)
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    if yaml_parses(text, yaml.SafeLoader) == "YAMLError":
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(path)
        assert cli_main(["estimate", "--config", str(path)]) == 2


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_yaml(
        tmp_path,
        {"dataset": {"kind": "gaussian", "agents": 4, "plans": 2}, "bogus": 1},
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_validation():
    ds = DatasetSpec(kind="gaussian", agents=5, plans=2)
    with pytest.raises(ConfigError):
        SweepConfig(dataset=ds, runs_per_cell=0)
    with pytest.raises(ConfigError):
        SweepConfig(dataset=ds, severities=())
    with pytest.raises(ConfigError):
        SweepConfig(dataset=ds, severities=(0.0,))
    with pytest.raises(ConfigError):
        SweepConfig(dataset=ds, placements=("everywhere",))
    with pytest.raises(ConfigError):
        SweepConfig(dataset=ds, inefficiency_kind="rss")
    with pytest.raises(ConfigError):
        DatasetSpec(kind="files")


def test_derive_seed_stable_and_distinct():
    a = derive_seed(5, "placement", 1, 2, 3)
    assert a == derive_seed(5, "placement", 1, 2, 3)
    assert a != derive_seed(5, "placement", 1, 2, 4)
    assert a != derive_seed(6, "placement", 1, 2, 3)


def per_cell_task_cells(cfg, topology, signal_index, rep, mode):
    """A task's cells with one ``SeedSequence`` per seed and one
    ``default_rng`` per draw, as they were derived cell by cell."""
    n, cells = topology.node_count, []
    if mode == "random":
        for beta_index, beta in enumerate(cfg.severities):
            for count in cfg.scales:
                seed = reference_seed(cfg.master_seed, "placement", signal_index, beta_index,
                                      count, rep)
                ids = reference_draw(n, count, seed) if count else []
                cells.append((beta, seed, signal_index, frozenset(ids), count, None, "", None))
    elif mode == "layer":
        for layer in range(1, topology.layer_count + 1):
            members = sorted(agents_in_layer(topology, layer))
            for count in sorted({layer_adversary_count(len(members), p) for p in cfg.layer_ratios}):
                config_seed = reference_seed(cfg.master_seed, "layercfg", layer, count)
                configs = old_sample_k_subsets(members, count, cfg.combination_cap, config_seed)
                for beta_index, beta in enumerate(cfg.severities):
                    for j, adversaries in enumerate(configs):
                        seed = reference_seed(cfg.master_seed, "layerrun", signal_index, layer,
                                              count, beta_index, j)
                        cells.append(
                            (beta, seed, signal_index, adversaries, count, layer, "", None)
                        )
    else:
        for direction in ("top_down", "bottom_up"):
            for m in range(1, n + 1):
                adversaries = frozenset(cumulative_positions(topology, direction, m))
                for beta_index, beta in enumerate(cfg.severities):
                    seed = reference_seed(cfg.master_seed, "cumulative", signal_index, direction,
                                          m, beta_index)
                    cells.append((beta, seed, signal_index, adversaries, m, None, direction, m))
    return cells


@pytest.mark.parametrize(
    "mode,cap", [("random", 100), ("layer", 2), ("layer", 100), ("cumulative", 100)]
)
def test_task_cells_match_per_cell_seeds_and_draws(tmp_path, mode, cap):
    cfg = small_config(
        tmp_path, master_seed=-77, severities=(0.25, 0.5, 1.0), scales=(0, 1, 5, 12, 13),
        combination_cap=cap,
    )
    topology = build_balanced_binary(13, permutation_seed=derive_seed(-77, "topology", 3))
    cells = list(harness_mod._CELLS[mode](cfg, topology, 1, 3))
    assert cells == per_cell_task_cells(cfg, topology, 1, 3, mode)
    assert all(type(cell.run_seed) is int for cell in cells)
    if mode == "random":
        with pytest.raises(RangeError) as raised:
            beyond = dataclasses.replace(cfg, scales=(*cfg.scales, 14))
            list(harness_mod._CELLS[mode](beyond, topology, 1, 3))
        assert str(raised.value) == "count=14 outside 0..13"


def test_run_sweep_shape_and_baseline_consistency(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    assert len(grid.rows) == 2 * 4 * 3
    assert (tmp_path / "out" / "runs.csv").exists()
    for record in grid.rows:
        if record.adv_count == 0:
            assert record.compromised == 0.0
            assert record.adv_fraction == 0.0
    table = harness_mod._cell_table(grid.rows, "random")
    assert len(table.keys) == 8
    assert all(count == 3 for count in table.run_count)


def test_run_metrics_sum_in_position_and_set_order(tmp_path):
    """The order each CSV mean sums its agents in is part of the CSV bits.

    ``discomfort_total`` sums in tree-position order; the legitimate agents'
    means sum in the iteration order of ``set(range(1, n + 1)).difference(
    adversaries)``, which for a few agents left of many is not ascending. With
    real-valued discomforts another order changes the last bits, as the
    sensitivity checks at the end show for this instance.
    """
    n = 120
    rng = np.random.default_rng(12)
    plans = [PlanSet(a, rng.standard_normal((4, 2)), rng.random(4) * 3.0) for a in range(1, n + 1)]
    save_plan_sets(plans, tmp_path / "plans")
    cfg = small_config(
        tmp_path, dataset=DatasetSpec(kind="files", plans_dir=str(tmp_path / "plans")),
        severities=(0.5, 1.0), scales=(100, 110, 115, 118), runs_per_cell=1,
    )
    run_sweep(cfg)
    rows = SweepGrid.read_csv(tmp_path / "out" / "runs.csv").rows
    topo_seed = derive_seed(cfg.master_seed, "topology", 0)
    topology = build_balanced_binary(n, permutation_seed=topo_seed)
    baseline = run_baseline(topology, plans, RunConfig(rng_seed=topo_seed))
    by_position = np.asarray(topology.agent_at) - 1
    unsorted, total_moves, legit_moves = 0, 0, 0
    for row in rows:
        adversaries = random_adversaries(topology, row.adv_count, seed=row.run_seed)
        profile = BehaviorProfile(beta_rows(topology, [adversaries], [row.beta])[0])
        disc = run(topology, plans, profile, RunConfig(rng_seed=row.run_seed)).discomfort
        legit = np.fromiter(set(range(1, n + 1)).difference(adversaries), dtype=int) - 1
        assert row.discomfort_total == float(np.mean(disc[by_position]))
        assert row.discomfort_legit == float(np.mean(disc[legit]))
        assert row.compromised == float(np.mean(disc[legit])) - float(
            np.mean(baseline.discomfort[legit])
        )
        unsorted += legit.tolist() != sorted(legit.tolist())
        total_moves += row.discomfort_total != float(np.mean(disc))
        legit_moves += row.discomfort_legit != float(np.mean(disc[np.sort(legit)]))
    assert len(rows) == 8 and unsorted and total_moves and legit_moves


def test_metric_columns_of_a_batch_are_each_runs_own_means():
    """A batch's metric columns hold, bit for bit, each run's 1-D means.

    Runs are grouped by their count of legitimate agents, several groups
    hold more than one run, and one run has no legitimate agent at all. The
    runs take turns between two baselines, as runs of two signals do.
    """
    n = 200
    topology = build_balanced_binary(n, permutation_seed=3)
    rng = np.random.default_rng(3)

    def outcome(disc):
        return RunOutcome(np.zeros(n), np.zeros(2), 0.5, disc, 2, (1.0, 0.5), (1.0, 0.5))

    pair = [outcome(rng.random(n) * 3.0) for _ in range(2)]
    sizes = [0, 150, 190, 150, 197, 190, 200, 5, 197, 150]
    adversary_sets = [random_adversaries(topology, size, seed=j) for j, size in enumerate(sizes)]
    outcomes = [outcome(rng.random(n) * 3.0) for _ in sizes]
    baselines = [pair[j % 2] for j in range(len(sizes))]
    columns = harness_mod._metric_columns(topology, adversary_sets, outcomes, baselines)
    by_position = np.asarray(topology.agent_at) - 1
    for i, (adversaries, run_outcome, baseline) in enumerate(
        zip(adversary_sets, outcomes, baselines)
    ):
        legit = np.fromiter(set(range(1, n + 1)).difference(adversaries), dtype=int) - 1
        disc = run_outcome.discomfort
        assert columns["discomfort_total"][i] == float(disc[by_position].mean())
        if legit.size:
            assert columns["discomfort_legit"][i] == float(disc[legit].mean())
            assert columns["compromised"][i] == float(disc[legit].mean()) - float(
                baseline.discomfort[legit].mean()
            )
        else:
            assert columns["discomfort_legit"][i] == columns["compromised"][i] == 0.0
    assert columns["inefficiency"] == [0.5] * len(sizes)
    assert columns["iterations"] == [2] * len(sizes)


def test_run_sweep_csv_round_trip_and_estimate_match(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    loaded = SweepGrid.read_csv(tmp_path / "out" / "runs.csv")
    assert loaded.rows == grid.rows
    assert len(grid.rows) == estimate_experiment_count(cfg, cfg.dataset.agents)


def test_run_sweep_determinism(tmp_path):
    a = run_sweep(small_config(tmp_path / "a"))
    b = run_sweep(small_config(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "out" / "runs.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "out" / "runs.csv").read_bytes()
    assert bytes_a == bytes_b
    assert a.rows == b.rows


def test_run_sweep_resume_from_partial(tmp_path):
    cfg = small_config(tmp_path)
    full = run_sweep(cfg)
    # Fake an interrupted sweep: keep the first half of the rows in sort
    # order, which leaves every task with rows still to run.
    partial_rows = full.rows[: len(full.rows) // 2]
    partial = SweepGrid(rows=partial_rows)
    out = tmp_path / "out"
    (out / "runs.csv").unlink()
    partial.write_csv(out / "runs.partial.csv")
    resumed = run_sweep(cfg, resume=True)
    assert resumed.rows == full.rows


def test_run_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(small_config(tmp_path / "s"))
    parallel = run_sweep(small_config(tmp_path / "p", workers=2))
    assert serial.rows == parallel.rows
    assert (
        (tmp_path / "s" / "out" / "runs.csv").read_bytes()
        == (tmp_path / "p" / "out" / "runs.csv").read_bytes()
    )


def test_run_structural_layer_counts(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5,))
    grid = run_structural(cfg, "layer")
    # n=10 tree layers: sizes 1, 2, 4, 3; distinct ratio counts per layer:
    # {1}, {1,2}, {1,2,3,4}, {1,2,3} -> combos 1, (2+1), (4+6+4+1), (3+3+1).
    expected = 1 + 3 + 15 + 7
    assert len(grid.rows) == expected
    assert all(r.placement_mode == "layer" for r in grid.rows)
    assert {r.layer for r in grid.rows} == {1, 2, 3, 4}
    root_rows = [r for r in grid.rows if r.layer == 1]
    assert len(root_rows) == 1


def test_run_structural_cumulative_counts(tmp_path):
    cfg = small_config(tmp_path, severities=(0.4, 0.8))
    grid = run_structural(cfg, "cumulative")
    n = 10
    assert len(grid.rows) == 2 * 2 * n
    for direction in ("top_down", "bottom_up"):
        ms = sorted(r.m for r in grid.rows if r.direction == direction)
        assert ms == sorted(list(range(1, n + 1)) * 2)
    full = [r for r in grid.rows if r.m == n]
    assert all(r.adv_count == n for r in full)


def test_structural_nesting_of_cumulative_sets(tmp_path):
    cfg = small_config(tmp_path, severities=(0.6,))
    grid = run_structural(cfg, "cumulative")
    by_m = {
        (r.direction, r.m): r.adv_count for r in grid.rows
    }
    for direction in ("top_down", "bottom_up"):
        for m in range(1, 11):
            assert by_m[(direction, m)] == m


def test_estimate_minimal_and_campaign():
    minimal = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=5, plans=2),
        severities=(0.5,),
        scales=(3,),
        runs_per_cell=1,
    )
    assert estimate_experiment_count(minimal, minimal.dataset.agents) == 1
    campaign = SweepConfig(
        dataset=DatasetSpec(
            kind="gaussian",
            agents_grid=tuple(range(10, 101, 10)),
            plans_grid=(2, 4, 6, 8, 10),
        ),
        runs_per_cell=50,
    )
    assert sum(estimate_experiment_count(pop, pop.dataset.agents)
               for pop in populations(campaign)) == 4_125_000


def test_estimate_table_reproduction():
    energy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=1000, plans=10),
        placements=("random", "layer", "cumulative"),
    )
    assert estimate_experiment_count(energy, energy.dataset.agents) == 3_118_560
    privacy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=72, plans=3),
        placements=("random", "layer", "cumulative"),
        inefficiency_kind="rss",
        target_files=("high.target", "low.target"),
    )
    assert estimate_experiment_count(privacy, privacy.dataset.agents) == 498_780


def test_estimate_counts_only_enabled_modes():
    base = dict(dataset=DatasetSpec(kind="gaussian", agents=72, plans=3))
    full = estimate_experiment_count(
        SweepConfig(placements=("random", "layer", "cumulative"), **base), 72
    )
    random_only = estimate_experiment_count(SweepConfig(placements=("random",), **base), 72)
    cumulative_only = estimate_experiment_count(
        SweepConfig(placements=("cumulative",), **base), 72
    )
    assert random_only == 30 * 100 * 72
    assert cumulative_only == 30 * 2 * 72
    assert full > random_only + cumulative_only


def read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_analyze_returns_the_files_it_writes(tmp_path):
    cfg = small_config(tmp_path, severities=(0.2, 0.5, 0.9), runs_per_cell=2)
    grid = run_sweep(cfg)
    outdir = tmp_path / "analysis"
    written = analyze(grid, outdir)
    assert sorted(written) == sorted(p for p in outdir.iterdir() if p.is_file())
    assert len(set(written)) == len(written)
    assert [p.name for p in written[:4]] == ["cells.csv", "thresholds.csv", "zones.csv",
                                             "fronts.csv"]
    (threshold,) = [r for r in read_table(outdir / "thresholds.csv")
                    if (r["signal_id"], r["metric"]) == ("", "inefficiency")]
    assert threshold["t1"] and threshold["t2"]
    # Every knee is one of the grid's cells.
    cell_keys = {(r["beta"], r["adv_count"]) for r in read_table(outdir / "cells.csv")}
    knees = [r for r in read_table(outdir / "fronts.csv") if r["is_knee"] == "True"]
    assert knees
    for row in knees:
        assert (row["beta"], row["adv_count"]) in cell_keys
    svgs = [p for p in written if p.suffix == ".svg"]
    assert len(svgs) == 4
    assert sorted(svgs) == sorted(outdir.glob("heatmap_*.svg"))
    assert outdir / "heatmap_inefficiency.csv" in written


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_analyze_bytes_ignore_row_and_pooling_order(tmp_path):
    """Each cell's mean sums its rows in sort order, so shuffled rows and
    results pooled in reverse write the same bytes."""
    cfg = small_config(tmp_path, severities=(0.3, 0.6, 0.9), runs_per_cell=4)
    grids = [run_sweep(cfg), run_structural(cfg, "layer"), run_structural(cfg, "cumulative")]
    out = tmp_path / "out"
    paths = [str(out / name) for name in
             ("runs.csv", "structural_layer.csv", "structural_cumulative.csv")]
    assert cli_main(["analyze", "--results", *paths, "--out", str(tmp_path / "forward")]) == 0
    assert cli_main(["analyze", "--results", *paths[::-1], "--out", str(tmp_path / "reverse")]) == 0
    rows = [row for grid in grids for row in grid.rows]
    shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    analyze(SweepGrid(rows=shuffled), output_dir=tmp_path / "shuffled")
    forward = _files(tmp_path / "forward")
    assert len(forward) == 16
    assert _files(tmp_path / "reverse") == forward
    assert _files(tmp_path / "shuffled") == forward
    # Means are np.mean over each cell's values in sort order, and on this
    # instance another order changes some mean's last bits.
    cells: dict[tuple, list[float]] = {}
    for row in sorted(grids[0].rows, key=RunRecord.sort_key):
        cells.setdefault(("", row.beta, row.adv_count), []).append(row.inefficiency)
    assert {
        (r["signal_id"], float(r["beta"]), int(r["adv_count"])): float(r["inefficiency"])
        for r in read_table(tmp_path / "shuffled" / "cells.csv")
    } == {key: float(np.mean(values)) for key, values in cells.items()}
    assert any(np.mean(v) != np.mean(v[::-1]) for v in cells.values())


def test_analyze_degenerate_grid_warns_all_resilient(tmp_path):
    rows = []
    for beta in (0.5, 1.0):
        for count in (0, 1, 2):
            rows.append(
                RunRecord(
                    dataset="toy", signal_id="", master_seed=0, run_seed=count,
                    beta=beta, adv_count=count, adv_fraction=count / 3,
                    placement_mode="random", layer=None, direction="", m=None,
                    inefficiency=1.0, discomfort_total=1.0,
                    discomfort_legit=1.0, compromised=1.0, iterations=1,
                )
            )
    with pytest.warns(UserWarning):
        analyze(SweepGrid(rows=rows), tmp_path / "out")
    thresholds = read_table(tmp_path / "out" / "thresholds.csv")
    zones = read_table(tmp_path / "out" / "zones.csv")
    assert thresholds and all(r["t1"] == r["t2"] == "" for r in thresholds)
    assert zones and all(r["zone"] == "resilience" for r in zones)


def test_analyze_exclude_beta(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5, 1.0), runs_per_cell=1)
    grid = run_sweep(cfg)
    analyze(grid, tmp_path / "analysis", exclude_beta=(1.0,))
    assert {r["beta"] for r in read_table(tmp_path / "analysis" / "cells.csv")} == {"0.5"}


CELL_LETTER = 'font-size="9"'


def test_analyze_structural_only_results(tmp_path):
    cfg = small_config(tmp_path, severities=(0.3, 0.9))
    outdir = tmp_path / "analysis"
    analyze(run_structural(cfg, "cumulative"), output_dir=outdir)
    headers = {
        "cells.csv": "signal_id,beta,adv_count,adv_fraction,inefficiency,discomfort_total,"
        "discomfort_legit,compromised,run_count",
        "thresholds.csv": "signal_id,metric,t1,t2",
        "zones.csv": "signal_id,metric,beta,adv_count,value,zone",
        "fronts.csv": "signal_id,orientation,fixed,beta,adv_count,inefficiency,"
        "discomfort_legit,on_front,is_knee",
    }
    for name, header in headers.items():
        assert (outdir / name).read_text().splitlines() == [header]
    assert (outdir / "cumulative_cells.csv").exists()
    assert not (outdir / "layer_cells.csv").exists()
    svgs = sorted(p.name for p in outdir.glob("*.svg"))
    assert svgs == ["heatmap_cumulative_bottom_up.svg", "heatmap_cumulative_top_down.svg"]
    assert all(CELL_LETTER not in (outdir / name).read_text() for name in svgs)


def test_analyze_degenerate_metric_letters_grid_heatmaps_only(tmp_path):
    rows = []
    for beta in (0.5, 1.0):
        for count in (0, 1, 2):
            rows.append(
                RunRecord(
                    dataset="toy", signal_id="", master_seed=0, run_seed=count,
                    beta=beta, adv_count=count, adv_fraction=count / 3,
                    placement_mode="random", layer=None, direction="", m=None,
                    inefficiency=1.0, discomfort_total=1.0,
                    discomfort_legit=1.0, compromised=1.0, iterations=1,
                )
            )
            rows.append(
                RunRecord(
                    dataset="toy", signal_id="", master_seed=0, run_seed=count,
                    beta=beta, adv_count=count + 1, adv_fraction=(count + 1) / 3,
                    placement_mode="cumulative", layer=None, direction="top_down",
                    m=count + 1, inefficiency=beta * count, discomfort_total=0.5,
                    discomfort_legit=0.5, compromised=0.0, iterations=2,
                )
            )
    outdir = tmp_path / "analysis"
    with pytest.warns(UserWarning):
        analyze(SweepGrid(rows=rows), output_dir=outdir)
    for metric in ("inefficiency", "discomfort_total", "discomfort_legit", "compromised"):
        svg = (outdir / f"heatmap_{metric}.svg").read_text()
        assert svg.count(CELL_LETTER) == svg.count(">R</text>") == 6
    assert CELL_LETTER not in (outdir / "heatmap_cumulative_top_down.svg").read_text()


def test_analyze_exclude_beta_spares_structural_cells(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5, 1.0), runs_per_cell=1)
    grid = run_sweep(cfg)
    for mode in ("layer", "cumulative"):
        grid.rows.extend(run_structural(cfg, mode).rows)
    analyze(grid, output_dir=tmp_path / "all")
    analyze(grid, output_dir=tmp_path / "some", exclude_beta=(1.0,))
    for name in ("layer_cells.csv", "cumulative_cells.csv"):
        kept = (tmp_path / "some" / name).read_text()
        assert kept == (tmp_path / "all" / name).read_text()
        assert ",1.0," in kept
    cells = (tmp_path / "some" / "cells.csv").read_text().splitlines()[1:]
    assert cells and all(line.split(",")[1] == "0.5" for line in cells)


def test_structural_means_layer_view(tmp_path):
    cfg = small_config(tmp_path, severities=(0.7,))
    grid = run_structural(cfg, "layer")
    table = harness_mod._cell_table(grid.rows, "layer")
    # Layer 3 of the 10-agent tree has 4 agents; count=2 averages C(4,2)=6 runs.
    key = ("", 3, 2, 0.7)
    assert key in table.keys
    assert table.run_count[table.keys.index(key)] == math.comb(4, 2)


def test_record_sorting_is_total(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    # The grid a sweep returns holds its rows in sort order.
    keys = [r.sort_key() for r in grid.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_written_rows_match_literal_text(tmp_path):
    """Records go out as ``csv.writer`` writes them, in sort order.

    A float is its ``repr``, None an empty field and an int its digits;
    reading the file back and writing it again gives the same bytes.
    """

    def record(signal, seed, beta, count, mode, layer, direction, m, *metrics):
        return RunRecord("toy", signal, 7, seed, beta, count, count / 10, mode, layer,
                         direction, m, *metrics)

    rows = [
        record("1", 99, 0.5, 2, "layer", 3, "", None, 1e16, 2.0, 2.5, 0.0, 6),
        record("1", 5, 1.0, 4, "cumulative", None, "bottom_up", 4, 0.1, 0.2, 0.25, -0.0, 2),
        record("", 123, 0.1 + 0.2, 3, "random", None, "", None, 2.5, 1e-05, 0.0, -0.125, 4),
    ]
    written = SweepGrid(rows=list(rows)).write_csv(tmp_path / "a.csv")
    assert written.read_bytes().decode().split("\r\n") == [
        "dataset,signal_id,master_seed,run_seed,beta,adv_count,adv_fraction,placement_mode,"
        "layer,direction,m,inefficiency,discomfort_total,discomfort_legit,compromised,iterations",
        "toy,,7,123,0.30000000000000004,3,0.3,random,,,,2.5,1e-05,0.0,-0.125,4",
        "toy,1,7,5,1.0,4,0.4,cumulative,,bottom_up,4,0.1,0.2,0.25,-0.0,2",
        "toy,1,7,99,0.5,2,0.2,layer,3,,,1e+16,2.0,2.5,0.0,6",
        "",
    ]
    loaded = SweepGrid.read_csv(written)
    assert loaded.rows == rows[::-1]
    assert loaded.write_csv(tmp_path / "b.csv").read_bytes() == written.read_bytes()


def test_resume_writes_integer_severities_as_a_fresh_run_does(tmp_path):
    """A severity given as 1 is written 1.0, fresh and after a resume alike."""
    cfg = small_config(tmp_path, severities=(0.5, 1), runs_per_cell=2)
    out = tmp_path / "out"
    run_sweep(cfg)
    fresh = (out / "runs.csv").read_bytes()
    header, *lines = fresh.splitlines(keepends=True)
    (out / "runs.csv").unlink()
    # The partial file holds the rows of severity 1, half of every task.
    ones = [line for line in lines if line.split(b",")[4] != b"0.5"]
    (out / "runs.partial.csv").write_bytes(header + b"".join(ones))
    run_sweep(cfg, resume=True)
    assert (out / "runs.csv").read_bytes() == fresh
    assert {line.split(b",")[4] for line in ones} == {b"1.0"}


def test_held_memory_per_row_stays_flat(tmp_path):
    """A sweep holds one small record per row until it finalizes.

    The traced peak of a sweep with twice the repetitions grows by the
    records of the added rows, well below what holding a record, its sort
    key and its formatted text for every row costs (about 1,200 B a row).
    """

    def peak(reps: int, name: str) -> tuple[int, int]:
        cfg = small_config(
            tmp_path / name, dataset=DatasetSpec(kind="gaussian", agents=8, plans=2, seed=1),
            severities=tuple(severity_grid()), scales=None, runs_per_cell=reps,
        )
        tracemalloc.start()
        try:
            rows = len(run_sweep(cfg).rows)
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1, "warm")  # first calls allocate once, whatever the size
    (rows, low), (more_rows, high) = peak(4, "low"), peak(8, "high")
    assert (rows, more_rows) == (4 * 240, 8 * 240)
    assert (high - low) / (more_rows - rows) < 900


def failing_run_batch(monkeypatch, doomed: int) -> list[int]:
    """Make every engine batch that holds the run seed ``doomed`` fail; the
    returned list gets the size of every batch sent, in call order."""
    from advplan.errors import InvalidInputError

    real_run_batch = harness_mod.run_batch
    sizes = []

    def flaky(topology, plan_sets, behaviors, config, seeds):
        sizes.append(len(seeds))
        if doomed in seeds:
            raise InvalidInputError("injected failure")
        return real_run_batch(topology, plan_sets, behaviors, config, seeds)

    monkeypatch.setattr(harness_mod, "run_batch", flaky)
    return sizes


def test_failed_cells_become_error_rows(tmp_path, monkeypatch):
    # The (beta 0.5, 5 adversaries) cell of repetition 0 fails, in any batch.
    failing_run_batch(monkeypatch, derive_seed(7, "placement", 0, 0, 5, 0))
    cfg = small_config(tmp_path, severities=(0.5,), scales=(0, 5), runs_per_cell=2)
    grid = run_sweep(cfg)
    assert len(grid.rows) == 3
    errors = (tmp_path / "out" / "errors.csv").read_text()
    assert "injected failure" in errors

    # A clean rerun leaves no errors file behind.
    monkeypatch.undo()
    assert len(run_sweep(cfg).rows) == 4
    assert not (tmp_path / "out" / "errors.csv").exists()


def test_run_cells_keeps_errors_beside_their_outcome_lists(tmp_path, monkeypatch):
    """A failed batch runs again cell by cell, and only the cell that fails
    alone gets its error, in its own place among the outcomes."""
    cfg = small_config(tmp_path, severities=(0.5, 1.0), scales=tuple(range(11)))
    plan_sets = harness_mod.load_dataset(cfg.dataset)
    topology = build_balanced_binary(len(plan_sets), permutation_seed=11)
    cells = list(harness_mod._random_cells(cfg, topology, 0, 0))
    sizes = failing_run_batch(monkeypatch, cells[13].run_seed)
    yielded = list(harness_mod._run_cells(topology, plan_sets, RunConfig(rng_seed=11), cells))
    assert [cell for batch, _ in yielded for cell in batch] == cells
    # 22 cells: the batch, then each cell alone, 1 + 22 calls and 44 runs.
    assert sizes == [22] + [1] * 22
    assert [len(batch) for batch, _ in yielded] == [22]
    for batch, outcomes in yielded:
        assert len(outcomes) == len(batch)
        for cell, outcome in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                assert cell == cells[13] and str(outcome) == "injected failure"
            else:
                assert isinstance(outcome, RunOutcome)
    assert sum(isinstance(out, Exception) for _, outcomes in yielded for out in outcomes) == 1


def test_a_failed_batch_reruns_each_cell_alone(monkeypatch):
    """Over every set of bad cells of small batches and random sets of larger
    ones, a failed batch of B > 1 cells costs exactly 1 + B calls and 2B
    runs, and the cells come back in order, each bad cell with its own error."""
    sent = []

    def run_batch(topology, plan_sets, betas, config, seeds):
        sent.append(len(seeds))
        if bad.intersection(seeds):
            raise InvalidInputError("bad cell")
        return list(seeds)

    monkeypatch.setattr(harness_mod, "run_batch", run_batch)
    monkeypatch.setattr(harness_mod, "beta_rows", lambda topology, adversaries, betas: None)
    monkeypatch.setattr(harness_mod, "split_batches", lambda plan_sets, cells: iter([cells]))
    rng = np.random.default_rng(9)
    cases = [(b, set(itertools.compress(range(b), mask)))
             for b in range(1, 9) for mask in itertools.product((0, 1), repeat=b)]
    for _ in range(300):
        b = int(rng.integers(9, 130))
        cases.append((b, set(rng.choice(b, int(rng.integers(1, 6)), replace=False).tolist())))
    for b, bad in cases:
        cells = [harness_mod._Cell(beta=0.5, run_seed=i) for i in range(b)]
        sent.clear()
        yielded = list(harness_mod._run_cells(None, None, RunConfig(), cells))
        assert [cell for batch, _ in yielded for cell in batch] == cells
        for batch, outcomes in yielded:
            assert len(outcomes) == len(batch)
            for cell, outcome in zip(batch, outcomes):
                if isinstance(outcome, Exception):
                    assert cell.run_seed in bad and str(outcome) == "bad cell"
                else:
                    assert outcome == cell.run_seed and outcome not in bad
        failed = bool(bad) and b > 1
        assert (len(sent), sum(sent)) == ((1 + b, 2 * b) if failed else (1, b))


def test_failed_structural_cells_become_error_rows(tmp_path, monkeypatch):
    # The (top_down, m=3, beta 0.4) cumulative cell fails.
    failing_run_batch(monkeypatch, derive_seed(7, "cumulative", 0, "top_down", 3, 0))
    cfg = small_config(tmp_path, severities=(0.4, 0.8))
    grid = run_structural(cfg, "cumulative")
    assert len(grid.rows) == 2 * 2 * 10 - 1
    assert ("top_down", 3, 0.4) not in {(r.direction, r.m, r.beta) for r in grid.rows}
    out = tmp_path / "out"
    assert SweepGrid.read_csv(out / "structural_cumulative.csv").rows == grid.rows
    lines = (out / "structural_cumulative_errors.csv").read_text().splitlines()
    assert lines == [
        "signal_id,repetition,direction,m,beta,error", ",0,top_down,3,0.4,injected failure"
    ]


def rss_config(tmp_path, **overrides):
    """``small_config`` with three min-max scaled RSS targets."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(3):
        files.append(str(tmp_path / f"t{i}.target"))
        (tmp_path / f"t{i}.target").write_text(f"{0.5 * i - 1.0!r},{1.5 - i!r}\n")
    return small_config(tmp_path, inefficiency_kind="rss", inefficiency_scaling="min-max",
                        target_files=tuple(files), **overrides)


def failing_runs(monkeypatch, doomed) -> list[int]:
    """Make every engine batch fail that holds a run of seed s against
    target t, for each ``(s, t)`` in ``doomed``; the message names the seed.
    The returned list gets the size of every batch sent in this process."""
    from advplan.errors import InvalidInputError

    real_run_batch = harness_mod.run_batch
    calls = []

    def flaky(topology, plan_sets, betas, config, seeds):
        calls.append(len(seeds))
        target = config.inefficiency.target
        rows = np.broadcast_to(target, (len(seeds), target.shape[-1])).tolist()
        for seed, row in zip(seeds, rows):
            if (seed, tuple(row)) in doomed:
                raise InvalidInputError(f"injected failure at seed {seed}")
        return real_run_batch(topology, plan_sets, betas, config, seeds)

    monkeypatch.setattr(harness_mod, "run_batch", flaky)
    return calls


def test_failed_cells_of_several_signals_keep_their_order(tmp_path, monkeypatch):
    """Error rows come in (signal, repetition, cell) order, however the runs
    were batched; a failed baseline stands for its whole (signal, repetition)."""
    cfg = rss_config(tmp_path, runs_per_cell=2)
    clean = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "clean"))).rows
    _, signals = harness_mod.load_inputs(cfg, ("random",))
    topo_seeds = [derive_seed(7, "topology", rep) for rep in range(2)]

    def cells(si, rep):
        topology = build_balanced_binary(10, permutation_seed=topo_seeds[rep])
        return list(harness_mod._random_cells(cfg, topology, si, rep))

    # Cell indices that fail per (signal, repetition); repetition 1 of signal
    # 2 also loses its baseline.
    doomed = {(1, 0): [5, 2], (1, 1): [0], (2, 0): [7], (2, 1): [3]}
    plants = {
        (cells(si, rep)[i].run_seed, tuple(signals[si][1]))
        for (si, rep), picks in doomed.items() for i in picks
    }
    plants.add((topo_seeds[1], tuple(signals[2][1])))
    calls = failing_runs(monkeypatch, plants)
    expected, lost = [], set()
    for (si, rep), picks in sorted(doomed.items()):
        if (si, rep) == (2, 1):
            message = f"baseline: injected failure at seed {topo_seeds[1]}"
            expected.append(["2", "1", "", "", message])
            lost.update((str(si), cell.run_seed) for cell in cells(si, rep))
            continue
        for i in sorted(picks):
            cell = cells(si, rep)[i]
            expected.append([str(si), str(rep), repr(cell.beta), str(cell.adv_count),
                             f"injected failure at seed {cell.run_seed}"])
            lost.add((str(si), cell.run_seed))
    header = ["signal_id", "repetition", "beta", "adv_count", "error"]
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        grid = run_sweep(dataclasses.replace(cfg, workers=workers, output_dir=str(out)))
        with open(out / "errors.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == [header, *expected]
        assert grid.rows == [r for r in clean if (r.signal_id, r.run_seed) not in lost]
        if workers == 1:
            # Each failed batch runs again cell by cell: 108 runs in 56 calls.
            assert (len(calls), sum(calls)) == (56, 108)


def test_several_signals_give_the_same_bytes_at_any_worker_count(tmp_path, monkeypatch):
    pools = []

    class CountingPool(harness_mod.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)

    def config(root, workers):
        return rss_config(root, runs_per_cell=2, workers=workers, initial_selection="random",
                          severities=(0.4, 1.0), combination_cap=3)

    def outputs(root, workers):
        cfg = config(root, workers)
        run_sweep(cfg)
        run_structural(cfg, "layer")
        run_structural(cfg, "cumulative")
        return {
            name: (root / "out" / name).read_bytes()
            for name in ("runs.csv", "structural_layer.csv", "structural_cumulative.csv")
        }

    serial = outputs(tmp_path / "w1", 1)
    assert pools == []
    for workers in (2, 3):
        assert outputs(tmp_path / f"w{workers}", workers) == serial
    # min(workers, signals x repetitions): 3 x 2 for the sweep, 3 x 1 for each
    # structural mode.
    assert pools == [2, 2, 2, 3, 3, 3]

    # A partial that holds only signal 0 of repetition 0 leaves 5 tasks' rows.
    for workers in (1, 3):
        pools.clear()
        cfg = config(tmp_path / f"resume{workers}", workers)
        keys = set(harness_mod._task_keys(cfg, 0, "0", 0, 10))
        rows = SweepGrid.read_csv(tmp_path / "w1" / "out" / "runs.csv").rows
        partial = SweepGrid(rows=[row for row in rows if row.sort_key() in keys])
        assert len(partial.rows) == 8
        partial.write_csv(Path(cfg.output_dir) / "runs.partial.csv")
        run_sweep(cfg, resume=True)
        assert pools == ([3] if workers == 3 else [])
        assert (Path(cfg.output_dir) / "runs.csv").read_bytes() == serial["runs.csv"]


def test_one_engine_batch_per_repetition(tmp_path, monkeypatch):
    """With one worker, a repetition's signals share a task and its batches:
    a baseline per signal, then every signal's cells, each against its own
    target row."""
    cfg = rss_config(tmp_path, runs_per_cell=2)
    _, signals = harness_mod.load_inputs(cfg, ("random",))
    sent = []
    real_run_batch = harness_mod.run_batch

    def recording(topology, plan_sets, betas, config, seeds):
        sent.append((list(seeds), config.inefficiency.target.tolist()))
        return real_run_batch(topology, plan_sets, betas, config, seeds)

    monkeypatch.setattr(harness_mod, "run_batch", recording)
    run_sweep(cfg)
    assert len(sent) == 2
    for rep, (seeds, targets) in enumerate(sent):
        topology = build_balanced_binary(10, permutation_seed=derive_seed(7, "topology", rep))
        cells = [
            cell for si in range(3) for cell in harness_mod._random_cells(cfg, topology, si, rep)
        ]
        assert seeds == [derive_seed(7, "topology", rep)] * 3 + [cell.run_seed for cell in cells]
        rows = [0, 1, 2] + [cell.signal for cell in cells]
        assert targets == [signals[si][1].tolist() for si in rows]


def test_group_signals_makes_the_fewest_tasks_that_busy_the_workers():
    group = harness_mod._group_signals
    assert group({0: [0, 1, 2], 1: [0, 1, 2]}, 1) == [([0, 1, 2], 0), ([0, 1, 2], 1)]
    assert group({0: [0, 1, 2], 1: [0, 1, 2]}, 3) == [([0], 0), ([1, 2], 0), ([0, 1, 2], 1)]
    assert group({0: [1, 2], 1: [0, 1, 2], 2: []}, 5) == [
        ([1], 0), ([2], 0), ([0], 1), ([1], 1), ([2], 1)
    ]
    assert group({0: [0, 1, 2, 3, 4]}, 2) == [([0, 1], 0), ([2, 3, 4], 0)]


def test_interrupted_finalize_leaves_no_results_file(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, runs_per_cell=2)
    out = tmp_path / "out"
    run_sweep(cfg)
    expected = (out / "runs.csv").read_bytes()
    (out / "runs.csv").unlink()

    def failing_open(path, mode="r", **kwargs):
        """Files named runs.csv* fail after their first write."""
        handle = open(path, mode, **kwargs)
        if "w" in mode and Path(path).name.startswith("runs.csv"):
            write, writes = handle.write, []

            def write_once(text):
                if writes:
                    raise OSError("disk full")
                writes.append(text)
                return write(text)

            handle.write = write_once
        return handle

    monkeypatch.setattr(harness_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        run_sweep(cfg)
    monkeypatch.undo()
    assert not (out / "runs.csv").exists()
    assert len(SweepGrid.read_csv(out / "runs.partial.csv").rows) == 16
    run_sweep(cfg, resume=True)
    assert (out / "runs.csv").read_bytes() == expected


def test_target_file_alias(tmp_path):
    target = tmp_path / "one.target"
    target.write_text("0.0,1.0\n")
    path = write_yaml(
        tmp_path,
        {
            "dataset": {"kind": "gaussian", "agents": 4, "plans": 2},
            "inefficiency": {"kind": "rss", "target_file": "one.target"},
        },
    )
    cfg = load_config(path)
    assert cfg.target_files == (str(target),)


def test_resume_refuses_a_partial_with_rows_its_config_does_not_write(tmp_path):
    out = tmp_path / "out"
    run_sweep(small_config(tmp_path, master_seed=1, runs_per_cell=1))
    (out / "runs.csv").rename(out / "runs.partial.csv")
    partial = (out / "runs.partial.csv").read_bytes()
    with pytest.raises(ConfigError) as raised:
        run_sweep(small_config(tmp_path, master_seed=2, runs_per_cell=1), resume=True)
    first = SweepGrid.read_csv(out / "runs.partial.csv").rows[0]
    assert str(raised.value).startswith(f"{out / 'runs.partial.csv'}:2: ")
    assert str(first.sort_key()) in str(raised.value)
    assert (out / "runs.partial.csv").read_bytes() == partial
    assert not (out / "runs.csv").exists()


def test_torn_partial_resume_at_every_offset(tmp_path, caplog):
    cfg = small_config(tmp_path, severities=(0.5,), scales=(0, 3), runs_per_cell=2)
    out = tmp_path / "out"
    fresh = run_sweep(cfg)
    expected = (out / "runs.csv").read_bytes()
    data = (out / "runs.csv").read_bytes()
    (out / "runs.csv").unlink()
    last_row = data.rstrip(b"\r\n").rfind(b"\n") + 1
    assert 0 < last_row < len(data) and len(fresh.rows) == 4
    for cut in range(last_row, len(data)):
        (out / "runs.partial.csv").write_bytes(data[:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="advplan.harness"):
            run_sweep(cfg, resume=True)
        assert (out / "runs.csv").read_bytes() == expected, cut
        assert not (out / "runs.partial.csv").exists()
        torn = cut > last_row
        assert any("torn" in r.getMessage() for r in caplog.records) == torn, cut
        (out / "runs.csv").unlink()


def test_resume_skips_finished_tasks(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    full = run_sweep(cfg)
    expected = (out / "runs.csv").read_bytes()
    calls = []
    real_run_batch = harness_mod.run_batch

    def counting(topology, plan_sets, behaviors, config, seeds):
        calls.append(len(seeds))
        return real_run_batch(topology, plan_sets, behaviors, config, seeds)

    monkeypatch.setattr(harness_mod, "run_batch", counting)

    # Every row is in the partial: nothing runs.
    (out / "runs.csv").unlink()
    SweepGrid(rows=full.rows).write_csv(out / "runs.partial.csv")
    run_sweep(cfg, resume=True)
    assert calls == []
    assert (out / "runs.csv").read_bytes() == expected

    # Repetition 0 is in the partial: one batch each for repetitions 1 and 2,
    # holding the baseline and the 2 x 4 cells.
    half = run_sweep(small_config(tmp_path / "half", runs_per_cell=1))
    calls.clear()
    (out / "runs.csv").unlink()
    half.write_csv(out / "runs.partial.csv")
    run_sweep(cfg, resume=True)
    assert calls == [1 + 2 * 4, 1 + 2 * 4]
    assert (out / "runs.csv").read_bytes() == expected


def test_sweeps_and_structural_runs_match_oracle(tmp_path, monkeypatch):
    targets = []
    for name, values in (("t.target", "0.5,-1.0\n"), ("u.target", "-2.0,0.25\n")):
        targets.append(str(tmp_path / name))
        (tmp_path / name).write_text(values)
    sweep = dict(initial_selection="random")
    structural = dict(
        severities=(0.4, 1.0), inefficiency_kind="rss", inefficiency_scaling="min-max",
        target_files=tuple(targets), combination_cap=3,
    )
    pools = []

    class CountingPool(harness_mod.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)

    def outputs(root, workers=1):
        run_sweep(small_config(root, workers=workers, **sweep))
        cfg = small_config(root, workers=workers, **structural)
        run_structural(cfg, "layer")
        run_structural(cfg, "cumulative")
        return {
            name: (root / "out" / name).read_bytes()
            for name in ("runs.csv", "structural_layer.csv", "structural_cumulative.csv")
        }

    serial = outputs(tmp_path / "serial")
    assert pools == []
    parallel = outputs(tmp_path / "parallel", workers=2)
    # The sweep's three repetitions, then each structural mode's two signals.
    assert pools == [2, 2, 2]
    monkeypatch.setattr(harness_mod, "run_batch", oracle_engine.run_batch)
    oracle = outputs(tmp_path / "oracle")
    assert serial == oracle
    assert parallel == oracle


def test_malformed_rows_raise_parse_error(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5,), runs_per_cell=1)
    run_sweep(cfg)
    config = write_yaml(tmp_path, {
        "dataset": {"kind": "gaussian", "agents": 10, "plans": 3, "dim": 2, "seed": 4},
        "severities": [0.5], "scales": [0, 2, 5, 10], "runs_per_cell": 1,
        "output_dir": "out", "master_seed": 7,
    })
    lines = (tmp_path / "out" / "runs.csv").read_text().splitlines(keepends=True)
    beta_at = lines[0].split(",").index("beta")
    nan_beta = ",".join("nan" if i == beta_at else f for i, f in enumerate(lines[2].split(",")))
    broken = {
        "short.csv": lines[:2] + [lines[2][: len(lines[2]) // 2] + "\r\n"] + lines[3:],
        "long.csv": lines[:2] + [lines[2].rstrip() + ",7\r\n"] + lines[3:],
        "nan.csv": lines[:2] + [lines[2].replace(",random,", ",random,x", 1)] + lines[3:],
        "word.csv": lines[:2] + ["a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p\r\n"] + lines[3:],
        # No run writes a NaN severity, and a NaN keys no cell.
        "nan_beta.csv": lines[:2] + [nan_beta] + lines[3:],
        # An open quote whose field outgrows the csv module's limit (131,072).
        "quote.csv": lines[:2] + ['"' + "x" * 2**17 + lines[2]] + lines[3:],
        # A quote opened before a row, whose field outgrows the limit 19 lines on.
        "spill.csv": lines[:2] + ['"' + lines[2]] + ["x" * 7_000 + "\n"] * 20 + lines[3:],
    }
    partial = tmp_path / "out" / "runs.partial.csv"
    for name, text in broken.items():
        path = tmp_path / name
        path.write_text("".join(text))
        with pytest.raises(ParseError, match=f"{name}:3: "):
            SweepGrid.read_csv(path)
        assert cli_main(["analyze", "--results", str(path), "--out", str(tmp_path / "a")]) == 3
        assert not (tmp_path / "a").exists()
        # A resume refuses the same file as its partial, and leaves it as it was.
        partial.write_bytes(path.read_bytes())
        assert cli_main(["sweep", "--config", str(config), "--resume"]) == 3
        assert partial.read_bytes() == path.read_bytes()
    # A short or long row reports the fields it really has.
    short = broken["short.csv"][2].count(",") + 1
    for name, count in (("short.csv", short), ("long.csv", 17)):
        with pytest.raises(ParseError, match=f"malformed row: {count} fields, expected 16$"):
            SweepGrid.read_csv(tmp_path / name)


def test_pool_is_sized_to_the_tasks_left(tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    run_sweep(small_config(serial, runs_per_cell=2))
    expected = (serial / "out" / "runs.csv").read_bytes()
    first = run_sweep(small_config(tmp_path / "half", runs_per_cell=1))
    pools = []

    class CountingPool(harness_mod.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)
    # One repetition left of two: no pool, even with three workers.
    cfg = small_config(tmp_path, runs_per_cell=2, workers=3)
    first.write_csv(tmp_path / "out" / "runs.partial.csv")
    run_sweep(cfg, resume=True)
    assert pools == []
    assert (tmp_path / "out" / "runs.csv").read_bytes() == expected
    # Two repetitions to run: two workers, not three.
    run_sweep(small_config(tmp_path / "fresh", runs_per_cell=2, workers=3))
    assert pools == [2]
    assert (tmp_path / "fresh" / "out" / "runs.csv").read_bytes() == expected
