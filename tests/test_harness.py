import logging
import math

import numpy as np
import oracle_engine
import pytest
import yaml

import advplan.harness as harness_mod
from advplan.cli import main as cli_main
from advplan.errors import ConfigError, ParseError
from advplan.harness import (
    DatasetSpec,
    RunRecord,
    SweepConfig,
    SweepGrid,
    analyze,
    derive_seed,
    estimate_experiment_count,
    load_config,
    run_structural,
    run_sweep,
)


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


def test_run_sweep_shape_and_baseline_consistency(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    assert len(grid.rows) == 2 * 4 * 3
    assert (tmp_path / "out" / "runs.csv").exists()
    for record in grid.rows:
        if record.adv_count == 0:
            assert record.compromised == 0.0
            assert record.adv_fraction == 0.0
    cells = grid.cell_means()
    assert len(cells) == 8
    assert all(point.run_count == 3 for point in cells.values())


def test_run_sweep_csv_round_trip_and_estimate_match(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    loaded = SweepGrid.read_csv(tmp_path / "out" / "runs.csv")
    assert loaded.sorted_rows() == grid.sorted_rows()
    assert len(grid.rows) == estimate_experiment_count(cfg)


def test_run_sweep_determinism(tmp_path):
    a = run_sweep(small_config(tmp_path / "a"))
    b = run_sweep(small_config(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "out" / "runs.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "out" / "runs.csv").read_bytes()
    assert bytes_a == bytes_b
    assert a.sorted_rows() == b.sorted_rows()


def test_run_sweep_resume_from_partial(tmp_path):
    cfg = small_config(tmp_path)
    full = run_sweep(cfg)
    # Fake an interrupted sweep: keep only the first repetition's rows.
    partial_rows = [r for r in full.rows][: len(full.rows) // 2]
    partial = SweepGrid(rows=partial_rows)
    out = tmp_path / "out"
    (out / "runs.csv").unlink()
    partial.write_csv(out / "runs.partial.csv")
    resumed = run_sweep(cfg, resume=True)
    assert resumed.sorted_rows() == full.sorted_rows()


def test_run_sweep_parallel_matches_serial(tmp_path):
    serial = run_sweep(small_config(tmp_path / "s"))
    parallel = run_sweep(small_config(tmp_path / "p", workers=2))
    assert serial.sorted_rows() == parallel.sorted_rows()
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
    assert estimate_experiment_count(minimal) == 1
    campaign = SweepConfig(
        dataset=DatasetSpec(
            kind="gaussian",
            agents_grid=tuple(range(10, 101, 10)),
            plans_grid=(2, 4, 6, 8, 10),
        ),
        runs_per_cell=50,
    )
    assert estimate_experiment_count(campaign) == 4_125_000


def test_estimate_table_reproduction():
    energy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=1000, plans=10),
        placements=("random", "layer", "cumulative"),
    )
    assert estimate_experiment_count(energy) == 3_118_560
    privacy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=72, plans=3),
        placements=("random", "layer", "cumulative"),
        inefficiency_kind="rss",
        target_files=("high.target", "low.target"),
    )
    assert estimate_experiment_count(privacy) == 498_780


def test_estimate_counts_only_enabled_modes():
    base = dict(dataset=DatasetSpec(kind="gaussian", agents=72, plans=3))
    full = estimate_experiment_count(
        SweepConfig(placements=("random", "layer", "cumulative"), **base)
    )
    random_only = estimate_experiment_count(SweepConfig(placements=("random",), **base))
    cumulative_only = estimate_experiment_count(
        SweepConfig(placements=("cumulative",), **base)
    )
    assert random_only == 30 * 100 * 72
    assert cumulative_only == 30 * 2 * 72
    assert full > random_only + cumulative_only


def test_analyze_bundle_and_files(tmp_path):
    cfg = small_config(tmp_path, severities=(0.2, 0.5, 0.9), runs_per_cell=2)
    grid = run_sweep(cfg)
    outdir = tmp_path / "analysis"
    bundle = analyze(grid, output_dir=outdir)
    assert bundle.thresholds[("", "inefficiency")] is not None
    # Every knee is one of the grid's cells.
    cell_keys = {(k[1], k[2]) for k in bundle.cells}
    for row in bundle.front_rows:
        if row["is_knee"]:
            assert (row["beta"], row["adv_count"]) in cell_keys
    for name in ("cells.csv", "thresholds.csv", "zones.csv", "fronts.csv"):
        assert (outdir / name).exists()
    svgs = list(outdir.glob("heatmap_*.svg"))
    assert len(svgs) == 4
    assert (outdir / "heatmap_inefficiency.csv").exists()


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
        bundle = analyze(SweepGrid(rows=rows))
    assert all(pair is None for pair in bundle.thresholds.values())
    assert all(z.value == "resilience" for z in bundle.zones.values())


def test_analyze_exclude_beta(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5, 1.0), runs_per_cell=1)
    grid = run_sweep(cfg)
    bundle = analyze(grid, exclude_beta=(1.0,))
    assert {key[1] for key in bundle.cells} == {0.5}


def test_structural_means_layer_view(tmp_path):
    cfg = small_config(tmp_path, severities=(0.7,))
    grid = run_structural(cfg, "layer")
    means = grid.structural_means("layer")
    # Layer 3 of the 10-agent tree has 4 agents; count=2 averages C(4,2)=6 runs.
    key = ("", 3, 2, 0.7)
    assert key in means
    assert means[key]["run_count"] == math.comb(4, 2)


def test_record_sorting_is_total(tmp_path):
    cfg = small_config(tmp_path)
    grid = run_sweep(cfg)
    keys = [r.sort_key() for r in grid.sorted_rows()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_failed_cells_become_error_rows(tmp_path, monkeypatch):
    import advplan.harness as harness_mod
    from advplan.errors import InvalidInputError

    real_run_batch = harness_mod.run_batch
    # The (beta 0.5, 5 adversaries) cell of repetition 0 fails, in any batch.
    doomed = derive_seed(7, "placement", 0, 0, 5, 0)

    def flaky(topology, plan_sets, behaviors, config, seeds):
        if doomed in seeds:
            raise InvalidInputError("injected failure")
        return real_run_batch(topology, plan_sets, behaviors, config, seeds)

    monkeypatch.setattr(harness_mod, "run_batch", flaky)
    cfg = small_config(tmp_path, severities=(0.5,), scales=(0, 5), runs_per_cell=2)
    grid = run_sweep(cfg)
    assert len(grid.rows) == 3
    errors = (tmp_path / "out" / "errors.csv").read_text()
    assert "injected failure" in errors


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
    target = tmp_path / "t.target"
    target.write_text("0.5,-1.0\n")
    sweep = dict(initial_selection="random")
    structural = dict(
        severities=(0.4, 1.0), inefficiency_kind="rss", inefficiency_scaling="min-max",
        target_files=(str(target),), combination_cap=3,
    )

    def outputs(root, workers=1):
        run_sweep(small_config(root, workers=workers, **sweep))
        cfg = small_config(root, **structural)
        run_structural(cfg, "layer")
        run_structural(cfg, "cumulative")
        return {
            name: (root / "out" / name).read_bytes()
            for name in ("runs.csv", "structural_layer.csv", "structural_cumulative.csv")
        }

    serial = outputs(tmp_path / "serial")
    parallel = outputs(tmp_path / "parallel", workers=2)
    monkeypatch.setattr(harness_mod, "run_batch", oracle_engine.run_batch)
    oracle = outputs(tmp_path / "oracle")
    assert serial == oracle
    assert parallel == oracle


def test_malformed_rows_raise_parse_error(tmp_path):
    cfg = small_config(tmp_path, severities=(0.5,), runs_per_cell=1)
    run_sweep(cfg)
    lines = (tmp_path / "out" / "runs.csv").read_text().splitlines(keepends=True)
    broken = {
        "short.csv": lines[:2] + [lines[2][: len(lines[2]) // 2] + "\r\n"] + lines[3:],
        "long.csv": lines[:2] + [lines[2].rstrip() + ",7\r\n"] + lines[3:],
        "nan.csv": lines[:2] + [lines[2].replace(",random,", ",random,x", 1)] + lines[3:],
        "word.csv": lines[:2] + ["a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p\r\n"] + lines[3:],
    }
    for name, text in broken.items():
        path = tmp_path / name
        path.write_text("".join(text))
        with pytest.raises(ParseError, match=f"{name}:3"):
            SweepGrid.read_csv(path)
        assert cli_main(["analyze", "--results", str(path), "--out", str(tmp_path / "a")]) == 3


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
