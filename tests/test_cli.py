import json

import numpy as np
import pytest
import yaml

from advplan.adversary import beta_rows, random_adversaries, sample_k_subsets
from advplan.cli import main
from advplan.engine import BehaviorProfile, RunConfig, run, run_baseline
from advplan.harness import _metric_columns
from advplan.plans import PlanSet, generate_gaussian_plans, save_plan_sets
from advplan.topology import agents_in_layer, build_balanced_binary


def test_generate_plans_and_targets(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(
        [
            "generate", "--agents", "6", "--plans", "3", "--dim", "4",
            "--seed", "2", "--out", str(out), "--levels", "0,0.5,1",
        ]
    )
    assert code == 0
    assert len(list(out.glob("agent_*.plans"))) == 6
    assert len(list(out.glob("target_*.target"))) == 6


def test_generate_requires_something(tmp_path):
    assert main(["generate", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("levels,bad", [("0,a,1", "'a'"), ("0,,1", "''"), ("0,inf", "'inf'")])
def test_generate_bad_level_exits_2(tmp_path, caplog, levels, bad):
    assert main(["generate", "--out", str(tmp_path), "--levels", levels]) == 2
    assert f"--levels: {bad} is not a finite number" in caplog.text
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args,message",
    [
        (["--levels", "1,1"], "levels must be distinct"),
        (["--agents", "0", "--plans", "3"], "must be positive"),
        (["--agents", "4", "--plans", "0"], "must be positive"),
        (["--agents", "4", "--plans", "3", "--dim", "0"], "must be positive"),
        (["--agents", "-2", "--plans", "3"], "must be positive"),
        (["--agents", "4", "--plans", "3", "--seed", "-1"], "--seed must be >= 0"),
    ],
)
def test_generate_bad_sizes_and_levels_exit_2(tmp_path, caplog, args, message):
    assert main(["generate", "--out", str(tmp_path / "out"), *args]) == 2
    assert "config error" in caplog.text and message in caplog.text
    assert not (tmp_path / "out").exists()


def test_generate_writes_nothing_when_levels_are_bad(tmp_path):
    out = tmp_path / "out"
    args = ["--agents", "4", "--plans", "3", "--levels", "1,1"]
    assert main(["generate", "--out", str(out), *args]) == 2
    assert not out.exists()


def test_run_single_outputs_json(tmp_path, capsys):
    code = main(
        [
            "run", "--agents", "9", "--plans", "3", "--dim", "2",
            "--severity", "0.5", "--count", "3", "--seed", "4",
            "--selections",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agents"] == 9
    assert len(payload["adversaries"]) == 3
    assert len(payload["selections"]) == 9
    assert payload["inefficiency"] >= 0
    trace = payload["combined_cost_trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_run_rss_against_target(tmp_path, capsys):
    target = tmp_path / "t.target"
    target.write_text("0.0,1.0\n")
    code = main(
        [
            "run", "--agents", "5", "--plans", "2", "--severity", "1.0",
            "--fraction", "1.0", "--ineff", "rss", "--target", str(target),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["discomfort_total"] == 0.0


@pytest.mark.parametrize(
    "placement,draw",
    [
        (["--count", "4"], lambda t: random_adversaries(t, 4, seed=5)),
        (["--fraction", "0.2"], lambda t: random_adversaries(t, 3, seed=5)),
        (
            ["--placement", "layer", "--layer", "3", "--ratio", "50"],
            lambda t: sample_k_subsets(sorted(agents_in_layer(t, 3)), 2, cap=1, seed=5)[0],
        ),
        (
            ["--placement", "cumulative", "--direction", "top_down", "--m", "2"],
            lambda t: {t.agent_at[0], t.agent_at[1]},
        ),
        (
            ["--placement", "cumulative", "--direction", "bottom-up", "--m", "2"],
            lambda t: {t.agent_at[13], t.agent_at[14]},
        ),
    ],
)
def test_run_draws_adversaries_as_sweep_cells(capsys, placement, draw):
    argv = ["run", "--agents", "15", "--plans", "2", "--severity", "0.5", "--seed", "5",
            "--topology-seed", "1", *placement]
    assert main(argv) == 0
    topology = build_balanced_binary(15, permutation_seed=1)
    assert json.loads(capsys.readouterr().out)["adversaries"] == sorted(draw(topology))


def test_run_json_matches_separate_engine_runs(capsys):
    """The attacked run and its baseline, batched, give what each run gives alone."""
    argv = ["run", "--agents", "12", "--plans", "3", "--dim", "3", "--severity", "0.7",
            "--placement", "layer", "--layer", "3", "--ratio", "50", "--seed", "5",
            "--topology-seed", "2", "--max-iterations", "8"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    plan_sets = generate_gaussian_plans(12, 3, 3, seed=0)
    topology = build_balanced_binary(12, permutation_seed=2)
    adversaries = set(sample_k_subsets(sorted(agents_in_layer(topology, 3)), 2, cap=1, seed=5)[0])
    config = RunConfig(max_iterations=8, rng_seed=5)
    profile = BehaviorProfile(beta_rows(topology, [adversaries], [0.7])[0])
    outcome = run(topology, plan_sets, profile, config)
    baseline = run_baseline(topology, plan_sets, config)
    assert payload["adversaries"] == sorted(adversaries)
    assert payload["baseline_inefficiency"] == baseline.global_inefficiency
    for name, column in _metric_columns(topology, [adversaries], [outcome], baseline).items():
        assert [payload[name]] == column, name
    assert payload["inefficiency"] == outcome.global_inefficiency
    assert payload["iterations"] == outcome.iterations_used
    assert payload["combined_cost_trace"] == list(outcome.combined_cost_trace)


def write_config(tmp_path):
    cfg = {
        "dataset": {"kind": "gaussian", "agents": 8, "plans": 2, "dim": 2, "seed": 1},
        "severities": [0.5, 1.0],
        "scales": [0, 4, 8],
        "runs_per_cell": 2,
        "output_dir": "out",
        "master_seed": 5,
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_sweep_estimate_structural_analyze_plot(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "runs.csv").exists()

    assert main(["estimate", "--config", str(cfg)]) == 0
    estimate = int(capsys.readouterr().out.strip().splitlines()[-1])
    assert estimate == 2 * 2 * 3

    assert main(["structural", "--config", str(cfg), "--mode", "cumulative"]) == 0
    assert (tmp_path / "out" / "structural_cumulative.csv").exists()

    assert (
        main(
            [
                "analyze",
                "--results",
                str(tmp_path / "out" / "runs.csv"),
                str(tmp_path / "out" / "structural_cumulative.csv"),
                "--out",
                str(tmp_path / "analysis"),
            ]
        )
        == 0
    )
    assert (tmp_path / "analysis" / "cells.csv").exists()
    assert (tmp_path / "analysis" / "cumulative_cells.csv").exists()

    assert (
        main(
            [
                "plot", "--results", str(tmp_path / "out" / "runs.csv"),
                "--out", str(tmp_path / "plots"), "--exclude-beta", "1.0",
            ]
        )
        == 0
    )
    assert list((tmp_path / "plots").glob("*.svg"))


def test_analyze_skips_a_ragged_cumulative_heatmap(tmp_path, caplog):
    """Cumulative rows of 6 agents at one severity and 8 at another leave
    (severity, m) cells missing; that heatmap is skipped with a warning."""
    results = []
    for agents, beta in ((6, 0.5), (8, 1.0)):
        (tmp_path / str(agents)).mkdir()
        path = write_config(tmp_path / str(agents))
        raw = yaml.safe_load(path.read_text())
        raw["dataset"]["agents"], raw["severities"] = agents, [beta]
        path.write_text(yaml.safe_dump(raw))
        assert main(["structural", "--config", str(path), "--mode", "cumulative"]) == 0
        results.append(str(path.parent / "out" / "structural_cumulative.csv"))
    out = tmp_path / "analysis"
    assert main(["analyze", "--results", *results, "--out", str(out)]) == 0
    assert "ragged" in caplog.text
    cells = (out / "cumulative_cells.csv").read_text().splitlines()
    assert len(cells) == 1 + 2 * (6 + 8)
    assert not list(out.glob("heatmap_cumulative_*.svg"))


def test_sweep_bad_config_exit_code(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"dataset": {"kind": "gaussian"}}))
    assert main(["sweep", "--config", str(path)]) == 2


def test_target_dimension_mismatch_exits_2(tmp_path, caplog):
    path = write_config(tmp_path)
    (tmp_path / "t.target").write_text("0.0,0.5,1.0\n")
    raw = yaml.safe_load(path.read_text())
    raw["inefficiency"] = {"kind": "rss", "target_files": ["t.target"]}
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["estimate"], ["structural", "--mode", "layer"]):
        caplog.clear()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert "has dimension 3, plans 2" in caplog.text
    assert not (tmp_path / "out").exists()
    caplog.clear()
    run = ["run", "--agents", "5", "--plans", "2", "--severity", "0.5", "--count", "1"]
    assert main([*run, "--ineff", "rss", "--target", str(tmp_path / "t.target")]) == 2
    assert f"target signal {tmp_path / 't.target'} has dimension 3" in caplog.text


@pytest.mark.parametrize(
    "change,code,message",
    [
        ({"scales": [0, 4, 12]}, 2, "config error: scale 12 outside 0..8"),
        ({"inefficiency": {"kind": "rss", "target_files": ["gone.target"]}}, 3, "gone.target"),
    ],
    ids=["scale", "missing-target"],
)
def test_estimate_refuses_what_sweep_refuses(tmp_path, caplog, capsys, change, code, message):
    """A scale above n or a missing target file: ``estimate`` counts no
    config that ``sweep`` refuses, and both say why in the same words."""
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    path.write_text(yaml.safe_dump({**raw, **change}))
    logged = []
    for command in ("estimate", "sweep"):
        caplog.clear()
        assert main([command, "--config", str(path)]) == code
        logged.append(caplog.text)
    assert message in logged[0] and logged[0] == logged[1]
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


def test_plan_ids_with_a_gap_exit_2(tmp_path, caplog):
    assert main(["generate", "--agents", "3", "--plans", "2", "--out", str(tmp_path / "p")]) == 0
    (tmp_path / "p" / "agent_2.plans").unlink()
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["dataset"] = {"kind": "files", "plans_dir": "p"}
    raw["scales"] = [0, 1]
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["estimate"], ["structural", "--mode", "cumulative"]):
        caplog.clear()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert "agent ids" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "attack",
    [
        ["--severity", "1.5", "--count", "2"],
        ["--severity", "0.5", "--placement", "layer", "--layer", "2", "--ratio", "30"],
        ["--severity", "0.5", "--fraction", "2.0"],
        ["--severity", "0.5"],
        ["--severity", "0.5", "--count", "1", "--ineff", "rss"],
        ["--severity", "0.5", "--count", "1", "--scaling", "bogus"],
        ["--severity", "0.5", "--count", "1", "--agents", "0"],
        ["--severity", "0", "--count", "1"],
        ["--severity", "0.5", "--fraction", "nan"],
        ["--severity", "0.5", "--fraction", "inf"],
        ["--severity", "0.5", "--fraction", "-0.1"],
        ["--severity", "0.5", "--count", "1", "--seed", "-1"],
        ["--severity", "0.5", "--count", "1", "--gen-seed", "-1"],
        ["--severity", "0.5", "--count", "1", "--topology-seed", "-1"],
    ],
)
def test_run_usage_errors_exit_2(attack):
    assert main(["run", "--agents", "6", "--plans", "2", *attack]) == 2


@pytest.mark.parametrize("bins", ["0", "2", "-5"])
def test_analyze_bins_below_3_exit_2(tmp_path, caplog, bins):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "analysis"
    argv = ["analyze", "--results", str(tmp_path / "out" / "runs.csv"), "--out", str(out)]
    assert main([*argv, "--bins", bins]) == 2
    assert "config error: --bins must be at least 3" in caplog.text
    assert not out.exists()


def _with_values(source, target, column, values):
    """Copy a results CSV, overwriting ``column`` in its first data rows."""
    lines = source.read_text().splitlines()
    index = lines[0].split(",").index(column)
    for row, value in enumerate(values, start=1):
        fields = lines[row].split(",")
        fields[index] = value
        lines[row] = ",".join(fields)
    target.write_text("\n".join(lines) + "\n")
    return target


@pytest.mark.parametrize("command", ["analyze", "plot"])
def test_non_finite_metrics_exit_3_naming_metric_and_signal(tmp_path, caplog, command):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["structural", "--config", str(cfg), "--mode", "cumulative"]) == 0
    runs = _with_values(tmp_path / "out" / "runs.csv", tmp_path / "bad_runs.csv",
                        "inefficiency", ["nan", "inf"])
    out = tmp_path / "analysis"
    assert main([command, "--results", str(runs), "--out", str(out)]) == 3
    assert "runtime error: metric 'inefficiency' of signal ''" in caplog.text
    assert "must be finite" in caplog.text
    caplog.clear()
    cumulative = _with_values(tmp_path / "out" / "structural_cumulative.csv",
                              tmp_path / "bad_cumulative.csv", "inefficiency", ["-inf"])
    assert main([command, "--results", str(cumulative), "--out", str(out)]) == 3
    assert "metric 'inefficiency' of signal '': cumulative cell" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_plan_or_target_values_exit_3(tmp_path, caplog, capsys, token):
    """NaN or an infinity in a plan or target file stops a command before it
    runs or writes anything, with a message naming the agent or the file."""
    plans = tmp_path / "p"
    assert main(["generate", "--agents", "5", "--plans", "2", "--out", str(plans)]) == 0
    agent_3 = plans / "agent_3.plans"
    agent_3.write_text(f"0.0:{token},0.5\n" + agent_3.read_text().split("\n", 1)[1])
    (tmp_path / "t.target").write_text(f"0.5,{token}\n")
    raw = yaml.safe_load(write_config(tmp_path).read_text())
    configs = {
        "files.yaml": {**raw, "dataset": {"kind": "files", "plans_dir": "p"}, "scales": [0, 1]},
        "rss.yaml": {**raw, "inefficiency": {"kind": "rss", "target_files": ["t.target"]}},
    }
    for name, config in configs.items():
        (tmp_path / name).write_text(yaml.safe_dump(config))
    cases = [
        (["sweep", "--config", str(tmp_path / "files.yaml")], "agent 3 plan 0"),
        (["structural", "--config", str(tmp_path / "files.yaml"), "--mode", "cumulative"],
         "agent 3 plan 0"),
        (["estimate", "--config", str(tmp_path / "files.yaml")], "agent 3 plan 0"),
        (["run", "--plans-dir", str(plans), "--severity", "0.5", "--count", "1"], "agent 3 plan 0"),
        (["sweep", "--config", str(tmp_path / "rss.yaml")], "t.target"),
        (["estimate", "--config", str(tmp_path / "rss.yaml")], "t.target"),
        (["structural", "--config", str(tmp_path / "rss.yaml"), "--mode", "layer"], "t.target"),
        (["run", "--agents", "5", "--plans", "2", "--severity", "0.5", "--count", "1",
          "--ineff", "rss", "--target", str(tmp_path / "t.target")], "t.target"),
    ]
    for argv, named in cases:
        caplog.clear()
        assert main(argv) == 3
        assert "runtime error: " in caplog.text and named in caplog.text
        assert "holds NaN or an infinity" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_no_rows_exit_code(tmp_path):
    empty = tmp_path / "empty.csv"
    from advplan.harness import SweepGrid

    SweepGrid().write_csv(empty)
    assert main(["analyze", "--results", str(empty), "--out", str(tmp_path / "a")]) == 2


@pytest.mark.parametrize(
    "key,value",
    [
        ("workers", "two"),
        ("workers", 1.5),
        ("workers", True),
        ("runs_per_cell", "x"),
        ("severities", ["abc"]),
        ("severities", 0.5),
        ("scales", 5),
        ("scales", [2.5]),
        ("max_iterations", 2.5),
        ("combination_cap", "x"),
        ("combination_cap", 0),
        ("master_seed", "s"),
        ("placements", "random"),
        ("layer_ratios", [25, "half"]),
        ("layer_ratios", [30]),
        ("initial_selection", 5),
    ],
)
def test_wrongly_typed_config_values_exit_2(tmp_path, caplog, key, value):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw[key] = value
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["estimate"], ["structural", "--mode", "layer"]):
        caplog.clear()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert key in caplog.text


@pytest.mark.parametrize(
    "key,value",
    [
        ("dim", "two"), ("agents", 2.5), ("seed", None), ("agents", 0), ("plans", 0), ("dim", 0),
        ("seed", -3),
    ],
)
def test_wrongly_typed_dataset_values_exit_2(tmp_path, caplog, key, value):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["dataset"][key] = value
    path.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(path)]) == 2
    assert key in caplog.text


def test_campaign_config_exits_2_but_estimate_counts_it(tmp_path, caplog, capsys):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw.update(severities=[0.5], scales=[1, 2], runs_per_cell=1)
    raw["dataset"] = {"kind": "gaussian", "agents_grid": [10, 20], "plans_grid": [2, 4]}
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["structural", "--mode", "layer"]):
        caplog.clear()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert "agents_grid/plans_grid" in caplog.text and "estimate" in caplog.text
    assert not (tmp_path / "out").exists()
    capsys.readouterr()
    assert main(["estimate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "60"


@pytest.mark.parametrize(
    "section",
    [
        5,
        {"kind": "rss", "target_files": None},
        {"kind": "rss", "target_files": "t"},
        {"kind": "varaince"},
        {"scaling": "bogus"},
    ],
)
def test_malformed_inefficiency_section_exits_2(tmp_path, section):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["inefficiency"] = section
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["estimate"], ["structural", "--mode", "layer"]):
        assert main([command[0], "--config", str(path), *command[1:]]) == 2


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("dataset", "dims", 5),
        ("inefficiency", "scalling", "min-max"),
        (None, "output_dir", 5),
        (None, "output_dir", None),
        ("inefficiency", "target_files", [1]),
        ("inefficiency", "target_file", ["a", "b"]),
        ("dataset", "plans_dir", 5),
        (None, "scales", [2, 2]),
        (None, "severities", [0.5, 0.5]),
        (None, "max_iterations", 0),
        (None, "initial_selection", "bogus"),
    ],
)
def test_config_mistakes_exit_2_naming_the_key(tmp_path, caplog, capsys, section, key, value):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    (raw.setdefault(section, {}) if section else raw)[key] = value
    path.write_text(yaml.safe_dump(raw))
    assert main(["estimate", "--config", str(path)]) == 2
    assert key in caplog.text and "Traceback" not in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key,value", [("max_iterations", 0), ("initial_selection", "bogus")])
def test_bad_run_settings_exit_2_before_any_file(tmp_path, caplog, key, value):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw[key] = value
    path.write_text(yaml.safe_dump(raw))
    for command in (["sweep"], ["estimate"], ["structural", "--mode", "layer"]):
        caplog.clear()
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        assert key in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["gaussian", "files"])
def test_estimate_equals_the_rows_every_placement_writes(tmp_path, capsys, kind):
    """All placements and two targets; a combination cap of 2 makes the
    layer-wise runs sample their adversary sets in the layers of 4 agents.
    The files dataset has 8 agents of 2 plans with real-valued discomforts."""
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    if kind == "files":
        rng = np.random.default_rng(3)
        plans = [PlanSet(a, rng.standard_normal((2, 2)), rng.random(2) * 3.0) for a in range(1, 9)]
        save_plan_sets(plans, tmp_path / "p")
        raw["dataset"] = {"kind": "files", "plans_dir": "p"}
    for name in ("a", "b"):
        (tmp_path / f"{name}.target").write_text("0.5,-0.5\n")
    raw.update(placements=["random", "layer", "cumulative"], combination_cap=2)
    raw["inefficiency"] = {"kind": "rss", "target_files": ["a.target", "b.target"]}
    path.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert main(["estimate", "--config", str(path)]) == 0
    estimate = int(capsys.readouterr().out)
    for command in (["sweep"], *(["structural", "--mode", m] for m in ("layer", "cumulative"))):
        assert main([command[0], "--config", str(path), *command[1:]]) == 0
    written = sum(
        len((tmp_path / "out" / name).read_text().splitlines()) - 1
        for name in ("runs.csv", "structural_layer.csv", "structural_cumulative.csv")
    )
    # Layers of 1, 2, 4 and 1 agents: 1, 2 + 1, 2 + 2 + 2 + 1 and 1 sets.
    assert written == estimate == 2 * 2 * (2 * 3 + (1 + 3 + 7 + 1) + 2 * 8)


def test_two_calls_in_one_process_share_no_options(tmp_path):
    """The parser is built once per process; options of one call do not
    carry over to the next."""
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["severities"] = [0.5, 0.9]
    path.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(path)]) == 0
    results = ["--results", str(tmp_path / "out" / "runs.csv")]
    assert main(["analyze", *results, "--out", str(tmp_path / "a"), "--exclude-beta", "0.9"]) == 0
    assert main(["analyze", *results, "--out", str(tmp_path / "b")]) == 0
    cells = [(tmp_path / out / "cells.csv").read_text().splitlines()[1:] for out in "ab"]
    betas = [{line.split(",")[1] for line in lines} for lines in cells]
    assert betas == [{"0.5"}, {"0.5", "0.9"}]


def test_negative_master_seed_stays_valid(tmp_path):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["master_seed"] = -4
    path.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--seed", "-7"]) == 0


# A plan line with a byte that is not UTF-8.
NOT_UTF8 = b"0.0:1.0,2.0\n1.0:3.0,\xff4.0\n"


def test_undecodable_plan_file_exits_3(tmp_path, caplog):
    plans = tmp_path / "p"
    assert main(["generate", "--agents", "3", "--plans", "2", "--out", str(plans)]) == 0
    (plans / "agent_1.plans").write_bytes(NOT_UTF8)
    run = ["run", "--plans-dir", str(plans), "--severity", "0.5", "--count", "1"]
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["dataset"], raw["scales"] = {"kind": "files", "plans_dir": "p"}, [0, 1]
    path.write_text(yaml.safe_dump(raw))
    for argv in (run, ["sweep", "--config", str(path)]):
        caplog.clear()
        assert main(argv) == 3
        assert "agent_1.plans: not UTF-8 text" in caplog.text


def test_undecodable_target_file_exits_3(tmp_path, caplog):
    target = tmp_path / "t.target"
    target.write_bytes(b"0.5,\xff1.0\n")
    argv = ["run", "--agents", "5", "--plans", "2", "--severity", "0.5", "--count", "1",
            "--ineff", "rss", "--target", str(target)]
    assert main(argv) == 3
    assert "t.target: not UTF-8 text" in caplog.text
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["inefficiency"] = {"kind": "rss", "target_files": ["t.target"]}
    path.write_text(yaml.safe_dump(raw))
    caplog.clear()
    assert main(["sweep", "--config", str(path)]) == 3
    assert "t.target: not UTF-8 text" in caplog.text


def test_undecodable_config_exits_2(tmp_path, caplog):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert "config error: cannot read config" in caplog.text


def test_undecodable_results_exit_3(tmp_path, caplog):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    out = tmp_path / "out"
    data = (out / "runs.csv").read_bytes()
    bad = data.replace(b"gaussian", b"gauss\xffan", 1)
    (tmp_path / "bad.csv").write_bytes(bad)
    analysis = ["analyze", "--results", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "a")]
    assert main(analysis) == 3
    assert "bad.csv: not UTF-8 text" in caplog.text
    # A resume reads its partial file the same way.
    (out / "runs.csv").unlink()
    (out / "runs.partial.csv").write_bytes(bad)
    caplog.clear()
    assert main(["sweep", "--config", str(path), "--resume"]) == 3
    assert "runs.partial.csv: not UTF-8 text" in caplog.text


def test_resume_checks_and_completes_a_finished_runs_csv(tmp_path, caplog):
    """Without a partial file, a resume reads runs.csv as it would read one:
    a row its config does not write is refused, and missing tasks run."""
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path)]) == 0
    finished = (out / "runs.csv").read_bytes()
    assert main(["sweep", "--config", str(path), "--resume"]) == 0
    assert (out / "runs.csv").read_bytes() == finished
    # Another master seed writes none of these rows.
    assert main(["sweep", "--config", str(path), "--resume", "--seed", "2"]) == 2
    assert f"{out / 'runs.csv'}:2: this config writes no row" in caplog.text
    assert (out / "runs.csv").read_bytes() == finished
    assert not (out / "runs.partial.csv").exists()
    # A third repetition per cell: the bytes of a fresh sweep.
    raw = yaml.safe_load(path.read_text())
    path.write_text(yaml.safe_dump({**raw, "runs_per_cell": 3}))
    assert main(["sweep", "--config", str(path), "--resume"]) == 0
    resumed = (out / "runs.csv").read_bytes()
    assert main(["sweep", "--config", str(path)]) == 0
    assert resumed == (out / "runs.csv").read_bytes() != finished
