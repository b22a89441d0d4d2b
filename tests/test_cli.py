import json

import pytest
import yaml

from advplan.cli import main


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


def test_sweep_bad_config_exit_code(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"dataset": {"kind": "gaussian"}}))
    assert main(["sweep", "--config", str(path)]) == 2


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


@pytest.mark.parametrize("key,value", [("dim", "two"), ("agents", 2.5), ("seed", None)])
def test_wrongly_typed_dataset_values_exit_2(tmp_path, caplog, key, value):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["dataset"][key] = value
    path.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(path)]) == 2
    assert key in caplog.text


@pytest.mark.parametrize(
    "section", [5, {"kind": "rss", "target_files": None}, {"kind": "rss", "target_files": "t"}]
)
def test_malformed_inefficiency_section_exits_2(tmp_path, section):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["inefficiency"] = section
    path.write_text(yaml.safe_dump(raw))
    assert main(["sweep", "--config", str(path)]) == 2
