"""The benchmark's own checks pass on this checkout.

perfbench re-executes sampled rows through the single-run API (``advplan.run``,
``run_baseline``, ``BehaviorProfile(beta=<mapping>)``, ``RunConfig(rng_seed=...)``
and the ``RunOutcome`` fields it reads), and checks every analysis against its
own exhaustive multi-Otsu. A change that breaks either fails here, not only in
a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import advplan
from advplan import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch):
    """The benchmark's ``workloads`` and ``checks`` modules, loaded from their
    files under the names ``workloads.py`` imports them by."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    modules = {}
    for name in ("checks", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["workloads"], modules["checks"]


@pytest.mark.parametrize("name", ["grid-small", "structural-rss"])
def test_a_round_of_each_analyzing_workload_passes_its_checks(tmp_path, monkeypatch, name):
    """Input set 0 of each workload that runs ``analyze``: every command of a
    round exits 0, and the workload's checks (row counts, re-executed rows,
    thresholds, zones, fronts and knees) find no problem."""
    workloads, _ = _perfbench(monkeypatch)
    workload = workloads.WORKLOADS[name]
    seed = 3
    inputs = workload.prepare(cli, tmp_path / "setup", seed, 0)
    rnd = tmp_path / "round"
    ops = workload.round_ops([inputs], rnd)
    assert [op.kind for op in ops][-1] == "analyze"
    for op in ops:
        assert cli.main(op.argv) == 0, op.argv
    assert workload.check(advplan, inputs, rnd, seed) == []


def test_the_optimality_probe_runs_on_the_single_run_api(monkeypatch):
    _, checks = _perfbench(monkeypatch)
    hits, gap = checks.optimality_probe(advplan, range(3))
    assert 0 <= hits <= 3
    assert 0.0 <= gap <= 1.0
