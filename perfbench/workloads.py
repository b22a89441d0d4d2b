"""The four workloads: their inputs, their commands and their checks.

Each workload writes its plan files, target files and YAML configs from the
seed, then runs the same list of ``advplan`` commands every round. Commands go
through ``advplan.cli.main`` in-process, exactly as a user would type them.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import checks

LADDER = [b / 30 for b in range(1, 31)]
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class Op:
    """One ``advplan`` command of a round.

    ``output`` is the run CSV the command writes (None for analyze);
    ``partial`` is copied to ``runs.partial.csv`` before a resume.
    ``input_set`` is the index of the input set the command works on.
    ``expected`` holds the bytes a correct run must write to ``output``;
    without it the command succeeds when it returns 0 and the checks run
    on its output afterwards. ``timed`` commands make up the workflow time.
    """

    kind: str
    argv: list[str]
    output: Path | None = None
    partial: Path | None = None
    expected: bytes | None = None
    timed: bool = True
    input_set: int = 0


@dataclass
class Inputs:
    """What one set-up of input set ``index`` wrote, and what the checks
    need to know about it."""

    index: int
    spec: dict
    configs: dict = field(default_factory=dict)
    partial: Path | None = None
    torn: Path | None = None
    torn_expected: bytes | None = None


def _config(path: Path, plans_dir: Path, **settings) -> Path:
    raw = {
        "dataset": {"kind": "files", "plans_dir": str(plans_dir.resolve()), "name": "bench"},
        "placements": ["random"],
        "output_dir": "out",
        **settings,
    }
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return path


def _gaussian(root: Path, seed: list[int], n: int, k: int, d: int) -> Path:
    plans_dir = root / "plans"
    values = np.random.default_rng([*seed, n, k, d]).standard_normal((n, k, d))
    checks.write_plans(plans_dir, values)
    return plans_dir


def _sweep(cli, config: Path, workdir: Path) -> Path:
    code = cli.main(["sweep", "--config", str(config), "--workdir", str(workdir)])
    if code != 0:
        raise RuntimeError(f"set-up sweep of {config.name} exited with {code}")
    return workdir / "out" / "runs.csv"


class Workload:
    """A sweep config plus the commands run on it.

    Every round runs the commands once for each of ``sets`` input sets drawn
    from the seed, so one round averages over that many datasets.
    """

    name = ""
    sets = 3
    n = k = d = 0
    severities: list[float] = LADDER
    scales: list[int] = []
    reps = 1
    workers = 1
    max_iterations = 40
    kind = "variance"
    scaling = "identity"
    analyze = False
    structural = False
    cap = 2
    sample = 6

    def settings(self, root: Path) -> dict:
        out = {"scales": self.scales, "runs_per_cell": self.reps, "workers": self.workers,
               "max_iterations": self.max_iterations}
        if self.severities != LADDER:
            out["severities"] = self.severities
        if self.kind == "rss":
            files = [str((root / "targets" / f"t{i}.target").resolve()) for i in range(2)]
            out["inefficiency"] = {"kind": "rss", "scaling": self.scaling, "target_files": files}
            out["combination_cap"] = self.cap
        return out

    def prepare(self, cli, root: Path, seed: int, index: int) -> Inputs:
        """Write input set ``index`` of ``seed`` under ``root``."""
        root.mkdir(parents=True, exist_ok=True)
        plans_dir = _gaussian(root, [seed, index], self.n, self.k, self.d)
        targets = []
        if self.kind == "rss":
            rng = np.random.default_rng([seed, index, 7])
            perms = set()
            while len(perms) < 2:
                perms.add(tuple(float(v) for v in rng.permutation(LEVELS)))
            targets = sorted(perms)
            for i, values in enumerate(targets):
                path = root / "targets" / f"t{i}.target"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(",".join(repr(v) for v in values) + "\n", encoding="utf-8")
        config = _config(root / "sweep.yaml", plans_dir, master_seed=100 * seed + index,
                         **self.settings(root))
        spec = {
            "n": self.n, "severities": self.severities, "scales": self.scales,
            "reps": self.reps, "kind": self.kind, "scaling": self.scaling,
            "cap": self.cap, "max_iterations": self.max_iterations, "plans_dir": plans_dir,
            "targets": targets, "signals": [str(i) for i in range(len(targets))] or [""],
        }
        return Inputs(index=index, spec=spec, configs={"sweep": config})

    def round_ops(self, inputs: list[Inputs], rnd: Path) -> list[Op]:
        ops = []
        for one in inputs:
            for op in self.ops(one, rnd / f"set-{one.index}"):
                op.input_set = one.index
                ops.append(op)
        return ops

    def ops(self, inputs: Inputs, rnd: Path) -> list[Op]:
        config = str(inputs.configs["sweep"])
        out = rnd / "out"
        ops = [Op("sweep", ["sweep", "--config", config, "--workdir", str(rnd)], out / "runs.csv")]
        if self.structural:
            for mode in ("layer", "cumulative"):
                ops.append(Op("structural", ["structural", "--config", config, "--workdir",
                                             str(rnd), "--mode", mode],
                              out / f"structural_{mode}.csv"))
        if self.analyze:
            results = [str(op.output) for op in ops]
            ops.append(Op("analyze", ["analyze", "--results", *results, "--out", str(rnd / "analysis")]))
        return ops

    # ------------------------------------------------------------ checks

    def check(self, advplan, inputs: Inputs, rnd: Path, seed: int) -> list[str]:
        """Problems found in the outputs one round wrote for ``inputs``."""
        rnd = rnd / f"set-{inputs.index}"
        spec = inputs.spec
        n = spec["n"]
        signals = spec["signals"]
        problems = []
        sweep_rows = checks.read_rows(rnd / "out" / "runs.csv")
        expected = checks.sweep_row_count(spec["severities"], spec["scales"], spec["reps"], len(signals))
        problems += checks.check_rows(sweep_rows, expected, n, spec["max_iterations"])
        problems += checks.check_grid(sweep_rows, spec["severities"], spec["scales"], spec["reps"], signals)
        all_rows = list(sweep_rows)
        if self.structural:
            layer = checks.read_rows(rnd / "out" / "structural_layer.csv")
            cumulative = checks.read_rows(rnd / "out" / "structural_cumulative.csv")
            problems += checks.check_rows(
                layer, checks.layer_row_count(n, spec["cap"], spec["severities"], len(signals)),
                n, spec["max_iterations"])
            problems += checks.check_rows(
                cumulative, 2 * n * len(spec["severities"]) * len(signals), n, spec["max_iterations"])
            problems += checks.check_structural(layer, n, "layer")
            problems += checks.check_structural(cumulative, n, "cumulative")
            all_rows += layer + cumulative
        if problems:
            return problems
        if self.analyze:
            problems += checks.check_analysis(rnd / "analysis", all_rows, self.structural)
        rng = np.random.default_rng([seed, inputs.index, 99])
        picks = [all_rows[i] for i in rng.choice(len(all_rows), size=min(self.sample, len(all_rows)),
                                                 replace=False)]
        values, discs = checks.read_plans(spec["plans_dir"], n)
        problems += checks.rerun_rows(advplan, picks, spec, values, discs)
        return problems


class GridSmall(Workload):
    name = "grid-small"
    n, k, d = 50, 4, 2
    scales = [0, 10, 25, 50]
    analyze = True


class EngineLarge(Workload):
    name = "engine-large"
    sets = 1
    n, k, d = 1000, 10, 24
    severities = [0.5, 1.0]
    scales = [0, 250, 1000]
    # Nearly every run would take 7-12 iterations; the cap fixes the work per
    # run, so the run rate does not swing with how fast a dataset converges.
    max_iterations = 6
    sample = 1


class StructuralRss(Workload):
    name = "structural-rss"
    sets = 2
    n, k, d = 24, 3, 5
    severities = [0.5, 1.0]
    scales = [0, 3, 6, 12, 18, 24]
    kind, scaling = "rss", "min-max"
    analyze = structural = True


class ResumeParallel(Workload):
    """grid-small's sweep at two workers, resumed from the first half of its
    repetitions; a second resume starts from a partial with a torn last row."""

    name = "resume-parallel"
    n, k, d = 50, 4, 2
    scales = [0, 10, 25, 50]
    reps = 2
    workers = 2
    # The torn-tail resume uses inputs fixed apart from the seed.
    torn_settings = {"severities": [0.5, 1.0], "scales": [0, 5, 20], "runs_per_cell": 2,
                     "max_iterations": 40, "master_seed": 0}

    def prepare(self, cli, root: Path, seed: int, index: int) -> Inputs:
        inputs = super().prepare(cli, root, seed, index)
        half = _config(root / "half.yaml", inputs.spec["plans_dir"], master_seed=100 * seed + index,
                       **{**self.settings(root), "runs_per_cell": self.reps // 2})
        inputs.partial = root / "half.partial.csv"
        shutil.move(_sweep(cli, half, root / "half"), inputs.partial)

        torn_root = root / "torn"
        plans = _gaussian(torn_root, [0], 20, 3, 2)
        torn = _config(torn_root / "sweep.yaml", plans, workers=2, **self.torn_settings)
        half_torn = _config(torn_root / "half.yaml", plans,
                            **{**self.torn_settings, "runs_per_cell": 1})
        inputs.torn_expected = _sweep(cli, torn, torn_root / "full").read_bytes()
        text = _sweep(cli, half_torn, torn_root / "half").read_text(encoding="utf-8")
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        inputs.torn = torn_root / "torn.partial.csv"
        inputs.torn.write_text(text[: text.rstrip("\n").rindex("\n") + 1 + len(last) // 2],
                               encoding="utf-8")
        inputs.configs["torn"] = torn
        return inputs

    def ops(self, inputs: Inputs, rnd: Path) -> list[Op]:
        return [Op("resume", ["sweep", "--config", str(inputs.configs["sweep"]), "--workdir",
                              str(rnd), "--resume"], rnd / "out" / "runs.csv", partial=inputs.partial)]

    def round_ops(self, inputs: list[Inputs], rnd: Path) -> list[Op]:
        torn = inputs[0]
        return super().round_ops(inputs, rnd) + [
            Op("torn", ["sweep", "--config", str(torn.configs["torn"]), "--workdir",
                        str(rnd / "torn"), "--resume"], rnd / "torn" / "out" / "runs.csv",
               partial=torn.torn, expected=torn.torn_expected, timed=False)]

    def check(self, advplan, inputs: Inputs, rnd: Path, seed: int) -> list[str]:
        rnd = rnd / f"set-{inputs.index}"
        spec = inputs.spec
        rows = checks.read_rows(rnd / "out" / "runs.csv")
        problems = checks.check_rows(
            rows, checks.sweep_row_count(spec["severities"], spec["scales"], spec["reps"], 1),
            spec["n"], spec["max_iterations"])
        problems += checks.check_grid(rows, spec["severities"], spec["scales"], spec["reps"], [""])
        lines = (rnd / "out" / "runs.csv").read_text(encoding="utf-8").splitlines()[1:]
        reused = set(inputs.partial.read_text(encoding="utf-8").splitlines()[1:])
        if not reused <= set(lines):
            problems.append("rows of the partial file are missing from runs.csv")
        if problems:
            return problems
        # Rows the pool workers computed must equal the same runs executed
        # serially in this process.
        fresh = [r for r, line in zip(rows, lines) if line not in reused]
        rng = np.random.default_rng([seed, inputs.index, 99])
        picks = [fresh[i] for i in rng.choice(len(fresh), size=min(self.sample, len(fresh)),
                                              replace=False)]
        values, discs = checks.read_plans(spec["plans_dir"], spec["n"])
        problems += checks.rerun_rows(advplan, picks, spec, values, discs)
        return problems


WORKLOADS = {w.name: w for w in (GridSmall(), EngineLarge(), StructuralRss(), ResumeParallel())}
