"""The analysis layer end to end: pinned output bytes, cell means bit for bit,
and the names a traced ``analyze`` is measured through."""

import csv
import hashlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
import yaml

import advplan.harness as harness_mod
from advplan.cli import main
from advplan.errors import InvalidInputError
from advplan.harness import CSV_COLUMNS, RunRecord
from advplan.plans import generate_gaussian_plans, save_plan_sets

GOLDEN_SIGNALS = ('s,"q', "t")
# Rows per cell, in turn: around numpy's pairwise threshold of 8 and past it.
CELL_SIZES = (1, 2, 7, 8, 9, 33)


def golden_rows() -> list[RunRecord]:
    """A fixed results set: random, layer and cumulative rows of two signals,
    cells of ``CELL_SIZES`` rows, exact zeros of both signs (a severity of
    -0.0 among them), a ragged grid and a degenerate metric for signal ``t``,
    in shuffled order."""
    rng = np.random.default_rng(20)
    sizes = itertools.cycle(CELL_SIZES)
    n, rows, seeds = 12, [], itertools.count(1000)

    def row(signal, beta, count, mode, layer=None, direction="", m=None, zero=None):
        ineff = float(rng.lognormal(0.0, 3.0))
        total = 0.5 if signal == "t" else float(rng.random())
        legit = float(rng.random())
        comp = zero if zero is not None else float(rng.normal(0.0, 0.1))
        fraction = -0.0 if (signal, count) == ("t", 0) else count / n
        return RunRecord("golden", signal, 3, next(seeds), beta, count, fraction, mode,
                         layer, direction, m, ineff, total, legit, comp, int(rng.integers(1, 9)))

    for signal in GOLDEN_SIGNALS:
        for beta in (-0.0, 0.25, 0.5, 0.75, 1.0):
            for count in (0, 3, 6, 12):
                if signal == "t" and (beta, count) == (1.0, 12):
                    continue
                zero = {0: 0.0, 12: -0.0}.get(count)
                rows += [row(signal, beta, count, "random", zero=zero) for _ in range(next(sizes))]
        for layer, count, beta in itertools.product((1, 2, 3), (1, 2), (0.5, 1.0)):
            rows += [row(signal, beta, count, "layer", layer=layer) for _ in range(next(sizes))]
        directions = ("top_down", "bottom_up")
        for direction, m, beta in itertools.product(directions, (1, 2, 3), (0.5, 1.0)):
            rows.append(row(signal, beta, m, "cumulative", direction=direction, m=m))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def write_rows(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return path


def digests(root: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in sorted(root.iterdir())
    }


# The first 16 hex digits of each output's sha256, as written before the
# analysis worked from columns.
GOLDEN = {
    "excluded": {
        'cells.csv': '12c025b05b22142c',
        'cumulative_cells.csv': '323b44a99b64cca9',
        'fronts.csv': 'a909e61cd09aa9cd',
        'heatmap_s,"q_compromised.csv': '0e992d27cc3d5db3',
        'heatmap_s,"q_compromised.svg': '75008d425816f245',
        'heatmap_s,"q_cumulative_bottom_up.svg': 'ae299ebe5b637511',
        'heatmap_s,"q_cumulative_top_down.svg': '6b139ceca9866747',
        'heatmap_s,"q_discomfort_legit.csv': '5fa32a78751d9690',
        'heatmap_s,"q_discomfort_legit.svg': '7a24f12e66518473',
        'heatmap_s,"q_discomfort_total.csv': '6bf33d11567fa6d0',
        'heatmap_s,"q_discomfort_total.svg': '910b28fe291f3215',
        'heatmap_s,"q_inefficiency.csv': 'efe0efcb1861a36f',
        'heatmap_s,"q_inefficiency.svg': '80eaa84567b55692',
        'heatmap_t_cumulative_bottom_up.svg': 'f774f3f787f224ce',
        'heatmap_t_cumulative_top_down.svg': '9054f8a6b1a0306a',
        'layer_cells.csv': 'c4fe0d364954ca81',
        'thresholds.csv': 'fa836535f75f46f4',
        'zones.csv': 'aa42a1dcd9535e6c',
    },
    "bins5": {
        'cells.csv': '7fc277e6ba404e33',
        'cumulative_cells.csv': '323b44a99b64cca9',
        'fronts.csv': '5cc55130656abd01',
        'heatmap_s,"q_compromised.csv': '64f612eb77299e2f',
        'heatmap_s,"q_compromised.svg': 'e3b9ca82279f9ee3',
        'heatmap_s,"q_cumulative_bottom_up.svg': 'ae299ebe5b637511',
        'heatmap_s,"q_cumulative_top_down.svg': '6b139ceca9866747',
        'heatmap_s,"q_discomfort_legit.csv': '8ab0f558113ba57c',
        'heatmap_s,"q_discomfort_legit.svg': '59c2103fc148ed8c',
        'heatmap_s,"q_discomfort_total.csv': 'ba80bac3c5638070',
        'heatmap_s,"q_discomfort_total.svg': 'f113224a53af0177',
        'heatmap_s,"q_inefficiency.csv': '520180ce3f6a9dab',
        'heatmap_s,"q_inefficiency.svg': 'a8ceba754bf8d2fc',
        'heatmap_t_cumulative_bottom_up.svg': 'f774f3f787f224ce',
        'heatmap_t_cumulative_top_down.svg': '9054f8a6b1a0306a',
        'layer_cells.csv': 'c4fe0d364954ca81',
        'thresholds.csv': 'd4b534a0ff6a87d1',
        'zones.csv': '4f5e4aff414a8511',
    },
}


def test_analyze_outputs_keep_their_pinned_bytes(tmp_path):
    """Every file two ``analyze`` runs write over the golden set, by sha256."""
    results = write_rows(tmp_path / "runs.csv", golden_rows())
    runs = {
        "excluded": ["--exclude-beta", "0.75"],
        "bins5": ["--bins", "5"],
    }
    for name, extra in runs.items():
        out = tmp_path / name
        with pytest.warns(UserWarning, match="metric 'discomfort_total' of signal 't'"):
            assert main(["analyze", "--results", str(results), "--out", str(out), *extra]) == 0
        assert digests(out) == GOLDEN[name], name


def unzoned_rows() -> list[RunRecord]:
    """Signal ``u`` has cumulative rows and no random grid; signal ``v`` has
    a complete random grid whose ``inefficiency`` takes two values, and
    cumulative rows. Neither has inefficiency thresholds to letter its
    cumulative heatmaps with."""
    rng = np.random.default_rng(22)
    rows, seeds = [], itertools.count(1)

    def row(signal, beta, count, mode, ineff, direction="", m=None):
        return RunRecord("unzoned", signal, 0, next(seeds), beta, count, count / 8, mode, None,
                         direction, m, ineff, *rng.random(3).tolist(), int(rng.integers(1, 5)))

    for beta, count in itertools.product((0.5, 1.0), (0, 2, 4)):
        rows += [row("v", beta, count, "random", 1.0 + (count > 2)) for _ in range(3)]
    for signal, direction, m, beta in itertools.product(
        ("u", "v"), ("top_down", "bottom_up"), (1, 2, 3), (0.5, 1.0)
    ):
        rows.append(row(signal, beta, m, "cumulative", float(rng.lognormal()), direction, m))
    return [rows[i] for i in rng.permutation(len(rows))]


# sha256 prefixes, as written before ``analyze`` computed everything before it wrote.
UNZONED_GOLDEN = {
    'cells.csv': '88c5f015b923c8e7',
    'cumulative_cells.csv': 'f37474456fb1d3bb',
    'fronts.csv': '48d702e161887fe0',
    'heatmap_u_cumulative_bottom_up.svg': '2dc5e4ca042272c3',
    'heatmap_u_cumulative_top_down.svg': '7ed4084eaf56336f',
    'heatmap_v_compromised.csv': '219c08f9a0549077',
    'heatmap_v_compromised.svg': '2e8ceb588c1afedd',
    'heatmap_v_cumulative_bottom_up.svg': 'ed0d17866c284c3f',
    'heatmap_v_cumulative_top_down.svg': 'e816181ee9cdcc46',
    'heatmap_v_discomfort_legit.csv': '6e20b8221b31f520',
    'heatmap_v_discomfort_legit.svg': '9b8e31750706362f',
    'heatmap_v_discomfort_total.csv': 'dd9f8b51cc2d3a22',
    'heatmap_v_discomfort_total.svg': 'c3cc1a9bc68f575d',
    'heatmap_v_inefficiency.csv': '26fb0bd9c789e434',
    'heatmap_v_inefficiency.svg': 'ea83dcb25e1f461a',
    'thresholds.csv': '41ce15e7a1a08649',
    'zones.csv': '8d6befdce216c015',
}


def test_unzoned_cumulative_heatmaps_keep_their_pinned_bytes(tmp_path):
    """Cumulative heatmaps of a signal without a random grid, and of one with
    a degenerate random ``inefficiency``, are drawn without zone letters."""
    results = write_rows(tmp_path / "runs.csv", unzoned_rows())
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="metric 'inefficiency' of signal 'v' is degenerate"):
        assert main(["analyze", "--results", str(results), "--out", str(out)]) == 0
    assert digests(out) == UNZONED_GOLDEN
    for name in ("u", "v"):
        for direction in ("top_down", "bottom_up"):
            svg = (out / f"heatmap_{name}_cumulative_{direction}.svg").read_text()
            assert 'font-size="9"' not in svg


def test_a_degenerate_metric_spanning_no_finite_range_is_refused_before_any_write(tmp_path):
    """A random grid whose ``discomfort_total`` takes only -1e308 and 1e308
    has no Otsu thresholds to check it, and its heatmap cannot be coloured;
    ``analyze`` refuses it before it writes a file."""
    rows = [
        RunRecord("d", "", 0, seed, beta, count, count / 4, "random", None, "", None,
                  float(seed), (-1e308, 1e308)[seed % 2], float(count), 0.5 * seed, 1)
        for seed, (beta, count) in enumerate(itertools.product((0.5, 1.0), (0, 2, 4)))
    ]
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="metric 'discomfort_total' of signal '' is degenerate"):
        with pytest.raises(InvalidInputError,
                           match="metric 'discomfort_total' of signal '': means from -1e"):
            harness_mod.analyze(harness_mod.SweepGrid(rows), output_dir=out)
    assert not out.exists()


def test_cell_means_equal_each_cells_own_mean_bit_for_bit():
    """A cell's mean sums its rows in sort-key order, as its own 1-D
    ``.mean()`` does, whatever the row order and the mix of cell sizes."""
    rng = np.random.default_rng(4)
    sizes = [1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64, 127, 128, 129, 500, 1025] * 2
    rows = []
    for index, size in enumerate(sizes):
        beta = 0.25 * (1 + index % 4)
        for _ in range(size):
            scale = 10.0 ** rng.integers(-8, 9, size=4)
            a, b, c, d = (rng.standard_normal(4) * scale).tolist()
            rows.append(RunRecord("d", "", 0, int(rng.integers(2**31)), beta, index, 0.5,
                                  "random", None, "", None, a, b, c, d, 1))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = harness_mod._cell_table(list(rows), "random")
    by_cell: dict = {}
    for r in sorted(rows, key=RunRecord.sort_key):
        by_cell.setdefault((r.signal_id, r.beta, r.adv_count), []).append(r)
    assert table.keys == sorted(by_cell)
    for cell, (key, members) in enumerate(sorted(by_cell.items())):
        assert table.run_count[cell] == len(members)
        for metric in ("inefficiency", "discomfort_total", "discomfort_legit", "compromised"):
            own = float(np.array([getattr(r, metric) for r in members]).mean())
            assert float(table.means[metric][cell]).hex() == own.hex(), (key, metric)


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_owner_resolves():
    """The benchmark's tracer finds each module and class it wraps names on;
    one that moved would make every traced round raise ``AttributeError``."""
    tracing = _tracing()
    owners = {path for path, _ in tracing.LEAVES.values()}
    owners |= {path for path, _, _ in tracing.SPANS}
    assert "advplan.harness:SweepGrid" in owners
    for path in sorted(owners):
        assert tracing._resolve(path) is not None, path


def test_analyze_calls_every_traced_analysis_name(tmp_path):
    """Each ``advplan.harness`` name that the benchmark's tracer wraps to time
    the analysis is called by one ``advplan analyze``, so none of those
    per-layer spans can read 0 while the work goes elsewhere."""
    tracing = _tracing()
    names = {span for owner, _, span in tracing.SPANS
             if span.startswith(("analytics.", "heatmap.", "harness.csv_read"))}
    assert names == {"analytics.multi_otsu", "analytics.fronts", "heatmap.render",
                     "harness.csv_read"}
    results = write_rows(tmp_path / "runs.csv", golden_rows())
    tracer = tracing.Tracer(tmp_path / "trace")
    tracer.install()
    try:
        with pytest.warns(UserWarning):
            assert main(["analyze", "--results", str(results), "--out", str(tmp_path / "a")]) == 0
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    assert names <= called, sorted(names - called)
    wrapped = [(owner, attr) for owner, attr, span in tracing.SPANS if span in names]
    assert all(owner.startswith("advplan.harness") for owner, _ in wrapped)
    assert {attr for _, attr in wrapped} == {
        "multi_otsu", "pareto_front", "knee_mmd", "render_heatmap", "read_csv"}
    fronts = [span[0] for span in tracer.spans if span[0] == "analytics.fronts"]
    # A front and its knee per fixed severity and per fixed count of signal s,"q.
    assert len(fronts) == 2 * (5 + 4)


@pytest.mark.parametrize("command", [
    ["sweep"], ["sweep", "--resume"], ["structural", "--mode", "layer"],
    ["structural", "--mode", "cumulative"], ["estimate"], ["run"],
])
def test_each_command_loads_a_plan_directory_once_through_the_traced_name(
    tmp_path, monkeypatch, command
):
    """Each command on a files dataset calls ``advplan.harness.load_plan_sets``,
    the name the benchmark's ``plans.load`` span wraps, exactly once: on its
    first run, which parses the files and writes the plan cache, and on its
    second, which reads that cache. So the span times cold and warm loads."""
    assert ("advplan.harness", "load_plan_sets", "plans.load") in _tracing().SPANS
    plans = tmp_path / "plans"
    save_plan_sets(generate_gaussian_plans(6, 2, 2, seed=4), plans)
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({
        "dataset": {"kind": "files", "plans_dir": "plans"}, "severities": [0.5, 1.0],
        "scales": [0, 2], "placements": ["random", "layer", "cumulative"], "output_dir": "out",
    }))
    if command == ["run"]:
        argv = ["run", "--plans-dir", str(plans), "--severity", "0.5", "--count", "2"]
    else:
        argv = [command[0], "--config", str(config), *command[1:]]
    calls = []
    load = harness_mod.load_plan_sets
    monkeypatch.setattr(harness_mod, "load_plan_sets", lambda path: calls.append(path) or load(path))
    for run in (1, 2):
        assert main(argv) == 0
        assert len(calls) == run
        assert len(list(plans.glob(".advplan-plans-*.npy"))) == 1


def test_cell_mean_texts_write_the_bytes_of_their_floats(tmp_path):
    """``analyze`` hands ``_write_csv`` each cell mean as its ``repr``, which
    never needs quoting, so a row gives the bytes of the float itself."""
    floats = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.1 + 0.2, 1e16, 123456789.0,
              float("nan"), float("inf"), -float("inf")]
    rows = [[None, True, 3, 's,"q', " two\nlines ", value] for value in floats]
    header = ["a", "b", "c", "d", "e", "mean"]
    harness_mod._write_csv(tmp_path / "floats.csv", header, rows)
    harness_mod._write_csv(tmp_path / "texts.csv", header,
                           [[*row[:-1], repr(row[-1])] for row in rows])
    assert (tmp_path / "texts.csv").read_bytes() == (tmp_path / "floats.csv").read_bytes()
