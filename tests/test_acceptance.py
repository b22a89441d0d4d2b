"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from advplan.adversary import beta_rows, random_adversaries, severity_grid
from advplan.analytics import RvcLabel, knee_mmd, multi_otsu, pareto_front, rvc_bands
from advplan.config import DatasetSpec, SweepConfig
from advplan.engine import BehaviorProfile, RunConfig, run, run_baseline
from advplan.harness import _cell_table, estimate_experiment_count, run_sweep
from advplan.plans import PlanSet, generate_gaussian_plans
from advplan.topology import build_balanced_binary


def report(number: int, ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {message}")


def test_criterion_01_layer_counts():
    start = time.perf_counter()
    got = {n: build_balanced_binary(n).layer_count for n in (1000, 266, 72)}
    elapsed = time.perf_counter() - start
    ok = got == {1000: 10, 266: 9, 72: 7} and elapsed < 1.0
    report(1, ok, f"layer counts 1000/266/72 -> {got[1000]}/{got[266]}/{got[72]} ({elapsed:.3f}s)")
    assert got == {1000: 10, 266: 9, 72: 7}
    assert elapsed < 1.0


def test_criterion_02_severity_grid():
    grid = severity_grid()
    ok = grid == [b / 30 for b in range(1, 31)] and len(grid) == 30 and grid[-1] == 1.0
    report(2, ok, f"severity grid has {len(grid)} levels, last={grid[-1]}")
    assert ok


def test_criterion_03_experiment_accounting():
    energy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=1000, plans=10),
        placements=("random", "layer", "cumulative"),
    )
    privacy = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=72, plans=3),
        placements=("random", "layer", "cumulative"),
        inefficiency_kind="rss",
        target_files=("high.target", "low.target"),
    )
    got = tuple(estimate_experiment_count(cfg, cfg.dataset.agents) for cfg in (energy, privacy))
    ok = got == (3_118_560, 498_780)
    report(3, ok, f"experiment totals energy={got[0]:,} privacy={got[1]:,}")
    assert got == (3_118_560, 498_780)


def test_criterion_04_degenerate_behavior():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    n, k = 100, 5
    plan_sets = []
    for agent in range(1, n + 1):
        discomforts = rng.permutation(k).astype(float)
        values = [rng.normal(size=3) for _ in discomforts]
        plan_sets.append(PlanSet(agent_id=agent, values=values, discomforts=discomforts))
    topology = build_balanced_binary(n, permutation_seed=1)
    selfish = run(topology, plan_sets, BehaviorProfile(beta=np.ones(n)), RunConfig())
    by_id = {ps.agent_id: ps for ps in plan_sets}
    min_ok = all(
        by_id[a].discomforts()[i] == by_id[a].discomforts().min()
        for a, i in selfish.selections.items()
    )
    response_ok = np.allclose(
        selfish.global_response,
        np.sum([by_id[a].value_matrix()[i] for a, i in selfish.selections.items()], axis=0),
    )

    forced_sets = generate_gaussian_plans(60, 1, 2, seed=3)
    forced = run_baseline(build_balanced_binary(60, permutation_seed=3), forced_sets, RunConfig())
    forced_ok = (
        all(i == 0 for i in forced.selections.values()) and forced.iterations_used == 1
    )
    elapsed = time.perf_counter() - start
    ok = min_ok and response_ok and forced_ok and elapsed < 1.0
    report(4, ok, f"beta=1 picks min discomfort, k=1 forced ({elapsed:.3f}s)")
    assert min_ok and response_ok and forced_ok
    assert elapsed < 1.0


def test_criterion_05_brute_force_optimality_gap():
    start = time.perf_counter()
    hits = 0
    for seed in range(50):
        plan_sets = generate_gaussian_plans(6, 3, 2, seed=seed)
        topology = build_balanced_binary(6, permutation_seed=seed)
        outcome = run_baseline(topology, plan_sets, RunConfig())
        mats = [ps.value_matrix() for ps in plan_sets]
        optimum = min(
            float(np.var(sum(m[i] for m, i in zip(mats, combo))))
            for combo in itertools.product(range(3), repeat=6)
        )
        assert outcome.global_inefficiency >= optimum - 1e-12, "heuristic beat enumeration"
        if outcome.global_inefficiency <= 1.1 * optimum + 1e-15:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 45 and elapsed < 30.0
    report(
        5,
        ok,
        f"within 10% of the 3^6 optimum in {hits}/50 seeds, never below ({elapsed:.1f}s)",
    )
    assert elapsed < 30.0
    assert hits >= 45, (
        f"only {hits}/50 runs landed within 10% of the enumerated optimum. "
        "The d=2 variance objective makes these instances number-partitioning "
        "needles (median optimum ~1e-5 while any single-start descent plateaus "
        "orders of magnitude higher in ratio, even 3-opt steepest descent "
        "reaches only ~29/50); see the decisions ledger for the full analysis."
    )


def test_criterion_06_monotone_traces():
    rng = np.random.default_rng(6)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        plan_sets = generate_gaussian_plans(n, k, d, seed=trial)
        topology = build_balanced_binary(n, permutation_seed=trial)
        count = int(rng.integers(0, n + 1))
        beta = float(rng.uniform(1 / 30, 1.0))
        adversaries = random_adversaries(topology, count, seed=trial)
        profile = BehaviorProfile(beta_rows(topology, [adversaries], [beta])[0])
        outcome = run(topology, plan_sets, profile, RunConfig())
        trace = outcome.combined_cost_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])), f"trial {trial}"
        checked += 1
    report(6, checked == 200, f"combined-cost trace non-increasing in {checked}/200 runs")
    assert checked == 200


def _oracle_front(points):
    pts = sorted(set(points))
    return [
        p
        for p in pts
        if not any(
            q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]) for q in pts
        )
    ]


def _oracle_knee(front):
    xs = [p[0] for p in front]
    ys = [p[1] for p in front]
    span_x, span_y = max(xs) - min(xs), max(ys) - min(ys)
    best = None
    for p in front:
        nx = (p[0] - min(xs)) / span_x if span_x > 0 else 0.0
        ny = (p[1] - min(ys)) / span_y if span_y > 0 else 0.0
        key = (nx + ny, p[0], p[1])
        if best is None or key < best[0]:
            best = (key, p)
    return best[1]


def test_criterion_07_front_and_knee_oracles():
    rng = np.random.default_rng(7)
    agreements = 0
    for trial in range(1000):
        size = int(rng.integers(1, 21))
        if trial % 3 == 0:
            points = [tuple(map(float, rng.integers(0, 8, size=2))) for _ in range(size)]
        else:
            points = [tuple(map(float, rng.normal(size=2))) for _ in range(size)]
        front = pareto_front(points)
        if front != _oracle_front(points):
            continue
        if knee_mmd(front) != _oracle_knee(front):
            continue
        agreements += 1
    report(7, agreements == 1000, f"front+knee oracle agreement on {agreements}/1000 sets")
    assert agreements == 1000


def _oracle_otsu(values, classes, bins):
    values = np.asarray(values, dtype=float)
    hist, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2
    total = hist.sum()
    mu_total = float((hist * centers).sum() / total)
    scored = []
    for cuts in itertools.combinations(range(bins - 1), classes - 1):
        bounds = [-1, *cuts, bins - 1]
        sigma = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            w = hist[lo + 1 : hi + 1].sum()
            if w > 0:
                mu = float((hist[lo + 1 : hi + 1] * centers[lo + 1 : hi + 1]).sum() / w)
                sigma += (w / total) * (mu - mu_total) ** 2
        scored.append((cuts, sigma))
    best = max(s for _, s in scored)
    winners = np.array([c for c, s in scored if s >= best - 1e-9 * abs(best)])
    mids = [
        (int(winners[:, j].min()) + int(winners[:, j].max())) // 2
        for j in range(classes - 1)
    ]
    return [float(edges[m + 1]) for m in mids]


def test_criterion_08_multi_otsu_oracle():
    rng = np.random.default_rng(8)
    agreements = 0
    for trial in range(100):
        bins = int(rng.integers(8, 65))
        centers = rng.uniform(0, 10, size=3)
        values = np.concatenate(
            [rng.normal(loc=c, scale=rng.uniform(0.1, 1.0), size=15) for c in centers]
        )
        if multi_otsu(values, bins=bins) == _oracle_otsu(values, 3, bins):
            agreements += 1
    clusters = [0.0] * 30 + [5.0] * 30 + [10.0] * 30
    t1, t2 = multi_otsu(clusters, bins=256)
    labels = tuple(tuple(RvcLabel)[b] for b in rvc_bands([0.0, 5.0, 10.0], (t1, t2)))
    labels_ok = labels == (RvcLabel.RESILIENCE, RvcLabel.VULNERABILITY, RvcLabel.COLLAPSE)
    ok = agreements == 100 and labels_ok
    report(8, ok, f"otsu oracle agreement {agreements}/100; 3-cluster labels R/V/C={labels_ok}")
    assert agreements == 100
    assert labels_ok


def test_criterion_09_gaussian_trend(tmp_path):
    start = time.perf_counter()
    cfg = SweepConfig(
        dataset=DatasetSpec(kind="gaussian", agents=20, plans=4, dim=2, seed=0),
        severities=(0.9,),
        scales=(0, 4, 8, 12, 16, 20),
        runs_per_cell=30,
        output_dir=str(tmp_path),
        master_seed=2026,
    )
    grid = run_sweep(cfg)
    table = _cell_table(grid.rows, "random")
    cell = {key: i for i, key in enumerate(table.keys)}
    counts = sorted(key[2] for key in cell)
    inefficiency = [table.means["inefficiency"][cell[("", 0.9, c)]] for c in counts]
    discomfort = [table.means["discomfort_total"][cell[("", 0.9, c)]] for c in counts]
    rho = float(spearmanr(counts, inefficiency).statistic)
    monotone = all(b <= a + 1e-9 for a, b in zip(discomfort, discomfort[1:]))
    elapsed = time.perf_counter() - start
    ok = rho > 0.5 and monotone and elapsed < 300.0
    report(
        9,
        ok,
        f"inefficiency-vs-scale spearman={rho:.2f}, discomfort non-increasing={monotone} "
        f"({elapsed:.1f}s)",
    )
    assert rho > 0.5
    assert monotone
    assert elapsed < 300.0


def test_criterion_10_determinism(tmp_path):
    def cfg(out):
        return SweepConfig(
            dataset=DatasetSpec(kind="gaussian", agents=10, plans=3, dim=2, seed=2),
            severities=(0.5, 1.0),
            scales=(0, 3, 7, 10),
            runs_per_cell=2,
            output_dir=str(out),
            master_seed=99,
        )

    run_sweep(cfg(tmp_path / "first"))
    run_sweep(cfg(tmp_path / "second"))
    first = (tmp_path / "first" / "runs.csv").read_bytes()
    second = (tmp_path / "second" / "runs.csv").read_bytes()
    ok = first == second and len(first) > 0
    report(10, ok, f"two sweep executions byte-identical ({len(first)} bytes)")
    assert ok
