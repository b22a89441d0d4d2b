"""Correctness checks computed apart from the program under test.

Everything here re-derives expected results with the benchmark's own numpy:
row counts from the grid and the tree's layer sizes, seeds and placements,
response sums and costs from the selections an engine run returns, cell
means, exhaustive multi-Otsu thresholds with the plateau-midpoint rule,
dominance fronts and MMD knees. Only ``advplan.run`` and the public input
constructors are called, to re-execute sampled rows.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import itertools
import math
import zlib
from pathlib import Path

import numpy as np

COLUMNS = (
    "dataset", "signal_id", "master_seed", "run_seed", "beta", "adv_count",
    "adv_fraction", "placement_mode", "layer", "direction", "m", "inefficiency",
    "discomfort_total", "discomfort_legit", "compromised", "iterations",
)
METRICS = ("inefficiency", "discomfort_total", "discomfort_legit", "compromised")
REVERSED = ("discomfort_total", "discomfort_legit")
LAYER_RATIOS = (25, 50, 75, 100)
TINY = 1e-12


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------- inputs

def write_plans(directory: Path, values: np.ndarray) -> None:
    """One ``agent_<id>.plans`` file per agent; plan i has discomfort i."""
    directory.mkdir(parents=True, exist_ok=True)
    for agent, plans in enumerate(values, start=1):
        lines = [
            f"{float(i)!r}:" + ",".join(repr(float(v)) for v in row)
            for i, row in enumerate(plans)
        ]
        (directory / f"agent_{agent}.plans").write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_plans(directory: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Values V[agent-1, plan, dim] and discomforts D[agent-1, plan]."""
    values, discs = [], []
    for agent in range(1, n + 1):
        text = (directory / f"agent_{agent}.plans").read_text(encoding="utf-8")
        rows = [line.split(":") for line in text.split("\n") if line.strip()]
        discs.append([float(head) for head, _ in rows])
        values.append([[float(v) for v in tail.split(",")] for _, tail in rows])
    return np.array(values), np.array(discs)


# ---------------------------------------------------------------- seeding

def derive_seed(master_seed: int, *tags) -> int:
    """The program's documented sub-seed scheme, re-derived here."""
    parts = [master_seed & 0xFFFFFFFF]
    for tag in tags:
        parts.append(zlib.crc32(tag.encode()) if isinstance(tag, str) else int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy=parts).generate_state(1)[0])


def tree_order(n: int, seed: int) -> list[int]:
    """Agent id at each breadth-first position 1..n."""
    return [int(a) + 1 for a in np.random.default_rng(seed).permutation(n)]


def layer_sizes(n: int) -> list[int]:
    sizes, first = [], 1
    while first <= n:
        sizes.append(min(2 * first - 1, n) - first + 1)
        first *= 2
    return sizes


def layer_counts(size: int) -> list[int]:
    return sorted({max(1, -(-p * size // 100)) for p in LAYER_RATIOS})


def k_subsets(population: list[int], k: int, cap: int, seed: int) -> list[frozenset]:
    population = sorted(population)
    if math.comb(len(population), k) <= cap:
        return [frozenset(c) for c in itertools.combinations(population, k)]
    rng = np.random.default_rng(seed)
    pool = np.array(population)
    seen, out = set(), []
    while len(out) < cap:
        pick = tuple(sorted(int(a) for a in rng.choice(pool, size=k, replace=False)))
        if pick not in seen:
            seen.add(pick)
            out.append(frozenset(pick))
    return out


# ---------------------------------------------------------------- CSV rows

def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"{path.name}: unexpected header {header}")
        rows = []
        for raw in reader:
            row = dict(zip(COLUMNS, raw))
            for col in ("master_seed", "run_seed", "adv_count", "iterations"):
                row[col] = int(row[col])
            for col in ("beta", "adv_fraction", *METRICS):
                row[col] = float(row[col])
            row["layer"] = int(row["layer"]) if row["layer"] else None
            row["m"] = int(row["m"]) if row["m"] else None
            rows.append(row)
    return rows


def sort_key(row: dict) -> tuple:
    return (
        row["dataset"], row["signal_id"], row["placement_mode"],
        -1 if row["layer"] is None else row["layer"], row["direction"],
        -1 if row["m"] is None else row["m"], row["beta"], row["adv_count"], row["run_seed"],
    )


def check_rows(rows: list[dict], expected: int, n: int, max_iterations: int) -> list[str]:
    """Count, order, uniqueness, iteration range and degenerate-case identities."""
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    keys = [sort_key(r) for r in rows]
    if keys != sorted(keys):
        problems.append("rows are not sorted")
    if len(set(keys)) != len(keys):
        problems.append("a sort key appears twice")
    for r in rows:
        tag = f"row {sort_key(r)}"
        if not 1 <= r["iterations"] <= max_iterations:
            problems.append(f"{tag}: iterations {r['iterations']}")
        if r["adv_fraction"] != r["adv_count"] / n:
            problems.append(f"{tag}: adv_fraction {r['adv_fraction']}")
        if r["adv_count"] == 0 and (
            r["compromised"] != 0.0 or r["discomfort_legit"] != r["discomfort_total"]
        ):
            problems.append(f"{tag}: no adversaries but legit/compromised differ")
        if r["beta"] == 1.0 and r["adv_count"] == n and r["discomfort_total"] != 0.0:
            problems.append(f"{tag}: all agents at beta 1 but discomfort {r['discomfort_total']}")
    return problems[:20]


def sweep_row_count(severities, scales, reps, signals) -> int:
    return len(severities) * len(scales) * reps * signals


def layer_row_count(n: int, cap: int, severities, signals) -> int:
    per = sum(min(cap, math.comb(size, c)) for size in layer_sizes(n) for c in layer_counts(size))
    return per * len(severities) * signals


def check_grid(rows, severities, scales, reps, signal_ids) -> list[str]:
    """Every (signal, severity, scale) cell holds exactly ``reps`` sweep rows."""
    cells: dict = {}
    for r in rows:
        key = (r["signal_id"], r["beta"], r["adv_count"])
        cells[key] = cells.get(key, 0) + 1
    want = {(s, b, c): reps for s in signal_ids for b in severities for c in scales}
    return [] if cells == want else ["sweep cells differ from the configured grid"]


def check_structural(rows, n: int, mode: str) -> list[str]:
    problems = []
    sizes = layer_sizes(n)
    for r in rows:
        if r["placement_mode"] != mode:
            problems.append(f"placement {r['placement_mode']} in {mode} output")
        elif mode == "layer" and not (
            r["layer"] and 1 <= r["layer"] <= len(sizes)
            and r["adv_count"] in layer_counts(sizes[r["layer"] - 1])
        ):
            problems.append(f"layer row {sort_key(r)} outside the tree's layers")
        elif mode == "cumulative" and not (
            r["direction"] in ("top_down", "bottom_up") and r["m"] == r["adv_count"]
        ):
            problems.append(f"cumulative row {sort_key(r)} malformed")
    return problems[:20]


# ---------------------------------------------------------------- engine re-runs

def cost(g: np.ndarray, kind: str, target, scaling: str) -> float:
    if kind == "variance":
        return float(np.var(g))

    def scale(v):
        if scaling == "identity":
            return v
        if scaling == "min-max":
            lo, hi = v.min(), v.max()
            return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)
        c = v - v.mean()
        norm = np.linalg.norm(c)
        return np.zeros_like(v) if norm == 0 else c / norm

    diff = scale(g) - scale(np.asarray(target, dtype=float))
    return float(diff @ diff)


def adversaries_of(row: dict, spec: dict, order0: list[int]) -> tuple[set[int], int]:
    """Re-derive a row's adversary set and its topology seed from its seeds."""
    n, master = spec["n"], row["master_seed"]
    si = int(row["signal_id"] or 0)
    bi = spec["severities"].index(row["beta"])
    count = row["adv_count"]
    mode = row["placement_mode"]
    if mode == "random":
        for rep in range(spec["reps"]):
            if derive_seed(master, "placement", si, bi, count, rep) == row["run_seed"]:
                break
        else:
            raise ValueError(f"no repetition reproduces run_seed {row['run_seed']}")
        rng = np.random.default_rng(row["run_seed"])
        adv = set() if count == 0 else {
            int(a) for a in rng.choice(np.arange(1, n + 1), size=count, replace=False)
        }
        return adv, derive_seed(master, "topology", rep)
    topo_seed = derive_seed(master, "topology", 0)
    if mode == "cumulative":
        span = range(1, row["m"] + 1) if row["direction"] == "top_down" else range(n, n - row["m"], -1)
        return {order0[p - 1] for p in span}, topo_seed
    first = 1 << (row["layer"] - 1)
    members = order0[first - 1:min(2 * first - 1, n)]
    configs = k_subsets(members, count, spec["cap"], derive_seed(master, "layercfg", row["layer"], count))
    for j, adv in enumerate(configs):
        if derive_seed(master, "layerrun", si, row["layer"], count, bi, j) == row["run_seed"]:
            return set(adv), topo_seed
    raise ValueError(f"no layer configuration reproduces run_seed {row['run_seed']}")


def rerun_rows(advplan, rows: list[dict], spec: dict, values, discs) -> list[str]:
    """Re-execute rows through ``advplan.run`` and recompute their metrics here.

    The engine's own inefficiency and iteration count must equal the CSV
    exactly (same inputs, same process or not); everything derived from the
    returned selections is recomputed with this module's numpy.
    """
    problems = []
    n, kind, scaling = spec["n"], spec["kind"], spec["scaling"]
    plan_sets = advplan.load_plan_sets(spec["plans_dir"])
    max_disc = discs.max(axis=1).mean()
    disc_ref = max_disc if max_disc > TINY else 1.0
    baselines: dict = {}
    for row in rows:
        target = None if kind == "variance" else spec["targets"][int(row["signal_id"])]
        tag = f"row {sort_key(row)}"
        adv, topo_seed = adversaries_of(row, spec, tree_order(n, derive_seed(row["master_seed"], "topology", 0)))
        topology = advplan.build_balanced_binary(n, permutation_seed=topo_seed)
        if list(topology.agent_at) != tree_order(n, topo_seed):
            problems.append(f"{tag}: topology differs from the documented permutation")
            continue
        ineff_fn = advplan.InefficiencyFn(kind=kind, target=target, scaling=scaling)

        def execute(beta_of: dict, seed: int):
            config = advplan.RunConfig(max_iterations=spec["max_iterations"],
                                       inefficiency=ineff_fn, rng_seed=seed)
            return advplan.run(topology, plan_sets, advplan.BehaviorProfile(beta=beta_of), config)

        outcome = execute({a: (row["beta"] if a in adv else 0.0) for a in range(1, n + 1)},
                          row["run_seed"])
        key = (topo_seed, row["signal_id"])
        if key not in baselines:
            baselines[key] = execute({a: 0.0 for a in range(1, n + 1)}, topo_seed)
        base = baselines[key]

        sel = np.array([outcome.selections[a] for a in range(1, n + 1)])
        base_sel = np.array([base.selections[a] for a in range(1, n + 1)])
        idx = np.arange(n)
        g = values[idx, sel].sum(axis=0)
        chosen = discs[idx, sel]
        legit = np.array([a not in adv for a in range(1, n + 1)])
        legit_mean = float(chosen[legit].mean()) if legit.any() else 0.0
        comp = legit_mean - float(discs[idx, base_sel][legit].mean()) if legit.any() else 0.0
        ineff = cost(g, kind, target, scaling)
        if outcome.global_inefficiency != row["inefficiency"] or outcome.iterations_used != row["iterations"]:
            problems.append(f"{tag}: re-executed run differs from the CSV row")
        for name, mine in (("inefficiency", ineff), ("discomfort_total", float(chosen.mean())),
                           ("discomfort_legit", legit_mean), ("compromised", comp)):
            if not close(mine, row[name]):
                problems.append(f"{tag}: {name} {row[name]!r}, recomputed {mine!r}")
        if not np.allclose(g, outcome.global_response, rtol=1e-9, atol=1e-9):
            problems.append(f"{tag}: response sum differs from the selections")

        # The scalarized cost the engine minimizes must not end above the
        # first-plan start.
        betas = np.where(legit, 0.0, row["beta"])
        mean_beta = float(betas.mean())
        first_g = values[:, 0].sum(axis=0)
        ref = cost(first_g, kind, target, scaling)
        ref = ref if ref > TINY else 1.0

        def scalarized(resp, disc):
            return (1 - mean_beta) * cost(resp, kind, target, scaling) / ref + mean_beta * disc.mean() / disc_ref

        if scalarized(g, chosen) > scalarized(first_g, discs[:, 0]) + 1e-9:
            problems.append(f"{tag}: final scalarized cost above the first-plan cost")
    return problems


# ---------------------------------------------------------------- analysis

def multi_otsu(values, bins: int = 256) -> tuple[float, float] | None:
    """Exhaustive three-class Otsu over all bin splits, plateau midpoints."""
    data = np.asarray(values, dtype=float)
    if np.unique(data).size < 3:
        return None
    hist, edges = np.histogram(data, bins=bins)
    hist = hist.astype(float)
    centers = (edges[:-1] + edges[1:]) / 2.0
    w = np.cumsum(hist)
    mom = np.cumsum(hist * centers)
    total_w, total_mu = w[-1], mom[-1] / w[-1]
    i, j = np.triu_indices(bins - 1, k=1)

    def term(weight, moment):
        with np.errstate(divide="ignore", invalid="ignore"):
            part = (weight / total_w) * (moment / weight - total_mu) ** 2
        return np.where(weight > 0, part, 0.0)

    sigma = (term(w[i], mom[i]) + term(w[j] - w[i], mom[j] - mom[i])) + term(
        w[-1] - w[j], mom[-1] - mom[j]
    )
    best = sigma.max()
    keep = sigma >= best - 1e-9 * abs(best)
    t1 = edges[(int(i[keep].min()) + int(i[keep].max())) // 2 + 1]
    t2 = edges[(int(j[keep].min()) + int(j[keep].max())) // 2 + 1]
    return float(t1), float(t2)


def zone_of(value: float, pair, reverse: bool) -> str:
    if pair is None:
        return "resilience"
    band = 0 if value <= pair[0] else 1 if value <= pair[1] else 2
    band = 2 - band if reverse else band
    return ("resilience", "vulnerability", "collapse")[band]


def front_and_knee(points: list[tuple[float, float]]):
    pts = sorted(set(points))
    front = [p for p in pts if not any(
        q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]) for q in pts)]
    xs, ys = [p[0] for p in front], [p[1] for p in front]
    sx, sy = max(xs) - min(xs), max(ys) - min(ys)

    def dist(p):
        return ((p[0] - min(xs)) / sx if sx > 0 else 0.0) + ((p[1] - min(ys)) / sy if sy > 0 else 0.0)

    knee = min(front, key=lambda p: (dist(p), p[0], p[1]))
    return set(front), knee


def _dict_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_analysis(outdir: Path, rows: list[dict], structural: bool) -> list[str]:
    """cells, thresholds, zones, fronts and heatmaps against own recomputation."""
    problems = []
    groups: dict = {}
    for r in sorted(rows, key=sort_key):
        if r["placement_mode"] == "random":
            groups.setdefault((r["signal_id"], r["beta"], r["adv_count"]), []).append(r)
    cells = {}
    for row in _dict_rows(outdir / "cells.csv"):
        key = (row["signal_id"], float(row["beta"]), int(row["adv_count"]))
        cells[key] = {m: float(row[m]) for m in METRICS}
        members = groups.get(key, [])
        if int(row["run_count"]) != len(members):
            problems.append(f"cell {key}: run_count {row['run_count']}, rows {len(members)}")
            continue
        for m in METRICS:
            if not close(cells[key][m], float(np.mean([r[m] for r in members]))):
                problems.append(f"cell {key}: {m} mean differs")
    if set(cells) != set(groups):
        problems.append("cells.csv does not cover the random-placement cells")

    thresholds = {}
    for row in _dict_rows(outdir / "thresholds.csv"):
        pair = None if row["t1"] == "" else (float(row["t1"]), float(row["t2"]))
        thresholds[(row["signal_id"], row["metric"])] = pair
    signals = sorted({k[0] for k in cells})
    for s in signals:
        for m in METRICS:
            mine = multi_otsu([v[m] for k, v in cells.items() if k[0] == s])
            theirs = thresholds.get((s, m), "missing")
            if mine is None or theirs is None or theirs == "missing":
                if mine != theirs:
                    problems.append(f"thresholds {s!r}/{m}: {theirs}, expected {mine}")
            elif not (close(mine[0], theirs[0]) and close(mine[1], theirs[1])):
                problems.append(f"thresholds {s!r}/{m}: {theirs}, expected {mine}")

    zone_rows = _dict_rows(outdir / "zones.csv")
    if len(zone_rows) != len(cells) * len(METRICS):
        problems.append(f"{len(zone_rows)} zone rows for {len(cells)} cells")
    for row in zone_rows:
        pair = thresholds.get((row["signal_id"], row["metric"]))
        if row["zone"] != zone_of(float(row["value"]), pair, row["metric"] in REVERSED):
            problems.append(f"zone of {row['signal_id']!r}/{row['metric']} disagrees with thresholds")
            break

    fronts: dict = {}
    for row in _dict_rows(outdir / "fronts.csv"):
        fronts.setdefault((row["signal_id"], row["orientation"], row["fixed"]), []).append(row)
    if sum(len(v) for v in fronts.values()) != 2 * len(cells):
        problems.append("fronts.csv does not list every cell along both orientations")
    for members in fronts.values():
        points = [(float(r["inefficiency"]), float(r["discomfort_legit"])) for r in members]
        front, knee = front_and_knee(points)
        for r, p in zip(members, points):
            if (r["on_front"] == "True") != (p in front) or (r["is_knee"] == "True") != (p == knee):
                problems.append(f"front/knee flags wrong at {r['signal_id']!r} {r['orientation']} {r['fixed']}")
                break

    svgs = [outdir / f"heatmap{'_' + s if s else ''}_{m}.svg" for s in signals for m in METRICS]
    if structural:
        svgs += [outdir / f"heatmap_{s}_cumulative_{d}.svg" for s in signals for d in ("top_down", "bottom_up")]
        for name in ("layer_cells.csv", "cumulative_cells.csv"):
            if not (outdir / name).exists():
                problems.append(f"{name} missing")
    for svg in svgs:
        if not svg.exists() or not svg.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
            problems.append(f"{svg.name} missing or incomplete")
    return problems[:20]


# ---------------------------------------------------------------- solution quality

def optimality_probe(advplan, seeds=range(50)) -> tuple[int, float]:
    """Hits within 10% of the enumerated optimum and the median normalized gap
    on the n=6, k=3, d=2 variance instances the acceptance suite enumerates."""
    combos = np.array(list(itertools.product(range(3), repeat=6)))
    hits, gaps = 0, []
    for seed in seeds:
        plan_sets = advplan.generate_gaussian_plans(6, 3, 2, seed=seed)
        topology = advplan.build_balanced_binary(6, permutation_seed=seed)
        outcome = advplan.run_baseline(topology, plan_sets, advplan.RunConfig())
        values = np.stack([ps.value_matrix() for ps in plan_sets])
        totals = values[np.arange(6), combos].sum(axis=1)
        costs = totals.var(axis=1)
        best, worst = float(costs.min()), float(costs.max())
        got = outcome.global_inefficiency
        hits += got <= 1.1 * best + 1e-15
        gaps.append((got - best) / (worst - best) if worst > best else 0.0)
    return hits, float(np.median(gaps))
