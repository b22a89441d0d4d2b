import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import oracle_analysis
from advplan.analytics import (
    RvcLabel,
    _plateau_cuts,
    _split_scores,
    knee_mmd,
    multi_otsu,
    pareto_front,
    rvc_bands,
)
from advplan.engine import RunConfig, run_baseline
from advplan.errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidThresholdError,
)
from advplan.harness import _metric_columns
from advplan.plans import generate_gaussian_plans
from advplan.topology import build_balanced_binary


# Brute-force references, kept independent of the library implementations.

def oracle_front(points):
    pts = sorted(set(points))
    out = []
    for p in pts:
        dominated = any(
            q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]) for q in pts
        )
        if not dominated:
            out.append(p)
    return out


def oracle_knee(front):
    xs = [p[0] for p in front]
    ys = [p[1] for p in front]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    best = None
    for p in front:
        nx = (p[0] - min(xs)) / span_x if span_x > 0 else 0.0
        ny = (p[1] - min(ys)) / span_y if span_y > 0 else 0.0
        key = (nx + ny, p[0], p[1])
        if best is None or key < best[0]:
            best = (key, p)
    return best[1]


def oracle_otsu(values, classes, bins):
    values = np.asarray(values, dtype=float)
    hist, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2
    total = hist.sum()
    mu_total = float((hist * centers).sum() / total)
    import itertools

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


def test_pareto_front_examples():
    assert pareto_front([(2.0, 3.0)]) == [(2.0, 3.0)]
    front = pareto_front([(1, 3), (2, 2), (3, 1), (3, 3)])
    assert front == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    assert pareto_front([(1, 1), (1, 1)]) == [(1.0, 1.0)]
    with pytest.raises(InvalidInputError):
        pareto_front([])


def test_pareto_front_matches_oracle_on_random_sets():
    rng = np.random.default_rng(12)
    for trial in range(200):
        count = int(rng.integers(1, 21))
        if trial % 2:
            pts = [tuple(map(float, rng.integers(0, 6, size=2))) for _ in range(count)]
        else:
            pts = [tuple(map(float, rng.normal(size=2))) for _ in range(count)]
        assert pareto_front(pts) == oracle_front(pts)


def test_pareto_front_output_is_mutually_nondominating():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = [tuple(map(float, rng.normal(size=2))) for _ in range(15)]
        front = pareto_front(pts)
        for a in front:
            for b in front:
                if a != b:
                    assert not (a[0] <= b[0] and a[1] <= b[1])
        for p in set(pts) - set(front):
            assert any(
                q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                for q in front
            )


def test_knee_examples():
    assert knee_mmd([(4.0, 2.0)]) == (4.0, 2.0)
    assert knee_mmd([(0, 4), (1, 1), (4, 0)]) == (1.0, 1.0)
    # Flat x collapses that axis; minimum y wins.
    assert knee_mmd([(2, 5), (2, 1), (2, 3)]) == (2.0, 1.0)
    with pytest.raises(InvalidInputError):
        knee_mmd([])


def test_knee_matches_oracle_and_is_front_member():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pts = [tuple(map(float, rng.normal(size=2))) for _ in range(int(rng.integers(1, 20)))]
        front = pareto_front(pts)
        knee = knee_mmd(front)
        assert knee in front
        assert knee == oracle_knee(front)


def test_knee_matches_the_array_normalization_bit_for_bit():
    """Normalizing in Python floats picks the knee numpy's arrays pick, on
    fronts of up to 30 points with ties, exact zeros of both signs and flat
    coordinates."""
    rng = np.random.default_rng(30)
    for trial in range(400):
        size = int(rng.integers(1, 31))
        if trial % 3 == 0:
            pts = rng.integers(-3, 4, size=(size, 2)) * 0.5
        else:
            pts = rng.standard_normal((size, 2)) * 10.0 ** rng.integers(-6, 7, size=2)
        if trial % 5 == 0:
            pts[:, trial % 2] = 0.0
        if trial % 7 == 0:
            pts[rng.random(size) < 0.5] *= -1.0
        front = [tuple(p) for p in pts.tolist()]
        assert knee_mmd(front) == oracle_analysis.knee_mmd(front)
        assert repr(knee_mmd(front)) == repr(oracle_analysis.knee_mmd(front))


def test_knee_affine_rescale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        front = pareto_front([tuple(map(float, rng.normal(size=2))) for _ in range(12)])
        knee = knee_mmd(front)
        a, b = float(rng.uniform(0.1, 9)), float(rng.uniform(0.1, 9))
        c, e = float(rng.normal()), float(rng.normal())
        scaled = [(a * x + c, b * y + e) for x, y in front]
        expected = (a * knee[0] + c, b * knee[1] + e)
        assert knee_mmd(scaled) == pytest.approx(expected)


def test_multi_otsu_three_spikes():
    values = [0.0] * 30 + [5.0] * 30 + [10.0] * 30
    t1, t2 = multi_otsu(values, bins=256)
    width = 10.0 / 256
    assert abs(t1 - 2.5) <= width
    assert abs(t2 - 7.5) <= width
    labels = tuple(tuple(RvcLabel)[b] for b in rvc_bands([0.0, 5.0, 10.0], (t1, t2)))
    assert labels == (RvcLabel.RESILIENCE, RvcLabel.VULNERABILITY, RvcLabel.COLLAPSE)


def test_multi_otsu_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        multi_otsu([3.0] * 10)
    with pytest.raises(DegenerateInputError):
        multi_otsu([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        multi_otsu([1.0, 2.0, 3.0], bins=2)


def test_multi_otsu_refuses_values_closer_than_the_bins():
    """Three adjacent floats cannot span 256 finite-sized bins, or even 3."""
    close = [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
    for bins in (256, 3):
        with pytest.raises(InvalidInputError, match=f"too close together for {bins} bins"):
            multi_otsu(close, bins=bins)


def test_multi_otsu_matches_oracle_and_fills_classes():
    rng = np.random.default_rng(9)
    cases = []
    for trial in range(30):
        values = np.concatenate(
            [rng.normal(loc=c, scale=0.3, size=12) for c in rng.choice(10, size=3)]
        )
        cases.append((values, int(rng.integers(8, 65)), True))
    # Lone outliers at both ends leave the bins next to the first and last
    # bin empty (an auto-ranged histogram always fills those two). Midpoints
    # of wide plateaus can leave a class empty here, as the oracle does.
    core = rng.normal(loc=5.0, scale=0.5, size=40)
    cases.append((np.concatenate([[-20.0], core, [31.0]]), 64, False))
    cases.append((np.concatenate([core, [60.0]]), 50, False))
    for values, bins, fills in cases:
        if np.unique(values).size < 3:
            continue
        got = multi_otsu(values, bins=bins)
        assert got == oracle_otsu(values, classes=3, bins=bins)
        if not fills:
            continue
        bounds = [-np.inf, *got, np.inf]
        counts = [int(((values > a) & (values <= b)).sum()) for a, b in zip(bounds, bounds[1:])]
        assert all(c > 0 for c in counts)


def test_multi_otsu_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            multi_otsu([0.0, 1.0, 2.0, bad, 4.0])


def test_classify_rvc_boundaries_and_reverse():
    thresholds = (1.0, 2.0)
    labels = tuple(RvcLabel)
    assert [labels[b] for b in rvc_bands([1.0, 2.0, 2.0 + 1e-9], thresholds)] == [
        RvcLabel.RESILIENCE, RvcLabel.VULNERABILITY, RvcLabel.COLLAPSE]
    assert [labels[b] for b in rvc_bands([0.5, 3.0], thresholds, reverse=True)] == [
        RvcLabel.COLLAPSE, RvcLabel.RESILIENCE]
    with pytest.raises(InvalidThresholdError):
        rvc_bands(1.0, (2.0, 2.0))


def test_classify_rvc_monotone():
    thresholds = (0.4, 1.7)
    order = [RvcLabel.RESILIENCE, RvcLabel.VULNERABILITY, RvcLabel.COLLAPSE]
    previous = 0
    for band in rvc_bands(np.linspace(-1, 3, 100), thresholds):
        rank = order.index(tuple(RvcLabel)[band])
        assert rank >= previous
        previous = rank


# Compromised discomfort is computed in one place, `harness._metric_columns`.

def test_compromised_discomfort_identical_runs_and_toy_shift():
    plan_sets = generate_gaussian_plans(3, 2, 2, seed=1)
    topo = build_balanced_binary(3, permutation_seed=1)
    base = run_baseline(topo, plan_sets, RunConfig())
    assert _metric_columns(topo, [set()], [base], [base])["compromised"] == [0.0]

    shifted = dataclasses.replace(base, discomfort=base.discomfort + [0.0, 0.4, 0.0])
    metrics = _metric_columns(topo, [{1, 3}, set()], [shifted, base], [base, base])
    assert metrics["compromised"] == [pytest.approx(0.4), 0.0]
    assert metrics["discomfort_legit"][0] == shifted.discomfort[1]


def test_compromised_discomfort_empty_legitimate_warns():
    """With every agent adversarial both legitimate means are defined as 0.

    A fully compromised population is an ordinary grid point (scale = n), so
    the value is returned without the warning the metric once raised.
    """
    plan_sets = generate_gaussian_plans(3, 2, 2, seed=2)
    topo = build_balanced_binary(3, permutation_seed=2)
    base = run_baseline(topo, plan_sets, RunConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics = _metric_columns(topo, [{1, 2, 3}], [base], [base])
    assert metrics["discomfort_legit"] == metrics["compromised"] == [0.0]


def between_class_variance(weights, moments, cuts):
    """The per-split score the lookup table must reproduce bit for bit."""
    total_w = weights[-1]
    total_mu = moments[-1] / total_w
    sigma = 0.0
    lo = 0
    for cut in (*cuts, len(weights) - 1):
        w = weights[cut] - (weights[lo - 1] if lo > 0 else 0.0)
        if w > 0:
            m = moments[cut] - (moments[lo - 1] if lo > 0 else 0.0)
            mu = m / w
            sigma += (w / total_w) * (mu - total_mu) ** 2
        lo = cut + 1
    return sigma


def split_cases():
    """``(values, bins, histogram range)`` cases for the split scorer."""
    rng = np.random.default_rng(12)
    cases = [(rng.random(int(rng.integers(5, 150))) ** 3, int(rng.integers(3, 70))) for _ in range(40)]
    # Plateaus: spikes separated by empty bins, where whole ranges of splits tie.
    cases += [
        ([0.0] * 30 + [5.0] * 30 + [10.0] * 30, 256),
        ([1.0, 2.0, 3.0], 64),
        ([0.0] * 5 + [1.0] * 7 + [9.0] * 2 + [10.0] * 4, 40),
    ]
    # Grid-small's shape: 200+ cell means into 256 bins.
    cases += [(rng.random(n) ** 3, 256) for n in (200, 240)]
    # Integer-valued data: most bins empty, many splits tie.
    cases += [
        (rng.integers(0, 6, 200).astype(float), 256),
        (rng.integers(-40, 41, 60).astype(float), 97),
    ]
    # The fewest and many bins.
    cases += [
        ([1.0, 2.0, 3.0, 3.0], 3),
        (rng.random(220), 300),
        (rng.random(220) ** 2, 300),
        (rng.normal(size=90), 50),
    ]
    # A histogram range wider than the data leaves its first or last bin
    # (or both) empty; negative centers make empty bins add -0.0 moments.
    ranged = [
        (rng.normal(size=50), (-6.0, 3.0), 40),
        (rng.normal(size=50), (-3.0, 9.0), 40),
        (rng.normal(loc=-5.0, size=80), (-12.0, 0.0), 256),
        (rng.random(30), (-1.0, 2.0), 30),
    ]
    cases = [(values, bins, None) for values, bins in cases]
    return cases + [(values, bins, span) for values, span, bins in ranged]


def cumulative_sums(values, bins, span):
    hist, edges = np.histogram(np.asarray(values, dtype=float), bins=bins, range=span)
    hist = hist.astype(float)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return np.cumsum(hist), np.cumsum(hist * centers)


def test_split_scores_match_per_split_definition():
    for values, bins, span in split_cases():
        weights, moments = cumulative_sums(values, bins, span)
        cuts = np.array(list(itertools.combinations(range(bins - 1), 2)))
        expected = [between_class_variance(weights, moments, tuple(c)) for c in cuts.tolist()]
        scores, at = _split_scores(weights, moments)
        assert scores[tuple(at[cuts.T])].tolist() == expected


def test_multi_otsu_matches_the_all_splits_scorer():
    """The plateau found on the boundary table is the one found by scoring
    every split, on every split-scorer case and on data full of ties."""
    for values, bins, span in split_cases():
        weights, moments = cumulative_sums(values, bins, span)
        expected = oracle_analysis.plateau_cuts(weights, moments, 3)
        assert _plateau_cuts(weights, moments) == expected
        if span is None:
            assert multi_otsu(values, bins) == oracle_analysis.multi_otsu(values, 3, bins)
    rng = np.random.default_rng(403)
    for _ in range(300):
        bins = int(rng.integers(4, 90))
        size = int(rng.integers(3, 60))
        values = rng.integers(0, int(rng.integers(3, 40)), size) * float(rng.uniform(0.1, 9))
        if rng.random() < 0.3:
            values = np.concatenate([values, [values.max() + rng.uniform(5, 200)]])
        if len(set(values.tolist())) < 3:
            continue
        assert multi_otsu(values, bins) == oracle_analysis.multi_otsu(
            values, 3, bins), (values.tolist(), bins)
