"""Pareto fronts with knee points, and R/V/C segmentation.

All fronts minimize both coordinates. Zone segmentation runs multi-level Otsu
thresholding on the grid of cell means and splits it into resilience,
vulnerability, and collapse bands.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidThresholdError,
)


class RvcLabel(str, Enum):
    RESILIENCE = "resilience"
    VULNERABILITY = "vulnerability"
    COLLAPSE = "collapse"


def pareto_front(points) -> list[tuple[float, float]]:
    """Non-dominated subset under minimize-both dominance, sorted by x.

    Duplicates collapse to one representative. A point is dominated when some
    other point is <= in both coordinates and < in at least one.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise InvalidInputError("cannot take the Pareto front of no points")
    front: list[tuple[float, float]] = []
    best_y = np.inf
    for p in sorted(set(pts)):
        if p[1] < best_y:
            front.append(p)
            best_y = p[1]
    return front


def knee_mmd(front) -> tuple[float, float]:
    """Front member closest to the ideal corner in normalized Manhattan distance.

    Each coordinate is min-max normalized over the front (a flat coordinate
    contributes zero), the ideal point is the normalized origin, and ties
    break toward lower raw x, then lower raw y.
    """
    pts = [(float(x), float(y)) for x, y in front]
    if not pts:
        raise InvalidInputError("cannot locate a knee on an empty front")
    arr = np.asarray(pts)
    spans = arr.max(axis=0) - arr.min(axis=0)
    normed = np.zeros_like(arr)
    for j in range(2):
        if spans[j] > 0:
            normed[:, j] = (arr[:, j] - arr[:, j].min()) / spans[j]
    dist = normed.sum(axis=1)
    order = sorted(range(len(pts)), key=lambda i: (dist[i], pts[i][0], pts[i][1]))
    return pts[order[0]]


# ``x ** 2`` on a float calls libm's pow, which rounds differently from
# ``x * x`` in about 0.1% of cases; scores keep the scalar form.
_POW = np.frompyfunc(pow, 2, 1)


@functools.lru_cache(maxsize=8)
def _splits(bins: int, classes: int) -> np.ndarray:
    """Every split of ``bins`` bins into ``classes`` classes, one row each.

    Row ``(c1, ..., c_{classes-1})`` cuts after those bin indices; rows come
    in ``itertools.combinations`` order. The cached array is read-only.
    """
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(bins - 1), classes - 1)),
        dtype=np.intp,
    ).reshape(-1, classes - 1)
    cuts.flags.writeable = False
    return cuts


def _split_scores(weights: np.ndarray, moments: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Between-class variance of every split in ``cuts``, from cumulative sums.

    Each histogram segment's term ``(w / W) * (mu - mu_total) ** 2`` is
    computed once into a lookup table, zero for empty segments. A split's
    score starts at 0.0 and adds its segments' terms left to right, the
    arithmetic of scoring each split on its own, so ties stay exact ties.
    """
    bins = len(weights)
    total_w = weights[-1]
    total_mu = moments[-1] / total_w
    lo, hi = np.triu_indices(bins)
    w = weights[hi] - np.concatenate(([0.0], weights[:-1]))[lo]
    m = moments[hi] - np.concatenate(([0.0], moments[:-1]))[lo]
    filled = w > 0
    w, m = w[filled], m[filled]
    deviation, inverse = np.unique(m / w - total_mu, return_inverse=True)
    terms = np.zeros((bins, bins))
    terms[lo[filled], hi[filled]] = (w / total_w) * _POW(deviation, 2).astype(float)[inverse]
    sigma = np.zeros(len(cuts))
    start = 0
    for end in (*cuts.T, bins - 1):
        sigma = sigma + terms[start, end]
        start = end + 1
    return sigma


def multi_otsu(values, classes: int = 3, bins: int = 256) -> list[float]:
    """Histogram thresholds separating the values into the given class count.

    The values are binned into equal-width bins over [min, max]; every
    combination of class boundaries is scored and the one maximizing
    between-class variance (equivalently minimizing intra-class variance)
    wins. When several splits tie, which happens whenever empty bins separate
    clusters, the middle of each boundary's tying range is taken, so
    well-separated clusters split at their midpoints. Thresholds come back
    ascending, as bin-edge values.
    """
    data = np.asarray(list(values), dtype=float)
    if classes < 2:
        raise InvalidInputError(f"need at least 2 classes, got {classes}")
    if bins < classes:
        raise InvalidInputError(f"{bins} bins cannot hold {classes} classes")
    if data.size == 0 or np.unique(data).size < classes:
        raise DegenerateInputError(
            f"need at least {classes} distinct values to form {classes} classes"
        )
    hist, edges = np.histogram(data, bins=bins)
    hist = hist.astype(float)
    centers = (edges[:-1] + edges[1:]) / 2.0
    weights = np.cumsum(hist)
    moments = np.cumsum(hist * centers)

    cuts = _splits(bins, classes)
    scores = _split_scores(weights, moments, cuts)
    best = scores.max()
    # Splits that differ only in where empty bins land score identically up
    # to summation noise; a relative tolerance keeps the whole plateau.
    cutoff = best - 1e-9 * abs(best)
    winners = cuts[scores >= cutoff]
    mids = [
        (int(winners[:, j].min()) + int(winners[:, j].max())) // 2
        for j in range(classes - 1)
    ]
    thresholds = [float(edges[m + 1]) for m in mids]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    return thresholds


def classify_rvc(
    value: float, thresholds: tuple[float, float], reverse: bool = False
) -> RvcLabel:
    """Map an inefficiency-style value to its zone given two thresholds.

    Values at or below the first threshold are resilient, values above the
    second collapsed. ``reverse`` flips the orientation for metrics where low
    values are the degraded side (discomfort vanishing under full attack).
    """
    t1, t2 = thresholds
    if not t1 < t2:
        raise InvalidThresholdError(f"thresholds must increase, got ({t1}, {t2})")
    if value <= t1:
        band = 0
    elif value <= t2:
        band = 1
    else:
        band = 2
    if reverse:
        band = 2 - band
    return (RvcLabel.RESILIENCE, RvcLabel.VULNERABILITY, RvcLabel.COLLAPSE)[band]
