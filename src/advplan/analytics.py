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

    Empty bins add exact zeros to the cumulative sums, so a histogram segment
    has the sums, and the term ``(w / W) * (mu - mu_total) ** 2``, of the
    filled bins it covers: terms are computed once per pair of the F + 1
    filled-bin boundaries. A split's score starts at 0.0 and adds its
    segments' terms left to right, the arithmetic of scoring each split on its
    own, so ties stay exact ties. Those sums are tabulated over boundary
    sequences and looked up through the filled-bin count at each cut.
    """
    total_w = weights[-1]
    total_mu = moments[-1] / total_w
    is_filled = np.diff(weights, prepend=0.0) > 0
    filled = np.flatnonzero(is_filled)
    w_at = np.concatenate(([0.0], weights[filled]))
    m_at = np.concatenate(([0.0], moments[filled]))
    lo, hi = np.triu_indices(len(w_at), k=1)
    w = w_at[hi] - w_at[lo]
    deviation = (m_at[hi] - m_at[lo]) / w - total_mu
    terms = np.zeros((len(w_at), len(w_at)))
    terms[lo, hi] = (w / total_w) * _POW(deviation, 2).astype(float)
    # sums[r1, ..., r_k]: segments from boundary 0 to r1, r1 to r2, ... and
    # r_k to the last boundary.
    sums = 0.0 + terms[0]
    for _ in range(cuts.shape[1] - 1):
        sums = sums[..., None] + terms
    sums = sums + terms[:, -1]
    return sums[tuple(np.cumsum(is_filled)[cuts.T])]


def multi_otsu(values, classes: int = 3, bins: int = 256) -> list[float]:
    """Histogram thresholds separating the values into the given class count.

    The values are binned into equal-width bins over [min, max]; every
    combination of class boundaries is scored and the one maximizing
    between-class variance (equivalently minimizing intra-class variance)
    wins. When several splits tie, which happens whenever empty bins separate
    clusters, the middle of each boundary's tying range is taken, so
    well-separated clusters split at their midpoints. Thresholds come back
    ascending, as bin-edge values. NaN or infinite values raise
    ``InvalidInputError``.
    """
    data = np.asarray(list(values), dtype=float)
    if classes < 2:
        raise InvalidInputError(f"need at least 2 classes, got {classes}")
    if bins < classes:
        raise InvalidInputError(f"{bins} bins cannot hold {classes} classes")
    if not np.isfinite(data).all():
        raise InvalidInputError("values must be finite, got NaN or infinity")
    # A set, not np.unique: the first np.unique call of a process imports numpy.ma.
    if len(set(data.tolist())) < classes:
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


def rvc_bands(values, thresholds: tuple[float, float], reverse: bool = False) -> np.ndarray:
    """Zone of each value as an index into ``RvcLabel``, given two thresholds.

    Values at or below the first threshold are resilient (0), values above
    the second collapsed (2). ``reverse`` flips the orientation for metrics
    where low values are the degraded side (discomfort vanishing under full
    attack).
    """
    t1, t2 = thresholds
    if not t1 < t2:
        raise InvalidThresholdError(f"thresholds must increase, got ({t1}, {t2})")
    values = np.asarray(values, dtype=float)
    band = 2 - (values <= t1).astype(int) - (values <= t2)
    return 2 - band if reverse else band


def classify_rvc(value: float, thresholds: tuple[float, float], reverse: bool = False) -> RvcLabel:
    """The zone of one value; see ``rvc_bands``."""
    return tuple(RvcLabel)[int(rvc_bands(value, thresholds, reverse))]
