"""Pareto fronts with knee points, and R/V/C segmentation.

All fronts minimize both coordinates. Zone segmentation runs three-class Otsu
thresholding on the grid of cell means and splits it into resilience,
vulnerability, and collapse bands.
"""

from __future__ import annotations

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
    # Python floats: the operations numpy's normalization does, per point.
    normed = []
    for coords in zip(*pts):
        lo = min(coords)
        span = max(coords) - lo
        normed.append([(c - lo) / span for c in coords] if span > 0 else [0.0] * len(pts))
    dist = [nx + ny for nx, ny in zip(*normed)]
    order = sorted(range(len(pts)), key=lambda i: (dist[i], pts[i][0], pts[i][1]))
    return pts[order[0]]


# ``x ** 2`` on a float calls libm's pow, which rounds differently from
# ``x * x`` in about 0.1% of cases; scores keep the scalar form.
_POW = np.frompyfunc(pow, 2, 1)


def _split_scores(weights: np.ndarray, moments: np.ndarray):
    """``(scores, at)``: the between-class variance of every three-class
    split, tabulated over the filled-bin boundaries its two cuts fall at.

    ``at[c]`` is the boundary of a cut after bin c: the count of filled bins
    up to and including c, from 0 to F. ``scores[r1, r2]`` is the score of
    every split whose cuts fall at boundaries r1 <= r2. Empty bins add exact
    zeros to the cumulative sums, so a histogram segment has the sums, and
    the term ``(w / W) * (mu - mu_total) ** 2``, of the filled bins it
    covers: terms are computed once per pair of the F + 1 boundaries. A score
    starts at 0.0 and adds its three segments' terms left to right, the
    arithmetic of scoring each split on its own, so ties stay exact ties.
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
    # Segments from boundary 0 to r1, r1 to r2, and r2 to the last boundary.
    return (0.0 + terms[0])[:, None] + terms + terms[:, -1], np.cumsum(is_filled)[:-1]


def _plateau_cuts(weights: np.ndarray, moments: np.ndarray) -> list[int]:
    """The middle of each cut's range over the three-class splits of the
    histogram with cumulative ``weights`` and ``moments`` that score within
    1e-9 of the best.

    A split is two increasing cuts, each after one of the first bins - 1
    bins, and its score is an entry of ``_split_scores``' table. The cuts at
    boundary r form a contiguous range of ``room[r]`` cuts from
    ``lowest[r]``, so an entry (r1, r2) is some split's score when r1 < r2,
    or when r1 == r2 and that range holds both cuts. The best score and its
    plateau are found on the table, and each cut's smallest and largest
    place come from those ranges.
    """
    scores, at = _split_scores(weights, moments)
    # Boundaries between the first and last cut's; each holds at least one cut.
    first, last = int(at[0]), int(at[-1])
    room = np.bincount(at - first)
    lowest = np.searchsorted(at, np.arange(first, last + 1))
    r1, r2 = np.ogrid[: len(room), : len(room)]
    reachable = (r1 < r2) | ((r1 == r2) & (room[r1] > 1))
    scores = np.where(reachable, scores[first : last + 1, first : last + 1], -np.inf)
    best = scores.max()
    # Splits that differ only in where empty bins land score identically up
    # to summation noise; a relative tolerance keeps the whole plateau.
    r1, r2 = np.nonzero(scores >= best - 1e-9 * abs(best))
    same = r1 == r2
    cuts = ((lowest[r1], lowest[r1] + room[r1] - 1 - same),
            (lowest[r2] + same, lowest[r2] + room[r2] - 1))
    return [(int(smallest.min()) + int(largest.max())) // 2 for smallest, largest in cuts]


def multi_otsu(values, bins: int = 256) -> list[float]:
    """The two histogram thresholds that separate the values into three
    classes: resilience, vulnerability and collapse.

    The values are binned into equal-width bins over [min, max], and the
    split of the bins into three classes maximizing between-class variance
    (equivalently minimizing intra-class variance) wins; scores are found on
    the table of filled-bin boundaries, so the cost grows with the distinct
    values, not with ``bins``. When several splits tie, which happens
    whenever empty bins separate clusters, the middle of each cut's tying
    range is taken, so well-separated clusters split at their midpoints.
    Thresholds come back ascending, as bin-edge values. Fewer than three
    bins, NaN or infinite values, values so large that a score would
    overflow, and values too close together to span ``bins`` finite-sized
    bins raise ``InvalidInputError``; fewer than three distinct values raise
    ``DegenerateInputError``.
    """
    data = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if bins < 3:
        raise InvalidInputError(f"{bins} bins cannot hold three classes")
    if not np.isfinite(data).all():
        raise InvalidInputError("values must be finite, got NaN or infinity")
    # A set, not np.unique: the first np.unique call of a process imports numpy.ma.
    if len(set(data.tolist())) < 3:
        raise DegenerateInputError("need at least 3 distinct values to form 3 classes")
    lo, hi = float(data.min()), float(data.max())
    try:
        # A score that overflows raises here: numpy's arithmetic under this
        # state, and libm's pow in the scores.
        with np.errstate(over="raise"):
            try:
                hist, edges = np.histogram(data, bins=bins)
            except ValueError:  # numpy's "Too many bins for data range"
                raise InvalidInputError(
                    f"values from {lo!r} to {hi!r} lie too close together for {bins} bins"
                ) from None
            hist = hist.astype(float)
            centers = (edges[:-1] + edges[1:]) / 2.0
            mids = _plateau_cuts(np.cumsum(hist), np.cumsum(hist * centers))
    except (FloatingPointError, OverflowError):
        raise InvalidInputError(
            f"values from {lo!r} to {hi!r} are too large for the scores to stay finite"
        ) from None
    thresholds = [float(edges[m + 1]) for m in mids]
    assert thresholds[0] < thresholds[1]
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

