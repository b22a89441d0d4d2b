"""Reference analysis pieces: every split scored, every heatmap cell on its own.

These are the plain forms of ``advplan.analytics.multi_otsu``,
``advplan.analytics.knee_mmd`` and ``advplan.heatmap.render_heatmap``: the
scorer lists all C(bins - 1, classes - 1) splits of the histogram and looks
each one up in the table of filled-bin boundaries, the knee normalizes a
front as numpy arrays, and the renderer colours and formats one cell at a
time in Python floats. The library must give the same thresholds, knees and
SVG bytes, so the tests run both and compare.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

# ``x ** 2`` on a float calls libm's pow; the scores keep the scalar form.
_POW = np.frompyfunc(pow, 2, 1)


def splits(bins: int, classes: int) -> np.ndarray:
    """Every split of ``bins`` bins into ``classes`` classes, one row each,
    as the cut indices after which a class ends."""
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(bins - 1), classes - 1)),
        dtype=np.intp,
    ).reshape(-1, classes - 1)


def split_scores(weights: np.ndarray, moments: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Between-class variance of every split in ``cuts``, from cumulative sums."""
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
    sums = 0.0 + terms[0]
    for _ in range(cuts.shape[1] - 1):
        sums = sums[..., None] + terms
    sums = sums + terms[:, -1]
    return sums[tuple(np.cumsum(is_filled)[cuts.T])]


def plateau_cuts(weights: np.ndarray, moments: np.ndarray, classes: int) -> list[int]:
    """The middle cut of each boundary's range over the splits that score
    within 1e-9 of the best."""
    cuts = splits(len(weights), classes)
    scores = split_scores(weights, moments, cuts)
    best = scores.max()
    winners = cuts[scores >= best - 1e-9 * abs(best)]
    return [
        (int(winners[:, j].min()) + int(winners[:, j].max())) // 2 for j in range(classes - 1)
    ]


def multi_otsu(values, classes: int = 3, bins: int = 256) -> list[float]:
    """Thresholds of finite values with at least ``classes`` distinct ones."""
    hist, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    hist = hist.astype(float)
    centers = (edges[:-1] + edges[1:]) / 2.0
    mids = plateau_cuts(np.cumsum(hist), np.cumsum(hist * centers), classes)
    return [float(edges[m + 1]) for m in mids]


_RAMP = ((0.20, 0.28, 0.62), (0.98, 0.92, 0.45), (0.75, 0.12, 0.13))


def _color(value: float, lo: float, hi: float) -> str:
    if hi <= lo:
        t = 0.5
    else:
        t = (value - lo) / (hi - lo)
    if t <= 0.5:
        a, b, u = _RAMP[0], _RAMP[1], t * 2
    else:
        a, b, u = _RAMP[1], _RAMP[2], (t - 0.5) * 2
    rgb = [round(255 * ((1 - u) * x + u * y)) for x, y in zip(a, b)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_heatmap(matrix, row_labels, col_labels, path, title="", knee_cells=None,
                   cell_labels=None, x_axis="", y_axis="", cell_size=26) -> Path:
    """One heatmap SVG, cell by cell."""
    values = np.asarray(matrix, dtype=float)
    rows, cols = values.shape
    lo, hi = float(values.min()), float(values.max())
    values = values.tolist()
    left, top = 70, 40
    width = left + cols * cell_size + 150
    height = top + rows * cell_size + 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="20" font-size="13">{title}</text>',
    ]
    for i in range(rows):
        for j in range(cols):
            x = left + j * cell_size
            y = top + i * cell_size
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_size}" height="{cell_size}" '
                f'fill="{_color(values[i][j], lo, hi)}" stroke="white" stroke-width="0.5"/>'
            )
            if cell_labels is not None:
                parts.append(
                    f'<text x="{x + cell_size / 2:.1f}" y="{y + cell_size / 2 + 4:.1f}" '
                    f'text-anchor="middle" font-size="9" fill="black">{cell_labels[i][j]}</text>'
                )
    for i, j in sorted(knee_cells or ()):
        x = left + j * cell_size
        y = top + i * cell_size
        parts.append(
            f'<rect x="{x + 1}" y="{y + 1}" width="{cell_size - 2}" height="{cell_size - 2}" '
            f'fill="none" stroke="black" stroke-width="2.5"/>'
        )
    for i, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 6}" y="{top + i * cell_size + cell_size / 2 + 4:.1f}" '
            f'text-anchor="end">{label}</text>'
        )
    for j, label in enumerate(col_labels):
        parts.append(
            f'<text x="{left + j * cell_size + cell_size / 2:.1f}" '
            f'y="{top + rows * cell_size + 14}" text-anchor="middle">{label}</text>'
        )
    if x_axis:
        parts.append(
            f'<text x="{left + cols * cell_size / 2:.1f}" '
            f'y="{top + rows * cell_size + 34}" text-anchor="middle">{x_axis}</text>'
        )
    if y_axis:
        cy = top + rows * cell_size / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{y_axis}</text>'
        )
    lx = left + cols * cell_size + 20
    for idx, frac in enumerate((0.0, 0.5, 1.0)):
        value = lo + frac * (hi - lo)
        y = top + idx * 22
        parts.append(
            f'<rect x="{lx}" y="{y}" width="16" height="16" '
            f'fill="{_color(value, lo, hi)}" stroke="gray" stroke-width="0.5"/>'
        )
        parts.append(f'<text x="{lx + 22}" y="{y + 12}">{value:.4g}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


def knee_mmd(front) -> tuple[float, float]:
    """The knee of a front, normalized with numpy arrays."""
    pts = [(float(x), float(y)) for x, y in front]
    arr = np.asarray(pts)
    spans = arr.max(axis=0) - arr.min(axis=0)
    normed = np.zeros_like(arr)
    for j in range(2):
        if spans[j] > 0:
            normed[:, j] = (arr[:, j] - arr[:, j].min()) / spans[j]
    dist = normed.sum(axis=1)
    order = sorted(range(len(pts)), key=lambda i: (dist[i], pts[i][0], pts[i][1]))
    return pts[order[0]]
