"""Standalone SVG heatmap rendering, no plotting dependency.

Cells are colored on a blue-yellow-red ramp over the matrix range; optional
per-cell letters (zone labels) and outlined knee cells overlay the grid.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The ramp's three stops; a value's colour mixes the two around it.
_RAMP = np.array(((0.20, 0.28, 0.62), (0.98, 0.92, 0.45), (0.75, 0.12, 0.13)))


def _colors(values: np.ndarray, lo: float, hi: float) -> list[str]:
    """``rgb(...)`` of each value on the ramp over [lo, hi]; a flat range takes
    its middle. One array step does, per value, the IEEE operations of mixing
    it alone in Python floats, and ``np.rint`` rounds half to even as
    ``round`` does."""
    t = np.full(values.shape, 0.5) if hi <= lo else (values - lo) / (hi - lo)
    low = t <= 0.5
    u = np.where(low, t * 2, (t - 0.5) * 2)[:, None]
    start = np.where(low[:, None], _RAMP[0], _RAMP[1])
    stop = np.where(low[:, None], _RAMP[1], _RAMP[2])
    rgb = np.rint(255 * ((1 - u) * start + u * stop)).astype(int).tolist()
    return [f"rgb({r},{g},{b})" for r, g, b in rgb]


def render_heatmap(
    matrix,
    row_labels: list[str],
    col_labels: list[str],
    path: str | Path,
    title: str = "",
    knee_cells: set[tuple[int, int]] | None = None,
    cell_labels: list[list[str]] | None = None,
    x_axis: str = "",
    y_axis: str = "",
) -> Path:
    """Write one heatmap SVG; returns the path.

    ``matrix`` is row-major (row 0 renders at the top) and spans a finite
    range, or is flat: a flat matrix, infinite ones too, takes the ramp's
    middle colour. ``knee_cells`` holds (row, col) indices drawn with a bold
    outline; ``cell_labels`` overlays one short string per cell.
    """
    values = np.asarray(matrix, dtype=float)
    rows, cols = values.shape
    if rows != len(row_labels) or cols != len(col_labels):
        raise ValueError("label counts must match the matrix shape")
    lo, hi = float(values.min()), float(values.max())
    if not (hi == lo or math.isfinite(hi - lo)):
        raise ValueError(f"heatmap values must span a finite range, got {lo!r} to {hi!r}")
    left, top, cell_size = 70, 40, 26
    width = left + cols * cell_size + 150
    height = top + rows * cell_size + 60

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="20" font-size="13">{title}</text>',
    ]
    # The legend's min, mid and max swatches are coloured with the cells.
    legend = [lo + frac * (hi - lo) for frac in (0.0, 0.5, 1.0)]
    colors = _colors(np.append(values.ravel(), legend), lo, hi)
    for i in range(rows):
        for j in range(cols):
            x = left + j * cell_size
            y = top + i * cell_size
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_size}" height="{cell_size}" '
                f'fill="{colors[i * cols + j]}" stroke="white" stroke-width="0.5"/>'
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

    # Simple legend: min, mid, max swatches.
    lx = left + cols * cell_size + 20
    for idx, (value, color) in enumerate(zip(legend, colors[-3:])):
        y = top + idx * 22
        parts.append(
            f'<rect x="{lx}" y="{y}" width="16" height="16" '
            f'fill="{color}" stroke="gray" stroke-width="0.5"/>'
        )
        parts.append(f'<text x="{lx + 22}" y="{y + 12}">{value:.4g}</text>')
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
