import numpy as np
import pytest

import oracle_analysis
from advplan.heatmap import render_heatmap


def test_render_heatmap_same_bytes_for_array_and_nested_lists(tmp_path):
    rng = np.random.default_rng(5)
    ramp = rng.random((5, 7)) * 3.0 - 1.0
    ramp[2, 3] = ramp.min()
    ramp[4, 0] = (ramp.min() + ramp.max()) / 2
    for index, matrix in enumerate((ramp, np.full((2, 3), 0.25), np.array([[1e-9, 2e-9]]))):
        rows, cols = matrix.shape
        kwargs = dict(
            row_labels=[f"r{i}" for i in range(rows)],
            col_labels=[str(j) for j in range(cols)],
            title="t",
            knee_cells={(0, cols - 1)},
            cell_labels=[["RVC"[(i + j) % 3] for j in range(cols)] for i in range(rows)],
            x_axis="x",
            y_axis="y",
        )
        from_array = render_heatmap(matrix, path=tmp_path / f"a{index}.svg", **kwargs)
        from_lists = render_heatmap(matrix.tolist(), path=tmp_path / f"l{index}.svg", **kwargs)
        assert from_array.read_bytes() == from_lists.read_bytes()


def test_render_heatmap_writes_the_bytes_of_the_cell_by_cell_renderer(tmp_path):
    """Colours from one array step and geometry built once per shape give the
    SVG of colouring and formatting each cell on its own."""
    rng = np.random.default_rng(8)
    ramp = rng.random((6, 5)) * 4.0 - 2.0
    ramp[1, 1], ramp[2, 2] = ramp.min(), (ramp.min() + ramp.max()) / 2
    steps = np.linspace(0.0, 1.0, 12).reshape(3, 4)  # values on the ramp's half points
    cases = [
        (ramp, {(0, 4), (5, 0), (2, 2)}, True, "title", "x", "y"),
        (np.full((3, 4), -0.0), {(1, 1)}, True, "", "", ""),  # flat: hi == lo
        (np.full((2, 3), np.inf), None, True, "", "", ""),  # flat and infinite
        (np.full((1, 2), -np.inf), {(0, 0)}, False, "", "x", ""),
        (np.full((1, 1), 7.5), None, False, "one", "", "y"),
        (steps, set(), True, "t", "x", ""),
        (np.array([[5e-324, 0.0], [-5e-324, 1e-300]]), None, True, "", "x", ""),
        (rng.lognormal(0.0, 6.0, (30, 4)), {(29, 3)}, False, "wide", "m", "severity"),
    ]
    for index, (matrix, knees, labelled, title, x_axis, y_axis) in enumerate(cases):
        rows, cols = matrix.shape
        kwargs = dict(
            row_labels=[f"{0.1 * i:g}" for i in range(rows)],
            col_labels=[str(j) for j in range(cols)],
            title=title,
            knee_cells=knees,
            cell_labels=[["RVC"[(i * j) % 3] for j in range(cols)] for i in range(rows)]
            if labelled else None,
            x_axis=x_axis,
            y_axis=y_axis,
        )
        ours = render_heatmap(matrix, path=tmp_path / f"new{index}.svg", **kwargs)
        theirs = oracle_analysis.render_heatmap(matrix, path=tmp_path / f"old{index}.svg", **kwargs)
        assert ours.read_bytes() == theirs.read_bytes(), index


def test_render_heatmap_refuses_values_without_a_finite_range(tmp_path):
    # A flat matrix of infinities is drawn (see the byte test above).
    for matrix in ([[0.0, np.nan]], [[0.0, np.inf]], [[-1e308, 1e308]]):
        with pytest.raises(ValueError, match="finite range"):
            render_heatmap(matrix, ["r"], ["a", "b"], tmp_path / "h.svg")
    assert not (tmp_path / "h.svg").exists()
