import numpy as np

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
