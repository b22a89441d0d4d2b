import itertools

import numpy as np
import oracle_engine
import pytest

from advplan.costs import (
    InefficiencyFn,
    _scale_rows,
    _sum_squares,
    _variance_rows,
    reduce_rows,
    scale_vector,
)
from advplan.errors import DimensionMismatchError, InvalidInputError


def test_variance_basics():
    variance = InefficiencyFn()
    assert variance([3.0, 3.0, 3.0]) == 0.0
    assert variance([0.0, 2.0]) == 1.0
    assert variance([1.0, 2.0, 3.0, 4.0]) == 1.25


def test_variance_empty_vector():
    with pytest.raises(InvalidInputError):
        InefficiencyFn()([])


def test_variance_translation_and_scaling():
    variance = InefficiencyFn()
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.normal(size=rng.integers(1, 20))
        c = float(rng.normal())
        assert variance(g + c) == pytest.approx(variance(g), abs=1e-9)
        assert variance(c * g) == pytest.approx(c * c * variance(g), rel=1e-9)


def test_rss_basics():
    target = np.array([1.0, 0.0])
    assert InefficiencyFn(kind="rss", target=target)(target) == 0.0
    assert InefficiencyFn(kind="rss", target=[1.0, 0.0])([0.0, 1.0]) == 2.0
    assert InefficiencyFn(kind="rss", target=[0.0, 1.0], scaling="min-max")([0.0, 2.0]) == 0.0


def test_rss_symmetry_and_nonnegativity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.integers(1, 12)
        g, t = rng.normal(size=d), rng.normal(size=d)
        to_t, to_g = InefficiencyFn(kind="rss", target=t), InefficiencyFn(kind="rss", target=g)
        assert to_t(g) == pytest.approx(to_g(t))
        assert to_t(g) >= 0.0


def test_rss_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        InefficiencyFn(kind="rss", target=[1.0, 2.0, 3.0])([1.0, 2.0])


def test_scaling_modes():
    v = np.array([0.0, 2.0, 4.0])
    assert np.allclose(scale_vector(v, "min-max"), [0, 0.5, 1.0])
    centered = scale_vector(v, "zero-mean-unit-norm")
    assert centered.mean() == pytest.approx(0.0)
    assert np.linalg.norm(centered) == pytest.approx(1.0)
    flat = scale_vector(np.array([3.0, 3.0]), "min-max")
    assert np.array_equal(flat, [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        scale_vector(v, "log")


def test_inefficiency_fn_dispatch():
    f = InefficiencyFn()
    g = np.array([1.0, 5.0])
    assert f(g) == 4.0
    target = np.array([2.0, 2.0])
    frss = InefficiencyFn(kind="rss", target=target)
    assert frss(g) == 10.0
    with pytest.raises(InvalidInputError):
        InefficiencyFn(kind="rss")
    with pytest.raises(InvalidInputError):
        InefficiencyFn(kind="entropy")


def test_inefficiency_batch_matches_scalar():
    rng = np.random.default_rng(3)
    candidates = rng.normal(size=(6, 9))
    target = rng.normal(size=9)
    for fn in (
        InefficiencyFn(),
        InefficiencyFn(kind="rss", target=target),
        InefficiencyFn(kind="rss", target=target, scaling="min-max"),
        InefficiencyFn(kind="rss", target=target, scaling="zero-mean-unit-norm"),
    ):
        batch = fn.batch(candidates)
        scalar = [fn(row) for row in candidates]
        assert np.allclose(batch, scalar)


@pytest.mark.parametrize("scaling", ["identity", "min-max", "zero-mean-unit-norm"])
def test_stacked_rows_cost_what_each_row_costs_alone(scaling):
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 5, 11))
    stack[0, 0] = 2.5  # a flat row scales to zeros
    target = rng.normal(size=11)
    for fn in (InefficiencyFn(), InefficiencyFn(kind="rss", target=target, scaling=scaling)):
        rows = fn(stack)
        assert rows.shape == (3, 5)
        assert rows.tolist() == [[fn(row) for row in block] for block in stack]
    scaled = scale_vector(stack, scaling)
    for idx in np.ndindex(stack.shape[:-1]):
        assert scaled[idx].tobytes() == scale_vector(stack[idx], scaling).tobytes()
    with pytest.raises(DimensionMismatchError):
        InefficiencyFn(kind="rss", target=target, scaling=scaling)(stack[..., :4])


@pytest.mark.parametrize("scaling", ["identity", "min-max", "zero-mean-unit-norm"])
def test_one_vector_costs_match_the_reference_kernels(scaling):
    rng = np.random.default_rng(5)
    for d in (1, 2, 7, 24, 100):
        for _ in range(20):
            g = rng.normal(size=d) * rng.choice([1e-3, 1.0, 1e4])
            target = rng.normal(size=d)
            for fn in (InefficiencyFn(), InefficiencyFn(kind="rss", target=target, scaling=scaling)):
                assert fn(g) == oracle_engine.cost(fn, g)


def layouts(stack):
    """A ``(..., w + 1)`` stack's ``[..., :-1]`` as a strided view, a C-contiguous
    copy, and a view of a copy whose last axis lies outermost in memory."""
    view = stack[..., :-1]
    column_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(view, -1, 0)), 0, -1)
    return {"strided": view, "contiguous": np.ascontiguousarray(view), "columns": column_major}


@pytest.mark.parametrize("width", range(1, 10))
def test_row_kernels_match_numpy_bit_for_bit(width):
    # Real rows at mixed magnitudes, then rows over {+-0.0, +-1} and over
    # {+-0.0, +-1, NaN}: every such row while there are few, random ones
    # past that. NaN rows decide the NaN rule of min and max, ties between
    # +-0.0 which zero they keep, and -0.0 the +0.0 start of numpy's sum.
    rng = np.random.default_rng(width)
    real = rng.standard_normal((60, 3, width + 1)) * rng.choice([1e-3, 1.0, 1e4], size=(60, 1, 1))
    stacks = [real]
    for special in ([0.0, -0.0, 1.0, -1.0], [0.0, -0.0, 1.0, -1.0, np.nan]):
        if width <= 5:
            stacks.append(np.array(list(itertools.product(special, repeat=width + 1))))
        else:
            stacks.append(rng.choice(special, size=(5000, width + 1)))
    for stack in stacks:
        for name, values in layouts(stack).items():
            for ufunc in (np.add, np.minimum, np.maximum):
                want = ufunc.reduce(values, axis=-1)
                assert reduce_rows(ufunc, values).tobytes() == want.tobytes(), (name, ufunc)
            with np.errstate(invalid="ignore"):
                want = np.var(values, axis=-1)
            assert _variance_rows(values).tobytes() == want.tobytes(), name


def masked_scale_rows(values, mode):
    """The scaling as a masked divide: rows whose span is 0 stay +0.0."""
    if mode == "min-max":
        lo = reduce_rows(np.minimum, values)[..., None]
        shifted, span = values - lo, reduce_rows(np.maximum, values)[..., None] - lo
    else:
        shifted = values - (reduce_rows(np.add, values) / values.shape[-1])[..., None]
        span = np.sqrt(_sum_squares(shifted))[..., None]
    return np.divide(shifted, span, out=np.zeros_like(shifted), where=span != 0.0)


@pytest.mark.parametrize("mode", ["min-max", "zero-mean-unit-norm"])
@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 24])
def test_scaled_rows_match_the_masked_divide_bit_for_bit(mode, width):
    """Flat rows (mixed +-0.0 among them), NaN and infinite rows, rows so
    small that their squares underflow, real rows, and lone 1-D vectors."""
    rng = np.random.default_rng(100 + width)
    special = [0.0, -0.0, 1.0, -1.0, np.nan]
    stack = rng.standard_normal((3, 4, 5, width)) * rng.choice([1e-3, 1.0, 1e4], size=(3, 4, 5, 1))
    stack[0, 0] = 2.5
    stack[0, 1] = rng.choice([0.0, -0.0], size=(5, width))
    stack[0, 2] = rng.choice(special, size=(5, width))
    stack[0, 3, :, 0] = np.nan
    stack[1, 0] = rng.choice([1e-200, -1e-200, 0.0, 3e-170], size=(5, width))
    stack[1, 1, :, -1] = np.inf
    stack[1, 2] = rng.choice([np.inf, -np.inf, 1.0], size=(5, width))
    stack[1, 3] = -0.0
    cases = [stack, stack[:, :, 0], *stack.reshape(-1, width)]
    for values in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = _scale_rows(values, mode), masked_scale_rows(values, mode)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
