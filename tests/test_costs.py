import numpy as np
import oracle_engine
import pytest

from advplan.costs import (
    InefficiencyFn,
    rss_cost,
    scale_vector,
    variance_cost,
)
from advplan.errors import DimensionMismatchError, InvalidInputError


def test_variance_basics():
    assert variance_cost([3.0, 3.0, 3.0]) == 0.0
    assert variance_cost([0.0, 2.0]) == 1.0
    assert variance_cost([1.0, 2.0, 3.0, 4.0]) == 1.25


def test_variance_empty_vector():
    with pytest.raises(InvalidInputError):
        variance_cost([])


def test_variance_translation_and_scaling():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.normal(size=rng.integers(1, 20))
        c = float(rng.normal())
        assert variance_cost(g + c) == pytest.approx(variance_cost(g), abs=1e-9)
        assert variance_cost(c * g) == pytest.approx(c * c * variance_cost(g), rel=1e-9)


def test_rss_basics():
    target = np.array([1.0, 0.0])
    assert rss_cost(target, target) == 0.0
    assert rss_cost([0.0, 1.0], [1.0, 0.0]) == 2.0
    assert rss_cost([0.0, 2.0], [0.0, 1.0], scaling="min-max") == 0.0


def test_rss_symmetry_and_nonnegativity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.integers(1, 12)
        g, t = rng.normal(size=d), rng.normal(size=d)
        assert rss_cost(g, t) == pytest.approx(rss_cost(t, g))
        assert rss_cost(g, t) >= 0.0


def test_rss_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rss_cost([1.0, 2.0], [1.0, 2.0, 3.0])


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
    assert f(g) == variance_cost(g)
    target = np.array([2.0, 2.0])
    frss = InefficiencyFn(kind="rss", target=target)
    assert frss(g) == rss_cost(g, target)
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
                want = oracle_engine.cost(fn, g)
                assert fn(g) == want
                got = variance_cost(g) if fn.kind == "variance" else rss_cost(g, target, scaling)
                assert got == want
