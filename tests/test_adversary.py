import math

import pytest

from advplan.adversary import (
    beta_rows,
    cumulative_positions,
    layer_adversary_count,
    random_adversaries,
    sample_k_subsets,
    severity_grid,
)
from advplan.errors import InvalidInputError, InvalidSizeError, RangeError
from advplan.topology import agents_in_layer, build_balanced_binary


def test_severity_grid_values():
    grid = severity_grid()
    assert len(grid) == 30
    assert grid[0] == pytest.approx(1 / 30)
    assert grid[-1] == 1.0
    assert grid == [b / 30 for b in range(1, 31)]


@pytest.mark.parametrize(
    "size,p,expected",
    [(1, 25, 1), (8, 25, 2), (5, 50, 3), (2, 75, 2), (489, 25, 123), (16, 100, 16)],
)
def test_layer_adversary_count(size, p, expected):
    assert layer_adversary_count(size, p) == expected


def test_layer_adversary_count_validation():
    with pytest.raises(InvalidInputError):
        layer_adversary_count(8, 30)
    with pytest.raises(InvalidSizeError):
        layer_adversary_count(0, 25)


def test_enumerate_layer_configs_exhaustive_when_small():
    t = build_balanced_binary(15, permutation_seed=0)
    # Layer 3 has 4 agents; p=50 needs pairs: C(4,2) = 6.
    members = agents_in_layer(t, 3)
    k = layer_adversary_count(len(members), 50)
    configs = sample_k_subsets(list(members), k, cap=100, seed=0)
    assert len(configs) == 6
    assert all(c <= members and len(c) == 2 for c in configs)
    assert len(set(configs)) == 6


def test_enumerate_layer_configs_single_agent_layer():
    t = build_balanced_binary(7, permutation_seed=1)
    root = agents_in_layer(t, 1)
    for p in (25, 50, 75, 100):
        configs = sample_k_subsets(list(root), layer_adversary_count(len(root), p), cap=100)
        assert configs == [frozenset(root)]


def test_enumerate_layer_configs_capped_sampling():
    population = list(range(1, 11))
    configs = sample_k_subsets(population, 5, cap=100, seed=4)
    assert len(configs) == 100
    assert len(set(configs)) == 100
    assert math.comb(10, 5) == 252
    assert all(len(c) == 5 and c <= set(population) for c in configs)
    again = sample_k_subsets(population, 5, cap=100, seed=4)
    assert configs == again


def test_cumulative_positions_prefixes():
    t = build_balanced_binary(7, permutation_seed=2)
    assert cumulative_positions(t, "top_down", 1) == {t.agent_at[0]}
    top3 = cumulative_positions(t, "top-down", 3)
    assert top3 == {t.agent_at[0], t.agent_at[1], t.agent_at[2]}
    assert cumulative_positions(t, "bottom_up", 7) == set(range(1, 8))
    assert cumulative_positions(t, "top_down", 7) == set(range(1, 8))


def test_cumulative_positions_nested():
    t = build_balanced_binary(21, permutation_seed=3)
    for direction in ("top_down", "bottom_up"):
        previous = set()
        for m in range(1, 22):
            current = cumulative_positions(t, direction, m)
            assert len(current) == m
            assert previous < current
            previous = current


def test_cumulative_positions_validation():
    t = build_balanced_binary(5)
    with pytest.raises(RangeError):
        cumulative_positions(t, "top_down", 0)
    with pytest.raises(RangeError):
        cumulative_positions(t, "top_down", 6)
    with pytest.raises(InvalidInputError):
        cumulative_positions(t, "sideways", 2)


def test_beta_rows():
    t = build_balanced_binary(6)
    assert beta_rows(t, [{3, 5}], [0.5])[0].tolist() == [0.0, 0.0, 0.5, 0.0, 0.5, 0.0]
    # No adversaries is the all-legitimate row, whatever the severity.
    for severity in (0.7, 0.0):
        assert beta_rows(t, [set()], [severity])[0].tolist() == [0.0] * 6
    full = beta_rows(t, [set(range(1, 7))], [1.0])[0]
    assert full.tolist() == [1.0] * 6


def test_beta_rows_validation():
    t = build_balanced_binary(4)
    for unknown in ({9}, {0}, {-1, 2}):
        with pytest.raises(InvalidInputError):
            beta_rows(t, [unknown], [0.5])
    with pytest.raises(InvalidInputError):
        beta_rows(t, [{1}], [0.0])
    with pytest.raises(InvalidInputError):
        beta_rows(t, [{1}], [1.5])


def test_random_adversaries_seeded_and_sized():
    t = build_balanced_binary(30, permutation_seed=0)
    a = random_adversaries(t, 10, seed=5)
    b = random_adversaries(t, 10, seed=5)
    assert a == b
    assert len(a) == 10
    assert a <= set(range(1, 31))
    assert random_adversaries(t, 0, seed=5) == set()
    with pytest.raises(RangeError):
        random_adversaries(t, 31, seed=5)
