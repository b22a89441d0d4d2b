import pytest

from advplan.errors import InvalidSizeError, RangeError
from advplan.topology import agents_in_layer, build_balanced_binary


@pytest.mark.parametrize("n,layers", [(1000, 10), (266, 9), (72, 7), (1, 1)])
def test_layer_counts(n, layers):
    assert build_balanced_binary(n).layer_count == layers


def test_zero_agents_rejected():
    with pytest.raises(InvalidSizeError):
        build_balanced_binary(0)


def test_structure_of_seven_node_tree():
    t = build_balanced_binary(7, permutation_seed=3)
    assert t.children_of(1) == [2, 3]
    assert t.children_of(3) == [6, 7]
    assert t.children_of(7) == []
    assert [t.layer_of(p) for p in range(1, 8)] == [1, 2, 2, 3, 3, 3, 3]
    assert len(agents_in_layer(t, 1)) == 1
    assert len(agents_in_layer(t, 3)) == 4


def test_partial_last_layer():
    # Breadth-first fill: 1000 nodes leave 1000 - 511 in the deepest layer.
    t = build_balanced_binary(1000)
    assert len(agents_in_layer(t, 10)) == 489
    assert len(agents_in_layer(t, 9)) == 256


def test_layers_partition_agents():
    for n in (1, 2, 3, 7, 12, 33, 100):
        t = build_balanced_binary(n, permutation_seed=n)
        seen = set()
        for layer in range(1, t.layer_count + 1):
            agents = agents_in_layer(t, layer)
            assert not (agents & seen)
            seen |= agents
            if layer < t.layer_count:
                assert len(agents) == 2 ** (layer - 1)
        assert seen == set(range(1, n + 1))


def test_layer_out_of_range():
    t = build_balanced_binary(7)
    with pytest.raises(RangeError):
        agents_in_layer(t, 0)
    with pytest.raises(RangeError):
        agents_in_layer(t, 4)


def test_every_nonroot_has_one_parent_and_is_reachable():
    t = build_balanced_binary(29, permutation_seed=1)
    reached = {1}
    frontier = [1]
    while frontier:
        pos = frontier.pop()
        for child in t.children_of(pos):
            assert child not in reached
            reached.add(child)
            frontier.append(child)
    assert reached == set(range(1, 30))


def test_same_seed_same_tree():
    a = build_balanced_binary(41, permutation_seed=9)
    b = build_balanced_binary(41, permutation_seed=9)
    assert a == b
    c = build_balanced_binary(41, permutation_seed=10)
    assert a != c


@pytest.mark.parametrize("n", [1, 2, 5, 12, 24, 37])
def test_child_ranges_match_children_of(n):
    t = build_balanced_binary(n)
    assert [list(layer) for layer in t.layers] == [
        list(t.positions_in_layer(layer)) for layer in range(1, t.layer_count + 1)
    ]
    for layer in t.layers:
        for first in range(len(layer)):
            for last in range(first + 1, len(layer) + 1):
                positions = layer[first:last]
                left, right = t.child_ranges(positions)
                kids = [t.children_of(p) for p in positions]
                assert list(left) == [c[0] for c in kids if c]
                assert list(right) == [c[1] for c in kids if len(c) == 2]
