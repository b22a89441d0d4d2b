"""Balanced binary tree topology over agents.

Positions are numbered breadth-first starting at 1 (the root), so position
``p`` has parent ``p // 2`` and children ``2p`` and ``2p + 1`` whenever those
fall inside the tree. Agents are placed onto positions through a seeded
permutation, which is how structural reshuffles are generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSizeError, RangeError


@dataclass(frozen=True)
class TreeTopology:
    """Breadth-first-filled binary tree with an agent stationed per position.

    ``agent_at[p - 1]`` is the agent id at position ``p``. Layers count from
    1 at the root; a tree over ``n`` agents has ``ceil(log2(n + 1))`` layers
    and only the deepest layer may be partially filled.
    """

    node_count: int
    agent_at: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidSizeError("a tree needs at least one node")
        if len(self.agent_at) != self.node_count:
            raise InvalidSizeError(
                f"expected {self.node_count} stationed agents, got {len(self.agent_at)}"
            )
        if set(self.agent_at) != set(range(1, self.node_count + 1)):
            raise InvalidSizeError("agent ids must be a permutation of 1..n")

    @property
    def layer_count(self) -> int:
        return self.node_count.bit_length()

    def children_of(self, position: int) -> list[int]:
        self._check_position(position)
        return [c for c in (2 * position, 2 * position + 1) if c <= self.node_count]

    def positions_in_layer(self, layer: int) -> range:
        if not 1 <= layer <= self.layer_count:
            raise RangeError(
                f"layer {layer} outside 1..{self.layer_count} for n={self.node_count}"
            )
        first = 1 << (layer - 1)
        last = min((1 << layer) - 1, self.node_count)
        return range(first, last + 1)

    @cached_property
    def layers(self) -> tuple[range, ...]:
        """``positions_in_layer`` of every layer, root first."""
        return tuple(self.positions_in_layer(layer) for layer in range(1, self.layer_count + 1))

    def child_ranges(self, positions: range) -> tuple[range, range]:
        """Left and right children of consecutive positions, as position ranges.

        Entry i of each range is a child of ``positions[i]``. Only the last
        positions of a run can lack a child, so the ranges are cut short
        rather than holding gaps.
        """
        stop = min(2 * positions.stop, self.node_count + 1)
        return range(2 * positions.start, stop, 2), range(2 * positions.start + 1, stop, 2)

    def _check_position(self, position: int) -> None:
        if not 1 <= position <= self.node_count:
            raise RangeError(f"position {position} outside 1..{self.node_count}")


def build_balanced_binary(n: int, permutation_seed: int = 0) -> TreeTopology:
    """Build the breadth-first-filled binary tree over ``n`` agents.

    Positions fill left to right; agent ids 1..n are assigned to positions via
    a uniform permutation drawn from ``permutation_seed``, so two calls with
    equal arguments produce identical trees.
    """
    if n < 1:
        raise InvalidSizeError(f"cannot build a tree over {n} agents")
    rng = np.random.default_rng(permutation_seed)
    stationed = tuple(int(a) + 1 for a in rng.permutation(n))
    return TreeTopology(node_count=n, agent_at=stationed)


def agents_in_layer(topology: TreeTopology, layer: int) -> set[int]:
    """Agent ids stationed at the given depth (1 = root layer)."""
    return {topology.agent_at[p - 1] for p in topology.positions_in_layer(layer)}
