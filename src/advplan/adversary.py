"""Adversarial configuration generators: severity levels and placements.

Placements come in three families: uniform random subsets, layer-confined
subsets at a ratio of the layer population, and cumulative prefixes of the
breadth-first order (top-down) or its reverse (bottom-up).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError, InvalidSizeError, RangeError
from .topology import TreeTopology

SEVERITY_LEVELS = 30
LAYER_RATIOS = (25, 50, 75, 100)
DIRECTIONS = ("top_down", "bottom_up")


def severity_grid() -> list[float]:
    """The 30-level severity ladder b/30 for b = 1..30 (last level exactly 1)."""
    return [b / SEVERITY_LEVELS for b in range(1, SEVERITY_LEVELS + 1)]


def layer_adversary_count(layer_size: int, p: int) -> int:
    """Number of adversaries a ratio p prescribes inside a layer, at least 1."""
    if layer_size < 1:
        raise InvalidSizeError(f"layer size must be >= 1, got {layer_size}")
    if p not in LAYER_RATIOS:
        raise InvalidInputError(f"ratio must be one of {LAYER_RATIOS}, got {p}")
    return max(1, -(-p * layer_size // 100))


def sample_k_subsets(
    population: list[int], k: int, cap: int, seed: int | np.random.Generator = 0
) -> list[frozenset[int]]:
    """All k-subsets if few enough, otherwise cap distinct uniform samples.

    The samples come from ``np.random.default_rng(seed)``, so ``seed`` is an
    int or a ``Generator`` to draw from.
    """
    if cap < 1:
        raise InvalidInputError(f"cap must be >= 1, got {cap}")
    if not 1 <= k <= len(population):
        raise InvalidInputError(f"cannot choose {k} of {len(population)} agents")
    population = sorted(population)
    total = math.comb(len(population), k)
    if total <= cap:
        return [frozenset(c) for c in itertools.combinations(population, k)]
    rng = np.random.default_rng(seed)
    pool = np.array(population)
    seen: set[tuple[int, ...]] = set()
    out: list[frozenset[int]] = []
    while len(out) < cap:
        pick = tuple(sorted(int(a) for a in rng.choice(pool, size=k, replace=False)))
        if pick not in seen:
            seen.add(pick)
            out.append(frozenset(pick))
    return out


def _canonical_direction(direction: str) -> str:
    name = direction.strip().lower().replace("-", "_")
    if name not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return name


def cumulative_positions(topology: TreeTopology, direction: str, m: int) -> set[int]:
    """First m agents along the breadth-first order or its exact reverse."""
    direction = _canonical_direction(direction)
    n = topology.node_count
    if not 1 <= m <= n:
        raise RangeError(f"m={m} outside 1..{n}")
    if direction == "top_down":
        span = range(1, m + 1)
    else:
        span = range(n, n - m, -1)
    return {topology.agent_at[pos - 1] for pos in span}


def random_adversary_draws(topology: TreeTopology, counts, states, rng) -> list:
    """The agent ids of one uniform draw without replacement per cell, in draw order.

    Cell i draws ``counts[i]`` of the n agents from the ``Generator`` ``rng``
    with its PCG64 set to ``states[i]``, so it draws what
    ``default_rng(seed).choice(np.arange(1, n + 1), counts[i], replace=False)``
    draws when ``states[i]`` is that generator's ``bit_generator.state``. The
    whole state is set for every cell, because a draw can leave a buffered
    32-bit half behind. The first count outside 0..n raises ``RangeError``.
    """
    n = topology.node_count
    bit_generator = rng.bit_generator
    draws = []
    for count, state in zip(counts, states):
        if not 0 <= count <= n:
            raise RangeError(f"count={count} outside 0..{n}")
        if count == 0:
            draws.append(np.empty(0, dtype=np.int64))
        else:
            bit_generator.state = state
            draws.append(rng.choice(n, size=count, replace=False) + 1)
    return draws


def random_adversaries(topology: TreeTopology, count: int, seed: int = 0) -> set[int]:
    """Uniform adversary subset of the given size, drawn without replacement:
    the one cell of ``random_adversary_draws`` seeded as ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    (drawn,) = random_adversary_draws(topology, [count], [rng.bit_generator.state], rng)
    return set(drawn.tolist())


def beta_rows(topology: TreeTopology, adversary_sets, severities) -> np.ndarray:
    """``(B, n)`` beta rows: row i holds ``severities[i]`` on the agents of
    ``adversary_sets[i]`` and 0 elsewhere, all 0 for an empty set.

    A severity outside (0, 1] with a non-empty set, or an agent id outside
    1..n, raises ``InvalidInputError``.
    """
    n = topology.node_count
    sizes = [len(adversaries) for adversaries in adversary_sets]
    for size, beta_d in zip(sizes, severities):
        if size and not 0.0 < beta_d <= 1.0:
            raise InvalidInputError(f"adversarial severity must be in (0, 1], got {beta_d}")
    ids = np.fromiter(itertools.chain.from_iterable(adversary_sets), np.intp, sum(sizes))
    unknown = ids[(ids < 1) | (ids > n)]
    if unknown.size:
        raise InvalidInputError(f"unknown agent ids {np.unique(unknown).tolist()}")
    betas = np.zeros((len(sizes), n))
    betas[np.repeat(np.arange(len(sizes)), sizes), ids - 1] = np.repeat(severities, sizes)
    return betas

