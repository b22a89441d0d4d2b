"""Iterative hierarchical plan selection over a tree of agents.

Each iteration runs a bottom-up phase, where every agent re-selects a plan
against the aggregate choices of its subtree plus last iteration's view of
the rest of the network, followed by a top-down phase that approves or rolls
back the proposed changes subtree by subtree. Only changes that strictly
decrease the scalarized global cost survive, so the accepted-cost trace is
non-increasing by construction.

``run_batch`` executes many runs that share a topology and plan sets at once:
the plans are stacked into ``P[n, k, d + 1]`` in position order, each plan a
row of its d values followed by its discomfort, and every per-run state array
carries the same trailing ``[values | discomfort]`` axis. The bottom-up phase
is one array step per tree layer for every node and run, and the top-down
walk visits each node once per iteration for all runs. ``run`` and
``run_baseline`` are batches of one.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from .costs import GlobalResponse, InefficiencyFn, scale_vector
from .errors import ConfigError, DimensionMismatchError, InvalidInputError
from .plans import PlanSet
from .topology import TreeTopology

INITIAL_SELECTION_MODES = ("first_plan", "random")

# Reference costs below this are treated as zero when normalizing.
_TINY = 1e-12
# Bottom-up candidate tensors (nodes x runs x plans x dimension) are built in
# chunks of nodes holding at most this many floats.
_CHUNK_FLOATS = 1 << 16
# Per-run state arrays of one batch, such as the (n, runs, d) subtree sums,
# hold about this many floats at most.
_STATE_FLOATS = 1 << 20


@dataclass(frozen=True)
class BehaviorProfile:
    """Per-agent weighting between system inefficiency and own discomfort.

    ``beta[a]`` is agent a's weight on its own discomfort; the inefficiency
    weight is always ``1 - beta[a]``. Legitimate agents sit at beta 0,
    adversaries anywhere in (0, 1].
    """

    beta: dict[int, float]

    def __post_init__(self) -> None:
        for agent, b in self.beta.items():
            if not 0.0 <= b <= 1.0:
                raise InvalidInputError(f"beta for agent {agent} must be in [0, 1], got {b}")

    @classmethod
    def uniform(cls, agent_ids, beta: float) -> "BehaviorProfile":
        return cls(beta={int(a): float(beta) for a in agent_ids})

    def alpha(self, agent_id: int) -> float:
        return 1.0 - self.beta[agent_id]

    @property
    def adversaries(self) -> set[int]:
        return {a for a, b in self.beta.items() if b > 0.0}

    @property
    def legitimate(self) -> set[int]:
        return {a for a, b in self.beta.items() if b == 0.0}

    def mean_weights(self) -> tuple[float, float]:
        """Population means of (alpha, beta), used for the global cost."""
        betas = np.fromiter(self.beta.values(), dtype=float)
        mean_beta = float(betas.mean())
        return 1.0 - mean_beta, mean_beta


@dataclass(frozen=True)
class RunConfig:
    max_iterations: int = 40
    inefficiency: InefficiencyFn = field(default_factory=InefficiencyFn)
    rng_seed: int = 0
    initial_selection: str = "first_plan"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        mode = self.initial_selection.strip().lower().replace("-", "_")
        if mode == "first":
            mode = "first_plan"
        if mode not in INITIAL_SELECTION_MODES:
            raise ConfigError(f"unknown initial_selection mode {self.initial_selection!r}")
        object.__setattr__(self, "initial_selection", mode)


@dataclass
class RunOutcome:
    """Final joint selection plus per-iteration traces of one run."""

    selections: dict[int, int]
    global_response: GlobalResponse
    global_inefficiency: float
    discomfort_per_agent: dict[int, float]
    iterations_used: int
    inefficiency_trace: list[float]
    combined_cost_trace: list[float]
    mean_alpha: float
    mean_beta: float

    def mean_discomfort(self, agents=None) -> float:
        """Mean selected discomfort over the given agents (all by default)."""
        pool = self.discomfort_per_agent if agents is None else {
            a: self.discomfort_per_agent[a] for a in agents
        }
        if not pool:
            return 0.0
        return float(np.mean(list(pool.values())))


def _max_batch(n: int, k: int, d: int) -> int:
    """Most runs one array batch holds, for n agents with k plans of dimension d.

    Keeps each per-run state array of a batch near ``_STATE_FLOATS`` floats,
    and at least one node's candidates inside a bottom-up chunk.
    """
    return max(1, min(_STATE_FLOATS // (n * d), _CHUNK_FLOATS // (k * d)))


def split_batches(plan_sets: list[PlanSet], items):
    """Yield ``items`` in consecutive lists of at most one array batch each.

    ``run_batch`` takes any number of runs over ``plan_sets`` but puts them
    through its arrays this many at a time. A caller that handles runs per
    batch, to retry a failed batch say, splits them here and holds only one
    batch of them at a time.
    """
    k = max(ps.k for ps in plan_sets)
    cap = _max_batch(len(plan_sets), k, plan_sets[0].dimension)
    items = iter(items)
    while batch := list(itertools.islice(items, cap)):
        yield batch


def _rows(positions: range) -> slice:
    """Array rows of a range of tree positions; row p - 1 holds position p."""
    return slice(positions.start - 1, positions.stop - 1, positions.step)


def _add_children(acc: np.ndarray, src: np.ndarray, topology: TreeTopology, positions) -> None:
    """Add the rows of each position's left child, then of its right child.

    ``acc[j]`` belongs to ``positions[j]``. Positions without that child are
    skipped; left before right is the order the per-node recursion added
    them in.
    """
    for children in topology.child_ranges(positions):
        acc[: len(children)] += src[_rows(children)]


def _subtree_sums(own: np.ndarray, topology: TreeTopology) -> np.ndarray:
    """Turn per-position rows into subtree sums in place, deepest layer first.

    Each row becomes its own value, plus its left child's sum, plus its
    right child's sum, added in that order.
    """
    for layer in reversed(topology.layers):
        _add_children(own[_rows(layer)], own, topology, layer)
    return own


def _choose(P, alpha, beta, ctx, n: int, ineff: InefficiencyFn) -> np.ndarray:
    """Plan index per (node, run) minimizing the weighted normalized costs.

    ``P[m, k, d + 1]`` holds the nodes' plans, ``alpha`` and ``beta`` are
    ``(m, B)``, and ``ctx`` is the ``(m, B, d + 1)`` rest of the network.
    Both cost terms are min-max normalized over the k candidates so the
    weights interpolate between the pure regimes; ties resolve to the lowest
    index.
    """
    cand = ctx[:, :, None, :] + P[:, None]
    ineff_costs = ineff.batch(cand[..., :-1])
    disc_costs = cand[..., -1] / n
    score = (
        alpha[..., None] * scale_vector(ineff_costs, "min-max")
        + beta[..., None] * scale_vector(disc_costs, "min-max")
    )
    return score.argmin(axis=-1)


def select_plan(
    agent: PlanSet,
    behavior: tuple[float, float],
    context_response: GlobalResponse,
    context_discomforts,
    ineff: InefficiencyFn,
) -> int:
    """Pick the plan index for one agent given the rest of the network.

    ``context_response`` must already exclude the agent's own contribution;
    ``context_discomforts`` holds the other agents' current discomforts, which
    the candidate's own discomfort joins through the mean aggregation.
    """
    alpha, beta = behavior
    context_response = np.asarray(context_response, dtype=float)
    if context_response.shape[0] != agent.dimension:
        raise DimensionMismatchError(
            f"context has dimension {context_response.shape[0]}, plans {agent.dimension}"
        )
    others = np.asarray(list(context_discomforts), dtype=float)
    choice = _choose(
        np.column_stack([agent.value_matrix(), agent.discomforts()])[None],
        np.array([[alpha]], dtype=float),
        np.array([[beta]], dtype=float),
        np.append(context_response, others.sum())[None, None],
        others.size + 1,
        ineff,
    )
    return int(choice[0, 0])


def subtree_sums(
    topology: TreeTopology, values_by_pos: list[np.ndarray], selections: np.ndarray
) -> np.ndarray:
    """Aggregate selected plans per subtree without double counting.

    Returns an (n, d) array where row p-1 is the elementwise sum of the plans
    selected inside the subtree rooted at position p: the node's own selection
    plus its children's aggregates.
    """
    n = topology.node_count
    own = np.array([values_by_pos[p][selections[p]] for p in range(n)], dtype=float)
    return _subtree_sums(own, topology)


def _stack_plans(topology: TreeTopology, plan_sets: list[PlanSet], config: RunConfig):
    """Plans in position order as ``P[n, k, d + 1]``, plus the true counts.

    ``P[p, i]`` is plan i of position p + 1: its values, then its discomfort.
    Agents with fewer plans than the largest set repeat their last plan; the
    copies tie with it and ties go to the lower index, so they are never
    chosen over it.
    """
    n = topology.node_count
    if len(plan_sets) != n:
        raise ConfigError(f"{len(plan_sets)} plan sets for a {n}-node topology")
    by_agent = {ps.agent_id: ps for ps in plan_sets}
    if by_agent.keys() != set(range(1, n + 1)):
        raise ConfigError("plan-set agent ids must cover 1..n exactly")
    dims = {ps.dimension for ps in plan_sets}
    if len(dims) != 1:
        raise ConfigError(f"plan dimensions differ across agents: {sorted(dims)}")
    d = dims.pop()
    ineff = config.inefficiency
    if ineff.kind == "rss" and ineff.target.shape[0] != d:
        raise ConfigError(f"target signal has dimension {ineff.target.shape[0]}, plans {d}")

    ordered = [by_agent[a] for a in topology.agent_at]
    counts = [ps.k for ps in ordered]
    k = max(counts)
    P = np.empty((n, k, d + 1))
    if min(counts) == k:
        P[..., :d] = np.stack([ps.value_matrix() for ps in ordered])
        P[..., d] = np.stack([ps.discomforts() for ps in ordered])
        return P, counts
    for p, ps in enumerate(ordered):
        P[p, : ps.k, :d] = ps.value_matrix()
        P[p, : ps.k, d] = ps.discomforts()
        P[p, ps.k :] = P[p, ps.k - 1]
    return P, counts


def run_batch(
    topology: TreeTopology,
    plan_sets: list[PlanSet],
    behaviors,
    config: RunConfig,
    seeds,
) -> list[RunOutcome]:
    """Execute several runs that share a topology, plan sets and config.

    Run i uses ``behaviors[i]`` and takes ``seeds[i]`` in place of
    ``config.rng_seed``. Each outcome is bit for bit the one the run gives on
    its own: every array operation acts on each run's rows separately. A run
    is a pure function of its beta values (in profile order) and, under
    ``random`` initial selection only, its seed; runs that repeat an earlier
    one are executed once and get their own deep copy of its outcome. The
    distinct runs go through the arrays in the batches of ``split_batches``.
    """
    behaviors, seeds = list(behaviors), list(seeds)
    if len(behaviors) != len(seeds):
        raise ConfigError(f"{len(behaviors)} behavior profiles for {len(seeds)} seeds")
    P, counts = _stack_plans(topology, plan_sets, config)
    seeded = config.initial_selection == "random"
    first_of: dict = {}
    firsts = []
    for j, (b, s) in enumerate(zip(behaviors, seeds)):
        key = (tuple(b.beta), np.fromiter(b.beta.values(), float).tobytes(), s if seeded else None)
        firsts.append(first_of.setdefault(key, j))
    done: dict[int, RunOutcome] = {}
    for batch in split_batches(plan_sets, list(first_of.values())):
        runs = _run_arrays(
            topology, P, counts, [behaviors[i] for i in batch], config, [seeds[i] for i in batch]
        )
        done.update(zip(batch, runs))
    return [done[i] if i == j else copy.deepcopy(done[i]) for j, i in enumerate(firsts)]


def _run_arrays(topology, P, counts, behaviors, config, seeds) -> list[RunOutcome]:
    """The iterations of one batch; arrays are node-major, ``(n, B, ...)``.

    Per iteration, positions are processed leaves-to-root: each agent sees the
    previous global response with its own subtree's stale contribution swapped
    for the children's fresh aggregates, re-selects, and hands its subtree
    aggregate upward. The top-down phase then decides, per subtree, between
    adopting its proposed changes wholesale and keeping the node at its
    previous selection while the children are considered on their own;
    whichever leaves the working global state at the strictly lower
    scalarized cost is kept, so unhelpful proposals revert. A run leaves the
    batch once a pass approves no change, since it is deterministic from
    there on.
    """
    n, k, d = P.shape[0], P.shape[1], P.shape[2] - 1
    ineff = config.inefficiency
    agents = topology.agent_at
    positions = np.asarray(agents)
    count = len(behaviors)
    everyone = set(agents)
    beta = np.empty((n, count))
    by_agent = np.empty(n + 1)
    for b, behavior in enumerate(behaviors):
        if behavior.beta.keys() != everyone:
            raise ConfigError("behavior profile must cover every agent exactly once")
        by_agent[list(behavior.beta)] = list(behavior.beta.values())
        beta[:, b] = by_agent[positions]
    alpha = 1.0 - beta
    weights = [behavior.mean_weights() for behavior in behaviors]
    mean_alpha, mean_beta = np.array(weights).reshape(count, 2).T

    if config.initial_selection == "random":
        sel = np.empty((n, count), dtype=np.intp)
        for b, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            sel[:, b] = [rng.integers(c) for c in counts]
    else:
        sel = np.zeros((n, count), dtype=np.intp)

    rows = np.arange(n)[:, None]
    children = [[c - 1 for c in topology.children_of(p)] for p in range(1, n + 1)]

    def settle(sel):
        """Per-run state of a joint selection: own discomforts, subtree sums, totals.

        ``subtree[p, b]`` is ``[values | discomfort]`` summed over the subtree
        of position p + 1; ``total[b]`` is the root's value sum next to the
        plain sum of all own discomforts.
        """
        own = P[rows, sel]
        disc = own[..., d].copy()
        subtree = _subtree_sums(own, topology)
        total = subtree[0].copy()
        total[:, d] = np.ascontiguousarray(disc.T).sum(axis=1)
        return disc, subtree, total

    disc, subtree, total = settle(sel)
    # Fixed per-run references keep the scalarized cost comparable across
    # iterations; a monotone accepted-cost trace follows from strict-decrease
    # approvals against them.
    ineff_ref = ineff(total[:, :d])
    ineff_ref = np.where(ineff_ref > _TINY, ineff_ref, 1.0)
    disc_ref = float(np.mean(P[..., d].max(axis=1)))
    disc_ref = disc_ref if disc_ref > _TINY else 1.0

    def combined(state: np.ndarray) -> np.ndarray:
        """Scalarized cost of ``(B, d + 1)`` states ``[response | discomfort sum]``."""
        return (
            mean_alpha * ineff(state[:, :d]) / ineff_ref
            + mean_beta * (state[:, d] / n) / disc_ref
        )

    cost = combined(total)
    ineff_traces = [[v] for v in ineff(total[:, :d]).tolist()]
    combined_traces = [[v] for v in cost.tolist()]
    outcomes: list[RunOutcome | None] = [None] * count
    active = np.arange(count)

    for iteration in range(1, config.max_iterations + 1):
        cand_sel, cand = _bottom_up(topology, P, alpha, beta, subtree, total, ineff)
        taken = _top_down(topology, children, cand - subtree, total, cost, combined)
        new_sel = np.where(taken, cand_sel, sel)
        changed = (new_sel != sel).any(axis=0)
        sel = new_sel
        disc, subtree, total = settle(sel)
        cost = combined(total)
        for b, i, c in zip(active.tolist(), ineff(total[:, :d]).tolist(), cost.tolist()):
            ineff_traces[b].append(i)
            combined_traces[b].append(c)

        done = ~changed if iteration < config.max_iterations else np.ones_like(changed)
        for j in np.flatnonzero(done).tolist():
            b = int(active[j])
            trace = combined_traces[b]
            # Approval rule makes this hold by construction; guard against regressions.
            assert all(
                y <= x + 1e-9 for x, y in zip(trace, trace[1:])
            ), "accepted combined-cost trace must be non-increasing"
            outcomes[b] = RunOutcome(
                selections=dict(zip(agents, sel[:, j].tolist())),
                global_response=total[j, :d].copy(),
                global_inefficiency=ineff_traces[b][-1],
                discomfort_per_agent=dict(zip(agents, disc[:, j].tolist())),
                iterations_used=iteration,
                inefficiency_trace=ineff_traces[b],
                combined_cost_trace=trace,
                mean_alpha=weights[b][0],
                mean_beta=weights[b][1],
            )
        if done.all():
            break
        keep = ~done
        active = active[keep]
        sel, subtree, alpha, beta = (a[:, keep] for a in (sel, subtree, alpha, beta))
        total, cost, mean_alpha, mean_beta, ineff_ref = (
            a[keep] for a in (total, cost, mean_alpha, mean_beta, ineff_ref)
        )
    return outcomes


def _bottom_up(topology, P, alpha, beta, subtree, total, ineff):
    """Every node's proposal, one tree layer at a time from the leaves up.

    A node sees last iteration's accepted state with its own subtree swapped
    for its children's fresh proposals. Layers go in chunks of nodes small
    enough that the ``(nodes, B, k, d + 1)`` candidate tensor stays bounded.
    """
    n, k, width = P.shape
    runs = total.shape[0]
    cand_sel = np.empty((n, runs), dtype=np.intp)
    cand = np.empty_like(subtree)
    step = max(1, _CHUNK_FLOATS // (runs * k * (width - 1)))
    for layer in reversed(topology.layers):
        for first in range(0, len(layer), step):
            chunk = layer[first : first + step]
            at = _rows(chunk)
            child = np.zeros((len(chunk), runs, width))
            _add_children(child, cand, topology, chunk)
            choice = _choose(P[at], alpha[at], beta[at], total - subtree[at] + child, n, ineff)
            cand_sel[at] = choice
            cand[at] = P[np.arange(at.start, at.stop)[:, None], choice] + child
    return cand_sel, cand


def _top_down(topology, children, delta, total, cost, combined) -> np.ndarray:
    """Which nodes adopt their proposal, for every run of the batch at once.

    The depth-first walk visits each node once. Per subtree it weighs three
    outcomes: adopt every proposed change in it (whole), keep the node and
    let the children decide for themselves (parts), or keep everything
    (keep). Whichever leaves the working global state cheapest wins, and
    nothing is kept without a strict gain. Only the whole option needs a
    cost call: keep costs what the caller's running state costs, and parts
    costs what the last child returned (keep's cost at a leaf). A node whose
    ``delta`` row is exactly zero in every run makes no call either: its
    whole option is the running state itself, never strictly cheaper, so a
    leaf returns the state untouched. ``children[i]`` lists the rows of row
    i's children; states are ``(B, d + 1)``, as ``combined`` takes them.
    """
    whole = np.zeros(delta.shape[:2], dtype=bool)
    parts = np.zeros_like(whole)
    moved = delta.any(axis=(1, 2)).tolist()

    def approve(i, g, cost):
        if not moved[i] and not children[i]:
            return g, cost
        g_whole = g + delta[i] if moved[i] else g
        cost_whole = combined(g_whole) if moved[i] else cost
        if not children[i]:
            w = cost_whole < cost
            whole[i] = w
            return np.where(w[:, None], g_whole, g), np.where(w, cost_whole, cost)
        g_parts, cost_parts = g, cost
        for child in children[i]:
            g_parts, cost_parts = approve(child, g_parts, cost_parts)
        w = (cost_whole < cost_parts) & (cost_whole < cost)
        p = (cost_parts < cost) & ~w
        whole[i], parts[i] = w, p
        return (
            np.where(w[:, None], g_whole, np.where(p[:, None], g_parts, g)),
            np.where(w, cost_whole, np.where(p, cost_parts, cost)),
        )

    approve(0, total, cost)
    # A node adopts its proposal when some node on its root path was approved
    # whole and every node above that one was approved by parts.
    taken = whole.copy()
    reach = np.ones_like(whole)
    for layer in topology.layers[:-1]:
        for kids in topology.child_ranges(layer):
            up, at = _rows(layer[: len(kids)]), _rows(kids)
            reach[at] = reach[up] & parts[up]
            taken[at] = taken[up] | (reach[at] & whole[at])
    return taken


def run(
    topology: TreeTopology,
    plan_sets: list[PlanSet],
    behavior: BehaviorProfile,
    config: RunConfig,
) -> RunOutcome:
    """Execute the iterative optimization until convergence or the limit."""
    return run_batch(topology, plan_sets, [behavior], config, [config.rng_seed])[0]


def run_baseline(
    topology: TreeTopology, plan_sets: list[PlanSet], config: RunConfig
) -> RunOutcome:
    """Reference run with every agent legitimate (beta 0 across the board)."""
    profile = BehaviorProfile.uniform((ps.agent_id for ps in plan_sets), 0.0)
    return run(topology, plan_sets, profile, config)
