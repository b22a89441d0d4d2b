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

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import SHORT_AXIS, GlobalResponse, InefficiencyFn, scale_vector
from .errors import ConfigError, InvalidInputError
from .plans import PlanSet, check_finite
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
# The top-down walk costs the whole options of at most this many changed
# nodes in one stacked cost call.
_BLOCK_NODES = 16


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as a C-contiguous array of ``dtype``."""
    array = np.array(values, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class BehaviorProfile:
    """Per-agent weighting between system inefficiency and own discomfort.

    ``beta[a - 1]`` is agent a's weight on its own discomfort; the
    inefficiency weight is always ``1 - beta[a - 1]``. Legitimate agents sit
    at beta 0, adversaries anywhere in (0, 1]. ``beta`` is given in agent-id
    order or as a mapping over the agent ids 1..n, and kept as a read-only
    float array.
    """

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = self.beta
        if isinstance(beta, Mapping):
            if beta.keys() != set(range(1, len(beta) + 1)):
                raise ConfigError("behavior profile must cover every agent exactly once")
            beta = [beta[a] for a in range(1, len(beta) + 1)]
        beta = _read_only(beta, float)
        _check_betas(beta)
        object.__setattr__(self, "beta", beta)


def _check_betas(betas: np.ndarray) -> None:
    """Raise ``InvalidInputError`` naming the first beta outside [0, 1]."""
    outside = np.argwhere(~((betas >= 0.0) & (betas <= 1.0)))
    if outside.size:
        at = tuple(outside[0])
        raise InvalidInputError(f"beta for agent {at[-1] + 1} must be in [0, 1], got {betas[at]}")


def check_magnitude(n: int, d: int, *values: np.ndarray) -> None:
    """Raise ``InvalidInputError`` unless plan and target ``values`` keep the costs of n
    agents in d dimensions finite: a cost sums d squares of at most 2n times their
    largest magnitude, and the scalarized cost divides it by as little as ``_TINY``."""
    largest = max(max(v.max(), -v.min()) for v in values)
    bound = np.sqrt(np.finfo(float).max * _TINY / (2 * d)) / (2 * n)
    if largest > bound:
        raise InvalidInputError(f"plan or target values reach {largest:.6g}; the costs of {n} "
                                f"agents in {d} dimensions stay finite only up to {bound:.6g}")


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


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """Final joint selection plus per-iteration traces of one run.

    ``selection[a - 1]`` is the plan index agent a ends on (an intp array)
    and ``discomfort[a - 1]`` that plan's discomfort. The engine hands out
    read-only arrays, so runs that repeat one another share one outcome.
    """

    selection: np.ndarray
    global_response: GlobalResponse
    global_inefficiency: float
    discomfort: np.ndarray
    iterations_used: int
    inefficiency_trace: tuple[float, ...]
    combined_cost_trace: tuple[float, ...]

    @property
    def selections(self) -> dict[int, int]:
        """``{agent id: plan index}``, derived from ``selection``."""
        return dict(enumerate(self.selection.tolist(), 1))


def _max_batch(n: int, k: int, d: int) -> int:
    """Most runs one array batch holds, for n agents with k plans of dimension d.

    Keeps each per-run state array of a batch near ``_STATE_FLOATS`` floats,
    and at least one node's candidates inside a bottom-up chunk.
    """
    return max(1, min(_STATE_FLOATS // (n * d), _CHUNK_FLOATS // (k * d)))


def split_batches(plan_sets: list[PlanSet], items):
    """Yield ``items`` in consecutive lists of at most one array batch each,
    the most runs over ``plan_sets`` that ``run_batch`` puts through its
    arrays at a time; a caller that retries failed batches splits here."""
    cap = _max_batch(len(plan_sets), plan_sets[0].k, plan_sets[0].dimension)
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
    index. Variance over a short d reduces column by column, whose bits do
    not depend on the layout, so there the candidates are built one column
    at a time as ``(d + 1, m, k, B)`` and every step runs along the runs.
    RSS products and long sums do depend on it and keep the row-major stack.
    """
    m, k, width = P.shape
    if ineff.kind == "variance" and width - 1 < SHORT_AXIS:
        cand = np.empty((width, m, k, ctx.shape[1]))
        for j in range(width):
            np.add(ctx[:, None, :, j], P[:, :, None, j], out=cand[j])
        cand = cand.transpose(1, 3, 2, 0)
    else:
        cand = ctx[:, :, None, :] + P[:, None]
    ineff_costs = ineff.batch(cand[..., :-1])
    disc_costs = cand[..., -1] / n
    score = (
        alpha[..., None] * scale_vector(ineff_costs, "min-max")
        + beta[..., None] * scale_vector(disc_costs, "min-max")
    )
    return score.argmin(axis=-1)


def _stack_plans(topology: TreeTopology, plan_sets: list[PlanSet], config: RunConfig):
    """Plans in position order as ``P[n, k, d + 1]``; every agent holds k plans.

    ``P[p, i]`` is plan i of position p + 1: its values, then its discomfort.
    """
    n = topology.node_count
    if len(plan_sets) != n:
        raise ConfigError(f"{len(plan_sets)} plan sets for a {n}-node topology")
    by_agent = {ps.agent_id: ps for ps in plan_sets}
    if by_agent.keys() != set(range(1, n + 1)):
        raise ConfigError("plan-set agent ids must cover 1..n exactly")
    dims, counts = {ps.dimension for ps in plan_sets}, {ps.k for ps in plan_sets}
    if len(dims) != 1:
        raise ConfigError(f"plan dimensions differ across agents: {sorted(dims)}")
    if len(counts) != 1:
        raise ConfigError(f"plan counts differ across agents: {sorted(counts)}")
    d = dims.pop()
    ineff = config.inefficiency
    if ineff.kind == "rss":
        if ineff.target.shape[-1] != d:
            raise ConfigError(f"target signal has dimension {ineff.target.shape[-1]}, plans {d}")
        rows = ineff.target.reshape(-1, d)
        bad = rows[~np.isfinite(rows).all(axis=1)]
        if len(bad):
            raise InvalidInputError(f"target signal {bad[0].tolist()} holds NaN or an infinity")

    ordered = [by_agent[a] for a in topology.agent_at]
    k = counts.pop()
    P = np.empty((n, k, d + 1))
    P[..., :d] = np.concatenate([ps.value_matrix() for ps in ordered]).reshape(n, k, d)
    P[..., d] = np.concatenate([ps.discomforts() for ps in ordered]).reshape(n, k)
    if not np.isfinite(P).all():
        check_finite(plan_sets)
    check_magnitude(n, d, P, *([ineff.target] if ineff.kind == "rss" else []))
    return P


def run_batch(
    topology: TreeTopology,
    plan_sets: list[PlanSet],
    betas,
    config: RunConfig,
    seeds,
) -> list[RunOutcome]:
    """Execute several runs that share a topology, plan sets and config.

    Run i has the ``BehaviorProfile`` beta vector ``betas[i]`` of a ``(B, n)``
    array and takes ``seeds[i]`` in place of ``config.rng_seed``. An RSS
    target is every run's, or a ``(B, d)`` stack gives run i the row
    ``target[i]``. Each outcome is bit for bit the one the run gives on its
    own: every array operation acts on each run's rows separately. A run is
    a pure function of its beta row, its target and, under ``random``
    initial selection only, its seed; runs that repeat an earlier one are
    executed once and share its read-only outcome. The distinct runs go
    through the arrays in the batches of ``split_batches``. Plan sets that
    differ in dimension or plan count raise ``ConfigError``, and a plan or
    target holding NaN, an infinity (naming it) or values that overflow a
    cost (``check_magnitude``) ``InvalidInputError``, before any iteration.
    """
    betas, seeds = np.ascontiguousarray(betas, dtype=float), list(seeds)
    if betas.shape[:1] != (len(seeds),):
        raise ConfigError(f"beta rows of shape {betas.shape} for {len(seeds)} seeds")
    if seeds and betas.shape[1:] != (topology.node_count,):
        raise ConfigError("beta rows must cover every agent exactly once")
    _check_betas(betas)
    P = _stack_plans(topology, plan_sets, config)
    ineff, targets = config.inefficiency, [None] * len(seeds)
    if ineff.kind == "rss":
        if ineff.target.ndim == 2 and len(ineff.target) != len(seeds):
            raise ConfigError(f"{len(ineff.target)} target rows for {len(seeds)} seeds")
        ineff = replace(ineff, target=np.broadcast_to(ineff.target, (len(seeds), P.shape[2] - 1)))
        targets = [row.tobytes() for row in ineff.target]
    seeded = config.initial_selection == "random"
    first_of: dict = {}
    firsts = [
        first_of.setdefault((row.tobytes(), target, s if seeded else None), j)
        for j, (row, target, s) in enumerate(zip(betas, targets, seeds))
    ]
    done: dict[int, RunOutcome] = {}
    for batch in split_batches(plan_sets, list(first_of.values())):
        batch_config = replace(config, inefficiency=ineff.take(batch))
        runs = _run_arrays(topology, P, betas[batch], batch_config, [seeds[i] for i in batch])
        done.update(zip(batch, runs))
    return [done[i] for i in firsts]


def _run_arrays(topology, P, betas, config, seeds) -> list[RunOutcome]:
    """The iterations of one batch; arrays are node-major, ``(n, B, ...)``.

    Each iteration is a bottom-up pass, where every agent re-selects against
    the previous global response with its own subtree swapped for its
    children's fresh proposals, and a top-down pass that keeps a proposal
    only at a strictly lower scalarized cost. A run leaves the batch once a
    pass approves no change, since it is deterministic from there on. An
    RSS target is a ``(B, d)`` stack, one row per run.
    """
    n, k, d = P.shape[0], P.shape[1], P.shape[2] - 1
    ineff = config.inefficiency
    # Row p of the node-major arrays holds agent order[p] + 1, and row
    # by_id[a - 1] holds agent a.
    order = np.asarray(topology.agent_at) - 1
    by_id = np.argsort(order)
    count = len(betas)
    beta = betas.T[order]
    alpha = 1.0 - beta
    # Population means of beta and alpha weigh the global cost.
    mean_beta = betas.mean(axis=1)
    mean_alpha = 1.0 - mean_beta

    # One array draw per run gives the integers of one draw per position.
    sel = np.zeros((n, count), dtype=np.intp)
    if config.initial_selection == "random":
        for b, seed in enumerate(seeds):
            sel[:, b] = np.random.default_rng(seed).integers(k, size=n)

    rows = np.arange(n)[:, None]
    children = [[c - 1 for c in topology.children_of(p)] for p in range(1, n + 1)]
    preorder = _preorder(children)

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
    ineff_total = ineff(total[:, :d])
    # Fixed per-run references keep the scalarized cost comparable across
    # iterations; a monotone accepted-cost trace follows from strict-decrease
    # approvals against them.
    ineff_ref = np.where(ineff_total > _TINY, ineff_total, 1.0)
    disc_ref = float(np.mean(P[..., d].max(axis=1)))
    disc_ref = disc_ref if disc_ref > _TINY else 1.0

    def scalarized(ineff_values: np.ndarray, disc_sums: np.ndarray) -> np.ndarray:
        """Scalarized cost from the inefficiencies and discomfort sums of states."""
        return mean_alpha * ineff_values / ineff_ref + mean_beta * (disc_sums / n) / disc_ref

    def combined(state: np.ndarray) -> np.ndarray:
        """Scalarized cost of ``(..., B, d + 1)`` states ``[response | discomfort sum]``.

        Every ``(B, d + 1)`` slice of a stack costs what it costs on its own.
        """
        return scalarized(ineff(state[..., :d]), state[..., d])

    cost = scalarized(ineff_total, total[:, d])
    # traces[0, b] is run b's inefficiency after each iteration, traces[1, b]
    # its scalarized cost; column 0 holds the initial state. A batch stops once
    # its runs converge, which can be long before a large max_iterations, so
    # the columns double as the iterations reach them.
    traces = np.empty((2, count, 2))
    traces[:, :, 0] = ineff_total, cost
    outcomes: list[RunOutcome | None] = [None] * count
    active = np.arange(count)

    for iteration in range(1, config.max_iterations + 1):
        cand_sel, cand = _bottom_up(topology, P, alpha, beta, subtree, total, ineff)
        taken = _top_down(topology, children, preorder, cand - subtree, total, cost, combined)
        last_sel, last_cost = sel, cost
        sel = np.where(taken, cand_sel, sel)
        changed = (sel != last_sel).any(axis=0)
        disc, subtree, total = settle(sel)
        ineff_total = ineff(total[:, :d])
        cost = scalarized(ineff_total, total[:, d])
        # The walk approved by the cost of ``state + Δ``, which ``settle``
        # sums in another order; a run whose settled cost rose by that keeps
        # its last selection and has converged.
        rose = cost > last_cost + 1e-9
        if rose.any():
            sel = np.where(rose, last_sel, sel)
            changed &= ~rose
            disc, subtree, total = settle(sel)
            ineff_total = ineff(total[:, :d])
            cost = scalarized(ineff_total, total[:, d])
        if iteration == traces.shape[2]:
            traces = np.concatenate([traces, np.empty_like(traces)], axis=2)
        traces[:, active, iteration] = ineff_total, cost

        done = ~changed if iteration < config.max_iterations else np.ones_like(changed)
        finished = active[done]
        cost_trace = traces[1, finished, : iteration + 1]
        # Approval rule makes this hold by construction; guard against regressions.
        assert (
            cost_trace[:, 1:] <= cost_trace[:, :-1] + 1e-9
        ).all(), "accepted combined-cost trace must be non-increasing"
        # The finished runs' outcomes are rows of one read-only block per array.
        selection = _read_only(sel[:, done][by_id].T, np.intp)
        discomfort = _read_only(disc[:, done][by_id].T, float)
        response = _read_only(total[done, :d], float)
        ineff_rows, cost_rows = traces[:, finished, : iteration + 1].tolist()
        for j, b in enumerate(finished.tolist()):
            outcomes[b] = RunOutcome(selection[j], response[j], ineff_rows[j][-1], discomfort[j],
                                     iteration, tuple(ineff_rows[j]), tuple(cost_rows[j]))
        if done.all():
            break
        keep = ~done
        active = active[keep]
        ineff = ineff.take(keep)
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


def _preorder(children) -> list[int]:
    """Rows in the order the depth-first top-down walk first visits them."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(children[i]))
    return order


def _top_down(topology, children, preorder, delta, total, cost, combined) -> np.ndarray:
    """Which nodes adopt their proposal, for every run of the batch at once.

    The depth-first walk visits each node once. Per subtree it weighs three
    outcomes: adopt every proposed change in it (whole), keep the node and
    let the children decide for themselves (parts), or keep everything
    (keep). Whichever leaves the working global state cheapest wins, and
    nothing is kept without a strict gain. Only the whole option needs a
    cost: keep costs what the caller's running state costs, and parts costs
    what the last child returned (keep's cost at a leaf). A node whose
    ``delta`` row is exactly zero in every run needs none either: its whole
    option is the running state itself, never strictly cheaper.

    Whole options are costed in blocks. A changed node that finds no cost
    for its running state stacks ``state + delta`` for itself and for the
    changed nodes after it in ``preorder``, and costs them in one call.
    ``approve`` hands on the arrays it was given, or its last child's, until
    some node approves a change in some run, so the nodes that follow find
    the same running state and read their costs from the block; the first
    approval makes a new state, and the next changed node builds a new
    block. Each stacked state is the same addition from the same arrays as
    a lone one, and ``combined`` reduces each slice on its own, so the costs
    have the same bits. ``children[i]`` lists the rows of row i's children;
    states are ``(B, d + 1)``, stacks ``(..., B, d + 1)``.

    A block is wasted past the first approval, so block lengths follow how
    far the walk gets: 4 nodes first, twice the last length after a block
    used to its end, 2u after one cut short at u nodes, at most
    ``_BLOCK_NODES``.
    """
    whole = np.zeros(delta.shape[:2], dtype=bool)
    parts = np.zeros_like(whole)
    moved = delta.any(axis=(1, 2)).tolist()
    changed = [i for i in preorder if moved[i]]
    slot = {i: s for s, i in enumerate(changed)}
    changed_delta = delta[changed]
    # (state, cost, slot of its first node, stacked states, their costs,
    # whether each is cheaper than the cost in some run)
    block = (None, None, 0, None, None, [])
    size, last = 2, 0

    def whole_option(i, g, cost):
        """Row i's block and its index in it, for running state ``g``."""
        nonlocal block, size, last
        s = slot[i]
        first, stop = block[2], block[2] + len(block[5])
        if block[0] is not g or block[1] is not cost or s >= stop:
            size = min(_BLOCK_NODES, 2 * (size if s >= stop else last - first + 1))
            states = g + changed_delta[s : s + size]
            costs = combined(states)
            block = (g, cost, s, states, costs, (costs < cost).any(axis=1).tolist())
        last = s
        return block, s - block[2]

    def approve(i, g, cost):
        """Running state and cost after row i's subtree is decided.

        Each run's row comes back either bit for bit as given, cost
        included, or strictly cheaper. A subtree that changes nothing in any
        run hands back the given arrays, and a node that approves nothing
        itself hands back its last child's.
        """
        kids = children[i]
        cheaper = False
        if moved[i]:
            (_, _, _, states, costs, flags), j = whole_option(i, g, cost)
            cheaper = flags[j]
        g_parts, cost_parts = g, cost
        for child in kids:
            g_parts, cost_parts = approve(child, g_parts, cost_parts)
        # parts beats keep exactly in the runs the children changed, and
        # g_parts holds keep's rows in all the others; cost_parts never
        # exceeds cost, so whatever beats parts beats keep.
        w = costs[j] < cost_parts if cheaper else None
        if cost_parts is not cost:
            p = cost_parts < cost
            parts[i] = p if w is None else p & ~w
        if w is None or not w.any():
            return g_parts, cost_parts
        whole[i] = w
        return np.where(w[:, None], states[j], g_parts), np.where(w, costs[j], cost_parts)

    approve(0, total, cost)
    # The recursive closure refers to itself, a cycle that would keep the
    # last block and changed_delta alive until the garbage collector runs.
    del approve
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
    return run_batch(topology, plan_sets, behavior.beta[None], config, [config.rng_seed])[0]


def run_baseline(
    topology: TreeTopology, plan_sets: list[PlanSet], config: RunConfig
) -> RunOutcome:
    """Reference run with every agent legitimate (beta 0 across the board)."""
    return run(topology, plan_sets, BehaviorProfile(beta=np.zeros(topology.node_count)), config)
