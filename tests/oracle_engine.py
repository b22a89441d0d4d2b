"""Reference engine: one run at a time over a per-position object graph.

This is the plain-Python form of ``advplan.engine``: it walks the tree node by
node and scores every candidate plan with its own cost call. The array engine
must return the same ``RunOutcome`` bit for bit, so the tests run both and
compare. The cost kernels are copied here as well, so the oracle does not
share any arithmetic with the code it checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from advplan.engine import BehaviorProfile, RunConfig, RunOutcome
from advplan.errors import ConfigError

_TINY = 1e-12


def scale_vector(values: np.ndarray, mode: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if mode == "identity":
        return values
    if mode == "min-max":
        lo, hi = values.min(), values.max()
        if hi == lo:
            return np.zeros_like(values)
        return (values - lo) / (hi - lo)
    centered = values - values.mean()
    norm = np.linalg.norm(centered)
    if norm == 0.0:
        return np.zeros_like(values)
    return centered / norm


def cost(ineff, g: np.ndarray) -> float:
    """Inefficiency of one response vector."""
    if ineff.kind == "variance":
        return float(np.var(g))
    diff = scale_vector(g, ineff.scaling) - scale_vector(ineff.target, ineff.scaling)
    return float(diff @ diff)


def batch_cost(ineff, candidates: np.ndarray) -> np.ndarray:
    """Inefficiency of every row of a (k, d) candidate matrix."""
    if ineff.kind == "variance":
        return np.var(candidates, axis=1)
    scaled_t = scale_vector(ineff.target, ineff.scaling)
    if ineff.scaling == "identity":
        diff = candidates - scaled_t
    else:
        diff = np.stack([scale_vector(row, ineff.scaling) for row in candidates]) - scaled_t
    return np.einsum("ij,ij->i", diff, diff)


def _normalized(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def argmin_weighted(
    values, discomforts, alpha, beta, context_response, context_disc_sum, context_disc_count, ineff
) -> int:
    ineff_costs = batch_cost(ineff, context_response[None, :] + values)
    disc_costs = (context_disc_sum + discomforts) / (context_disc_count + 1)
    score = alpha * _normalized(ineff_costs) + beta * _normalized(disc_costs)
    return int(np.argmin(score))


def subtree_sums(topology, values_by_pos, selections) -> np.ndarray:
    n = topology.node_count
    d = values_by_pos[0].shape[1]
    sums = np.zeros((n, d))
    for pos in range(n, 0, -1):
        acc = values_by_pos[pos - 1][selections[pos - 1]].copy()
        for child in topology.children_of(pos):
            acc += sums[child - 1]
        sums[pos - 1] = acc
    return sums


def _scalar_subtree_sums(topology, values: np.ndarray) -> np.ndarray:
    sums = np.zeros(topology.node_count)
    for pos in range(topology.node_count, 0, -1):
        acc = values[pos - 1]
        for child in topology.children_of(pos):
            acc += sums[child - 1]
        sums[pos - 1] = acc
    return sums


class _RunState:
    def __init__(self, topology, values_by_pos, disc_by_pos, selections):
        self.topology = topology
        self.values_by_pos = values_by_pos
        self.disc_by_pos = disc_by_pos
        self.set_selections(selections)

    def set_selections(self, selections: np.ndarray) -> None:
        n = self.topology.node_count
        self.selections = selections
        self.disc = np.array([self.disc_by_pos[p][selections[p]] for p in range(n)])
        self.subtree = subtree_sums(self.topology, self.values_by_pos, selections)
        self.disc_subtree = _scalar_subtree_sums(self.topology, self.disc)
        self.response = self.subtree[0].copy()
        self.disc_total = float(self.disc.sum())


def run(topology, plan_sets, behavior: BehaviorProfile, config: RunConfig) -> RunOutcome:
    n = topology.node_count
    if len(plan_sets) != n:
        raise ConfigError(f"{len(plan_sets)} plan sets for a {n}-node topology")
    by_agent = {ps.agent_id: ps for ps in plan_sets}
    if set(by_agent) != set(range(1, n + 1)):
        raise ConfigError("plan-set agent ids must cover 1..n exactly")
    if behavior.beta.shape != (n,):
        raise ConfigError("behavior profile must cover every agent exactly once")
    d = plan_sets[0].dimension
    ineff = config.inefficiency

    agent_by_pos = [topology.agent_at[p] for p in range(n)]
    values_by_pos = [by_agent[a].value_matrix() for a in agent_by_pos]
    disc_by_pos = [by_agent[a].discomforts() for a in agent_by_pos]
    alpha_by_pos = np.array([1.0 - behavior.beta[a - 1] for a in agent_by_pos])
    beta_by_pos = np.array([behavior.beta[a - 1] for a in agent_by_pos])
    mean_beta = float(behavior.beta.mean())
    mean_alpha = 1.0 - mean_beta

    if config.initial_selection == "random":
        rng = np.random.default_rng(config.rng_seed)
        initial = np.array([rng.integers(len(disc_by_pos[p])) for p in range(n)], dtype=int)
    else:
        initial = np.zeros(n, dtype=int)

    state = _RunState(topology, values_by_pos, disc_by_pos, initial)
    ineff_ref = cost(ineff, state.response)
    ineff_ref = ineff_ref if ineff_ref > _TINY else 1.0
    disc_ref = float(np.mean([dc.max() for dc in disc_by_pos]))
    disc_ref = disc_ref if disc_ref > _TINY else 1.0

    def combined(g, disc_sum):
        return mean_alpha * cost(ineff, g) / ineff_ref + mean_beta * (disc_sum / n) / disc_ref

    inefficiency_trace = [cost(ineff, state.response)]
    combined_trace = [combined(state.response, state.disc_total)]

    iterations_used = 0
    for _ in range(config.max_iterations):
        iterations_used += 1
        cand_sel = np.empty(n, dtype=int)
        cand_subtree = np.zeros((n, d))
        cand_disc_subtree = np.zeros(n)
        for pos in range(n, 0, -1):
            child_g = np.zeros(d)
            child_disc = 0.0
            for child in topology.children_of(pos):
                child_g += cand_subtree[child - 1]
                child_disc += cand_disc_subtree[child - 1]
            ctx_g = state.response - state.subtree[pos - 1] + child_g
            ctx_disc = state.disc_total - state.disc_subtree[pos - 1] + child_disc
            choice = argmin_weighted(
                values_by_pos[pos - 1], disc_by_pos[pos - 1],
                alpha_by_pos[pos - 1], beta_by_pos[pos - 1],
                ctx_g, ctx_disc, n - 1, ineff,
            )
            cand_sel[pos - 1] = choice
            cand_subtree[pos - 1] = values_by_pos[pos - 1][choice] + child_g
            cand_disc_subtree[pos - 1] = disc_by_pos[pos - 1][choice] + child_disc

        def approve(pos, g_run, disc_run):
            cost_keep = combined(g_run, disc_run)
            delta_g = cand_subtree[pos - 1] - state.subtree[pos - 1]
            delta_disc = cand_disc_subtree[pos - 1] - state.disc_subtree[pos - 1]
            cost_whole = combined(g_run + delta_g, disc_run + delta_disc)
            g_parts, disc_parts = g_run, disc_run
            part_marks = []
            for child in topology.children_of(pos):
                g_parts, disc_parts, marks = approve(child, g_parts, disc_parts)
                part_marks.extend(marks)
            cost_parts = combined(g_parts, disc_parts)
            if cost_whole < cost_parts and cost_whole < cost_keep:
                return g_run + delta_g, disc_run + delta_disc, [pos]
            if cost_parts < cost_keep:
                return g_parts, disc_parts, part_marks
            return g_run, disc_run, []

        _, _, approved = approve(1, state.response.copy(), state.disc_total)
        new_sel = state.selections.copy()
        stack = deque(approved)
        while stack:
            pos = stack.popleft()
            new_sel[pos - 1] = cand_sel[pos - 1]
            stack.extend(topology.children_of(pos))

        changed = bool(np.any(new_sel != state.selections))
        if changed:
            state.set_selections(new_sel)
        inefficiency_trace.append(cost(ineff, state.response))
        combined_trace.append(combined(state.response, state.disc_total))
        if not changed:
            break

    pos_by_agent = sorted(range(n), key=lambda p: agent_by_pos[p])
    return RunOutcome(
        selection=np.array([state.selections[p] for p in pos_by_agent], dtype=np.intp),
        global_response=state.response,
        global_inefficiency=float(cost(ineff, state.response)),
        discomfort=np.array([disc_by_pos[p][state.selections[p]] for p in pos_by_agent]),
        iterations_used=iterations_used,
        inefficiency_trace=tuple(inefficiency_trace),
        combined_cost_trace=tuple(combined_trace),
    )


def run_batch(topology, plan_sets, betas, config, seeds) -> list[RunOutcome]:
    """The array engine's call shape, answered one run at a time: run i has
    the beta row ``betas[i]`` and, from a ``(B, d)`` RSS target stack, the
    target row ``target[i]``."""
    ineff = config.inefficiency
    stacked = ineff.target is not None and ineff.target.ndim == 2
    targets = ineff.target if stacked else [ineff.target] * len(seeds)
    return [
        run(topology, plan_sets, BehaviorProfile(beta=beta),
            replace(config, rng_seed=seed, inefficiency=replace(ineff, target=target)))
        for beta, target, seed in zip(betas, targets, seeds)
    ]
