import dataclasses
import itertools

import numpy as np
import oracle_engine
import pytest

from advplan import engine
from advplan.adversary import make_profile, random_adversaries
from advplan.costs import InefficiencyFn
from advplan.engine import (
    BehaviorProfile,
    RunConfig,
    RunOutcome,
    run,
    run_baseline,
    run_batch,
    select_plan,
    subtree_sums,
)
from advplan.errors import ConfigError, DimensionMismatchError, InvalidInputError
from advplan.plans import Plan, PlanSet, generate_gaussian_plans
from advplan.topology import build_balanced_binary


def toy_plan_set(agent_id, rows, discomforts):
    return PlanSet(
        agent_id=agent_id,
        plans=tuple(
            Plan(values=np.array(row, dtype=float), discomfort=d)
            for row, d in zip(rows, discomforts)
        ),
    )


def test_select_plan_pure_selfish_ignores_context():
    agent = toy_plan_set(1, [[5, 5], [0, 0], [1, 1]], [0.9, 0.4, 0.7])
    idx = select_plan(agent, (0.0, 1.0), np.array([100.0, -100.0]), [2.0, 3.0], InefficiencyFn())
    assert idx == 1


def test_select_plan_pure_altruistic_minimizes_inefficiency():
    # Context [1, -1]: plan [-1, 1] flattens the sum exactly.
    agent = toy_plan_set(1, [[2, 0], [-1, 1], [5, 5]], [0.0, 9.0, 1.0])
    idx = select_plan(agent, (1.0, 0.0), np.array([1.0, -1.0]), [0.5], InefficiencyFn())
    assert idx == 1


def test_select_plan_matches_exhaustive_weighted_objective():
    agent = toy_plan_set(1, [[1, 0], [0, 1], [0.4, 0.4]], [0.1, 0.5, 0.9])
    ctx = np.array([0.3, -0.3])
    others = [0.2, 0.6]
    ineff = InefficiencyFn()
    alpha = beta = 0.5

    ineff_costs = np.array([ineff(ctx + p.values) for p in agent.plans])
    disc_costs = np.array(
        [(sum(others) + p.discomfort) / (len(others) + 1) for p in agent.plans]
    )

    def norm(v):
        return (v - v.min()) / (v.max() - v.min()) if v.max() > v.min() else v * 0

    expected = int(np.argmin(alpha * norm(ineff_costs) + beta * norm(disc_costs)))
    assert select_plan(agent, (alpha, beta), ctx, others, ineff) == expected


def test_select_plan_dimension_mismatch():
    agent = toy_plan_set(1, [[1, 2]], [0.0])
    with pytest.raises(DimensionMismatchError):
        select_plan(agent, (1.0, 0.0), np.zeros(3), [], InefficiencyFn())


def test_select_plan_discomfort_rescaling_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        rows = rng.normal(size=(k, 3))
        discomforts = rng.random(k)
        agent = toy_plan_set(1, rows, discomforts)
        scaled = toy_plan_set(1, rows, discomforts * float(rng.uniform(0.5, 10)))
        ctx = rng.normal(size=3)
        for beta in (0.0, 0.3, 1.0):
            a = select_plan(agent, (1 - beta, beta), ctx, [0.1, 0.2], InefficiencyFn())
            b = select_plan(scaled, (1 - beta, beta), ctx, [0.1, 0.2], InefficiencyFn())
            assert a == b


def test_run_forced_when_single_plan():
    plan_sets = generate_gaussian_plans(5, 1, 3, seed=2)
    topo = build_balanced_binary(5, permutation_seed=2)
    out = run_baseline(topo, plan_sets, RunConfig())
    assert out.iterations_used == 1
    expected = np.sum([ps.plans[0].values for ps in plan_sets], axis=0)
    assert np.allclose(out.global_response, expected)


def test_run_all_selfish_selects_minimum_discomfort():
    rng = np.random.default_rng(3)
    n, k = 9, 4
    plan_sets = []
    for agent in range(1, n + 1):
        discomforts = rng.permutation(k).astype(float)
        plan_sets.append(
            toy_plan_set(agent, rng.normal(size=(k, 2)), discomforts)
        )
    topo = build_balanced_binary(n, permutation_seed=1)
    profile = BehaviorProfile.uniform(range(1, n + 1), 1.0)
    out = run(topo, plan_sets, profile, RunConfig())
    by_id = {ps.agent_id: ps for ps in plan_sets}
    expected_g = np.zeros(2)
    for agent, idx in out.selections.items():
        discomforts = by_id[agent].discomforts()
        assert discomforts[idx] == discomforts.min()
        expected_g += by_id[agent].plans[idx].values
    assert np.allclose(out.global_response, expected_g)


def test_run_conservation_and_determinism():
    plan_sets = generate_gaussian_plans(15, 3, 4, seed=11)
    topo = build_balanced_binary(15, permutation_seed=5)
    profile = make_profile(topo, random_adversaries(topo, 4, seed=3), 0.6)
    out1 = run(topo, plan_sets, profile, RunConfig())
    out2 = run(topo, plan_sets, profile, RunConfig())
    assert out1.selections == out2.selections
    assert np.array_equal(out1.global_response, out2.global_response)
    assert out1.combined_cost_trace == out2.combined_cost_trace
    by_id = {ps.agent_id: ps for ps in plan_sets}
    flat = np.sum(
        [by_id[a].plans[i].values for a, i in out1.selections.items()], axis=0
    )
    assert np.allclose(out1.global_response, flat)


def test_monotone_combined_cost_trace_random_configs():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 24))
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        plan_sets = generate_gaussian_plans(n, k, d, seed=trial)
        topo = build_balanced_binary(n, permutation_seed=trial)
        count = int(rng.integers(0, n + 1))
        beta = float(rng.uniform(0.05, 1.0))
        profile = (
            make_profile(topo, random_adversaries(topo, count, seed=trial), beta)
            if count
            else BehaviorProfile.uniform(range(1, n + 1), 0.0)
        )
        out = run(topo, plan_sets, profile, RunConfig())
        trace = out.combined_cost_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert len(trace) == out.iterations_used + 1


def test_baseline_equals_all_legitimate_run():
    plan_sets = generate_gaussian_plans(10, 3, 2, seed=4)
    topo = build_balanced_binary(10, permutation_seed=4)
    base = run_baseline(topo, plan_sets, RunConfig())
    same = run(topo, plan_sets, BehaviorProfile.uniform(range(1, 11), 0.0), RunConfig())
    assert base.selections == same.selections
    assert base.global_inefficiency == same.global_inefficiency


def test_baseline_not_worse_than_adversarial_statistically():
    wins = 0
    trials = 50
    rng = np.random.default_rng(23)
    for trial in range(trials):
        n = int(rng.integers(4, 13))
        plan_sets = generate_gaussian_plans(n, int(rng.integers(2, 5)), 2, seed=trial)
        topo = build_balanced_binary(n, permutation_seed=trial)
        base = run_baseline(topo, plan_sets, RunConfig())
        count = 1 + int(rng.integers(n))
        adv = random_adversaries(topo, count, seed=trial + 1000)
        out = run(
            topo, plan_sets,
            make_profile(topo, adv, float(rng.uniform(0.1, 1.0))),
            RunConfig(),
        )
        if base.global_inefficiency <= out.global_inefficiency + 1e-12:
            wins += 1
    assert wins >= 0.9 * trials


def test_baseline_identical_to_adversarial_when_no_choice():
    plan_sets = generate_gaussian_plans(6, 1, 2, seed=9)
    topo = build_balanced_binary(6, permutation_seed=9)
    base = run_baseline(topo, plan_sets, RunConfig())
    adv = run(topo, plan_sets, BehaviorProfile.uniform(range(1, 7), 1.0), RunConfig())
    assert base.selections == adv.selections
    assert base.global_inefficiency == adv.global_inefficiency


def test_brute_force_quality_on_tiny_instances():
    # The engine is a descent heuristic; on 3^5 toy instances it should land
    # well inside the best fifth of the joint-selection cost distribution and
    # never beat the enumerated optimum.
    for seed in range(10):
        plan_sets = generate_gaussian_plans(5, 3, 2, seed=seed)
        topo = build_balanced_binary(5, permutation_seed=seed)
        out = run_baseline(topo, plan_sets, RunConfig())
        mats = [ps.value_matrix() for ps in plan_sets]
        costs = sorted(
            float(np.var(sum(m[i] for m, i in zip(mats, combo))))
            for combo in itertools.product(range(3), repeat=5)
        )
        assert out.global_inefficiency >= costs[0] - 1e-12
        assert out.global_inefficiency <= costs[len(costs) // 5]


def test_subtree_sums_match_flat_recomputation():
    plan_sets = generate_gaussian_plans(13, 3, 2, seed=6)
    topo = build_balanced_binary(13, permutation_seed=6)
    values_by_pos = [
        {ps.agent_id: ps for ps in plan_sets}[topo.agent_at[p]].value_matrix()
        for p in range(13)
    ]
    rng = np.random.default_rng(0)
    selections = rng.integers(0, 3, size=13)
    sums = subtree_sums(topo, values_by_pos, selections)

    def descendants(pos):
        out = [pos]
        for child in topo.children_of(pos):
            out.extend(descendants(child))
        return out

    for pos in range(1, 14):
        flat = np.sum(
            [values_by_pos[q - 1][selections[q - 1]] for q in descendants(pos)], axis=0
        )
        assert np.allclose(sums[pos - 1], flat)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        RunConfig(initial_selection="best")
    assert RunConfig(initial_selection="first-plan").initial_selection == "first_plan"


def test_run_input_validation():
    plan_sets = generate_gaussian_plans(4, 2, 2, seed=0)
    topo = build_balanced_binary(5)
    with pytest.raises(ConfigError):
        run_baseline(topo, plan_sets, RunConfig())
    topo4 = build_balanced_binary(4)
    profile = BehaviorProfile.uniform(range(1, 4), 0.0)
    with pytest.raises(ConfigError):
        run(topo4, plan_sets, profile, RunConfig())


def test_behavior_profile_validation_and_views():
    with pytest.raises(InvalidInputError):
        BehaviorProfile(beta={1: 1.5})
    profile = BehaviorProfile(beta={1: 0.0, 2: 0.5, 3: 0.0})
    assert profile.adversaries == {2}
    assert profile.legitimate == {1, 3}
    assert profile.alpha(2) == 0.5
    assert profile.mean_weights() == (pytest.approx(5 / 6), pytest.approx(1 / 6))


def test_random_initial_selection_seeded():
    plan_sets = generate_gaussian_plans(12, 4, 2, seed=3)
    topo = build_balanced_binary(12, permutation_seed=3)
    cfg_a = RunConfig(initial_selection="random", rng_seed=7)
    out_a = run_baseline(topo, plan_sets, cfg_a)
    out_b = run_baseline(topo, plan_sets, cfg_a)
    assert out_a.selections == out_b.selections
    out_c = run_baseline(topo, plan_sets, RunConfig(initial_selection="random", rng_seed=8))
    assert isinstance(out_c, RunOutcome)


# ---------------------------------------------------------------- oracle

COSTS = [
    ("variance", "identity"),
    ("rss", "identity"),
    ("rss", "min-max"),
    ("rss", "zero-mean-unit-norm"),
]


def assert_same_outcome(got: RunOutcome, want: RunOutcome) -> None:
    """Every field equal, floats bit for bit."""
    for f in dataclasses.fields(RunOutcome):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "global_response":
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def ragged_plan_sets(n, d, seed):
    """Plan sets whose plan counts differ between agents (1 to 5)."""
    rng = np.random.default_rng(seed)
    return [
        toy_plan_set(a, rng.standard_normal((k, d)), rng.permutation(k).astype(float))
        for a, k in zip(range(1, n + 1), rng.integers(1, 6, size=n))
    ]


def oracle_case(n, d, plans, kind, scaling, initial, seed=0):
    """Topology, plan sets, behaviors, config and seeds of one batch."""
    topo = build_balanced_binary(n, permutation_seed=seed)
    plan_sets = (
        ragged_plan_sets(n, d, seed) if plans == "ragged"
        else generate_gaussian_plans(n, plans, d, seed=seed)
    )
    target = np.random.default_rng(seed + 1).standard_normal(d) if kind == "rss" else None
    config = RunConfig(
        inefficiency=InefficiencyFn(kind=kind, target=target, scaling=scaling),
        initial_selection=initial,
        rng_seed=seed,
    )
    behaviors = [BehaviorProfile.uniform(range(1, n + 1), 0.0)]
    for j, (count, beta) in enumerate([(1, 0.3), (n // 3, 0.6), (n // 2, 0.1), (n, 1.0)]):
        behaviors.append(make_profile(topo, random_adversaries(topo, count, seed=j), beta))
    return topo, plan_sets, behaviors, config, [seed + 10 * j for j in range(len(behaviors))]


# n=13, 24 and 37 leave the deepest layer partly filled, n=15 fills it; d=9
# takes numpy's pairwise summation past its 8-element unrolled block.
@pytest.mark.parametrize("kind,scaling", COSTS)
@pytest.mark.parametrize("initial", ["first_plan", "random"])
@pytest.mark.parametrize(
    "n,d,plans", [(13, 2, 3), (15, 9, 4), (24, 5, "ragged"), (37, 3, 2)]
)
def test_run_batch_matches_oracle(kind, scaling, initial, n, d, plans):
    topo, plan_sets, behaviors, config, seeds = oracle_case(n, d, plans, kind, scaling, initial, n)
    got = run_batch(topo, plan_sets, behaviors, config, seeds)
    want = oracle_engine.run_batch(topo, plan_sets, behaviors, config, seeds)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


def test_run_batch_chunks_and_slices_match_oracle(monkeypatch):
    # Two runs per array batch and a few nodes per bottom-up chunk, so
    # layers split across chunks and runs across batches.
    monkeypatch.setattr(engine, "_CHUNK_FLOATS", 2 * 4 * 5 * 3)
    monkeypatch.setattr(engine, "_STATE_FLOATS", 2 * 24 * 5)
    assert engine._max_batch(24, 4, 5) == 2
    topo, plan_sets, behaviors, config, seeds = oracle_case(
        24, 5, "ragged", "rss", "min-max", "random", 3
    )
    got = run_batch(topo, plan_sets, behaviors, config, seeds)
    want = oracle_engine.run_batch(topo, plan_sets, behaviors, config, seeds)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


def test_run_is_a_one_run_batch():
    topo, plan_sets, behaviors, config, _ = oracle_case(13, 2, 3, "variance", "identity", "random")
    alone = run(topo, plan_sets, behaviors[2], config)
    batched = run_batch(topo, plan_sets, behaviors, config, [config.rng_seed] * len(behaviors))
    assert_same_outcome(alone, batched[2])


def test_run_batch_validation():
    topo, plan_sets, behaviors, config, seeds = oracle_case(13, 2, 3, "variance", "identity", "first_plan")
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, behaviors, config, seeds[:-1])
    partial = BehaviorProfile.uniform(range(1, 13), 0.0)
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, [behaviors[0], partial], config, [0, 0])
    rss = RunConfig(inefficiency=InefficiencyFn(kind="rss", target=np.zeros(3)))
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, behaviors[:1], rss, [0])
    assert run_batch(topo, plan_sets, [], config, []) == []


@pytest.mark.parametrize("initial", ["first_plan", "random"])
def test_run_batch_runs_each_distinct_run_once(monkeypatch, initial):
    topo, plan_sets, behaviors, config, _ = oracle_case(15, 3, 3, "variance", "identity", initial)
    legit = BehaviorProfile.uniform(range(1, 16), 0.0)
    # Baseline twice, an adversarial profile rebuilt equal, and seeds that
    # differ only where the initial selection does not use them.
    runs = [
        (behaviors[0], 1), (legit, 1), (behaviors[2], 2), (legit, 3),
        (BehaviorProfile(beta=dict(behaviors[2].beta)), 2), (behaviors[3], 4),
    ]
    sent = []
    real = engine._run_arrays

    def recording(topology, P, counts, batch, config, seeds):
        sent.extend(zip(batch, seeds))
        return real(topology, P, counts, batch, config, seeds)

    monkeypatch.setattr(engine, "_run_arrays", recording)
    profiles, seeds = zip(*runs)
    got = run_batch(topo, plan_sets, profiles, config, seeds)
    if initial == "random":
        assert sent == [runs[0], runs[2], runs[3], runs[5]]
    else:
        assert sent == [runs[0], runs[2], runs[5]]
    monkeypatch.setattr(engine, "_run_arrays", real)
    for outcome, (behavior, seed) in zip(got, runs):
        alone = run(topo, plan_sets, behavior, dataclasses.replace(config, rng_seed=seed))
        assert_same_outcome(outcome, alone)
    mutable = ("selections", "global_response", "discomfort_per_agent",
               "inefficiency_trace", "combined_cost_trace")
    for a, b in itertools.combinations(got, 2):
        assert a is not b
        assert all(getattr(a, f) is not getattr(b, f) for f in mutable)


def test_top_down_makes_no_cost_call_for_zero_changes():
    topo = build_balanced_binary(11)
    children = [[c - 1 for c in topo.children_of(p)] for p in range(1, 12)]
    calls = []

    def combined(state):
        calls.append(state.shape)
        return -np.ones(state.shape[0])

    delta = np.zeros((11, 2, 4))
    total, cost = np.ones((2, 4)), np.zeros(2)
    taken = engine._top_down(topo, children, delta, total, cost, combined)
    assert calls == [] and not taken.any()
    # One leaf with a change in one run: only that leaf pays a cost call, and
    # its cheaper whole option is taken in every run.
    delta[10, 1, 0] = 1.0
    taken = engine._top_down(topo, children, delta, total, cost, combined)
    assert calls == [(2, 4)]
    assert np.flatnonzero(taken.any(axis=1)).tolist() == [10]
