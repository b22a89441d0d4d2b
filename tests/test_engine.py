import dataclasses
import itertools

import numpy as np
import oracle_engine
import pytest

from advplan import engine
from advplan.adversary import beta_rows, random_adversaries
from advplan.costs import InefficiencyFn
from advplan.engine import (
    BehaviorProfile,
    RunConfig,
    RunOutcome,
    run,
    run_baseline,
    run_batch,
)
from advplan.errors import ConfigError, InvalidInputError
from advplan.plans import PlanSet, generate_gaussian_plans
from advplan.topology import build_balanced_binary


def toy_plan_set(agent_id, rows, discomforts):
    return PlanSet(agent_id, values=rows, discomforts=discomforts)


def choose_one(agent, behavior, context_response, context_discomforts, ineff):
    """The plan index ``_choose`` picks for one agent in one run.

    ``context_response`` excludes the agent's own plan; ``context_discomforts``
    are the other agents' discomforts, which the candidate's own joins.
    """
    others = np.asarray(context_discomforts, dtype=float)
    choice = engine._choose(
        np.column_stack([agent.value_matrix(), agent.discomforts()])[None],
        np.array([[behavior[0]]]),
        np.array([[behavior[1]]]),
        np.append(context_response, others.sum())[None, None],
        others.size + 1,
        ineff,
    )
    return int(choice[0, 0])


def test_select_plan_pure_selfish_ignores_context():
    agent = toy_plan_set(1, [[5, 5], [0, 0], [1, 1]], [0.9, 0.4, 0.7])
    idx = choose_one(agent, (0.0, 1.0), np.array([100.0, -100.0]), [2.0, 3.0], InefficiencyFn())
    assert idx == 1


def test_select_plan_pure_altruistic_minimizes_inefficiency():
    # Context [1, -1]: plan [-1, 1] flattens the sum exactly.
    agent = toy_plan_set(1, [[2, 0], [-1, 1], [5, 5]], [0.0, 9.0, 1.0])
    idx = choose_one(agent, (1.0, 0.0), np.array([1.0, -1.0]), [0.5], InefficiencyFn())
    assert idx == 1


def test_select_plan_matches_exhaustive_weighted_objective():
    agent = toy_plan_set(1, [[1, 0], [0, 1], [0.4, 0.4]], [0.1, 0.5, 0.9])
    ctx = np.array([0.3, -0.3])
    others = [0.2, 0.6]
    ineff = InefficiencyFn()
    alpha = beta = 0.5

    ineff_costs = np.array([ineff(ctx + values) for values in agent.value_matrix()])
    disc_costs = np.array(
        [(sum(others) + disc) / (len(others) + 1) for disc in agent.discomforts()]
    )

    def norm(v):
        return (v - v.min()) / (v.max() - v.min()) if v.max() > v.min() else v * 0

    expected = int(np.argmin(alpha * norm(ineff_costs) + beta * norm(disc_costs)))
    assert choose_one(agent, (alpha, beta), ctx, others, ineff) == expected


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
            a = choose_one(agent, (1 - beta, beta), ctx, [0.1, 0.2], InefficiencyFn())
            b = choose_one(scaled, (1 - beta, beta), ctx, [0.1, 0.2], InefficiencyFn())
            assert a == b


def test_run_forced_when_single_plan():
    plan_sets = generate_gaussian_plans(5, 1, 3, seed=2)
    topo = build_balanced_binary(5, permutation_seed=2)
    out = run_baseline(topo, plan_sets, RunConfig())
    assert out.iterations_used == 1
    expected = np.sum([ps.value_matrix()[0] for ps in plan_sets], axis=0)
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
    out = run(topo, plan_sets, BehaviorProfile(beta=np.ones(n)), RunConfig())
    by_id = {ps.agent_id: ps for ps in plan_sets}
    expected_g = np.zeros(2)
    for agent, idx in out.selections.items():
        discomforts = by_id[agent].discomforts()
        assert discomforts[idx] == discomforts.min()
        expected_g += by_id[agent].value_matrix()[idx]
    assert np.allclose(out.global_response, expected_g)


def test_run_conservation_and_determinism():
    plan_sets = generate_gaussian_plans(15, 3, 4, seed=11)
    topo = build_balanced_binary(15, permutation_seed=5)
    profile = BehaviorProfile(beta_rows(topo, [random_adversaries(topo, 4, seed=3)], [0.6])[0])
    out1 = run(topo, plan_sets, profile, RunConfig())
    out2 = run(topo, plan_sets, profile, RunConfig())
    assert out1.selections == out2.selections
    assert np.array_equal(out1.global_response, out2.global_response)
    assert out1.combined_cost_trace == out2.combined_cost_trace
    by_id = {ps.agent_id: ps for ps in plan_sets}
    flat = np.sum(
        [by_id[a].value_matrix()[i] for a, i in out1.selections.items()], axis=0
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
        adversaries = random_adversaries(topo, count, seed=trial)
        profile = BehaviorProfile(beta_rows(topo, [adversaries], [beta])[0])
        out = run(topo, plan_sets, profile, RunConfig())
        trace = out.combined_cost_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert len(trace) == out.iterations_used + 1


def test_baseline_equals_all_legitimate_run():
    plan_sets = generate_gaussian_plans(10, 3, 2, seed=4)
    topo = build_balanced_binary(10, permutation_seed=4)
    base = run_baseline(topo, plan_sets, RunConfig())
    same = run(topo, plan_sets, BehaviorProfile(beta=np.zeros(10)), RunConfig())
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
            BehaviorProfile(beta_rows(topo, [adv], [float(rng.uniform(0.1, 1.0))])[0]),
            RunConfig(),
        )
        if base.global_inefficiency <= out.global_inefficiency + 1e-12:
            wins += 1
    assert wins >= 0.9 * trials


def test_baseline_identical_to_adversarial_when_no_choice():
    plan_sets = generate_gaussian_plans(6, 1, 2, seed=9)
    topo = build_balanced_binary(6, permutation_seed=9)
    base = run_baseline(topo, plan_sets, RunConfig())
    adv = run(topo, plan_sets, BehaviorProfile(beta=np.ones(6)), RunConfig())
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
    with pytest.raises(ConfigError):
        run(topo4, plan_sets, BehaviorProfile(beta=np.zeros(3)), RunConfig())


def test_run_batch_rejects_non_finite_plans_and_targets(monkeypatch):
    """NaN or an infinity in a plan value, a discomfort or the RSS target
    raises, naming the agent and plan or the target, before any iteration."""
    topo = build_balanced_binary(4)
    plan_sets = generate_gaussian_plans(4, 3, 2, seed=0)
    monkeypatch.setattr(engine, "_run_arrays", lambda *args: pytest.fail("ran an iteration"))
    values = plan_sets[2].value_matrix().copy()
    values[1, 0] = -np.inf
    for agent, plan, bad in ((3, 1, toy_plan_set(3, values, plan_sets[2].discomforts())),
                             (1, 2, toy_plan_set(1, plan_sets[0].value_matrix(), [0, 1, np.nan]))):
        with_bad = [bad if ps.agent_id == agent else ps for ps in plan_sets]
        with pytest.raises(InvalidInputError, match=f"agent {agent} plan {plan} holds NaN"):
            run_batch(topo, with_bad, np.zeros((1, 4)), RunConfig(), [0])
    rss = RunConfig(inefficiency=InefficiencyFn("rss", target=[0.5, np.nan]))
    with pytest.raises(InvalidInputError, match=r"target signal \[0.5, nan\] holds NaN"):
        run_batch(topo, plan_sets, np.zeros((1, 4)), rss, [0])


def test_run_batch_rejects_differing_plan_counts(monkeypatch):
    """Every agent holds the same number of plans; plan sets that differ
    raise, naming the counts, before any iteration."""
    topo = build_balanced_binary(4)
    plan_sets = generate_gaussian_plans(4, 3, 2, seed=0)
    plan_sets[1] = toy_plan_set(2, plan_sets[1].value_matrix()[:2], [0, 1])
    monkeypatch.setattr(engine, "_run_arrays", lambda *args: pytest.fail("ran an iteration"))
    with pytest.raises(ConfigError, match=r"plan counts differ across agents: \[2, 3\]"):
        run_batch(topo, plan_sets, np.zeros((1, 4)), RunConfig(), [0])


def test_behavior_profile_validation_and_views():
    for bad in ({1: 1.5}, {1: 0.0, 2: float("nan")}, [0.0, -0.1]):
        with pytest.raises(InvalidInputError):
            BehaviorProfile(beta=bad)
    with pytest.raises(ConfigError):
        BehaviorProfile(beta={1: 0.0, 3: 0.5})
    profile = BehaviorProfile(beta={2: 0.5, 1: 0.0, 3: 0.0})
    assert profile.beta.dtype == float and profile.beta.tolist() == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError):
        profile.beta[0] = 1.0
    # A mapping and the same values in agent-id order give the same run.
    plan_sets = generate_gaussian_plans(9, 3, 2, seed=6)
    topo = build_balanced_binary(9, permutation_seed=6)
    beta = np.where(np.arange(9) % 3 == 0, 0.7, 0.0)
    from_map = run(topo, plan_sets, BehaviorProfile(beta=dict(enumerate(beta, 1))), RunConfig())
    assert_same_outcome(from_map, run(topo, plan_sets, BehaviorProfile(beta=beta), RunConfig()))


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
    """Every field equal, floats and arrays bit for bit."""
    for f in dataclasses.fields(RunOutcome):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def ragged_plan_sets(n, d, seed):
    """Plan sets of 5 plans each whose discomforts are ragged reals, not
    plan ranks, so that summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return [
        toy_plan_set(a, rng.standard_normal((5, d)), rng.random(5) * 3.0) for a in range(1, n + 1)
    ]


def oracle_case(n, d, plans, kind, scaling, initial, seed=0):
    """Topology, plan sets, beta rows, config and seeds of one batch."""
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
    betas = [beta_rows(topo, [()], [0.0])[0]]
    for j, (count, beta) in enumerate([(1, 0.3), (n // 3, 0.6), (n // 2, 0.1), (n, 1.0)]):
        betas.append(beta_rows(topo, [random_adversaries(topo, count, seed=j)], [beta])[0])
    return topo, plan_sets, np.stack(betas), config, [seed + 10 * j for j in range(len(betas))]


# n=13, 24 and 37 leave the deepest layer partly filled, n=15 fills it; d=9
# takes numpy's pairwise summation past its 8-element unrolled block. Axes
# shorter than 8 are reduced column by column: d=7 and k=7 are the longest
# such, and k=9 takes plan choice back to numpy's reductions.
@pytest.mark.parametrize("kind,scaling", COSTS)
@pytest.mark.parametrize("initial", ["first_plan", "random"])
@pytest.mark.parametrize(
    "n,d,plans",
    [(13, 2, 3), (15, 9, 4), (24, 5, "ragged"), (37, 3, 2), (20, 7, 7), (17, 3, 9)],
)
def test_run_batch_matches_oracle(kind, scaling, initial, n, d, plans):
    topo, plan_sets, betas, config, seeds = oracle_case(n, d, plans, kind, scaling, initial, n)
    got = run_batch(topo, plan_sets, betas, config, seeds)
    want = oracle_engine.run_batch(topo, plan_sets, betas, config, seeds)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


def test_run_batch_chunks_and_slices_match_oracle(monkeypatch):
    # Two runs per array batch and a few nodes per bottom-up chunk, so
    # layers split across chunks and runs across batches.
    monkeypatch.setattr(engine, "_CHUNK_FLOATS", 2 * 4 * 5 * 3)
    monkeypatch.setattr(engine, "_STATE_FLOATS", 2 * 24 * 5)
    assert engine._max_batch(24, 4, 5) == 2
    topo, plan_sets, betas, config, seeds = oracle_case(
        24, 5, "ragged", "rss", "min-max", "random", 3
    )
    got = run_batch(topo, plan_sets, betas, config, seeds)
    want = oracle_engine.run_batch(topo, plan_sets, betas, config, seeds)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)


def test_run_is_a_one_run_batch():
    topo, plan_sets, betas, config, _ = oracle_case(13, 2, 3, "variance", "identity", "random")
    alone = run(topo, plan_sets, BehaviorProfile(beta=betas[2]), config)
    batched = run_batch(topo, plan_sets, betas, config, [config.rng_seed] * len(betas))
    assert_same_outcome(alone, batched[2])


def test_run_batch_validation():
    topo, plan_sets, betas, config, seeds = oracle_case(13, 2, 3, "variance", "identity", "first_plan")
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, betas, config, seeds[:-1])
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, np.zeros((2, 12)), config, [0, 0])
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, betas[0], config, [0])
    rss = RunConfig(inefficiency=InefficiencyFn(kind="rss", target=np.zeros(3)))
    with pytest.raises(ConfigError):
        run_batch(topo, plan_sets, betas[:1], rss, [0])
    outside = betas[:2].copy()
    outside[1, 4] = 1.5
    with pytest.raises(InvalidInputError, match="beta for agent 5 must be in"):
        run_batch(topo, plan_sets, outside, config, [0, 0])
    assert run_batch(topo, plan_sets, [], config, []) == []
    assert run_batch(topo, plan_sets, np.zeros((0, 13)), config, []) == []


@pytest.mark.parametrize("initial", ["first_plan", "random"])
def test_run_batch_runs_each_distinct_run_once(monkeypatch, initial):
    topo, plan_sets, betas, config, _ = oracle_case(15, 3, 3, "variance", "identity", initial)
    behaviors = [BehaviorProfile(beta=beta) for beta in betas]
    legit = BehaviorProfile(beta=np.zeros(15))
    # Baseline twice, an adversarial profile rebuilt equal from a mapping,
    # and seeds that differ only where the initial selection does not use them.
    runs = [
        (behaviors[0], 1), (legit, 1), (behaviors[2], 2), (legit, 3),
        (BehaviorProfile(beta=dict(enumerate(behaviors[2].beta, 1))), 2), (behaviors[3], 4),
    ]
    sent = []
    real = engine._run_arrays

    def recording(topology, P, batch, config, seeds):
        sent.extend(zip((row.tobytes() for row in batch), seeds))
        return real(topology, P, batch, config, seeds)

    monkeypatch.setattr(engine, "_run_arrays", recording)
    profiles, seeds = zip(*runs)
    got = run_batch(topo, plan_sets, np.stack([p.beta for p in profiles]), config, seeds)
    expected = [0, 2, 3, 5] if initial == "random" else [0, 2, 5]
    assert sent == [(runs[i][0].beta.tobytes(), runs[i][1]) for i in expected]
    monkeypatch.setattr(engine, "_run_arrays", real)
    for outcome, (behavior, seed) in zip(got, runs):
        alone = run(topo, plan_sets, behavior, dataclasses.replace(config, rng_seed=seed))
        assert_same_outcome(outcome, alone)
    # Repeats share the one read-only outcome of the run they repeat.
    first = [0, 0, 2, 3, 2, 5] if initial == "random" else [0, 0, 2, 0, 2, 5]
    assert [got.index(outcome) for outcome in got] == first
    for outcome in got:
        for name in ("selection", "discomfort", "global_response"):
            with pytest.raises(ValueError):
                getattr(outcome, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.iterations_used = 0


def top_down_case(n):
    """A topology, its child rows and pre-order, and a recorder of the
    stacked states a fake cost function is asked for."""
    topo = build_balanced_binary(n)
    children = [[c - 1 for c in topo.children_of(p)] for p in range(1, n + 1)]
    calls = []

    def combined(state):
        """Cost is the first response value; records each stack's shape."""
        calls.append(state.shape)
        return state[..., 0].copy()

    return topo, children, engine._preorder(children), calls, combined


def test_top_down_makes_no_cost_call_for_zero_changes():
    topo, children, preorder, calls, _ = top_down_case(11)

    def combined(state):
        calls.append(state.shape)
        return -np.ones(state.shape[:-1])

    delta = np.zeros((11, 2, 4))
    total, cost = np.ones((2, 4)), np.zeros(2)
    taken = engine._top_down(topo, children, preorder, delta, total, cost, combined)
    assert calls == [] and not taken.any()
    # One leaf with a change in one run: only that leaf's state is costed,
    # and its cheaper whole option is taken in every run.
    delta[10, 1, 0] = 1.0
    taken = engine._top_down(topo, children, preorder, delta, total, cost, combined)
    assert calls == [(1, 2, 4)]
    assert np.flatnonzero(taken.any(axis=1)).tolist() == [10]


@pytest.mark.parametrize("block,stacks", [(16, [4, 6, 1]), (4, [4, 4, 3])])
def test_top_down_approval_starts_a_new_block(monkeypatch, block, stacks):
    # Every node but the root changes, and every whole option costs more
    # than keeping, except the first leaf in pre-order (position 8) in run
    # 1. The first block holds positions 2, 4, 8 and 9; the approval at 8
    # makes a new running state part-way through it, so 9 starts a new
    # block, twice as long as the three nodes the cut one served. The
    # ancestors of 8 approve nothing themselves and hand its state on, so
    # the walk uses that block to its end, and the next one is longer again.
    monkeypatch.setattr(engine, "_BLOCK_NODES", block)
    topo, children, preorder, calls, combined = top_down_case(11)
    assert [p + 1 for p in preorder] == [1, 2, 4, 8, 9, 5, 10, 11, 3, 6, 7]
    delta = np.zeros((11, 2, 4))
    delta[1:, :, 0] = 1.0
    delta[7, 1, 0] = -1.0
    total, cost = np.zeros((2, 4)), np.zeros(2)
    taken = engine._top_down(topo, children, preorder, delta, total, cost, combined)
    assert [shape[0] for shape in calls] == stacks
    assert all(shape[1:] == (2, 4) for shape in calls)
    assert np.argwhere(taken).tolist() == [[7, 1]]


@pytest.mark.parametrize("kind,scaling", COSTS)
@pytest.mark.parametrize("d", [1, 2, 5, 24, 100])
def test_stacked_states_cost_what_each_state_costs_alone(monkeypatch, kind, scaling, d):
    # The top-down blocks rely on this: a (K, B, d) stack of responses, or
    # a (K, B, d + 1) stack of states, costs bit for bit what each (B, d) or
    # (B, d + 1) slice costs alone.
    topo, plan_sets, betas, config, seeds = oracle_case(7, d, 3, kind, scaling, "first_plan")
    captured = []
    real = engine._top_down

    def capture(*args):
        captured.append((args[-3].shape[0], args[-1]))
        return real(*args)

    monkeypatch.setattr(engine, "_top_down", capture)
    run_batch(topo, plan_sets, betas, config, seeds)
    # ``combined`` weighs the runs still active, as of the last walk.
    (runs, combined), ineff = captured[-1], config.inefficiency
    rng = np.random.default_rng(d)
    magnitudes = rng.choice([1e-3, 1.0, 1e4], size=(16, 1, 1))
    states = rng.standard_normal((16, runs, d + 1)) * magnitudes
    states[0, 0, :d] = 2.5  # a flat response scales to zeros
    # Strided response views, as ``combined`` passes them, and contiguous ones.
    for stack, cost in (
        (states[..., :d], ineff),
        (np.ascontiguousarray(states[..., :d]), ineff),
        (states, combined),
    ):
        for K in (1, 3, 16):
            got = cost(stack[:K])
            assert got.shape == stack[:K].shape[:-1]
            for j in range(K):
                assert got[j].tobytes() == cost(stack[j]).tobytes()


@pytest.mark.parametrize("initial", ["first_plan", "random"])
@pytest.mark.parametrize("block", [1, 3, 16])
def test_run_batch_matches_oracle_when_approvals_cut_blocks(monkeypatch, initial, block):
    # High-beta batches with many adversaries approve often part-way through
    # the walk, so blocks are built and then dropped for a new running state.
    monkeypatch.setattr(engine, "_BLOCK_NODES", block)
    n, d = 37, 9
    topo = build_balanced_binary(n, permutation_seed=5)
    plan_sets = ragged_plan_sets(n, d, 5)
    config = RunConfig(initial_selection=initial, rng_seed=5)
    betas = np.stack([
        beta_rows(topo, [random_adversaries(topo, count, seed=j)], [beta])[0]
        for j, (count, beta) in enumerate([(n, 1.0), (30, 0.9), (25, 0.8), (n // 2, 0.95), (n, 0.7)])
    ])
    seeds = [5 + j for j in range(len(betas))]
    costed = moved = 0
    real = engine._top_down

    def counting(topology, children, preorder, delta, total, cost, combined):
        nonlocal costed, moved

        def counted(state):
            nonlocal costed
            costed += int(np.prod(state.shape[:-2]))
            return combined(state)

        moved += int(delta.any(axis=(1, 2)).sum())
        return real(topology, children, preorder, delta, total, cost, counted)

    monkeypatch.setattr(engine, "_top_down", counting)
    got = run_batch(topo, plan_sets, betas, config, seeds)
    want = oracle_engine.run_batch(topo, plan_sets, betas, config, seeds)
    for g, w in zip(got, want):
        assert_same_outcome(g, w)
    # Blocks were cut short: more states costed than nodes that needed one.
    assert costed > moved if block > 1 else costed == moved
