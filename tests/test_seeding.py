"""The vectorised seeds and draws against numpy's one-at-a-time reference.

numpy's ``SeedSequence``, ``default_rng`` and ``Generator.choice`` are the
reference for every sub-seed, generator state and adversary set a sweep
derives. These tests pin the equality on the installed numpy; they are the
check to run on any other numpy version.
"""

import itertools
import math
import zlib

import numpy as np
import pytest

from advplan.adversary import random_adversaries, random_adversary_draws, sample_k_subsets
from advplan.errors import RangeError
from advplan import seeding
from advplan.seeding import _seed_words, _word, derive_seed, derive_seeds, pcg64_states
from advplan.topology import build_balanced_binary

MASK = 0xFFFFFFFF


def reference_seed(master_seed, *tags):
    """One sub-seed exactly as the per-call derivation computed it."""
    words = [master_seed & MASK]
    words += [zlib.crc32(t.encode()) if isinstance(t, str) else int(t) & MASK for t in tags]
    return int(np.random.SeedSequence(entropy=words).generate_state(1)[0])


def random_words(rng, shape):
    """uint32 words, a quarter of them 0 and a quarter 2**32 - 1."""
    words = rng.integers(0, 2**32, size=shape, dtype=np.uint64)
    pick = rng.random(shape)
    words[pick < 0.25] = 0
    words[pick > 0.75] = MASK
    return words.astype(np.uint32)


def test_derive_seeds_match_seed_sequence_on_rows_of_1_to_8_words():
    rng = np.random.default_rng(2024)
    masters = [0, MASK, -1, -(2**35) - 9, *rng.integers(-(2**40), 2**40, size=26).tolist()]
    checked = 0
    for width in range(1, 9):
        for block, master in enumerate(masters):
            tags = list(random_words(rng, (width - 1, 480)).astype(np.int64))
            if block < 2:
                tags = [np.full(480, (0, MASK)[block]) for _ in tags]
            if len(tags) > 1 and block % 3 == 2:
                tags[0] = "placement"
            seeds = derive_seeds(master, tags).tolist()
            rows = list(zip(*(t.tolist() if isinstance(t, np.ndarray) else [t] * 480
                              for t in tags))) or [()]
            assert seeds == [reference_seed(master, *row) for row in rows], (width, master)
            checked += len(rows)
    assert checked >= 100_000


def test_seed_words_match_seed_sequence_words_out():
    """Eight words out, for rows up to 17 words, in columns and as lone rows
    of one-word arrays."""
    rng = np.random.default_rng(5)
    for width in range(1, 18):
        rows = random_words(rng, (1000, width))
        got = np.stack(_seed_words(list(rows.T), 8), axis=1)
        want = np.stack([np.random.SeedSequence(entropy=row.tolist()).generate_state(8)
                         for row in rows])
        assert np.array_equal(got, want), width
        for row, words in zip(rows[:5], want[:5]):
            lone = _seed_words([row[i : i + 1] for i in range(width)], 8)
            assert all(word.shape == (1,) and word.dtype == np.uint32 for word in lone)
            assert np.concatenate(lone).tolist() == words.tolist()


def test_shared_words_stay_uint32_scalars():
    """Words that every row shares go in and come out as uint32 scalars
    equal to numpy's. Every constant they meet is a uint32 too: under
    NumPy 1's value-based casting a Python int operand would turn a uint32
    scalar into an int64, which no longer wraps at 32 bits."""
    for name in ("_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R", "_XSHIFT"):
        assert type(getattr(seeding, name)) is np.uint32, name
    rng = np.random.default_rng(6)
    for width in (1, 4, 9):
        for row in random_words(rng, (20, width)).tolist():
            words = _seed_words([_word(w) for w in row], 8)
            assert all(type(word) is np.uint32 for word in words)
            assert words == np.random.SeedSequence(entropy=row).generate_state(8).tolist()
    seeds = derive_seeds(2**32 - 1, ("topology", -3, 2**40 + 5))
    assert seeds.dtype == np.uint32 and seeds.shape == (1,)


def test_derive_seeds_match_per_call_derivation():
    """Shared ints and strings, per-cell arrays and negative master seeds."""
    rng = np.random.default_rng(7)
    masters = [0, 1, MASK, -1, -(2**40) - 3, 2**33 + 5]
    layouts = [
        (),
        ("topology", 3),
        ("layercfg", "array", "array"),
        ("placement", 2, "array", "array", 9),
        ("layerrun", 1, "array", "array", "array", "array"),
        ("cumulative", 0, "bottom_up", "array", "array"),
        ("array", "array", "array", "array", "array", "array", "array"),
        ("array", -5, 2**40 + 1, "array"),
    ]
    for master, layout in itertools.product(masters, layouts):
        cells = 97
        columns = [random_words(rng, cells).astype(np.int64) if tag == "array" else tag
                   for tag in layout]
        seeds = derive_seeds(master, columns)
        assert seeds.dtype == np.uint32
        if "array" not in layout:
            assert seeds.tolist() == [reference_seed(master, *layout)]
            assert derive_seed(master, *layout) == seeds[0]
            continue
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else [c] * cells for c in columns))
        assert seeds.tolist() == [reference_seed(master, *row) for row in rows]
    negative = np.array([-1, -(2**31), 2**32 + 7])
    assert derive_seeds(3, ("x", negative)).tolist() == [
        reference_seed(3, "x", v) for v in negative.tolist()
    ]


def test_pcg64_states_match_default_rng():
    rng = np.random.default_rng(11)
    seeds = np.concatenate([[0, 1, MASK, MASK - 1], random_words(rng, 10_000)])
    states = pcg64_states(seeds)
    assert len(states) == len(seeds)
    for seed, state in zip(seeds.tolist(), states):
        assert state == np.random.default_rng(seed).bit_generator.state
    assert pcg64_states(np.array([], dtype=np.uint32)) == []


def reference_draw(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.arange(1, n + 1), size=count, replace=False).tolist()


@pytest.mark.parametrize("n", [1, 2, 50, 1000])
def test_draws_match_default_rng_choice_in_order(n):
    topology = build_balanced_binary(n, permutation_seed=1)
    counts = [c for c in (0, 1, n // 2, n) for _ in range(6)]
    seeds = np.random.default_rng(n).integers(0, 2**32, size=len(counts), dtype=np.uint64)
    seeds[:2] = (0, MASK)
    rng = np.random.Generator(np.random.PCG64())
    draws = random_adversary_draws(topology, counts, pcg64_states(seeds), rng)
    for count, seed, drawn in zip(counts, seeds.tolist(), draws):
        assert drawn.tolist() == reference_draw(n, count, seed)


def test_draw_after_a_buffered_half_matches_default_rng():
    """``choice`` can leave a buffered 32-bit half; the next cell must not use it."""
    n = 50
    topology = build_balanced_binary(n, permutation_seed=2)
    rng = np.random.Generator(np.random.PCG64())
    counts = [1, 2, 3, 25, 7, 50, 4, 13] * 4
    seeds = np.arange(100, 100 + len(counts), dtype=np.uint32)
    states = pcg64_states(seeds)
    followed_a_buffered_half = 0
    for count, seed, state in zip(counts, seeds.tolist(), states):
        followed_a_buffered_half += rng.bit_generator.state["has_uint32"]
        (drawn,) = random_adversary_draws(topology, [count], [state], rng)
        assert drawn.tolist() == reference_draw(n, count, seed)
    assert followed_a_buffered_half
    batch = random_adversary_draws(topology, counts, states, rng)
    assert [d.tolist() for d in batch] == [
        reference_draw(n, c, s) for c, s in zip(counts, seeds.tolist())
    ]


def test_draw_counts_outside_the_population_give_range_errors():
    topology = build_balanced_binary(6, permutation_seed=0)
    rng = np.random.Generator(np.random.PCG64())
    (drawn,) = random_adversary_draws(topology, [3], pcg64_states([2]), rng)
    assert drawn.tolist() == reference_draw(6, 3, 2)
    for count in (-1, 7):
        with pytest.raises(RangeError) as in_draws:
            random_adversary_draws(topology, [3, count], pcg64_states([2, 3]), rng)
        with pytest.raises(RangeError) as alone:
            random_adversaries(topology, count, seed=1)
        assert str(in_draws.value) == str(alone.value) == f"count={count} outside 0..6"


def old_sample_k_subsets(population, k, cap, seed):
    """``sample_k_subsets`` as it drew with ``default_rng(seed)`` per call."""
    population = sorted(population)
    if math.comb(len(population), k) <= cap:
        return [frozenset(c) for c in itertools.combinations(population, k)]
    rng = np.random.default_rng(seed)
    pool = np.array(population)
    seen, out = set(), []
    while len(out) < cap:
        pick = tuple(sorted(int(a) for a in rng.choice(pool, size=k, replace=False)))
        if pick not in seen:
            seen.add(pick)
            out.append(frozenset(pick))
    return out


@pytest.mark.parametrize(
    "population,k,cap",
    [
        (range(3, 9), 2, 15),  # C(6, 2) = 15: every subset
        (range(3, 9), 2, 14),  # one short: sampled
        (range(1, 11), 5, 100),
        ([40, 7, 13, 2, 99, 61, 8, 5, 77], 3, 4),
        (range(1, 30), 1, 3),
    ],
)
def test_sample_k_subsets_from_a_set_generator_match_per_seed_draws(population, k, cap):
    rng = np.random.Generator(np.random.PCG64())
    seeds = [0, 17, MASK]
    for seed, state in zip(seeds, pcg64_states(seeds)):
        want = old_sample_k_subsets(list(population), k, cap, seed)
        assert sample_k_subsets(list(population), k, cap, seed=seed) == want
        rng.bit_generator.state = state
        assert sample_k_subsets(list(population), k, cap, seed=rng) == want
