"""Sub-seeds and generator states of a sweep, derived for many cells at once.

A run seed is ``SeedSequence(entropy=[master_seed, *tag words])`` mixed down
to one word, and a cell's adversaries are drawn from a PCG64 that starts
where ``default_rng(run_seed)`` starts. Both are fixed-width arithmetic:
O'Neill's ``seed_seq_fe`` mixing as numpy's ``SeedSequence`` implements it,
and PCG64's two-step LCG seeding (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014). This module runs them on whole columns of cells with
numpy's uint32 arrays, bit for bit what numpy computes one seed at a time.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: a pool of 4 words, hash constants for mixing entropy
# in (A) and for generating words out (B), and the pool's mixing multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The (source, destination) pool words of each mixing step, in order.
_MIX_ORDER = tuple(
    (src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst
)


def _hash_constants(const: int, mult: int):
    """The ``(constant, next constant)`` pairs of successive SeedSequence hash steps."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


# The constants do not depend on the rows, so the first ones are tabled: the
# 64 mixing steps of rows up to 16 words, and 8 words out.
_A_STEPS = tuple(itertools.islice(_hash_constants(_INIT_A, _MULT_A), 64))
_B_STEPS = tuple(itertools.islice(_hash_constants(_INIT_B, _MULT_B), 8))


def _steps(table: tuple, mult: int):
    """Every hash step's constants: ``table``'s, then the ones after it."""
    return itertools.chain(table, _hash_constants(table[-1][1], mult))


# Python ints are masked to 32 bits after every step that can overflow;
# uint32 arrays wrap by themselves.
def _hashmix(value, constants: tuple[int, int]):
    """One SeedSequence hash step of ``value`` with one step's constants."""
    const, after = constants
    value = (value ^ const) * after
    if value.__class__ is int:
        value &= _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    x, y = _MIX_MULT_L * x, _MIX_MULT_R * y
    if x.__class__ is int:
        x &= _MASK32
    if y.__class__ is int:
        y &= _MASK32
    result = x - y
    if result.__class__ is int:
        result &= _MASK32
    return result ^ result >> _XSHIFT


def _seed_words(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy=row).generate_state(n_words)`` of every row.

    ``entropy`` holds the rows' words position by position, each a Python
    int shared by every row or a uint32 array with one word per row. Rows
    shorter than the pool are padded with zero words, which is what
    ``SeedSequence`` mixes in for them; longer ones mix their extra words
    in after the pool. Each returned word is an int or a uint32 array like
    the inputs: shared words cost no numpy call until they meet a per-row
    one, so a lone row runs on Python ints alone.
    """
    words = [*entropy, *[0] * (_POOL_SIZE - len(entropy))]
    steps = _steps(_A_STEPS, _MULT_A)
    pool = [_hashmix(word, next(steps)) for word in words[:_POOL_SIZE]]
    for src, dst in _MIX_ORDER:
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(steps)))
    # Generating words out is the same hash step over the pool, cycled.
    out = zip(range(n_words), _steps(_B_STEPS, _MULT_B))
    return [_hashmix(pool[i % _POOL_SIZE], constants) for i, constants in out]


def _tag_word(tag):
    """A tag's word: a string's crc32, an int masked to 32 bits, or one
    uint32 word per cell of an integer array (wrapping as the mask does)."""
    if isinstance(tag, str):
        return zlib.crc32(tag.encode())
    if isinstance(tag, np.ndarray) and tag.ndim:
        return tag.astype(np.uint32)
    return int(tag) & _MASK32


def derive_seeds(master_seed: int, tags) -> np.ndarray:
    """Stable sub-seeds from the master seed and a tag path, one per cell.

    Each tag is an int or a string shared by every cell, or an integer
    array with one entry per cell. Cell i's seed is
    ``SeedSequence(entropy=[master_seed, *words of cell i]).generate_state(1)``
    with every word masked to 32 bits and strings as their ``zlib.crc32``.
    Returns a uint32 array, of one seed when every tag is shared.
    """
    (seeds,) = _seed_words([int(master_seed) & _MASK32, *map(_tag_word, tags)], 1)
    return np.asarray(seeds, dtype=np.uint32).reshape(-1)


def derive_seed(master_seed: int, *tags) -> int:
    """Stable sub-seed from the master seed and a tag path (ints or strings)."""
    return int(derive_seeds(master_seed, tags)[0])


def pcg64_states(seeds) -> list[dict]:
    """``default_rng(seed).bit_generator.state`` for each of ``seeds``, a
    sequence of seeds below 2**32.

    PCG64 reads 8 words of ``SeedSequence(seed)`` as 4 little-endian uint64
    a, b, c, d. With initial state ``a << 64 | b`` and stream
    ``c << 64 | d``: state = 0, inc = 2 * stream + 1, one LCG step,
    state += initial, one more step. No buffered 32-bit half is held.
    """
    w = [word.astype(np.uint64) for word in _seed_words([np.asarray(seeds, np.uint32)], 8)]
    a, b, c, d = ((w[i + 1] << np.uint64(32) | w[i]).tolist() for i in range(0, 8, 2))
    states = []
    for initial_hi, initial_lo, stream_hi, stream_lo in zip(a, b, c, d):
        inc = (stream_hi << 65 | stream_lo << 1 | 1) & _MASK128
        state = (((initial_hi << 64 | initial_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states
