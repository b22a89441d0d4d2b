"""Sub-seeds and generator states of a sweep, derived for many cells at once.

A run seed is ``SeedSequence(entropy=[master_seed, *tag words])`` mixed down
to one word, and a cell's adversaries are drawn from a PCG64 that starts
where ``default_rng(run_seed)`` starts. Both are fixed-width arithmetic:
O'Neill's ``seed_seq_fe`` mixing as numpy's ``SeedSequence`` implements it,
and PCG64's two-step LCG seeding (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014). This module runs them on whole columns of cells with
numpy's uint32 arrays, and on a word that every cell shares as one uint32
scalar, bit for bit what numpy computes one seed at a time.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: a pool of 4 words, hash constants for mixing entropy
# in (A) and for generating words out (B), and the pool's mixing multipliers.
# Each is a uint32, as every word they meet is: uint32 with uint32 stays
# uint32 under NumPy 1's value-based casting as under NEP 50, where a Python
# int would turn a shared uint32 word into an int64 on NumPy 1.
_POOL_SIZE = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _word(value: int) -> np.uint32:
    """A word that every row shares: ``value`` masked to 32 bits, as a uint32
    scalar; it broadcasts against a column of words."""
    return np.uint32(value & _MASK32)


# A column of words, one per row, or one word that every row shares.
_Word = np.ndarray | np.uint32


def _hashmix(value: _Word, const: np.uint32, mult: np.uint32) -> tuple[_Word, np.uint32]:
    """One SeedSequence hash step of ``value`` with constant ``const``:
    the hashed value and the next step's constant, ``const * mult``."""
    value = value ^ const
    const = const * mult
    value = value * const
    return value ^ value >> _XSHIFT, const


def _mix(x: _Word, y: _Word) -> _Word:
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _seed_words(entropy: list[_Word], n_words: int) -> list[_Word]:
    """``SeedSequence(entropy=row).generate_state(n_words)`` of every row.

    ``entropy`` holds the rows' words position by position: a uint32 array
    of one word per row, or a uint32 word (``_word``) that every row shares.
    Rows shorter than the pool are padded with zero words, which is what
    ``SeedSequence`` mixes in for them; longer ones mix their extra words
    in after the pool. Each returned word is a uint32 array of one word per
    row, or a uint32 scalar when every input word is shared. Shared words
    wrap as the arrays do, so their overflow warnings are silenced.
    """
    words = [*entropy, *[_word(0)] * (_POOL_SIZE - len(entropy))]
    with np.errstate(over="ignore"):
        const, pool = _INIT_A, []
        for word in words[:_POOL_SIZE]:
            word, const = _hashmix(word, const, _MULT_A)
            pool.append(word)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hashed, const = _hashmix(pool[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], hashed)
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                hashed, const = _hashmix(word, const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
        # Generating words out is the same hash step over the pool, cycled.
        const, out = _INIT_B, []
        for i in range(n_words):
            word, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
            out.append(word)
        return out


def _tag_word(tag) -> _Word:
    """A tag's word: a string's crc32, an int masked to 32 bits, or one
    uint32 word per cell of an integer array (wrapping as the mask does)."""
    if isinstance(tag, np.ndarray) and tag.ndim:
        return tag.astype(np.uint32)
    return _word(zlib.crc32(tag.encode()) if isinstance(tag, str) else int(tag))


def derive_seeds(master_seed: int, tags) -> np.ndarray:
    """Stable sub-seeds from the master seed and a tag path, one per cell.

    Each tag is an int or a string shared by every cell, or an integer
    array with one entry per cell. Cell i's seed is
    ``SeedSequence(entropy=[master_seed, *words of cell i]).generate_state(1)``
    with every word masked to 32 bits and strings as their ``zlib.crc32``.
    Returns a uint32 array, of one seed when every tag is shared.
    """
    return np.atleast_1d(_seed_words([_word(int(master_seed)), *map(_tag_word, tags)], 1)[0])


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
