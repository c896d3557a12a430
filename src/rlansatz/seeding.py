"""Counter-based seed derivation.

Every stochastic call in the package takes an explicit seed. Seeds for
sub-tasks (per worker, per episode, per objective evaluation, ...) are
derived from a master seed plus an integer path, so a run is reproducible
from its master seed alone and parallel consumers never share RNG state.

``derive_seed`` is the definition. An optimization derives one seed per
objective evaluation, ``derive_seed(seed, OPT_STREAM, k)`` for k = 0, 1,
..., and draws each evaluation's shots from the state ``default_rng`` of
that seed starts in (a multinomial, or the uniforms of an inverse-CDF draw
from ``qsim.CDF_MIN_QUBITS`` qubits on).
``seed_stream`` yields a Generator of its own set to those states in
order, without building a ``default_rng`` per seed: numpy's SeedSequence
mixing and PCG64 seeding are fixed integer arithmetic (O'Neill 2014), so a
block of ``BLOCK`` counters runs them on uint32 vectors, one lane per
counter, with the same bits.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

# Tags used as the last path component to keep streams for different
# purposes disjoint even when the numeric path prefix coincides.
OBS_STREAM = 0
OPT_STREAM = 1
REWARD_STREAM = 2
INIT_STREAM = 3


# numpy SeedSequence's pool size, in 32-bit words
_POOL_SIZE = 4


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 63-bit integer seed from a master seed and an integer path.

    Deterministic, and distinct paths give independent streams (backed by
    numpy's SeedSequence entropy mixing). The seed is the one drawn from
    ``SeedSequence(entropy=master_seed, spawn_key=path)``. That mixes the
    32-bit words of the entropy, zero-padded to the pool size when a spawn
    key follows, and then the words of the key; the same words are passed
    here as one uint32 array, which numpy mixes the same way without
    converting each item.
    """
    ss = np.random.SeedSequence(np.array(_entropy(master_seed, path), dtype=np.uint32))
    state = ss.generate_state(2, dtype=np.uint32).tolist()
    return (state[0] << 31) ^ state[1]


def _entropy(master_seed: int, path) -> list[int]:
    """The uint32 words ``SeedSequence(entropy=master_seed, spawn_key=path)`` mixes."""
    words = _words(master_seed)
    if path:
        words += [0] * (_POOL_SIZE - len(words))
        for p in path:
            words += _words(p)
    return words


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer (at least one)."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seeds must be non-negative integers, got {value}")
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """A numpy Generator seeded from ``derive_seed(master_seed, *path)``."""
    return np.random.default_rng(derive_seed(master_seed, *path))


# -- SeedSequence mixing on uint32 vectors -----------------------------------
#
# An array of shape (words, lanes) holds one value per lane; uint32
# arithmetic wraps mod 2^32 as numpy's C code does. The hash's constant
# advances with every call, so call i multiplies by init * mult^i; calls
# that the scalar code makes in a row on values that do not change in
# between are one array operation here, one row per call.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, first: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per call ``first``, ..., ``first + calls - 1``: the constant before it and after it, as columns."""
    consts = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(first, first + calls + 1)], np.uint32)
    consts.flags.writeable = False  # shared by every caller
    return consts[:-1, None], consts[1:, None]


def _hash(values: np.ndarray, init: int, mult: int, first: int, calls: int) -> np.ndarray:
    """Calls ``first``, ..., ``first + calls - 1`` of SeedSequence's hashmix, call i on row i of ``values``.

    A 1-D ``values`` is the row of every call.
    """
    before, after = _hash_consts(init, mult, first, calls)
    values = values ^ before
    values *= after
    values ^= values >> _SHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> _SHIFT
    return result


def _pool(head: np.ndarray) -> np.ndarray:
    """SeedSequence's pool after it mixes an entropy of at most ``_POOL_SIZE`` rows."""
    pool = np.zeros((_POOL_SIZE, head.shape[1]), dtype=np.uint32)
    pool[: len(head)] = head
    pool = _hash(pool, _INIT_A, _MULT_A, 0, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        calls = _hash(pool[src], _INIT_A, _MULT_A, 4 + 3 * src, len(dst))
        pool[dst] = _mix(pool[dst], calls)
    return pool


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, uint32)`` from a mixed pool, one column per lane."""
    return _hash(pool[[i % _POOL_SIZE for i in range(n_words)]], _INIT_B, _MULT_B, 0, n_words)


# -- evaluation seeds ----------------------------------------------------------

BLOCK = 64
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def seed_stream(master_seed: int, *path: int) -> Iterator[np.random.Generator]:
    """Per k < 2^32, in order, a Generator in the state ``default_rng(derive_seed(master_seed, *path, k))`` starts in.

    The stream owns one Generator and sets each state into it, so draw from
    it before the next ``next()``. The entropy of every seed in the stream is
    one prefix followed by the counter's one word, so numpy mixes the prefix
    once, and a block of ``BLOCK`` counters mixes its counters in on a
    uint32 vector, then the four uint64 words each seed's own SeedSequence
    generates for PCG64. PCG64 reads those as the initial state (high, low)
    and the stream (high, low), then sets ``inc = 2 stream + 1`` and
    ``state = (inc + initstate) * mult + inc`` mod 2^128. An optimization
    uses about 43 of its 1000-evaluation budget, so a block is computed only
    when the stream reaches it.
    """
    prefix = _entropy(master_seed, (*path, 0))[:-1]  # at least _POOL_SIZE words; the counter's goes last
    prefix_pool = np.random.SeedSequence(np.array(prefix, dtype=np.uint32)).pool[:, None]
    first_call = 4 * len(prefix)  # the hash calls the prefix took: 4 + 12 + 4 per word past the pool
    generator = np.random.default_rng(0)
    for start in range(0, 1 << 32, BLOCK):
        calls = _hash(np.arange(start, start + BLOCK, dtype=np.uint32), _INIT_A, _MULT_A, first_call, _POOL_SIZE)
        s0, s1 = _generate(_mix(prefix_pool, calls), 2).astype(np.uint64)
        seeds = (s0 << np.uint64(31)) ^ s1
        # each seed's SeedSequence mixes its words [low, high]
        words = _generate(_pool(np.array([seeds & _MASK32, seeds >> np.uint64(32)], dtype=np.uint32)), 8)
        words = words.astype(np.uint64)
        for high, low, stream_high, stream_low in (words[0::2] | (words[1::2] << np.uint64(32))).T.tolist():
            inc = (((stream_high << 64) | stream_low) << 1 | 1) & _MASK128
            state = ((inc + ((high << 64) | low)) * _PCG64_MULT + inc) & _MASK128
            generator.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
            }
            yield generator
