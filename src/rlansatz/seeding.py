"""Counter-based seed derivation.

Every stochastic call in the package takes an explicit integer seed. Seeds
for sub-tasks (per worker, per episode, per objective evaluation, ...) are
derived from a master seed plus an integer path, so a run is reproducible
from its master seed alone and parallel consumers never share RNG state.
"""

from __future__ import annotations

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
    converting each item. This runs once per objective evaluation.
    """
    words = _words(master_seed)
    if path:
        words += [0] * (_POOL_SIZE - len(words))
        for p in path:
            words += _words(p)
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    state = ss.generate_state(2, dtype=np.uint32).tolist()
    return (state[0] << 31) ^ state[1]


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
