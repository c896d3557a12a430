"""Counter-based seed derivation."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlansatz.seeding import BLOCK, OPT_STREAM, SeedStream, derive_seed, seeded_generator


def seed_sequence_seed(master_seed, *path):
    """The definition: the first two uint32 words of numpy's SeedSequence, spliced into 63 bits."""
    state = np.random.SeedSequence(entropy=master_seed, spawn_key=path).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


@settings(max_examples=300, deadline=None)
@given(master_seed=st.integers(0, 2**140), path=st.lists(st.integers(0, 2**70), max_size=5))
def test_derive_seed_is_the_seed_sequence_seed(master_seed, path):
    assert derive_seed(master_seed, *path) == seed_sequence_seed(master_seed, *path)


@pytest.mark.parametrize("args", [(-1,), (3, -2)])
def test_derive_seed_rejects_negative_seeds(args):
    with pytest.raises(ValueError):
        derive_seed(*args)


# The evaluation seed stream and the reused generator: the bits of the definitions.

COUNTERS = st.lists(
    st.one_of(st.integers(0, 4 * BLOCK), st.sampled_from([BLOCK - 1, BLOCK, 2**32 - 1, 2**32, 2**64 + BLOCK])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(master_seed=st.integers(0, 2**140), prefix=st.lists(st.integers(0, 2**70), max_size=4), counters=COUNTERS)
def test_seed_stream_is_derive_seed(master_seed, prefix, counters):
    stream = SeedStream(master_seed, *prefix)
    for k in counters:
        assert stream[k] == derive_seed(master_seed, *prefix, k)


def test_seed_stream_crosses_block_boundaries_in_order():
    stream = SeedStream(2024, OPT_STREAM)
    assert [stream[k] for k in range(3 * BLOCK + 5)] == [derive_seed(2024, OPT_STREAM, k) for k in range(3 * BLOCK + 5)]


@settings(max_examples=100, deadline=None)
@given(master_seed=st.integers(0, 2**140), k=st.integers(0, 2 * BLOCK), probs_seed=st.integers(0, 2**32 - 1))
def test_reused_generator_draws_what_default_rng_draws(master_seed, k, probs_seed):
    p = np.random.default_rng(probs_seed).random(64) ** 2
    p /= p.sum()
    seed = SeedStream(master_seed, OPT_STREAM)[k]  # its state was computed with the block
    for s in (seed, master_seed, 2**32, 2**64 + 5):  # the others' states are computed on their own
        expected = np.random.default_rng(s).multinomial(1000, p)
        assert np.array_equal(seeded_generator(s).multinomial(1000, p), expected)
        assert seeded_generator(s).bit_generator.state == np.random.default_rng(s).bit_generator.state


def test_threads_draw_from_their_own_generators():
    p = np.random.default_rng(3).random(32)
    p /= p.sum()
    seeds = [derive_seed(9, OPT_STREAM, k) for k in range(150)]
    expected = {s: np.random.default_rng(s).multinomial(500, p) for s in seeds}
    mismatches = []

    def draw(offset):
        for s in seeds[offset:] + seeds[:offset]:
            if not np.array_equal(seeded_generator(s).multinomial(500, p), expected[s]):
                mismatches.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(17 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
