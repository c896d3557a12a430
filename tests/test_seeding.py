"""Counter-based seed derivation."""

import builtins
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlansatz import seeding
from rlansatz.seeding import BLOCK, OPT_STREAM, derive_seed, seed_stream, seeded_generator


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

def first_seeds(master_seed, *path, count):
    return list(itertools.islice(seed_stream(master_seed, *path), count))


@settings(max_examples=200, deadline=None)
@given(
    master_seed=st.integers(0, 2**140),
    prefix=st.lists(st.integers(0, 2**70), max_size=4),
    count=st.one_of(st.integers(1, 4 * BLOCK + 5), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])),
)
def test_seed_stream_is_derive_seed(master_seed, prefix, count):
    expected = [derive_seed(master_seed, *prefix, k) for k in range(count)]
    assert first_seeds(master_seed, *prefix, count=count) == expected


def test_seed_stream_crosses_block_boundaries_in_order():
    count = 3 * BLOCK + 5
    assert first_seeds(2024, OPT_STREAM, count=count) == [derive_seed(2024, OPT_STREAM, k) for k in range(count)]


@pytest.mark.parametrize("master_seed, prefix", [(0, ()), (2024, (OPT_STREAM,)), (2**140, (2**70, 0, 5, 1))])
def test_seed_stream_ends_with_the_last_one_word_counters(monkeypatch, master_seed, prefix):
    # Start the stream at its last block, counters 2^32 - BLOCK ... 2^32 - 1, instead of reading 2^32 - BLOCK seeds.
    def last_block_range(*args):
        if args == (0, 1 << 32, BLOCK):
            return builtins.range((1 << 32) - BLOCK, 1 << 32, BLOCK)
        return builtins.range(*args)

    expected = [derive_seed(master_seed, *prefix, k) for k in range((1 << 32) - BLOCK, 1 << 32)]
    monkeypatch.setattr(seeding, "range", last_block_range, raising=False)
    assert first_seeds(master_seed, *prefix, count=BLOCK + 1) == expected  # and the stream ends there
    for s in (expected[0], expected[-1]):  # their states were computed with the block
        assert seeded_generator(s).bit_generator.state == np.random.default_rng(s).bit_generator.state


@settings(max_examples=100, deadline=None)
@given(master_seed=st.integers(0, 2**140), k=st.integers(0, 2 * BLOCK), probs_seed=st.integers(0, 2**32 - 1))
def test_reused_generator_draws_what_default_rng_draws(master_seed, k, probs_seed):
    p = np.random.default_rng(probs_seed).random(64) ** 2
    p /= p.sum()
    seed = first_seeds(master_seed, OPT_STREAM, count=k + 1)[k]  # its state was computed with the block
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
