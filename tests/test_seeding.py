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
from rlansatz.ansatz import build_baseline
from rlansatz.optimize import optimize_circuit
from rlansatz.problems import make_instance
from rlansatz.qsim import sample_from_probabilities
from rlansatz.seeding import BLOCK, OPT_STREAM, derive_seed, seed_stream


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


# The evaluation stream: each Generator it yields is in the state default_rng of that evaluation's seed starts in.

def first_states(master_seed, *path, count):
    """The state of each of the stream's first ``count`` Generators, read before the next one is set."""
    return [g.bit_generator.state for g in itertools.islice(seed_stream(master_seed, *path), count)]


def default_rng_states(master_seed, *path, counters):
    return [np.random.default_rng(derive_seed(master_seed, *path, k)).bit_generator.state for k in counters]


@settings(max_examples=200, deadline=None)
@given(
    master_seed=st.integers(0, 2**140),
    prefix=st.lists(st.integers(0, 2**70), max_size=4),
    count=st.one_of(st.integers(1, 4 * BLOCK + 5), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])),
)
def test_seed_stream_is_default_rng_of_derive_seed(master_seed, prefix, count):
    expected = default_rng_states(master_seed, *prefix, counters=range(count))
    assert first_states(master_seed, *prefix, count=count) == expected


def test_seed_stream_crosses_block_boundaries_in_order():
    count = 3 * BLOCK + 5
    assert first_states(2024, OPT_STREAM, count=count) == default_rng_states(2024, OPT_STREAM, counters=range(count))


@pytest.mark.parametrize("master_seed, prefix", [(0, ()), (2024, (OPT_STREAM,)), (2**140, (2**70, 0, 5, 1))])
def test_seed_stream_ends_with_the_last_one_word_counters(monkeypatch, master_seed, prefix):
    # Start the stream at its last block, counters 2^32 - BLOCK ... 2^32 - 1, instead of reading 2^32 - BLOCK states.
    def last_block_range(*args):
        if args == (0, 1 << 32, BLOCK):
            return builtins.range((1 << 32) - BLOCK, 1 << 32, BLOCK)
        return builtins.range(*args)

    expected = default_rng_states(master_seed, *prefix, counters=range((1 << 32) - BLOCK, 1 << 32))
    monkeypatch.setattr(seeding, "range", last_block_range, raising=False)
    assert first_states(master_seed, *prefix, count=BLOCK + 1) == expected  # and the stream ends there


@settings(max_examples=100, deadline=None)
@given(master_seed=st.integers(0, 2**140), k=st.integers(0, 2 * BLOCK), probs_seed=st.integers(0, 2**32 - 1))
def test_stream_and_integer_seeds_draw_what_default_rng_draws(master_seed, k, probs_seed):
    p = np.random.default_rng(probs_seed).random(64) ** 2
    p /= p.sum()
    generator = next(itertools.islice(seed_stream(master_seed, OPT_STREAM), k, None))
    reference = np.random.default_rng(derive_seed(master_seed, OPT_STREAM, k))
    assert np.array_equal(sample_from_probabilities(p, 1000, generator), reference.multinomial(1000, p / p.sum()))
    assert generator.bit_generator.state == reference.bit_generator.state  # and both moved on alike
    for s in (master_seed, 2**32, 2**64 + 5):  # seeds from outside a stream go to numpy's own generator
        expected = np.random.default_rng(s).multinomial(1000, p / p.sum())
        assert np.array_equal(sample_from_probabilities(p, 1000, s), expected)


def test_streams_advanced_alternately_keep_their_own_draws():
    p = np.random.default_rng(3).random(32)
    p /= p.sum()
    paths = [(9, OPT_STREAM), (9, OPT_STREAM, 1), (10, OPT_STREAM)]
    streams = [seed_stream(*path) for path in paths]
    for k in range(BLOCK + 3):
        generators = [next(s) for s in streams]  # every stream advances before any of them draws
        for path, generator in zip(paths, generators):
            expected = np.random.default_rng(derive_seed(*path, k)).multinomial(500, p)
            assert np.array_equal(generator.multinomial(500, p), expected)


def test_threads_optimize_as_they_would_in_sequence():
    cells = [("cycle", 4, "maxcut", "qaoa1"), ("star", 5, "minvertexcover", "maqaoa"),
             ("cycle", 6, "maxcut", "qaoa2"), ("three_regular", 6, "maxcut", "linear")]
    problems = []
    for topology, n, kind, ansatz in cells:
        inst = make_instance(topology, n, 0, kind)
        problems.append((build_baseline(ansatz, inst), inst.ham))

    def optimize(i):
        circuit, energy = problems[i]
        return optimize_circuit(circuit.copy(), energy, 1000, seed=40 + i)

    expected = [optimize(i) for i in range(len(problems))]
    results, failures = {}, []

    def run(i):
        try:
            results[i] = optimize(i)
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(problems))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    for i, want in enumerate(expected):
        got = results[i]
        assert got.evaluations == want.evaluations and got.best_value == want.best_value
        assert np.array_equal(got.best_params, want.best_params)
