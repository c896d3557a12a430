"""Counter-based seed derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlansatz.seeding import derive_seed


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
