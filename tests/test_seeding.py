"""Named RNG streams: the generator state a (seed, tags) pair names."""

import numpy as np
import pytest

from glaug.seeding import _tag_to_int, seeded_rng


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
@pytest.mark.parametrize("tags", [(), (0,), ("folds",), ("synth", 5), ("aug", 2**32 + 3, "x")])
def test_word_entropy_names_the_list_entropy_state(seed, tags):
    """The uint32 words seeded_rng passes SeedSequence give the state that
    the list [seed, *tags] gives: the seed's words, low first, then a word
    per tag."""
    listed = np.random.SeedSequence([seed, *map(_tag_to_int, tags)])
    want = np.random.Generator(np.random.PCG64(listed))
    got = seeded_rng(seed, *tags)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(2**63, size=4).tolist() == want.integers(2**63, size=4).tolist()
