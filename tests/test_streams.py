"""The computed stream states must be numpy's own, bit for bit.

If a numpy release changes SeedSequence's hashing or PCG64's seeding, these
tests fail before any report changes.
"""
import itertools

import numpy as np
import pytest

from lipstab.streams import generators, pcg64_states, seeded

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)  # one, two and three 32-bit words
SAMPLES = (0, 1, 2**31, 2**32 - 1)


def _numpy_state(key):
    return np.random.default_rng(key).bit_generator.state


def test_estimator_keys_match_default_rng():
    for seed, r_idx in itertools.product(SEEDS, range(3)):
        states = pcg64_states((seed, r_idx), SAMPLES)
        assert states == [_numpy_state((seed, r_idx, i)) for i in SAMPLES]


def test_cut_point_keys_match_default_rng():
    # convex._cut_points draws from (seed, 0, block, i); other middle entries are keys too
    for seed, round_idx, block_idx in itertools.product(SEEDS, range(3), range(3)):
        states = pcg64_states((seed, round_idx, block_idx), range(70))
        assert states == [_numpy_state((seed, round_idx, block_idx, i)) for i in range(70)]


def test_indices_of_more_than_one_word():
    indices = (0, 2**32, 5, 2**64 + 3, 2**32 - 1)
    for seed in SEEDS:
        assert pcg64_states((seed, 2), indices) == [_numpy_state((seed, 2, i)) for i in indices]


def test_empty_prefix_and_empty_indices():
    assert pcg64_states((), range(5)) == [_numpy_state((i,)) for i in range(5)]
    assert pcg64_states((1, 2), range(0)) == []


def test_negative_entries_raise_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng((-1, 0, 0))
    for prefix, indices in (((-1, 0), [0]), ((1, 0), [3, -2])):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            pcg64_states(prefix, indices)


def test_streams_draw_what_default_rng_draws():
    # more keys than the estimator seeds at once
    count = 1100
    for i, rng in enumerate(generators(seeded((2**32, 1), range(count)))):
        if i % 7 == 0 or i >= 1020:
            ref = np.random.default_rng((2**32, 1, i))
            assert np.array_equal(rng.normal(size=3), ref.normal(size=3))
            assert rng.integers(5) == ref.integers(5)
            assert np.array_equal(rng.bit_generator.random_raw(2), ref.bit_generator.random_raw(2))
    assert i == count - 1
