"""The bulk seeding path against numpy's own SeedSequence (the property
version is in test_sampler_properties.py).

``child_seed_words`` re-implements SeedSequence's hash, vectorized over many
keys; a generator seeded by its words must draw what
``default_rng(SeedSequence(seed, spawn_key=path + (j,)))`` draws, bit for
bit, for every seed size and every path.
"""

import numpy as np
import pytest

from mvfbm.streams import StreamArray, StreamKey, _entropy, _pool_state, seeded_generator
from oracles import assert_array_matches_numpy, assert_bulk_matches_numpy, numpy_draws

# 0, one word, two words, three words, and five words (longer than the pool)
SEEDS = (0, 2024, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**130 + 7)
PATHS = ((), (0,), (3, 1), (2**32, 1, 5), (7, 2**40, 0, 2**64 + 1), (1, 2, 3, 4, 5), (9, 8, 7, 6, 5, 2**32))


def test_mixed_seeds_and_paths_in_one_call():
    keys = [StreamKey(seed, path) for seed in SEEDS for path in PATHS]
    assert_bulk_matches_numpy(keys, components=3)


@pytest.mark.parametrize("seed", SEEDS)
def test_padding_without_a_spawn_key_hashes_the_same(seed):
    # numpy zero-pads the seed's words to the pool size only before a spawn key
    words = _pool_state(np.array([_entropy(seed, ())], np.uint32).T)[0]
    assert seeded_generator(words).standard_normal(8).tobytes() == numpy_draws(seed, ()).tobytes()


def test_negative_index_rejected():
    with pytest.raises(ValueError, match=r"stream indices must be nonnegative, got \(-1,\)"):
        StreamKey(1).child(-1)


def test_negative_seed_rejected():
    # SeedSequence takes no negative entropy; the hash's word loop never ended on one
    for seed in (-1, -2**40):
        with pytest.raises(ValueError, match=f"stream seed must be nonnegative, got {seed}"):
            StreamKey.coerce(seed)
    with pytest.raises(ValueError, match=r"stream indices must be nonnegative, got \(3, -1\)"):
        StreamKey(0, (3, -1))


@pytest.mark.parametrize("index", [
    np.arange(5)[:, None],  # covariance_check's paths
    np.array([[0, 1, 2**32 - 1], [7, 1, 0]]),
    np.array([[2**32, 1, 0], [3, 1, 2**40]]),  # indices of two words, hashed key by key
    np.array([[2**64 - 1], [0]], np.uint64),
    np.empty((3, 0), np.int64),  # every path is the root
], ids=["one-column", "one-word", "two-words", "uint64", "no-columns"])
@pytest.mark.parametrize("root", [StreamKey(2**64 + 12345), StreamKey(2024, (1, 2**33))])
def test_array_rows_seed_as_their_keys(root, index):
    streams = StreamArray(root, index)
    assert len(streams) == len(index)
    assert list(streams) == [root.child(*row) for row in index.tolist()]
    assert_array_matches_numpy(streams, components=2)


@pytest.mark.parametrize("index,match", [
    (np.array([[0], [-1]]), "stream indices must be nonnegative, got -1"),
    (np.arange(3), r"a 2-D integer array, got int64 of shape \(3,\)"),
    (np.zeros((2, 1)), r"a 2-D integer array, got float64 of shape \(2, 1\)"),
], ids=["negative", "1-D", "float"])
def test_array_rejects_what_is_no_index(index, match):
    with pytest.raises(ValueError, match=match):
        StreamArray(StreamKey(0), index)
