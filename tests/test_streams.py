"""The bulk seeding path against numpy's own SeedSequence (the property
version is in test_sampler_properties.py), and what it costs.

``child_seed_words`` re-implements SeedSequence's hash, vectorized over the
rows of a ``StreamArray``; a generator seeded by its words must draw what
``default_rng(SeedSequence(seed, spawn_key=path + (*row, j)))`` draws, bit
for bit, for every seed size and every path.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvfbm.streams
from mvfbm.fbm import UniformMesh
from mvfbm.model import preset_mean_reverting
from mvfbm.simulator import SimulationConfig, _noise_streams
from mvfbm.streams import (StreamArray, StreamKey, _entropy, _pool_state, child_seed_words,
                           seeded_generator)
from oracles import assert_array_matches_numpy, numpy_draws

# 0, one word, two words, three words, and five words (longer than the pool)
SEEDS = (0, 2024, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**130 + 7)


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
            StreamKey(seed)
    with pytest.raises(ValueError, match=r"stream indices must be nonnegative, got \(3, -1\)"):
        StreamKey(0, (3, -1))


@pytest.mark.parametrize("make", [
    lambda: StreamKey(1.9), lambda: StreamKey(1.5), lambda: StreamKey(np.float64(3.0)),
    lambda: StreamKey("7"), lambda: StreamKey(0).child(1.5), lambda: StreamKey(0, (2, 0.5)),
], ids=["seed-1.9", "seed-1.5", "numpy-float-seed", "text-seed", "fractional-child", "fractional-path"])
def test_non_integer_seed_or_index_rejected(make):
    # a fractional seed or index is rejected, not truncated
    with pytest.raises(ValueError, match="stream seed and indices must be integers"):
        make()


def test_integers_of_any_kind_address_the_same_stream():
    key = StreamKey(np.uint64(2**64 - 1), (np.int32(3),)).child(np.uint32(5), True)
    assert key == StreamKey(2**64 - 1, (3, 5, 1))
    assert type(key.seed) is int and all(type(i) is int for i in key.path)
    assert key.generator().standard_normal(8).tobytes() == numpy_draws(2**64 - 1, (3, 5, 1)).tobytes()
    large = StreamKey(2**130 + 7).child(np.int64(4))
    assert large.generator().standard_normal(8).tobytes() == numpy_draws(2**130 + 7, (4,)).tobytes()


INDEX_ARRAYS = {
    "one-column": np.arange(5)[:, None],  # covariance_check's paths
    "one-word": np.array([[0, 1, 2**32 - 1], [7, 1, 0]]),
    "uint64": np.array([[2**32 - 1], [0]], np.uint64),
    "no-columns": np.empty((3, 0), np.int64),  # every path is the root
    "no-rows": np.empty((0, 2), np.int64),
}
# roots whose seed or path takes more than one word
ROOTS = [StreamKey(2**64 + 12345), StreamKey(2024, (1, 2**33)), StreamKey(2**130 + 7, (2**64 + 1,))]


@pytest.mark.parametrize("index", INDEX_ARRAYS.values(), ids=INDEX_ARRAYS)
@pytest.mark.parametrize("root", ROOTS)
def test_array_rows_seed_as_their_keys(root, index):
    streams = StreamArray(root, index)
    assert len(streams) == len(index)
    assert_array_matches_numpy(streams, components=2)


@pytest.mark.parametrize("root,index,match", [
    (StreamKey(0), np.array([[0], [-1]]), r"stream indices must lie in \[0, 2\^32\), got -1 to 0"),
    # indices of two words are out of range whatever the root's own width
    *[(root, np.array([[2**32, 1, 0], [3, 1, 5]]), r"in \[0, 2\^32\), got 0 to 4294967296")
      for root in ROOTS[:2]],
    (StreamKey(0), np.array([[2**64 - 1], [0]], np.uint64),
     r"in \[0, 2\^32\), got 0 to 18446744073709551615"),
    (StreamKey(0), np.arange(3), r"a 2-D integer array, got int64 of shape \(3,\)"),
    (StreamKey(0), np.zeros((2, 1)), r"a 2-D integer array, got float64 of shape \(2, 1\)"),
], ids=["negative", "root0-two-words", "root1-two-words", "uint64-max", "1-D", "float"])
def test_array_rejects_what_is_no_index(root, index, match):
    with pytest.raises(ValueError, match=match):
        StreamArray(root, index)


def _count_passes(monkeypatch) -> list:
    """The entropy shape of every ``_pool_state`` call from here on."""
    passes, hash_pass = [], _pool_state
    monkeypatch.setattr(mvfbm.streams, "_pool_state",
                        lambda entropy: passes.append(entropy.shape) or hash_pass(entropy))
    return passes


def test_a_desk_batch_is_hashed_in_one_pass(monkeypatch):
    # 10 replications of 200 particles, one component
    config = SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 2), 200, 2024,
                              range(10))
    passes = _count_passes(monkeypatch)
    assert child_seed_words(_noise_streams(config), 1).shape == (1, 2000, 4)
    assert passes == [(4 + 3 + 1, 2000)]  # the seed's padded words, the row, the component


@pytest.mark.parametrize("index", INDEX_ARRAYS.values(), ids=INDEX_ARRAYS)
@pytest.mark.parametrize("root", ROOTS)
def test_one_pass_per_call(monkeypatch, root, index):
    passes = _count_passes(monkeypatch)
    child_seed_words(StreamArray(root, index), 3)
    # every row's entropy: the root's words, one word per index, the component
    head = len(_entropy(root.seed, root.path))
    assert passes == [(head + index.shape[1] + 1, 3 * len(index))]


def test_seeding_leaves_numpy_ma_unloaded():
    # seeding must not import numpy.ma, as np.unique would: about 1 MB of peak RSS
    code = """
import sys
import numpy as np
from mvfbm.fbm import UniformMesh
from mvfbm.model import preset_mean_reverting
from mvfbm.simulator import SimulationConfig, _drivers
from mvfbm.streams import StreamArray, StreamKey, child_seed_words
_drivers(SimulationConfig(preset_mean_reverting(), 0.5, UniformMesh(1.0, 8), 20, 3, range(2)))
child_seed_words(StreamArray(StreamKey(3), np.array([[1, 2**32 - 1], [7, 0]], np.uint64)), 2)
print("numpy.ma" in sys.modules)
"""
    src = str(Path(mvfbm.streams.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "False"
