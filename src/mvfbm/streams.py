"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stream is addressed by (master seed, index path).  Child streams are
derived by appending indices, never by drawing from a parent generator, so
the stream a worker sees depends only on its address and not on scheduling
order or worker count.

Gaussian variates come from ``numpy.random.Generator.standard_normal`` on a
PCG64 bit generator seeded through ``SeedSequence(seed, spawn_key=path)``,
which :meth:`StreamKey.generator` builds.  The many paths of one sampler
call are a :class:`StreamArray`: a root key and a 2-D array of indices
below 2^32, one row per path, with no ``StreamKey`` per path.
``child_seed_words`` runs that hash (O'Neill 2014), a fixed chain of 32-bit
multiply/xor steps, over the rows in one vectorized pass; its generators are
bit-identical to ``StreamKey.generator()``.
The draw order inside each consumer is fixed and documented there; golden
values are stable within one build.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError

__all__ = ["StreamKey", "StreamArray", "child_seed_words", "seeded_generator"]


@dataclass(frozen=True)
class StreamKey:
    """Address of an independent random stream.

    ``seed`` is the experiment master seed; ``path`` is the index tuple
    identifying the consumer (replication, particle, dimension, ...).  A key
    normalizes both with ``operator.index``, so it holds Python integers of
    any size, numpy integers included, and rejects anything but a
    nonnegative integer with ``ArgumentError``: a fractional seed or index is
    rejected, not truncated.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            seed, path = operator.index(self.seed), tuple(map(operator.index, self.path))
        except TypeError:
            raise ArgumentError(f"stream seed and indices must be integers, got seed {self.seed!r} "
                                f"and indices {self.path!r}") from None
        # SeedSequence takes no negative entropy, and _entropy's words of one never end
        if seed < 0:
            raise ArgumentError(f"stream seed must be nonnegative, got {seed}")
        if any(i < 0 for i in path):
            raise ArgumentError(f"stream indices must be nonnegative, got {path}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "StreamKey":
        """Derive a sub-stream by appending indices to the address."""
        return StreamKey(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Instantiate the generator at this address (fresh state every call)."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


@dataclass(frozen=True, eq=False)
class StreamArray:
    """The streams ``root.child(*row)``, one per row of a 2-D array of
    integer indices in [0, 2^32): the paths of one sampler call.

    ``len()`` is the number of paths; :func:`child_seed_words` seeds them
    without a ``StreamKey`` each.  The indices are stored as uint32, one
    entropy word each; the root's path takes any index.
    """

    root: StreamKey
    index: np.ndarray  # (paths, k)

    def __post_init__(self) -> None:
        index = np.asarray(self.index)
        if index.ndim != 2 or not np.issubdtype(index.dtype, np.integer):
            raise ArgumentError(f"stream indices must be a 2-D integer array, got {index.dtype} "
                                f"of shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= 2**32):  # the cast would wrap
            raise ArgumentError(f"stream indices must lie in [0, 2^32), got {index.min()} "
                                f"to {index.max()}")
        object.__setattr__(self, "index", index.astype(np.uint32))

    def __len__(self) -> int:
        return len(self.index)


# numpy's SeedSequence constants; its pool has 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _entropy(seed: int, path: Sequence[int]) -> list[int]:
    """SeedSequence's entropy: the uint32 words, least significant first, of
    the seed, zero-padded to the pool size, then of each path index.  numpy
    pads only before a spawn key, but a shorter entropy hashes as if padded."""
    words = []
    for n in (seed, *path):
        words.append(n & _MASK)
        while n := n >> 32:
            words.append(n & _MASK)
        words += [0] * (4 - len(words))  # a no-op past the seed
    return words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on uint32 words; returns them and the next constant."""
    following = const * mult & _MASK
    value = (value ^ const) * following
    return value ^ (value >> 16), following


def _pool_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy, then generate_state(4, np.uint64), per column
    of the (L, K) uint32 entropy, L >= 4; returns the (K, 4) uint64 words."""
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    # mix each pool word into the others, then each further entropy word into all of them
    for src in range(len(entropy)):
        for dst in range(4):
            if src != dst:
                word, const = _hash(pool[src] if src < 4 else entropy[src], const, _MULT_A)
                mixed = pool[dst] * _MIX_L - word * _MIX_R
                pool[dst] = mixed ^ (mixed >> 16)
    const, state = _INIT_B, np.zeros((entropy.shape[1], 4), np.uint64)
    for i in range(8):  # the pool, cycled; each uint64 takes two words, low first
        word, const = _hash(pool[i % 4], const, _MULT_B)
        state[:, i // 2] |= word.astype(np.uint64) << 32 * (i % 2)
    return state


def child_seed_words(streams: StreamArray, components: int) -> np.ndarray:
    """PCG64 seed words of every ``streams.root.child(*row, j)``, j <
    components, shape (components, len(streams), 4), as SeedSequence(seed,
    spawn_key=path + (*row, j)).generate_state(4, np.uint64) gives them.

    A row's entropy is the root's words, then one word per index, then j:
    one length for every row, so the call is hashed in one pass."""
    _fixed_seed_sequence()  # import numpy.random before the hash's temporaries: a lower peak RSS
    head = np.array(_entropy(streams.root.seed, streams.root.path), np.uint32)
    paths, width = streams.index.shape
    entropy = np.empty((len(head) + width + 1, components, paths), np.uint32)
    entropy[: len(head)] = head[:, None, None]
    entropy[len(head) : -1] = streams.index.T[:, None, :]
    entropy[-1] = np.arange(components)[:, None]
    return _pool_state(entropy.reshape(len(entropy), -1)).reshape(components, paths, 4)


def seeded_generator(words: np.ndarray) -> np.random.Generator:
    """The generator whose PCG64 is seeded by four ``child_seed_words`` words;
    PCG64's own code does the 128-bit seeding."""
    return np.random.Generator(np.random.PCG64(_fixed_seed_sequence()(words)))


@functools.cache
def _fixed_seed_sequence() -> type:
    """A SeedSequence stand-in that hands PCG64 given words.  Built on first
    use, so importing the package does not import numpy.random."""

    class FixedSeedSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return FixedSeedSequence
