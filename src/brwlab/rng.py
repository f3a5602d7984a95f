"""Seeded, splittable random streams for reproducible parallel runs.

`substream(seed, *indices)` returns a new `Generator` on every call, with
no state shared with any other call's, and its stream is bit for bit
`Generator(Philox(SeedSequence((seed, *indices))))`.  Building the
SeedSequence costs more than the rest of the call, so the Philox key is
derived here instead, by a numpy uint32 port of SeedSequence's hash:
`mix_entropy` with pool size 4, then `generate_state(2, uint64)`.  The
hash constants advance independently of the data, so the keys of a
whole 256-aligned block of the last index are hashed at once, one array
operation per hash step.  The last few blocks are cached, so a shard that
walks its indices in order hashes each block once.  Each key reaches
Philox through numpy's `ISeedSequence` interface.
"""

import functools
from operator import index

import numpy as np

# Indices hashed at once.  2**32 is a multiple, so within one block every
# last index has the same number of uint32 words.
_BLOCK = 256
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
# numpy's bit_generator.pyx
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """n as little-endian uint32 words, 0 as the one word 0, as
    SeedSequence coerces an int entropy entry."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array at hash constant `const`,
    and the constant that follows."""
    following = const * mult & _MASK32
    value = (value ^ const) * following
    return value ^ (value >> _XSHIFT), following


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> _XSHIFT)


@functools.lru_cache(maxsize=8)
def _block_keys(prefix: tuple, block: int) -> np.ndarray:
    """The Philox keys of the entropies (*prefix, 256 * block + j) for
    j < 256, as the rows of a read-only (256, 2) uint64 array: 4 KB."""
    head = [w for n in prefix for w in _words(n)]
    words = head + _words(_BLOCK * block)
    entropy = np.zeros((max(len(words), _POOL_SIZE), _BLOCK), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(head)] += np.arange(_BLOCK, dtype=np.uint32)

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:len(words)]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    const = _INIT_B
    state = np.empty((_BLOCK, _POOL_SIZE), "<u4")
    for i, value in enumerate(pool):
        state[:, i], const = _hashmix(value, const, _MULT_B)
    keys = state.view("<u8").astype(np.uint64, copy=False)
    keys.flags.writeable = False
    return keys


class _PhiloxKey:
    """A Philox key in numpy's `ISeedSequence` interface: it answers the one
    request Philox makes of its seed, `generate_state(2, np.uint64)`.
    `Philox(key=...)` is no shortcut: it still seeds a SeedSequence from OS
    entropy before it sets the key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


@functools.cache
def _philox_generator():
    """numpy's `Generator` and `Philox`, with `_PhiloxKey` registered as an
    `ISeedSequence`.  Imported on first use: `numpy.random` adds about
    6 MB of resident memory to a run that draws no stream."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)
    return Generator, Philox


def substream(seed, *indices):
    """Return a new Generator for the substream (seed, *indices).

    Streams are derived from a counter-based Philox generator keyed by the
    seed and the index path only, so results do not depend on worker count
    or scheduling order.  The stream is that of
    `Generator(Philox(SeedSequence((seed, *indices))))`.  Every entry is
    an integer (operator.index): as in SeedSequence, a negative one raises
    ValueError and a float TypeError.  A numeric string, which SeedSequence
    reads as its number, raises TypeError here.  The bit generator's seed
    sequence holds only the key, so `Generator.spawn` is not supported.
    """
    entropy = (index(seed), *map(index, indices))
    block, j = divmod(entropy[-1], _BLOCK)
    Generator, Philox = _philox_generator()
    return Generator(Philox(_PhiloxKey(_block_keys(entropy[:-1], block)[j])))
