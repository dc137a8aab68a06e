"""SeedSequence's key hashing for many keys at once.

:meth:`repro.des.rng.RandomStreams.derive` builds thousands of generators
in one call.  A generator built through ``numpy.random.SeedSequence``
costs ~20 µs, most of it SeedSequence's per-key overhead.  This module
runs the same mixing for every key at once in NumPy ``uint32``
arithmetic and hands each ``PCG64`` its precomputed state words, so
every generator starts exactly where SeedSequence would put it.  It
mirrors ``numpy/random/bit_generator.pyx``; ``tests/des/test_rng.py``
checks it against SeedSequence itself, on every supported NumPy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.errors import SimulationError

__all__ = ["pcg64_generators"]

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, count: int):
    """``(xor, mult)`` of each of ``count`` successive hashes, as columns.

    SeedSequence's hash xors with its running multiplier, advances it,
    then multiplies by the new value, whatever the data: hash ``k`` of a
    derivation always uses the same pair.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


class _PresetState(ISeedSequence):
    """Hands a bit generator state words computed ahead of its construction.

    One instance feeds every generator of a batch in turn; a batch-built
    generator's ``seed_seq`` is this feeder, which, like any plain
    ``ISeedSequence``, cannot spawn.
    """

    def __init__(self) -> None:
        self.words: np.ndarray | None = None

    def generate_state(self, n_words, dtype=np.uint32):
        if self.words is None:
            raise SimulationError(
                "a batch-derived stream's seed words were consumed when "
                "its generator was built"
            )
        return self.words


def _pcg64_seed_words(seed: int, names: Sequence[str]) -> np.ndarray:
    """``SeedSequence([seed, *name bytes]).generate_state(4, uint64)`` per name.

    Runs SeedSequence's pool mixing for every key at once in ``uint32``
    arithmetic (which wraps exactly like its C code), with the pool as a
    ``(4, len(names))`` array: keys are zero-padded to the longest one,
    and a key word past a row's own length leaves that row's pool
    untouched.  Requires ``0 <= seed < 2**32`` (one key word).  Returns
    one row of four ``uint64`` words per name.
    """
    raw = [name.encode("utf-8") for name in names]
    lengths = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw)) + 1
    width = max(_POOL_SIZE, int(lengths.max()))
    # keys[i] is key word i of every name: the seed, then one word per byte.
    keys = np.zeros((width, len(raw)), dtype=np.uint32)
    keys[0] = seed
    body = b"".join(r.ljust(width - 1, b"\0") for r in raw)
    keys[1:] = np.frombuffer(body, dtype=np.uint8).reshape(len(raw), width - 1).T
    # Hash k of the derivation: pool fill k < 4, cross-mixing 4 <= k < 16,
    # then key word w into pool word d as hash 4 * w + d.
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)
    # A key shorter than the pool hashes zeros into the rest, which the
    # zero padding supplies.
    pool = _hashmix(keys[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k], mult[k]))
                k += 1
    for src in range(_POOL_SIZE, width):
        hashes = slice(_POOL_SIZE * src, _POOL_SIZE * (src + 1))
        mixed = _mix(pool, _hashmix(keys[src], xor[hashes], mult[hashes]))
        pool = np.where(lengths > src, mixed, pool)
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into uint64s.
    state = _hashmix(np.tile(pool, (2, 1)), *_hash_constants(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def pcg64_generators(seed: int, names: Sequence[str]) -> list[np.random.Generator]:
    """``Generator(PCG64(SeedSequence([seed, *name bytes])))`` per name.

    Requires ``0 <= seed < 2**32`` and non-empty names.
    """
    feeder = _PresetState()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    generators = []
    for words in _pcg64_seed_words(seed, names):
        feeder.words = words
        generators.append(generator(pcg64(feeder)))
    feeder.words = None
    return generators
