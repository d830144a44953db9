"""Deterministic, splittable random streams.

All stochastic code in qsim draws from numpy's Philox counter-based bit
generator.  Substreams are derived from a 64-bit seed and a trial index
through a fixed splitmix64 finalizer, so any trial can be regenerated in
isolation and aggregates are independent of evaluation order:

    key(seed, index) = mix64(mix64(seed) + index)      (mod 2**64)

where mix64 is the splitmix64 output mixer

    z  = (x + 0x9E3779B97F4A7C15)            mod 2**64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   mod 2**64
    z ^= z >> 27;  z *= 0x94D049BB133111EB   mod 2**64
    z ^= z >> 31

Test vectors live in docs/rng.md and tests/test_rng.py.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixing function."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_key(seed: int, index: int = 0) -> int:
    """64-bit Philox key for substream `index` of stream `seed`."""
    return mix64((mix64(seed & _MASK64) + (index & _MASK64)) & _MASK64)


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox a given key.

    Philox takes its 128-bit key from `generate_state(2, np.uint64)` of its
    seed sequence, so answering (key, 0) yields the state of
    `Philox(key=key)`: counter 0, empty buffer.  That constructor would
    first build an OS-entropy `SeedSequence` only to discard it, about half
    the cost of a substream.
    """

    def __init__(self, key: int):
        self._words = np.array([key, 0], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for trial `index` under `seed`.

    Every call builds a fresh bit generator, so live substreams never share
    state.
    """
    return np.random.Generator(np.random.Philox(_PhiloxKey(substream_key(seed, index))))
