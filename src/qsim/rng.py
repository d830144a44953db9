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

`first_uniforms` computes the first `random()` of many substreams at once
with a numpy Philox4x64-10 on uint64 arrays, bit for bit.  Test vectors
live in docs/rng.md and tests/test_rng.py.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


def mix64(x):
    """splitmix64 finalizer: a bijective 64-bit mixing function.

    Takes a Python int or a uint64 array; arrays wrap mod 2**64 by
    themselves, so the masks leave them unchanged.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_key(seed: int, index: int = 0) -> int:
    """64-bit Philox key for substream `index` of stream `seed`."""
    return mix64((mix64(seed & _MASK64) + (index & _MASK64)) & _MASK64)


def substream_keys(seed: int, start: int, n: int) -> np.ndarray:
    """`substream_key(seed, i)` for i = start, ..., start + n - 1, as uint64."""
    base = (mix64(seed & _MASK64) + start) & _MASK64
    return mix64(np.arange(n, dtype=np.uint64) + base)


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


# Philox4x64-10 (Salmon et al., SC'11) as numpy.random.Philox implements it
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = 0xFFFFFFFF


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m_hi, m_lo = m >> 32, m & _LO32
    x_hi, x_lo = x >> 32, x & _LO32
    hl = x_hi * m_lo
    lh = x_lo * m_hi
    mid = ((x_lo * m_lo) >> 32) + (hl & _LO32) + (lh & _LO32)
    hi = x_hi * m_hi + (hl >> 32) + (lh >> 32) + (mid >> 32)
    return hi, x * m


def _philox4x64_10(ctr: tuple, key: tuple) -> tuple:
    """Ten Philox rounds on uint64 arrays: counter words -> output words."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def first_uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """`substream(seed, i).random()` for i = start, ..., start + n - 1.

    numpy's Philox bumps its counter before the first block, so the first
    draw of substream i is word 0 of Philox4x64-10 at counter (1, 0, 0, 0)
    and key (key_i, 0), mapped to [0, 1) as `Generator.random` does.
    """
    keys = substream_keys(seed, start, n)
    zero = np.zeros_like(keys)
    word, _, _, _ = _philox4x64_10((zero + 1, zero, zero, zero), (keys, zero))
    return (word >> 11) * 2.0**-53
