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

`trial_generators` walks many substreams with one re-keyed generator, and
`first_uniforms` computes the first `random()` of many substreams at once,
bit for bit, with a Philox4x64-10 kernel on uint64 arrays that computes
only output word 0 of the first block.  The derivation and the test vectors
live in docs/rng.md; tests/test_rng.py asserts them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

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


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for trial `index` under `seed`.

    Every call builds a fresh bit generator, so live substreams never share
    state.
    """
    return np.random.Generator(np.random.Philox(key=substream_key(seed, index)))


_KEY_CHUNK = 4096  # keys trial_generators computes at once


def trial_generators(seed: int, start: int, n: int) -> Iterator[np.random.Generator]:
    """One generator per trial i = start, ..., start + n - 1, in the state of `substream(seed, i)`.

    One Philox and one Generator serve every trial.  A fresh Philox holds
    counter 0, an empty buffer and no half-used 32-bit word, as a fresh
    substream does, so before each yield its state is written back with
    only the key changed to (key_i, 0): every draw has substream's bits,
    and a new trial costs no new objects.  Every yield is the same
    generator, valid only until the next trial is drawn; keep no reference.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    for s in range(start, start + n, _KEY_CHUNK):
        for key in substream_keys(seed, s, min(_KEY_CHUNK, start + n - s)).tolist():
            state["state"]["key"] = [key, 0]
            bit_gen.state = state
            yield gen


# Philox4x64-10 (Salmon et al., SC'11) as numpy.random.Philox implements it:
# multipliers M0, M1, key bumps W0, W1 (mod 2**64) before each of rounds 2-10
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LO32 = 0xFFFFFFFF


def _mulhi(m: int, x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out = high word of the 128-bit product m * x (Hacker's Delight mulhu).

    With 32-bit halves, t = (x_lo m_lo >> 32) + x_hi m_lo and
    u = (t & LO) + x_lo m_hi are each at most (2**32 - 1) + (2**32 - 1)**2,
    below 2**64, so neither wraps.  work is a (4, n) uint64 scratch array.
    """
    m_hi, m_lo = m >> 32, m & _LO32
    x_lo, x_hi, t, u = work
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, 32, out=x_hi)
    np.multiply(x_lo, m_lo, out=t)
    t >>= 32
    t += np.multiply(x_hi, m_lo, out=u)
    np.multiply(x_lo, m_hi, out=u)
    u += np.bitwise_and(t, _LO32, out=x_lo)
    t >>= 32
    u >>= 32
    np.multiply(x_hi, m_hi, out=out)
    out += t
    out += u
    return out


def _philox_word0(keys: np.ndarray) -> np.ndarray:
    """Output word 0 of Philox4x64-10 at counter (1, 0, 0, 0) and key (k, 0), per uint64 key.

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).  Round 1 multiplies the constants 1
    and 0, giving (k, 0, 0, M0); round 2 multiplies only k; round 10
    contributes only its word 0.  That leaves 16 high words and 15 low
    products of the full block's 20 and 20.  Every step writes into one
    (9, n) scratch array: each round updates the four counter rows in
    place and then renames them.
    """
    work = np.empty((9, keys.size), dtype=np.uint64)
    c0, c1, c2, c3, hi = work[:5]
    mul_work = work[5:]
    # rounds 1-2: (k + W0, 0, hi(M0 k) ^ M0 ^ W1, lo(M0 k))
    np.add(keys, _W0, out=c0)
    c1.fill(0)
    _mulhi(_M0, keys, c2, mul_work)
    c2 ^= _M0 ^ _W1
    np.multiply(keys, _M0, out=c3)
    for r in range(2, 9):  # rounds 3-9; the key has been bumped r times
        c3 ^= _mulhi(_M0, c0, hi, mul_work)
        c3 ^= (r * _W1) & _MASK64  # new c2
        c0 *= _M0  # new c3
        c1 ^= _mulhi(_M1, c2, hi, mul_work)
        c1 ^= np.add(keys, (r * _W0) & _MASK64, out=hi)  # new c0
        c2 *= _M1  # new c1
        c0, c1, c2, c3 = c1, c2, c3, c0
    _mulhi(_M1, c2, hi, mul_work)
    hi ^= c1
    hi ^= np.add(keys, (9 * _W0) & _MASK64, out=c0)
    return hi


def first_uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """`substream(seed, i).random()` for i = start, ..., start + n - 1.

    numpy's Philox bumps its counter before the first block, so the first
    draw of substream i is word 0 of Philox4x64-10 at counter (1, 0, 0, 0)
    and key (key_i, 0), mapped to [0, 1) as `Generator.random` does.
    """
    return (_philox_word0(substream_keys(seed, start, n)) >> 11) * 2.0**-53
