"""Frozen vectors and splittability of the Philox substream scheme."""

import numpy as np
import pytest

from qsim.decision_payoff import FREQUENCY_BLOCK
from qsim.rng import (
    _philox_word0,
    first_uniforms,
    mix64,
    substream,
    substream_key,
    substream_keys,
)

MAX64 = 2**64 - 1


def test_mix64_vectors():
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1
    assert mix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_substream_key_vectors():
    assert substream_key(1, 0) == 0x5E41AB087439611E
    assert substream_key(1, 1) == 0x86D6FD953217AE03
    assert substream_key(42, 7) == 0xFE2F108189F83DF6


def test_substream_draw_vectors():
    g = substream(1, 0)
    draws = g.integers(0, 2**63, size=3)
    assert [int(x) for x in draws] == [
        0x536E9B9BEA2B33A6,
        0x931AD2B5EDF0B81,
        0x2CC2940E262D4F10,
    ]
    g = substream(1, 0)
    np.testing.assert_allclose(
        g.random(3),
        [0.6518129836370803, 0.07182850473122238, 0.349688059719805],
        rtol=0,
        atol=0,
    )


def test_substreams_are_reproducible_and_distinct():
    a1 = substream(7, 3).random(8)
    a2 = substream(7, 3).random(8)
    b = substream(7, 4).random(8)
    c = substream(8, 3).random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_substream_state_is_philox_keyed():
    for seed, index in [(1, 0), (1, 2), (42, 7), (2**64 - 1, 2**64 - 1)]:
        key = substream_key(seed, index)
        got = substream(seed, index).bit_generator.state
        want = np.random.Philox(key=key).state
        assert got["state"]["key"].tolist() == want["state"]["key"].tolist() == [key, 0]
        assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
        assert got["buffer_pos"] == want["buffer_pos"]
        assert got["buffer"].tolist() == want["buffer"].tolist()
        assert (got["has_uint32"], got["uinteger"]) == (want["has_uint32"], want["uinteger"])


def test_live_substreams_do_not_alias():
    a = substream(3, 1)
    b = substream(3, 1)
    assert a.bit_generator is not b.bit_generator
    want = substream(3, 1).random(6)
    # interleaved draws: each generator advances only its own state
    got_a = [a.random(2), a.random(1)]
    got_b = [b.random(3)]
    got_a.append(a.random(3))
    got_b.append(b.random(3))
    np.testing.assert_array_equal(np.concatenate(got_a), want)
    np.testing.assert_array_equal(np.concatenate(got_b), want)


def test_first_uniforms_vectors():
    np.testing.assert_array_equal(
        first_uniforms(1, 0, 3), [0.6518129836370803, 0.5940722736554116, 0.673828794343725]
    )


# the first block numpy's Philox emits for a key: counter (1, 0, 0, 0)
PHILOX_BLOCKS = {
    0: [0x2F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC],
    1: [0x4DB6A27B756282DF, 0xD944FA03BABE0E2F, 0x27F872E577060D32, 0x7F697696A0482A2],
    0x5E41AB087439611E: [
        0xA6DD3737D456674C, 0x12635A56BDBE1702, 0x5985281C4C5A9E20, 0x4C87EE1276CE7FBF
    ],
    MAX64: [0x3C2521C58DDE5BFB, 0xB7A1AD5DAE1306D7, 0x6942EAE9FD2FEB84, 0xB7552E878D1C26FE],
}


@pytest.mark.parametrize("key", sorted(PHILOX_BLOCKS))
def test_philox_block_matches_numpy(key):
    """Pins numpy's own Philox4x64-10 block; the kernel reproduces its word 0."""
    assert np.random.Philox(key=key).random_raw(4).tolist() == PHILOX_BLOCKS[key]
    assert _philox_word0(np.array([key], dtype=np.uint64)).tolist() == PHILOX_BLOCKS[key][:1]


# 32-bit halves at 0 and all ones drive every carry of the split multiply
EDGE_KEYS = [
    0, 1, 2**32 - 1, 2**32, 2**63, MAX64,
    0xFFFFFFFF00000000, 0xFFFFFFFF00000001, 0xFFFFFFFF12345678, 0x12345678FFFFFFFF,
]


def test_philox_word0_matches_numpy():
    random_keys = np.random.default_rng(2011).integers(0, 2**64, 10_000, dtype=np.uint64)
    keys = np.concatenate([np.array(EDGE_KEYS, dtype=np.uint64), random_keys])
    want = [int(np.random.Philox(key=int(k)).random_raw(1)[0]) for k in keys]
    assert _philox_word0(keys).tolist() == want


@pytest.mark.parametrize("seed", [0, 1, 42, MAX64])
def test_first_uniforms_match_substreams_bit_for_bit(seed):
    block = FREQUENCY_BLOCK
    want = np.array([substream(seed, i).random() for i in range(block + 1)])
    for n in (1, 2047, block - 1, block, block + 1):
        np.testing.assert_array_equal(first_uniforms(seed, 0, n), want[:n])
    np.testing.assert_array_equal(first_uniforms(seed, block - 1, 2), want[block - 1 :])
    np.testing.assert_array_equal(first_uniforms(seed, block, 1), want[block:])


@pytest.mark.parametrize("seed", [0, 7, MAX64])
def test_substream_keys_wrap_like_substream_key(seed):
    # indices past 2**64 - 1 wrap, and so does mix64(seed) + index
    for start in (MAX64 - 2, 2**64 - mix64(seed) - 2):
        got = substream_keys(seed, start, 6)
        assert got.dtype == np.uint64
        assert got.tolist() == [substream_key(seed, start + i) for i in range(6)]
        np.testing.assert_array_equal(
            first_uniforms(seed, start, 6),
            [substream(seed, start + i).random() for i in range(6)],
        )


def test_mix64_on_arrays_matches_ints():
    xs = [0, 1, 0x9E3779B97F4A7C15, MAX64, 2**63]
    assert mix64(np.array(xs, dtype=np.uint64)).tolist() == [mix64(x) for x in xs]
