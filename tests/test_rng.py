"""Frozen vectors and splittability of the Philox substream scheme."""

import numpy as np
import pytest

from qsim import knowledge_entropy as ke
from qsim import operator_core as oc
from qsim import rng
from qsim.decision_payoff import FREQUENCY_BLOCK
from qsim.rng import (
    _philox_word0,
    first_uniforms,
    mix64,
    substream,
    substream_key,
    substream_keys,
    trial_generators,
)
from qsim.scenarios import ScenarioConfig, run_scenario

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


def plain_state(gen: np.random.Generator) -> dict:
    """The bit generator's state with its arrays as lists, so states compare with ==."""
    state = gen.bit_generator.state
    return {
        **state,
        "state": {k: v.tolist() for k, v in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


def trial_draws(gen: np.random.Generator) -> list:
    """A trial's draws of every kind the trial loops use; its three 32-bit integers,
    an odd count, leave half of a 64-bit word unread."""
    return [
        gen.integers(2, 9),
        gen.standard_normal((2, 3, 2)).tolist(),
        gen.random(3).tolist(),
        gen.integers(0, 2**63, size=2).tolist(),
        gen.integers(0, 2**32 - 1, size=2, dtype=np.uint32).tolist(),
    ]


@pytest.mark.parametrize("seed", [0, 1, MAX64])
def test_trial_generators_are_substreams_bit_for_bit(seed):
    # starts where mix64(seed) + t wraps past 2**64 - 1, and where t itself does
    for start in (0, 2**64 - mix64(seed) - 3, MAX64 - 2):
        gens = trial_generators(seed, start, 6)
        for t, gen in zip(range(start, start + 6), gens):
            assert plain_state(gen) == plain_state(substream(seed, t))
            assert trial_draws(gen) == trial_draws(substream(seed, t))
            assert gen.bit_generator.state["has_uint32"] == 1


def test_half_used_word_does_not_leak_into_the_next_trial():
    gens = trial_generators(5, 0, 2)
    gen = next(gens)
    gen.integers(0, 2**32 - 1, size=3, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    assert next(gens) is gen
    assert gen.bit_generator.state["has_uint32"] == 0
    assert gen.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist() == (
        substream(5, 1).integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist()
    )


def test_trial_generators_cross_key_chunks(monkeypatch):
    monkeypatch.setattr(rng, "_KEY_CHUNK", 3)
    got = [gen.random() for gen in trial_generators(9, 4, 8)]
    assert got == [substream(9, t).random() for t in range(4, 12)]
    assert list(trial_generators(9, 4, 0)) == []


def count_philox(monkeypatch) -> list:
    """Record every Philox bit generator built from now on."""
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args, **kw: built.append(1) or philox(*args, **kw))
    return built


@pytest.mark.parametrize("per_block", [None, 7])
def test_decoherence_builds_one_philox_per_trial_stream(monkeypatch, per_block):
    if per_block:
        monkeypatch.setattr(oc, "STACK_ELEMENTS", per_block * 64)
    blocks = len(list(oc.trial_blocks(600, ke.DECOHERENCE_DIMS[1])))
    built = count_philox(monkeypatch)
    ke.decoherence_margins(4, 600)
    assert blocks == (1 if per_block is None else 86)
    assert len(built) == 1  # one walk, however many blocks cut it


SWEEP = ScenarioConfig("second-law", seed=3, trials=300, epsilon_sweep=(0.0, 0.1, 0.2))


@pytest.mark.parametrize("per_block", [None, 200])
def test_second_law_builds_one_philox_per_trial_stream(monkeypatch, per_block):
    whole = run_scenario(SWEEP).results_payload()
    if per_block:
        monkeypatch.setattr(oc, "STACK_ELEMENTS", per_block * 16)  # trials of dim 4 per block
    blocks = [len(b) for b in oc.trial_blocks(900, 4)]
    built = count_philox(monkeypatch)
    assert run_scenario(SWEEP).results_payload() == whole
    assert blocks == ([900] if per_block is None else [200, 200, 200, 200, 100])
    assert len(built) == 3  # one walk per row, however the blocks cut the rows (into 6 at 200)
