"""Deterministic walker streams and the vectorized simulator."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnmix import exact, montecarlo
from urnmix.chains import _nth_bit, initial_state, step
from urnmix.models import Family, ModelSpec
from urnmix.montecarlo import (
    STREAM_MAGIC,
    SimConfig,
    WalkerStream,
    run,
)
from urnmix.verify import montecarlo_replay_mismatch


def test_walker_stream_reproducible():
    a = WalkerStream(123, 7)
    b = WalkerStream(123, 7)
    assert [a.integers(50) for _ in range(1000)] == [b.integers(50) for _ in range(1000)]


def test_walker_streams_are_separated():
    a = [WalkerStream(123, 0).integers(10) for _ in range(200)]
    b = [WalkerStream(123, 1).integers(10) for _ in range(200)]
    c = [WalkerStream(124, 0).integers(10) for _ in range(200)]
    assert a != b
    assert a != c


def test_walker_stream_range_and_balance():
    rng = WalkerStream(42, 0)
    draws = [rng.integers(6) for _ in range(6000)]
    assert set(draws) <= set(range(6))
    for v in range(6):
        assert abs(draws.count(v) / 6000 - 1 / 6) < 0.03


def test_config_validation():
    model = ModelSpec(Family.VARIANT, 10, 5)
    with pytest.raises(ValueError):
        SimConfig(model, -1, 10, 0)
    with pytest.raises(ValueError):
        SimConfig(model, 3, 0, 0)


def test_config_step_count_must_be_an_integer():
    model = ModelSpec(Family.VARIANT, 6, 3)
    with pytest.raises(ValueError, match="integer"):
        SimConfig(model, 2.5, 10, 0)
    assert run(SimConfig(model, np.int64(3), 10, 0)).mean_s1 == run(SimConfig(model, 3, 10, 0)).mean_s1


@pytest.mark.parametrize("block_size", [0, -1])
def test_run_rejects_empty_blocks(block_size):
    cfg = SimConfig(ModelSpec(Family.VARIANT, 10, 5), 3, 1000, 1)
    with pytest.raises(ValueError, match="block_size"):
        run(cfg, block_size=block_size)


def test_k0_mean_is_exactly_one():
    cfg = SimConfig(ModelSpec(Family.VARIANT, 100, 50), 0, 1000, 99)
    summary = run(cfg)
    assert summary.mean_s1 == 1.0
    assert summary.stderr_s1 == 0.0


@pytest.mark.parametrize(
    "family", [Family.CLASSICAL, Family.VARIANT, Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS]
)
def test_block_size_does_not_change_results(family, tmp_path):
    cfg = SimConfig(ModelSpec(family, 12, 5), 9, 3000, 20240817)
    f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
    s1 = run(cfg, states_path=str(f1), block_size=1 << 16)
    s2 = run(cfg, states_path=str(f2), block_size=777)
    assert s1.mean_s1 == s2.mean_s1
    assert s1.stderr_s1 == s2.stderr_s1
    assert s1.empirical_tv == s2.empirical_tv
    assert f1.read_bytes() == f2.read_bytes()


def test_states_file_format(tmp_path):
    model = ModelSpec(Family.PAIRED_FLIPS, 6, 3)
    path = tmp_path / "states.bin"
    walkers = 64
    run(SimConfig(model, 4, walkers, 5), states_path=str(path))
    blob = path.read_bytes()
    assert blob[: len(STREAM_MAGIC)] == STREAM_MAGIC
    body = blob[len(STREAM_MAGIC):]
    assert len(body) == walkers * 16
    for w in range(walkers):
        signs, rack1 = struct.unpack_from("<QQ", body, w * 16)
        assert bin(rack1).count("1") == 3
        assert rack1 < 1 << 6 and signs < 1 << 6


def test_unsigned_states_have_zero_charge_word(tmp_path):
    path = tmp_path / "states.bin"
    run(SimConfig(ModelSpec(Family.CLASSICAL, 8, 3), 5, 32, 11), states_path=str(path))
    body = path.read_bytes()[len(STREAM_MAGIC):]
    for w in range(32):
        signs, rack1 = struct.unpack_from("<QQ", body, w * 16)
        assert signs == 0
        assert bin(rack1).count("1") == 3


@pytest.mark.parametrize(
    "family", [Family.CLASSICAL, Family.VARIANT, Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS]
)
def test_vectorized_run_matches_scalar_stepping(family, tmp_path):
    """Every walker's terminal state equals a plain single-walker replay."""
    model = ModelSpec(family, 9, 4)
    k, walkers, seed = 11, 40, 314159
    path = tmp_path / "states.bin"
    run(SimConfig(model, k, walkers, seed), states_path=str(path), block_size=17)
    body = path.read_bytes()[len(STREAM_MAGIC):]
    for w in range(walkers):
        state = initial_state(model)
        rng = WalkerStream(seed, w)
        for _ in range(k):
            state = step(model, state, rng)
        signs, rack1 = struct.unpack_from("<QQ", body, w * 16)
        assert rack1 == state.rack1
        assert signs == getattr(state, "signs", 0)


@pytest.mark.parametrize(
    "family", [Family.CLASSICAL, Family.VARIANT, Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS]
)
def test_mean_s1_agrees_with_moment_formula(family):
    n, r, k = 10, 5, 5
    cfg = SimConfig(ModelSpec(family, n, r), k, 40000, 7)
    s = run(cfg)
    if family is Family.CLASSICAL:
        rate = 1 - n / (r * (n - r))
    else:
        # signed families reduce to the two-draw chain once signs are ignored,
        # so all three share the same contraction rate for s1
        rate = 1 - 2 / n
    want = rate**k
    assert abs(s.mean_s1 - want) < 4 * s.stderr_s1


def test_empirical_tv_close_to_exact():
    model = ModelSpec(Family.VARIANT, 10, 5)
    cfg = SimConfig(model, 3, 50 * 252 * 4, 123)
    s = run(cfg)
    assert s.empirical_tv is not None
    tv = float(exact.tv_distance(exact.evolve(model, 3)))
    assert abs(s.empirical_tv - tv) <= s.tv_bias_ceiling + 0.01


def test_empirical_tv_past_64_balls():
    # two mask words: the histogram index is the colex rank, not an int64 mask
    model = ModelSpec(Family.VARIANT, 70, 1)
    s = run(SimConfig(model, 3, 3500, 0))
    assert s.empirical_tv is not None
    tv = float(exact.tv_distance(exact.evolve(model, 3)))
    assert abs(s.empirical_tv - tv) <= s.tv_bias_ceiling


def test_tv_suppressed_when_walkers_scarce():
    s = run(SimConfig(ModelSpec(Family.VARIANT, 10, 5), 3, 500, 1))
    assert s.empirical_tv is None
    assert s.tv_bias_ceiling is None
    big = run(SimConfig(ModelSpec(Family.VARIANT, 30, 15), 2, 200, 1))
    assert big.empirical_tv is None  # space too large for counting


def test_bias_ceiling_formula():
    model = ModelSpec(Family.VARIANT, 8, 4)
    size = exact.space_size(model)
    walkers = 50 * size
    s = run(SimConfig(model, 2, walkers, 3))
    assert s.tv_bias_ceiling == pytest.approx(0.5 * math.sqrt(size / walkers))


def test_numpy_shift_of_64_or_more_gives_zero():
    # the packed engine addresses ball b in word w by the shift b - 64w,
    # wrapped to uint64, and relies on every other word receiving nothing
    x = np.array([1, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    for s in (64, 65, 127, 1 << 63, (1 << 64) - 1):
        shift = np.full(x.shape, s, dtype=np.uint64)
        assert not (x >> shift).any()
        assert not (x << shift).any()
    wrapped = np.array([3], dtype=np.uint64) - np.array([64], dtype=np.uint64)
    assert not (x >> wrapped).any()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_select_matches_nth_bit(data):
    width = data.draw(st.integers(1, 3))
    masks = data.draw(st.lists(st.integers(1, (1 << (64 * width)) - 1), min_size=1, max_size=8))
    idx = [data.draw(st.integers(0, m.bit_count() - 1)) for m in masks]
    words = np.array(
        [[(m >> (64 * w)) & ((1 << 64) - 1) for m in masks] for w in range(width)],
        dtype=np.uint64,
    )
    got = montecarlo._select(words, np.array(idx, dtype=np.uint64))
    assert got.tolist() == [_nth_bit(m, i) for m, i in zip(masks, idx)]


WORD_EDGES = [63, 64, 65, 127, 128, 129]


@st.composite
def models(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.one_of(st.sampled_from(WORD_EDGES), st.integers(2, 140)))
    return ModelSpec(family, n, draw(st.integers(1, n // 2)))


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 30), st.integers(0, 10**6), st.integers(1, 12))
@example(ModelSpec(Family.CLASSICAL, 63, 31), 30, 0, 5)
@example(ModelSpec(Family.VARIANT, 64, 32), 30, 7, 5)
@example(ModelSpec(Family.INDEPENDENT_FLIPS, 65, 9), 30, 0, 5)
@example(ModelSpec(Family.PAIRED_FLIPS, 127, 63), 30, 3, 5)
@example(ModelSpec(Family.CLASSICAL, 128, 64), 30, 0, 5)
@example(ModelSpec(Family.VARIANT, 129, 1), 30, 11, 5)
def test_packed_walk_matches_scalar_replay(model, k, lo, block):
    """Every walker of a block, at any n, equals its chains.step replay."""
    assert montecarlo_replay_mismatch(model, k, seed=lo ^ 0x5EED, lo=lo, hi=lo + block) is None


@pytest.mark.parametrize("family", [Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS])
@pytest.mark.parametrize("n, r", [(9, 4), (130, 61)])
def test_rack_words_do_not_depend_on_charges(family, n, r):
    """Skipping the coin draws leaves the rack stream as it is."""
    model = ModelSpec(family, n, r)
    rack, signs = montecarlo._walk(model, 25, 99, 3, 40)
    bare, none = montecarlo._walk(model, 25, 99, 3, 40, charges=False)
    assert signs is not None and none is None
    assert np.array_equal(rack, bare)
