"""Deterministic walker streams and the vectorized simulator."""

import math
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnmix import exact, montecarlo
from urnmix.chains import _nth_bit, initial_state, step
from urnmix.models import MAX_THREADS, Family, ModelSpec, SpaceCapError, thread_count
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


@pytest.mark.parametrize("seed, walker", [(0, 0), (123, 7), (-1, 5), (1 << 70, 1 << 40)])
def test_walker_stream_draws_are_the_splitmix_hash_of_the_counter(seed, walker):
    """integers(n) is the top 32 bits of _mix_int(walker hash ^ counter hash), scaled to [0, n)."""
    bounds = [1, 2, 3, 7, 16, 1000, 65537, (1 << 32) - 1]
    stream = WalkerStream(seed, walker)
    got = [stream.integers(b) for b in bounds * 8]
    wh = montecarlo._walker_hash_int(seed, walker)
    want = []
    for t, b in enumerate(bounds * 8):
        h = montecarlo._mix_int(wh ^ ((t * montecarlo._C3 + montecarlo._C4) & montecarlo._M64))
        want.append(((h >> 32) * b) >> 32)
    assert got == want


def test_walker_stream_takes_numpy_ints_and_refuses_floats_and_bools():
    a, b = WalkerStream(np.int64(7), np.int64(3)), WalkerStream(7, 3)
    assert [a.integers(1000) for _ in range(50)] == [b.integers(1000) for _ in range(50)]
    assert type(a._wh) is int
    for seed, walker in ((7, 3.0), (7, True), (7.0, 3), (False, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            WalkerStream(seed, walker)


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


@pytest.mark.parametrize("walkers, seed", [(10.0, 1), (True, 1), (np.float64(10), 1), (10, 1.5), (10, "1")])
def test_config_walkers_and_seed_must_be_integers(walkers, seed):
    with pytest.raises(ValueError, match="integer"):
        SimConfig(ModelSpec(Family.VARIANT, 6, 3), 3, walkers, seed)


def test_config_accepts_numpy_walkers_and_seed():
    model = ModelSpec(Family.VARIANT, 6, 3)
    want = run(SimConfig(model, 3, 10, 5))
    got = run(SimConfig(model, 3, np.int64(10), np.uint32(5)))
    assert (got.mean_s1, got.stderr_s1) == (want.mean_s1, want.stderr_s1)


def allow_cpus(monkeypatch, count):
    """Make the process look as if it may use count CPUs; pin no thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(montecarlo, "_pin", lambda cpus: None)


def _record_walks(monkeypatch):
    """Wrap montecarlo._walk; return the list of (thread name, lo, hi) it is called with.

    Names, unlike thread idents, are not reused when a thread ends.
    """
    calls = []
    walk = montecarlo._walk

    def recorded(model, k, seed, lo, hi, charges=True):
        calls.append((threading.current_thread().name, lo, hi))
        return walk(model, k, seed, lo, hi, charges)

    monkeypatch.setattr(montecarlo, "_walk", recorded)
    return calls


@pytest.mark.parametrize("threads", [0, 65, -1, 2.5, True, "2"])
def test_run_rejects_bad_thread_counts_before_starting(threads, monkeypatch, tmp_path):
    calls = _record_walks(monkeypatch)
    started = []
    monkeypatch.setattr(montecarlo.threading, "Thread", lambda *a, **kw: started.append(a))
    path = tmp_path / "states.bin"
    cfg = SimConfig(ModelSpec(Family.VARIANT, 8, 4), 2, 4 * montecarlo.MIN_PIECE, 1)
    with pytest.raises(ValueError, match="thread count"):
        run(cfg, states_path=str(path), threads=threads)
    assert calls == [] and started == [] and not path.exists()


def test_thread_count_bounds():
    assert MAX_THREADS == 64
    assert 1 <= thread_count() <= MAX_THREADS
    assert thread_count(np.int64(3)) == 3 and thread_count(MAX_THREADS) == MAX_THREADS
    for bad in (0, MAX_THREADS + 1, 2.5, True, "2"):
        with pytest.raises(ValueError):
            thread_count(bad)


@pytest.mark.parametrize(
    "walkers, threads, cpus, pieces, used",
    [
        (2 * montecarlo.MIN_PIECE + 5, 1, 8, 2, 1),
        (2 * montecarlo.MIN_PIECE + 5, 2, 8, 2, 2),
        (2 * montecarlo.MIN_PIECE + 5, 8, 8, 2, 2),
        (3 * montecarlo.MIN_PIECE, 3, 8, 3, 3),
        (4 * montecarlo.MAX_PIECE, 2, 8, 4, 2),
        # more threads than CPUs: the same pieces, on no more threads than CPUs
        (8 * montecarlo.MIN_PIECE, 8, 2, 8, 2),
    ],
)
def test_blocks_split_across_threads(walkers, threads, cpus, pieces, used, monkeypatch):
    """A block is cut into contiguous pieces of MIN_PIECE to MAX_PIECE walkers, on up to threads threads."""
    allow_cpus(monkeypatch, cpus)
    calls = _record_walks(monkeypatch)
    run(SimConfig(ModelSpec(Family.VARIANT, 8, 4), 2, walkers, 1), block_size=walkers, threads=threads)
    assert len(calls) == pieces
    assert len({name for name, _, _ in calls}) == used
    spans = sorted((lo, hi) for _, lo, hi in calls)
    assert spans[0][0] == 0 and spans[-1][1] == walkers
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(montecarlo.MIN_PIECE <= hi - lo <= montecarlo.MAX_PIECE for lo, hi in spans)


def test_small_blocks_start_no_thread(monkeypatch):
    calls = _record_walks(monkeypatch)
    started = []
    monkeypatch.setattr(montecarlo.threading, "Thread", lambda *a, **kw: started.append(a))
    run(SimConfig(ModelSpec(Family.VARIANT, 8, 4), 2, 2 * montecarlo.MIN_PIECE - 1, 1), threads=8)
    assert len(calls) == 1 and started == []


@pytest.mark.parametrize(
    "family", [Family.CLASSICAL, Family.VARIANT, Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS]
)
@pytest.mark.parametrize("n, r", [(12, 5), (64, 32)])  # 64: one full mask word, bit 63 in play
def test_thread_count_does_not_change_results(family, n, r, tmp_path):
    # 50,002 walkers in one block: three threads get 16,667, 16,667 and 16,668
    cfg = SimConfig(ModelSpec(family, n, r), 6, 50_002, 20240817)
    want_path = tmp_path / "t1.bin"
    want = run(cfg, states_path=str(want_path), threads=1)
    for threads in (2, 3, 4):
        path = tmp_path / f"t{threads}.bin"
        got = run(cfg, states_path=str(path), block_size=1 << 16, threads=threads)
        assert (got.mean_s1, got.stderr_s1, got.empirical_tv, got.tv_bias_ceiling) == (
            want.mean_s1, want.stderr_s1, want.empirical_tv, want.tv_bias_ceiling
        )
        assert path.read_bytes() == want_path.read_bytes()


def test_threads_walking_several_pieces_each_give_the_same_states(tmp_path):
    # five pieces of 26,215 walkers in one block, two of them on the helper thread
    cfg = SimConfig(ModelSpec(Family.PAIRED_FLIPS, 12, 5), 6, 4 * montecarlo.MAX_PIECE + 3, 99)
    one, two = tmp_path / "one.bin", tmp_path / "two.bin"
    a = run(cfg, states_path=str(one), threads=1)
    b = run(cfg, states_path=str(two), block_size=1 << 18, threads=2)
    assert (a.mean_s1, a.stderr_s1) == (b.mean_s1, b.stderr_s1)
    assert one.read_bytes() == two.read_bytes()


def test_thread_count_does_not_change_the_histogram():
    # enough walkers for the empirical TV, in blocks that split
    cfg = SimConfig(ModelSpec(Family.VARIANT, 8, 4), 3, 70_000, 3)
    one, two = run(cfg, threads=1), run(cfg, threads=2)
    assert one.empirical_tv is not None
    assert (one.mean_s1, one.stderr_s1, one.empirical_tv) == (two.mean_s1, two.stderr_s1, two.empirical_tv)


AFFINITY_PROBE = """
import os
from urnmix.models import Family, ModelSpec
from urnmix.montecarlo import MIN_PIECE, SimConfig, run
before = os.sched_getaffinity(0)
run(SimConfig(ModelSpec(Family.VARIANT, 8, 4), 2, 2 * MIN_PIECE, 1), threads=2)
print(len(before), os.sched_getaffinity(0) == before)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_split_run_gives_the_caller_its_cpus_back():
    # a fresh process, so that no earlier run in this one has set the mask
    src = Path(montecarlo.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", AFFINITY_PROBE], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    cpus, restored = done.stdout.split()
    if int(cpus) < 2:
        pytest.skip("one CPU: nothing is pinned")
    assert restored == "True"


def test_failure_in_a_helper_thread_reaches_the_caller(monkeypatch):
    walk = montecarlo._walk

    def failing(model, k, seed, lo, hi, charges=True):
        if lo > 0:
            raise MemoryError("helper share")
        return walk(model, k, seed, lo, hi, charges)

    monkeypatch.setattr(montecarlo, "_walk", failing)
    cfg = SimConfig(ModelSpec(Family.VARIANT, 8, 4), 2, 2 * montecarlo.MIN_PIECE, 1)
    with pytest.raises(MemoryError, match="helper share"):
        run(cfg, threads=2)


def test_run_caps_the_mask_words_of_a_block(monkeypatch):
    """The cap counts ceil(n/64) words per walker of the largest block, before any word is made."""
    def no_words(mask, width):
        raise AssertionError("mask words made before the cap check")

    monkeypatch.setattr(montecarlo, "BLOCK_WORD_CAP", 6)
    monkeypatch.setattr(montecarlo, "_words", no_words)
    # three words a walker: 2 walkers fit, 3 do not, nor 2 blocks of 3 and 2
    for walkers, block_size in ((3, 1 << 16), (5, 4)):
        with pytest.raises(SpaceCapError) as info:
            run(SimConfig(ModelSpec(Family.VARIANT, 130, 61), 1, walkers, 0), block_size=block_size)
        assert (info.value.required, info.value.cap) == (9, 6)
    monkeypatch.undo()
    monkeypatch.setattr(montecarlo, "BLOCK_WORD_CAP", 6)
    run(SimConfig(ModelSpec(Family.VARIANT, 130, 61), 1, 4, 0), block_size=2)


def test_run_refuses_huge_n_at_once():
    t0 = time.perf_counter()
    for n, r, walkers in ((4 * 10**9, 2 * 10**9, 1), (10**8, 2, 1000)):
        with pytest.raises(SpaceCapError):
            run(SimConfig(ModelSpec(Family.PAIRED_FLIPS, n, r), 1, walkers, 0))
    assert time.perf_counter() - t0 < 0.5


def test_run_caps_walkers_and_steps_before_it_allocates(monkeypatch, tmp_path):
    """Past WALKER_CAP walkers or STEP_CAP steps nothing is allocated, walked or written."""
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    model = ModelSpec(Family.VARIANT, 8, 4)
    states = tmp_path / "states.bin"
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo.np, "empty", no_alloc)
        patch.setattr(montecarlo, "_words", no_alloc)
        for k, walkers, cap in ((1, 10**11, montecarlo.WALKER_CAP), (10**12, 1, montecarlo.STEP_CAP)):
            with pytest.raises(SpaceCapError) as info:
                run(SimConfig(model, k, walkers, 0), states_path=states)
            assert (info.value.required, info.value.cap) == (max(k, walkers), cap)
    assert not states.exists()
    # a run at both caps goes ahead
    monkeypatch.setattr(montecarlo, "WALKER_CAP", 3)
    monkeypatch.setattr(montecarlo, "STEP_CAP", 5)
    run(SimConfig(model, 5, 3, 0))


@pytest.mark.parametrize("block_size", [0, -1, 2.5, True, "7"])
def test_run_rejects_empty_blocks(block_size, monkeypatch, tmp_path):
    """A block size that is not an integer >= 1 fails before any walk or states file."""
    cfg = SimConfig(ModelSpec(Family.VARIANT, 10, 5), 3, 1000, 1)

    def walk(*args):
        raise AssertionError("walk started before the block size check")

    monkeypatch.setattr(montecarlo, "_walk", walk)
    states = tmp_path / "states.bin"
    with pytest.raises(ValueError, match="block_size"):
        run(cfg, states_path=states, block_size=block_size)
    assert not states.exists()


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
        assert signs == state.signs


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


@pytest.mark.parametrize("m", range(32))
def test_power_of_two_draw_is_one_shift(m):
    """For a bound 2^m, ((y >> 32) * 2^m) >> 32 with y = x ^ x >> 31 is x >> (64 - m)."""
    u = np.uint64
    edges = [0, (1 << 64) - 1, 1 << 63, 1 << 32, (1 << 63) | (1 << 32)]
    rng = np.random.default_rng(m)
    x = np.concatenate([np.array(edges, dtype=u), rng.integers(0, 1 << 64, 2000, dtype=u)])
    y = x ^ (x >> u(31))
    assert np.array_equal(x >> u(64 - m), ((y >> u(32)) * u(1 << m)) >> u(32))
    # the engine's shift path equals its full finalizer and multiply
    cm = np.array([[edges[m % 5]]], dtype=u)
    out, tmp = np.empty((2, 1, len(x)), dtype=u)
    bound = np.array([[1 << m]], dtype=u)
    by_shift = montecarlo._draws(x, cm, bound, np.array([[64 - m]], dtype=u), out, tmp).copy()
    assert np.array_equal(by_shift, montecarlo._draws(x, cm, bound, None, out, tmp))


def test_byte_select_table_matches_nth_bit():
    """_SEL[256 i + b] is the i-th set bit of byte b, for every rank b has."""
    got = [[int(montecarlo._SEL[256 * i + b]) for i in range(b.bit_count())] for b in range(256)]
    assert got == [[_nth_bit(b, i) for i in range(b.bit_count())] for b in range(256)]


@st.composite
def ranked_masks(draw):
    """(width, [(mask, rank), ...]): nonzero masks of width words, each with a rank below its popcount."""
    width = draw(st.integers(1, 3))
    masks = draw(st.lists(st.integers(1, (1 << (64 * width)) - 1), min_size=1, max_size=8))
    return width, [(m, draw(st.integers(0, m.bit_count() - 1))) for m in masks]


@settings(max_examples=200)
@given(ranked_masks())
@example((1, [((1 << 64) - 1, 63)]))
@example((1, [(1 << 63, 0)]))
@example((1, [(0xA5 << 56, 3), (0xFF << 56, 7)]))
@example((1, [(0x8080808080808080, 7)]))
@example((2, [(1 << 64, 0), ((1 << 128) - (1 << 64), 63)]))
def test_select_matches_nth_bit(case):
    width, pairs = case
    words = np.array(
        [[(m >> (64 * w)) & ((1 << 64) - 1) for m, _ in pairs] for w in range(width)],
        dtype=np.uint64,
    )
    idx = np.array([i for _, i in pairs], dtype=np.uint64)
    got = montecarlo._select(words, idx, np.empty((3, len(pairs)), dtype=np.uint64))
    assert got.tolist() == [_nth_bit(m, i) for m, i in pairs]


WORD_EDGES = [63, 64, 65, 127, 128, 129]


@st.composite
def models(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.one_of(st.sampled_from(WORD_EDGES), st.integers(2, 140)))
    return ModelSpec(family, n, draw(st.integers(1, n // 2)))


@settings(max_examples=60)
@given(models(), st.integers(0, 30), st.integers(0, 10**6), st.integers(1, 12))
@example(ModelSpec(Family.CLASSICAL, 63, 31), 30, 0, 5)
@example(ModelSpec(Family.VARIANT, 64, 32), 30, 7, 5)
@example(ModelSpec(Family.PAIRED_FLIPS, 64, 32), 30, 5, 5)
@example(ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1), 30, 2, 5)
@example(ModelSpec(Family.INDEPENDENT_FLIPS, 65, 9), 30, 0, 5)
@example(ModelSpec(Family.PAIRED_FLIPS, 127, 63), 30, 3, 5)
@example(ModelSpec(Family.CLASSICAL, 128, 64), 30, 0, 5)
@example(ModelSpec(Family.VARIANT, 129, 1), 30, 11, 5)
@example(ModelSpec(Family.CLASSICAL, 1000, 500), 30, 4, 5)
@example(ModelSpec(Family.CLASSICAL, 2, 1), 30, 1, 5)
@example(ModelSpec(Family.CLASSICAL, 33, 1), 30, 6, 5)
@example(ModelSpec(Family.CLASSICAL, 40, 8), 30, 9, 5)
@example(ModelSpec(Family.INDEPENDENT_FLIPS, 128, 64), 30, 8, 5)
@example(ModelSpec(Family.PAIRED_FLIPS, 48, 24), 30, 10, 5)
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
