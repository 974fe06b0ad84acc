"""Monte Carlo simulation of the chains with reproducible per-walker streams.

Randomness is counter based: draw t of walker w under seed s is a 64-bit
hash of (s, w, t), so a walker's trajectory is a pure function of (seed,
walker id) no matter how walkers are batched or scheduled.  The vectorized
engine here and the scalar WalkerStream consume draws in the same order
(chains.draw_bounds lists the draws of one step per family), and therefore
produce bit-identical trajectories.

A draw is the splitmix64 finalizer (Steele, Lea & Flood 2014) of walker
hash XOR counter hash, bounded by Lemire's product-shift: the top 32 bits
times the bound, shifted down 32.  The vectorized engine makes the same
bits in fewer passes.  The finalizer's first xorshift distributes over the
XOR, so each walker keeps its hash pre-mixed, and a walk hashes and
pre-mixes the counters of all its steps at once.  For a bound 2^m the
product-shift keeps the top m bits of the hash, which the last xorshift
leaves as they were (m <= 31), so where every bound a walk draws from is a
power of two (coins; n = 2^j; classical r and n - r) each draw is one
shift of the state before that xorshift.  Other walks take the full
finalizer and the multiply.

The vectorized engine keeps each block of walkers as uint64 mask words,
ceil(n/64) per walker for the rack and as many for the charges, so a step
is a few elementwise word operations for any n; at one word (n <= 64) it
skips the per-word shift offsets and the XOR over words.  Classical steps
pick the i-th smallest ball of a rack, as chains.step does by counting set
bits: the index is carried over the words by their popcounts, then a
broadword select finds the byte and a table the bit.  A block is walked in
contiguous pieces, on several threads when it is large enough; numpy
releases the GIL inside each word operation, and each walker's stream is
its own, so the words come out the same for any thread count.

Summaries report the first spherical function s1 = 1 - j n/(r(n-r)) of each
terminal state, j being the count of rack-1 balls with labels above r;
for signed families s1 is evaluated on the rack marginal, ignoring charges.
An empirical total-variation estimate against uniform is included only when
the space is small enough and the walker count clears 50 states per walker;
the known upward bias is bounded by sqrt(|X|/walkers)/2, reported alongside.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .chains import draw_bounds
from .models import STEP_CAP, Family, ModelSpec, SpaceCapError, as_int, checked_space_size, step_count, thread_count

__all__ = [
    "SimConfig",
    "SimSummary",
    "WalkerStream",
    "run",
    "STREAM_MAGIC",
    "TV_SPACE_CAP",
    "TV_WALKER_FACTOR",
    "BLOCK_WORD_CAP",
    "WALKER_CAP",
]

STREAM_MAGIC = b"URNMC01\x00"
TV_SPACE_CAP = 10**5
TV_WALKER_FACTOR = 50
# Walkers per _walk call.  A piece for a second thread needs at least
# MIN_PIECE: shorter numpy calls lose more to GIL hand-offs than the thread
# gains.  A piece holds at most MAX_PIECE, which keeps the scratch of one
# step's draws within a 2 MB L2 cache.
MIN_PIECE = 1 << 14
MAX_PIECE = 1 << 15
# Rack mask words (ceil(n/64) per walker) one block may hold.  At the cap one
# step of paired(4096, 2048), 65,536 walkers on 2 vCPUs, peaked at 192 MB RSS
# in 0.14 s.  The largest block in use (in the tests) holds 131,075 words.
BLOCK_WORD_CAP = 1 << 22
# Walkers one run may have: the run keeps 8 bytes of s1 per walker, 512 MB
# at the cap.
WALKER_CAP = 1 << 26

_M64 = (1 << 64) - 1
_C0 = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_C3 = 0xD6E8FEB86659FD93
_C4 = 0x2545F4914F6CDD1D


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int."""
    x &= _M64
    x ^= x >> 30
    x = (x * _C1) & _M64
    x ^= x >> 27
    x = (x * _C2) & _M64
    x ^= x >> 31
    return x


# numpy mirror of _mix_int; constants pre-wrapped so nothing upcasts
_U = np.uint64
_NC1, _NC2, _NC3, _NC4 = _U(_C1), _U(_C2), _U(_C3), _U(_C4)
_S30, _S27, _S31, _S32 = _U(30), _U(27), _U(31), _U(32)


def _mix_np(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer in place on x; tmp is scratch of x's shape."""
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _NC1
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _NC2
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp
    return x


def _seed_hash(seed: int) -> int:
    return _mix_int((seed & _M64) ^ _C0)


def _walker_hash_int(seed: int, walker: int) -> int:
    return _mix_int(_seed_hash(seed) ^ ((walker * _C1 + _C2) & _M64))


class WalkerStream:
    """Counter-based random source for one walker.

    integers(n) returns a uniform draw from [0, n) and advances the counter.
    Bit-identical to the draws the vectorized engine makes for the same
    (seed, walker).
    """

    def __init__(self, seed: int, walker: int):
        seed, walker = as_int(seed, "seed"), as_int(walker, "walker")  # numpy ints overflow the hash
        if walker < 0:
            raise ValueError(f"need walker >= 0, got {walker}")
        self._wh = _walker_hash_int(seed, walker)
        self._t = 0

    def integers(self, n: int) -> int:
        if not 1 <= n < 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n < 2^32, got {n}")
        # _mix_int inlined, one Python call per draw; h is already 64-bit
        h = self._wh ^ ((self._t * _C3 + _C4) & _M64)
        self._t += 1
        h ^= h >> 30
        h = (h * _C1) & _M64
        h ^= h >> 27
        h = (h * _C2) & _M64
        h ^= h >> 31
        return ((h >> 32) * n) >> 32


@dataclass(frozen=True)
class SimConfig:
    """What to simulate: model, step count, walker count, seed."""

    model: ModelSpec
    k: int
    walkers: int
    seed: int

    def __post_init__(self):
        # held as Python ints: numpy integers pass, and would overflow in the seed hash
        object.__setattr__(self, "k", step_count(self.k))
        object.__setattr__(self, "walkers", as_int(self.walkers, "walker count"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.walkers < 1:
            raise ValueError(f"need walkers >= 1, got {self.walkers}")


@dataclass
class SimSummary:
    """Run statistics; everything except elapsed_s is a pure function of the config."""

    mean_s1: float
    stderr_s1: float
    empirical_tv: float | None
    tv_bias_ceiling: float | None
    elapsed_s: float


def _premix(x):
    """The finalizer's first xorshift, x ^ x >> 30, which distributes over XOR."""
    return x ^ (x >> _S30)


def _counters(k: int, slots: int, rows: int) -> np.ndarray:
    """Pre-mixed counter hashes of the first rows draws of steps 0 .. k-1, as a (k, rows, 1) array.

    Step s takes its draws at counters s * slots, s * slots + 1, ...
    """
    t = np.arange(k, dtype=np.uint64)[:, None] * _U(slots) + np.arange(rows, dtype=np.uint64)
    t *= _NC3
    t += _NC4
    return _premix(t)[:, :, None]


def _draws(wm: np.ndarray, cm: np.ndarray, bound: np.ndarray, shift, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Uniform draws of every walker at one step's counters, into out.

    wm holds the pre-mixed walker hashes and cm the step's (rows, 1) column
    of pre-mixed counter hashes.  Row i of out holds draws from
    [0, bound[i]); bound is a (rows, 1) uint64 column and out and tmp are
    (rows, len(wm)) uint64 arrays.  Where every bound is a power of two 2^m,
    shift is the (rows, 1) column of 64 - m, and each draw is the top m bits
    of the state before the last xorshift (see the module docstring); for
    m = 0 that is a shift of 64, which numpy takes to 0.  With shift None
    every row takes the full finalizer and the multiply.  Nothing large is
    allocated, so the draws of every step reuse the same memory.
    """
    np.bitwise_xor(wm, cm, out=out)
    out *= _NC1
    np.right_shift(out, _S27, out=tmp)
    out ^= tmp
    out *= _NC2
    if shift is not None:
        out >>= shift
        return out
    np.right_shift(out, _S31, out=tmp)
    out ^= tmp
    out >>= _S32
    out *= bound
    out >>= _S32
    return out


# Masks live in word-major uint64 arrays of shape (W, walkers), W = ceil(n/64),
# word w holding balls 64w .. 64w+63.  Ball b is addressed in word w by the
# shift b - 64w, wrapped to uint64: numpy gives 0 for any uint64 shift of 64
# or more, so in every other word the shift lands on nothing and one
# elementwise expression serves all W words.
_ONE = _U(1)
_B1, _B8, _BYTE = _U(0x0101010101010101), _U(0x8080808080808080), _U(0xFF)
_S3, _S8 = _U(3), _U(8)


def _byte_select_table() -> np.ndarray:
    """_SEL[256 i + b]: position of the i-th (0-based) set bit of byte b, 8 past its popcount.

    That position is the number of bits j whose running count through j,
    popcount(b & (2 << j) - 1), is at most i.
    """
    low = (_U(2) << np.arange(8, dtype=np.uint64)[:, None]) - _ONE
    upto = np.bitwise_count(np.arange(256, dtype=np.uint64) & low)
    return np.add.reduce(upto <= np.arange(8, dtype=np.uint8)[:, None, None], axis=1, dtype=np.uint64).ravel()


_SEL = _byte_select_table()


def _words(mask: int, width: int) -> np.ndarray:
    """An n-bit Python int as a (width, 1) column of uint64 words, low word first."""
    return np.frombuffer(mask.to_bytes(8 * width, "little"), dtype="<u8").astype(np.uint64).reshape(width, 1)


def _select(words: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Ball index of the idx-th (0-based) set bit of each column of words, in out[0].

    The leftover index is carried from word to word until it falls inside
    one.  In that word a broadword select finds the byte: the byte
    popcounts times 0x0101...01 hold in byte j the set bits of bytes 0..j,
    and one borrow-free subtraction per byte counts the bytes where that is
    at most idx, which is the byte holding the bit.  _SEL gives the bit
    inside the byte from the rank left over.  out is (3, columns) uint64
    scratch, so that a step allocates nothing at one word.  idx is consumed.
    """
    bit, upto, shift = out
    x = words[0]
    if len(words) > 1:
        x = x.copy()
        pos = np.zeros_like(idx)
        count = np.empty(idx.shape, dtype=np.uint8)
        up = np.empty(idx.shape, dtype=bool)
        for word in words[1:]:
            np.bitwise_count(x, out=count)
            np.greater_equal(idx, count, out=up)
            np.copyto(x, word, where=up)
            pos += up * _U(64)
            idx -= count * up
    np.bitwise_count(x.view(np.uint8), out=upto.view(np.uint8))
    upto *= _B1
    # byte j becomes 128 + idx - upto_j, in 64 .. 191 as idx < 64 and
    # upto_j <= 64: no byte borrows, and the top bit is set where upto_j <= idx
    np.multiply(idx, _B1, out=shift)
    shift |= _B8
    shift -= upto
    shift &= _B8
    np.bitwise_count(shift, out=shift)
    shift <<= _S3
    np.right_shift(x, shift, out=bit)
    bit &= _BYTE
    # set bits below the byte: the running count of the byte before it
    upto <<= _S8
    upto >>= shift
    upto &= _BYTE
    idx -= upto
    idx <<= _S8
    idx += bit
    # int64 indices, as uint64 ones are cast first; mode="raise" would buffer out
    np.take(_SEL, idx.view(np.int64), out=bit, mode="clip")
    bit += shift
    if len(words) > 1:
        bit += pos
    return bit


def _walk(model: ModelSpec, k: int, seed: int, lo: int, hi: int, charges: bool = True):
    """Walk walkers lo .. hi-1 for k steps; return their rack and charge words.

    Both are (ceil(n/64), hi - lo) uint64 arrays; the charge words are None
    for unsigned families, and for signed ones when charges is false, which
    skips the coin draws and charge flips.  Draws are counter based, so the
    rack words do not depend on charges.  Draws are taken in the order
    chains.step takes them from a WalkerStream, each from its bound in
    chains.draw_bounds, so each column is that walker's scalar replay.
    """
    n, r, family = model.n, model.r, model.family
    width, nb = -(-n // 64), hi - lo
    tmp = np.empty(nb, dtype=np.uint64)
    wm = _premix(_mix_np(_U(_seed_hash(seed)) ^ (np.arange(lo, hi, dtype=np.uint64) * _NC1 + _NC2), tmp))
    rack = np.repeat(_words((1 << r) - 1, width), nb, axis=1)
    signs = np.zeros_like(rack) if family.signed and charges else None
    balls = _words((1 << n) - 1, width)
    bounds = draw_bounds(model)
    slots = len(bounds)
    # only the two rack draws when nothing reads the charges
    rows = slots if signs is not None else 2
    bounds = bounds[:rows]
    bound = np.array(bounds, dtype=np.uint64)[:, None]
    # bounds 2^m all: each draw is one shift by 64 - m (see _draws)
    shift = None
    if all(b & (b - 1) == 0 for b in bounds):
        shift = np.array([65 - b.bit_length() for b in bounds], dtype=np.uint64)[:, None]
    cm = _counters(k, slots, rows)
    # per-step scratch, reused so the loop does not allocate
    draw, dtmp = np.empty((2, rows, nb), dtype=np.uint64)
    cross, spare = np.empty((2, width, nb), dtype=np.uint64)
    classical = family is Family.CLASSICAL
    # one word needs no per-word shifts: its offset is 0 and its XOR-reduce a copy
    wide = width > 1
    if wide:
        offsets = _U(64) * np.arange(width, dtype=np.uint64)[:, None]
        sh1, sh2 = np.empty((2, width, nb), dtype=np.uint64)
    if classical:
        picks = np.empty((2, 3, nb), dtype=np.uint64)
        # a ball of rack 1 and a ball of rack 2 always swap
        flip = _ONE
    else:
        flip = np.empty(nb, dtype=np.uint64) if wide else cross[0]

    for step_no in range(k):
        _draws(wm, cm[step_no], bound, shift, draw, dtmp)
        b1, b2 = s1, s2 = draw[0], draw[1]
        if classical:
            s1 = _select(rack, b1, picks[0])
            np.invert(rack, out=spare)
            spare &= balls
            s2 = _select(spare, b2, picks[1])
        if wide:
            s1 = np.subtract(s1, offsets, out=sh1)
            s2 = np.subtract(s2, offsets, out=sh2)
        if not classical:
            np.right_shift(rack, s1, out=cross)
            np.right_shift(rack, s2, out=spare)
            cross ^= spare
            cross &= _ONE
            if wide:
                np.bitwise_xor.reduce(cross, axis=0, out=flip)
        np.left_shift(flip, s1, out=spare)
        rack ^= spare
        np.left_shift(flip, s2, out=spare)
        rack ^= spare
        if signs is None:
            continue
        c1 = draw[2]
        np.left_shift(c1, s1, out=spare)
        signs ^= spare
        # the second ball's coin is the last draw (c1 again for paired
        # flips); a ball drawn twice is flipped by the first coin alone
        np.not_equal(b1, b2, out=tmp)
        tmp &= draw[-1]
        np.left_shift(tmp, s2, out=spare)
        signs ^= spare
    return rack, signs


def _pin(cpus) -> None:
    """Keep the calling thread to cpus; leave it as it is where that is not possible."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _walk_block(model: ModelSpec, k: int, seed: int, lo: int, hi: int, charges: bool, threads: int):
    """_walk over walkers lo .. hi-1, cut into contiguous pieces walked on up to threads threads.

    Pieces hold at most MAX_PIECE walkers, and there are enough of them to
    give each thread one where every piece can keep MIN_PIECE.  They are
    walked by at most as many threads as the process has CPUs
    (thread_count()), the cut staying the same.  Thread j walks pieces j,
    j + workers, ...; the calling thread is thread 0, so a block that gets
    one worker starts no thread.  numpy releases the GIL
    inside its elementwise operations, so the threads run side by side.
    Walkers are pure functions of (seed, id), so the joined words equal
    those of one _walk over lo .. hi-1.

    Each thread is kept to its own share of the calling thread's CPUs, and
    the calling thread gets its CPUs back after.  Left free, the threads
    wake each other for the GIL between numpy calls, and Linux tends to wake
    a thread on the CPU of the thread that woke it: the threads then take
    turns on one CPU, for seconds at a time.
    """
    nb = hi - lo
    pieces = max(-(-nb // MAX_PIECE), min(threads, nb // MIN_PIECE))
    if pieces == 1:
        return _walk(model, k, seed, lo, hi, charges)
    cuts = [lo + nb * i // pieces for i in range(pieces + 1)]
    parts = [None] * pieces
    # more threads than CPUs only add GIL hand-offs
    workers = min(threads, pieces, thread_count())
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    cpus = sorted(mask) if workers > 1 and mask else None

    def walk(first):
        try:
            if cpus is not None:
                _pin(cpus[first::workers])
            for i in range(first, pieces, workers):
                parts[i] = _walk(model, k, seed, cuts[i], cuts[i + 1], charges)
        except BaseException as exc:  # re-raised in the calling thread
            parts[first] = exc

    helpers = [threading.Thread(target=walk, args=(j,)) for j in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        walk(0)
    finally:
        if cpus is not None:
            _pin(mask)
        for helper in helpers:
            helper.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    racks, signs = zip(*parts)
    return np.concatenate(racks, axis=1), None if signs[0] is None else np.concatenate(signs, axis=1)


def _colex_rank(rack: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colex rank sum_t C(c_t, t) of each column's set bits c_1 < c_2 < ...

    binom[t, c] holds C(c, t); set bits are peeled lowest first, word by word.
    """
    rank = np.zeros(rack.shape[1], dtype=np.int64)
    t = np.zeros(rack.shape[1], dtype=np.intp)
    for w, word in enumerate(rack):
        x = word.copy()
        while x.any():
            low = x & (~x + _ONE)
            found = x != 0
            t += found
            pos = np.bitwise_count(low - _ONE).astype(np.intp) + 64 * w
            # an emptied word has low = 0, pos = 64w + 64 and adds nothing
            rank += binom[t, np.minimum(pos, binom.shape[1] - 1)] * found
            x ^= low
    return rank


def run(config: SimConfig, states_path=None, block_size: int = 1 << 16, threads=None) -> SimSummary:
    """Simulate all walkers and summarize terminal states.

    states_path, if given, receives the magic header followed by one record
    per walker: little-endian 64-bit charge mask then 64-bit subset mask
    (charge mask 0 for unsigned families).  Requires n <= 64.

    Walkers go in equal blocks of at most block_size, one block after
    another, and the pieces of a block are walked on up to threads threads
    (see _walk_block); threads None means the CPUs this process may use.
    No more than one block is in flight, whatever the thread count.  The
    summary and the states file depend on neither block_size nor threads.
    More than WALKER_CAP walkers or models.STEP_CAP steps raise SpaceCapError
    before anything is allocated or written.
    """
    t0 = time.perf_counter()
    threads = thread_count(threads)
    model, k, total, seed = config.model, config.k, config.walkers, config.seed
    if total > WALKER_CAP:
        raise SpaceCapError(total, WALKER_CAP, "walker count")
    if k > STEP_CAP:
        raise SpaceCapError(k, STEP_CAP, "Monte Carlo step count")
    n, r = model.n, model.r
    signed = model.family.signed
    if states_path is not None and n > 64:
        raise ValueError("state streaming packs masks into 64 bits, needs n <= 64")
    block_size = as_int(block_size, "block_size")
    if block_size < 1:
        raise ValueError(f"need block_size >= 1, got {block_size}")
    # equal blocks, so that no short last block is left too small to split
    blocks = -(-total // block_size)
    words = -(-n // 64) * -(-total // blocks)
    if words > BLOCK_WORD_CAP:
        raise SpaceCapError(words, BLOCK_WORD_CAP, "mask words of one walker block")

    try:
        n_states = checked_space_size(model, TV_SPACE_CAP, "histogram state count")
    except SpaceCapError:
        n_states = None
    do_tv = n_states is not None and total >= TV_WALKER_FACTOR * n_states
    counts = np.zeros(n_states, dtype=np.int64) if do_tv else None
    # s1 reads the rack alone; only the histogram and the states file read charges
    charges = do_tv or states_path is not None
    if do_tv:
        # C(c, t) for c < n and t <= r is below C(n, r) <= n_states
        binom = np.array(
            [[comb(c, t) for c in range(n)] for t in range(r + 1)], dtype=np.int64
        )
    high = _words(((1 << n) - 1) ^ ((1 << r) - 1), -(-n // 64))

    s1_all = np.empty(total)
    out = open(states_path, "wb") if states_path is not None else None
    if out is not None:
        out.write(STREAM_MAGIC)
    try:
        for b in range(blocks):
            lo, hi = total * b // blocks, total * (b + 1) // blocks
            rack, signs = _walk_block(model, k, seed, lo, hi, charges, threads)
            stray = np.bitwise_count(rack & high).sum(axis=0)
            s1_all[lo:hi] = 1.0 - stray * (n / (r * (n - r)))

            if do_tv:
                idx = _colex_rank(rack, binom)
                if signed:
                    # a signed space within TV_SPACE_CAP has n < 17: one word
                    idx += signs[0].astype(np.int64) * comb(n, r)
                counts += np.bincount(idx, minlength=n_states)
            if out is not None:
                rec = np.zeros((hi - lo, 2), dtype="<u8")
                if signed:
                    rec[:, 0] = signs[0]
                rec[:, 1] = rack[0]
                out.write(rec.tobytes())
    finally:
        if out is not None:
            out.close()

    mean = float(s1_all.mean())
    stderr = float(s1_all.std(ddof=1) / sqrt(total)) if total > 1 else 0.0
    tv = bias = None
    if do_tv:
        tv = float(0.5 * np.abs(counts / total - 1.0 / n_states).sum())
        bias = 0.5 * sqrt(n_states / total)
    return SimSummary(
        mean_s1=mean,
        stderr_s1=stderr,
        empirical_tv=tv,
        tv_bias_ceiling=bias,
        elapsed_s=time.perf_counter() - t0,
    )
