"""Monte Carlo simulation of the chains with reproducible per-walker streams.

Randomness is counter based: draw t of walker w under seed s is a 64-bit
hash of (s, w, t), so a walker's trajectory is a pure function of (seed,
walker id) no matter how walkers are batched or scheduled.  The vectorized
engine here and the scalar WalkerStream consume draws in the same order
(chains.draw_bounds lists the draws of one step per family), and therefore
produce bit-identical trajectories.

The vectorized engine keeps each block of walkers as uint64 mask words,
ceil(n/64) per walker for the rack and as many for the charges, so a step
is a few elementwise word operations for any n.  Classical steps pick the
i-th smallest ball of a rack by a popcount search over the words, as
chains.step does by counting set bits.

Summaries report the first spherical function s1 = 1 - j n/(r(n-r)) of each
terminal state, j being the count of rack-1 balls with labels above r;
for signed families s1 is evaluated on the rack marginal, ignoring charges.
An empirical total-variation estimate against uniform is included only when
the space is small enough and the walker count clears 50 states per walker;
the known upward bias is bounded by sqrt(|X|/walkers)/2, reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .chains import draw_bounds
from .exact import space_size
from .models import Family, ModelSpec, step_count

__all__ = [
    "SimConfig",
    "SimSummary",
    "WalkerStream",
    "run",
    "STREAM_MAGIC",
    "TV_SPACE_CAP",
    "TV_WALKER_FACTOR",
]

STREAM_MAGIC = b"URNMC01\x00"
TV_SPACE_CAP = 10**5
TV_WALKER_FACTOR = 50

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
_NC1, _NC2 = _U(_C1), _U(_C2)
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
        if walker < 0:
            raise ValueError(f"need walker >= 0, got {walker}")
        self._wh = _walker_hash_int(seed, walker)
        self._t = 0

    def integers(self, n: int) -> int:
        if not 1 <= n < 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n < 2^32, got {n}")
        h = _mix_int(self._wh ^ ((self._t * _C3 + _C4) & _M64))
        self._t += 1
        return ((h >> 32) * n) >> 32


@dataclass(frozen=True)
class SimConfig:
    """What to simulate: model, step count, walker count, seed."""

    model: ModelSpec
    k: int
    walkers: int
    seed: int

    def __post_init__(self):
        if step_count(self.k) < 0:
            raise ValueError(f"need k >= 0, got {self.k}")
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


def _draws(wh: np.ndarray, t: int, n: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Uniform [0, n) draws at counter t for every walker hash in wh, into out.

    out and tmp are uint64 arrays of wh's shape.  Nothing is allocated, so
    the draws of every step reuse the same memory.
    """
    np.bitwise_xor(wh, _U((t * _C3 + _C4) & _M64), out=out)
    _mix_np(out, tmp)
    out >>= _S32
    out *= _U(n)
    out >>= _S32
    return out


# Masks live in word-major uint64 arrays of shape (W, walkers), W = ceil(n/64),
# word w holding balls 64w .. 64w+63.  Ball b is addressed in word w by the
# shift b - 64w, wrapped to uint64: numpy gives 0 for any uint64 shift of 64
# or more, so in every other word the shift lands on nothing and one
# elementwise expression serves all W words.
_ONE = _U(1)
_HALVES = tuple((_U(width), _U((1 << width) - 1)) for width in (32, 16, 8, 4, 2, 1))


def _words(mask: int, width: int) -> np.ndarray:
    """An n-bit Python int as a (width, 1) column of uint64 words, low word first."""
    return np.array([[(mask >> (64 * w)) & _M64] for w in range(width)], dtype=np.uint64)


def _select(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Ball index of the idx-th (0-based) set bit of each column of words.

    The leftover index is carried from word to word until it falls inside
    one; that word is then halved six times, stepping into the upper half
    whenever the lower half holds at most idx set bits.  idx is consumed.
    """
    x = words[0].copy()
    pos = np.zeros_like(idx)
    count = np.empty(idx.shape, dtype=np.uint8)
    up = np.empty(idx.shape, dtype=bool)
    shift = np.empty_like(idx)
    for word in words[1:]:
        np.bitwise_count(x, out=count)
        np.greater_equal(idx, count, out=up)
        np.copyto(x, word, where=up)
        pos += up * _U(64)
        idx -= count * up
    for width, low in _HALVES:
        np.bitwise_and(x, low, out=shift)
        np.bitwise_count(shift, out=count)
        np.greater_equal(idx, count, out=up)
        np.multiply(up, width, out=shift)
        x >>= shift
        pos += shift
        count *= up
        idx -= count
    return pos


def _walk(model: ModelSpec, k: int, seed: int, lo: int, hi: int, charges: bool = True):
    """Walk walkers lo .. hi-1 for k steps; return their rack and charge words.

    Both are (ceil(n/64), hi - lo) uint64 arrays; the charge words are None
    for unsigned families, and for signed ones when charges is false, which
    skips the coin draws and charge flips.  Draws are counter based, so the
    rack words do not depend on charges.  Draws are taken in the order
    chains.step takes them from a WalkerStream, so each column is that
    walker's scalar replay.
    """
    n, r, family = model.n, model.r, model.family
    width, nb = -(-n // 64), hi - lo
    tmp = np.empty(nb, dtype=np.uint64)
    wh = _mix_np(_U(_seed_hash(seed)) ^ (np.arange(lo, hi, dtype=np.uint64) * _NC1 + _NC2), tmp)
    rack = np.repeat(_words((1 << r) - 1, width), nb, axis=1)
    signs = np.zeros_like(rack) if family.signed and charges else None
    offsets = _U(64) * np.arange(width, dtype=np.uint64)[:, None]
    balls = _words((1 << n) - 1, width)
    slots = len(draw_bounds(model))
    # per-step scratch, reused so the loop does not allocate
    draw = np.empty((slots, nb), dtype=np.uint64)
    sh1, sh2, cross, spare = np.empty((4, width, nb), dtype=np.uint64)
    flip = np.empty(nb, dtype=np.uint64)

    for step_no in range(k):
        base = step_no * slots
        if family is Family.CLASSICAL:
            np.subtract(_select(rack, _draws(wh, base, r, draw[0], tmp)), offsets, out=sh1)
            np.invert(rack, out=spare)
            spare &= balls
            np.subtract(_select(spare, _draws(wh, base + 1, n - r, draw[1], tmp)), offsets, out=sh2)
            np.left_shift(_ONE, sh1, out=spare)
            rack ^= spare
            np.left_shift(_ONE, sh2, out=spare)
            rack ^= spare
            continue
        b1 = _draws(wh, base, n, draw[0], tmp)
        b2 = _draws(wh, base + 1, n, draw[1], tmp)
        np.subtract(b1, offsets, out=sh1)
        np.subtract(b2, offsets, out=sh2)
        np.right_shift(rack, sh1, out=cross)
        np.right_shift(rack, sh2, out=spare)
        cross ^= spare
        cross &= _ONE
        np.bitwise_xor.reduce(cross, axis=0, out=flip)
        np.left_shift(flip, sh1, out=spare)
        rack ^= spare
        np.left_shift(flip, sh2, out=spare)
        rack ^= spare
        if signs is None:
            continue
        c1 = _draws(wh, base + 2, 2, draw[2], tmp)
        np.left_shift(c1, sh1, out=spare)
        signs ^= spare
        if family is Family.INDEPENDENT_FLIPS:
            c2 = _draws(wh, base + 3, 2, draw[3], tmp)
        else:
            c2 = c1
        # a ball drawn twice is flipped by the first coin alone
        np.not_equal(b1, b2, out=tmp)
        tmp &= c2
        np.left_shift(tmp, sh2, out=spare)
        signs ^= spare
    return rack, signs


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


def run(config: SimConfig, states_path=None, block_size: int = 1 << 16) -> SimSummary:
    """Simulate all walkers and summarize terminal states.

    states_path, if given, receives the magic header followed by one record
    per walker: little-endian 64-bit charge mask then 64-bit subset mask
    (charge mask 0 for unsigned families).  Requires n <= 64.
    """
    t0 = time.perf_counter()
    model, k, total, seed = config.model, config.k, config.walkers, config.seed
    n, r = model.n, model.r
    signed = model.family.signed
    if states_path is not None and n > 64:
        raise ValueError("state streaming packs masks into 64 bits, needs n <= 64")
    if block_size < 1:
        raise ValueError(f"need block_size >= 1, got {block_size}")

    n_states = space_size(model)
    do_tv = n_states <= TV_SPACE_CAP and total >= TV_WALKER_FACTOR * n_states
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
        for lo in range(0, total, block_size):
            hi = min(lo + block_size, total)
            rack, signs = _walk(model, k, seed, lo, hi, charges=charges)
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
