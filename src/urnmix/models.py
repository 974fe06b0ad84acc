"""Chain family definitions, model parameters and the state-space size."""

from __future__ import annotations

import enum
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from math import comb, floor, log10


class Family(enum.Enum):
    """The four urn chain families.

    CLASSICAL forces one ball from each rack to trade places every step.
    VARIANT draws two positions uniformly (possibly equal) and swaps their
    balls only when they sit on different racks, so it can hold still.
    The two signed families run the variant move on charged balls:
    INDEPENDENT_FLIPS tosses a fair coin for each chosen ball's charge,
    PAIRED_FLIPS tosses one coin and flips both charges or neither.
    """

    CLASSICAL = "classical"
    VARIANT = "variant"
    INDEPENDENT_FLIPS = "independent"
    PAIRED_FLIPS = "paired"

    @property
    def signed(self) -> bool:
        return self in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS)


@dataclass(frozen=True)
class ModelSpec:
    """A chain family together with the ball count n and rack-1 size r.

    Balls are labeled 1..n (bit b of a mask stands for ball b+1).  Rack 1
    holds r balls, rack 2 the other n - r.  Only 1 <= r <= n/2 is allowed;
    a larger first rack is the same model with the racks relabeled.
    """

    family: Family
    n: int
    r: int

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.r <= self.n // 2:
            raise ValueError(
                f"need 1 <= r <= n/2 (relabel racks otherwise), got n={self.n}, r={self.r}"
            )

    @cached_property  # every chains.step reads it
    def charge_bits(self) -> int:
        """Bits of a state's charge word: n for the signed families, else 0."""
        return self.n if self.family.signed else 0


def _figure(x) -> str:
    """x as a message prints it: an int past 20 digits as 'about 8.69e607', no str() of it."""
    if not isinstance(x, int) or x < 10**20:  # a grid's point count may be a float
        return str(x)
    e = floor(log10(x))
    head = f"{10 ** (log10(x) - e):.2f}"
    if head == "10.00":
        head, e = "1.00", e + 1
    return f"about {head}e{e}"


class SpaceCapError(RuntimeError):
    """The computation is larger than the requested resource cap; required and cap are exact."""

    def __init__(self, required: int, cap: int, what: str, at_least: bool = False):
        self.required = required
        self.cap = cap
        self.at_least = at_least  # required is then a lower bound of what it needs
        figure = f"{'at least ' * at_least}{_figure(required)}"
        super().__init__(f"{what} needs {figure} but the cap is {_figure(cap)}")


def space_size(model: ModelSpec) -> int:
    """C(n,r) arrangements, times 2^charge_bits charge words."""
    return comb(model.n, model.r) << model.charge_bits


def checked_space_size(model: ModelSpec, cap: int, what: str) -> int:
    """space_size(model), or SpaceCapError past cap; at_least when a lower bound shows it.

    Past 4096 balls comb(n, r) is not formed.  C(n, i) rises with i up to
    n/2, so the walk to C(n, r), from 2^n taken at most to cap's bit length
    for a signed family, stops at the first partial product past the cap.
    """
    n, r = model.n, model.r
    if n <= 1 << 12:  # comb(n, r) takes microseconds
        size, i = space_size(model), r
    else:
        size, i = 1 << min(model.charge_bits, cap.bit_length()), 0
    while i < r and size <= cap:
        size = size * (n - i) // (i + 1)
        i += 1
    if size > cap:
        raise SpaceCapError(size, cap, what, at_least=i < r)
    return size


def as_int(value, what: str) -> int:
    """value as a Python int; ValueError unless it is an integer (numpy ints pass, bools do not)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def step_count(k) -> int:
    """k as a Python int; ValueError unless it is an integer k >= 0."""
    k = as_int(k, "step count")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return k


# Steps that float evolution or one Monte Carlo run may take; a float law that
# far out is uniform to rounding.  At the cap one n = 8 Monte Carlo walker took
# 1.5-2.1 s (variant, signed) and 7.8-8.2 s (classical) on a shared 2-vCPU host.
STEP_CAP = 10**5

# the most threads any computation may start
MAX_THREADS = 64


def thread_count(threads=None) -> int:
    """threads as an int in 1..MAX_THREADS; None means the CPUs this process may use.

    ValueError for anything else, so a caller can check a count before it
    starts any thread.
    """
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return min(len(os.sched_getaffinity(0)), MAX_THREADS)
        return min(os.cpu_count() or 1, MAX_THREADS)
    threads = as_int(threads, "thread count")
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"need a thread count from 1 to {MAX_THREADS}, got {threads}")
    return threads
