"""States, stepping rules, and the exact law of one step.

A state stores the set of ball labels on rack 1 as an n-bit mask (bit b is
ball b+1).  Signed states also carry an n-bit charge mask, indexed by ball
label, so swapping two balls never touches the charge word; only explicit
flips do.

step, the one sampler, draws from any source with an ``integers(n)`` method
returning a uniform value in [0, n).  draw_bounds gives the bound of each
draw one step takes, in order, so that a trajectory is a pure function of
the stream:

    classical    (r, n-r)      index on rack 1, index on rack 2
    variant      (n, n)        ball, ball
    independent  (n, n, 2, 2)  ball, ball, coin, coin  (coins always consumed)
    paired       (n, n, 2)     ball, ball, coin

A stepper is a pure function of (model, state, draws).  Variant and both
signed families take one swap stepper: it swaps the two drawn balls; signed
steps then flip ball b1 by draws[2] and, if b2 is another ball, b2 by the
last draw, c2 for independent flips and c1 again for paired ones.  With
equal ball draws the independent c2 is drawn and unused, keeping the stride
constant.  A step has step_units(model), the product of its draw bounds,
equally likely outcomes; kernel_row counts the stepper's targets over all
of them, so the exact law is the sampler's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod

from .models import Family, ModelSpec

__all__ = [
    "UrnState",
    "SignedUrnState",
    "KernelRow",
    "initial_state",
    "step",
    "kernel_row",
    "draw_bounds",
    "step_units",
    "subset_rank",
    "subset_unrank",
    "bits_of",
]


@dataclass(frozen=True)
class UrnState:
    """Unsigned state: the rack-1 subset as an n-bit mask."""

    rack1: int


@dataclass(frozen=True)
class SignedUrnState:
    """Signed state: rack-1 subset mask plus per-ball charge mask."""

    rack1: int
    signs: int


def bits_of(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_rank(mask: int) -> int:
    """Colexicographic rank of a subset among subsets of the same size.

    The rank of {c_1 < ... < c_r} is sum_t C(c_t, t).  Colex order on fixed
    size subsets coincides with numeric order of the masks.
    """
    rank = 0
    t = 0
    for b in bits_of(mask):
        t += 1
        rank += comb(b, t)
    return rank


def subset_unrank(n: int, r: int, rank: int) -> int:
    """Inverse of subset_rank for r-subsets of {0..n-1}."""
    if not 0 <= rank < comb(n, r):
        raise ValueError(f"rank {rank} out of range for C({n},{r})")
    mask = 0
    for t in range(r, 0, -1):
        c = t - 1
        while comb(c + 1, t) <= rank:
            c += 1
        rank -= comb(c, t)
        mask |= 1 << c
    return mask


def initial_state(model: ModelSpec):
    """Deterministic start: balls 1..r on rack 1, all charges positive."""
    rack1 = (1 << model.r) - 1
    if model.family.signed:
        return SignedUrnState(rack1=rack1, signs=0)
    return UrnState(rack1=rack1)


def _check_state(model: ModelSpec, state) -> None:
    signed = model.family.signed
    if signed and not isinstance(state, SignedUrnState):
        raise ValueError(f"{model.family.value} needs a SignedUrnState")
    if not signed and not isinstance(state, UrnState):
        raise ValueError(f"{model.family.value} needs an UrnState")
    if state.rack1 >> model.n:
        raise ValueError("state mask has bits beyond ball n")
    if state.rack1.bit_count() != model.r:
        raise ValueError(
            f"rack-1 mask has {state.rack1.bit_count()} balls, expected {model.r}"
        )
    if signed and state.signs >> model.n:
        raise ValueError("charge mask has bits beyond ball n")


def _nth_bit(mask: int, idx: int) -> int:
    """Position of the idx-th (0-based) set bit, in increasing order."""
    for count, b in enumerate(bits_of(mask)):
        if count == idx:
            return b
    raise IndexError(idx)


def _swap_subset(rack1: int, b1: int, b2: int) -> int:
    """Exchange the rack memberships of balls b1 and b2."""
    if ((rack1 >> b1) ^ (rack1 >> b2)) & 1:
        rack1 ^= (1 << b1) | (1 << b2)
    return rack1


def _step_classical(model: ModelSpec, state: UrnState, draws) -> UrnState:
    """Trade the draws[0]-th ball on rack 1 with the draws[1]-th on rack 2."""
    rack1 = state.rack1
    a = _nth_bit(rack1, draws[0])
    b = _nth_bit(((1 << model.n) - 1) ^ rack1, draws[1])
    return UrnState(rack1 ^ (1 << a) ^ (1 << b))


def _step_swap(model: ModelSpec, state, draws):
    """Swap balls draws[0] and draws[1] if on different racks, then flip charges.

    Two draws make the variant step.  Otherwise ball b1 flips by draws[2]
    and, if b2 != b1, ball b2 by draws[-1]: coin c2 for independent flips,
    c1 again for paired ones.
    """
    b1, b2 = draws[0], draws[1]
    rack1 = _swap_subset(state.rack1, b1, b2)
    if len(draws) == 2:
        return UrnState(rack1)
    signs = state.signs ^ (draws[2] << b1)
    if b1 != b2:
        signs ^= draws[-1] << b2
    return SignedUrnState(rack1, signs)


_STEPPERS = {
    Family.CLASSICAL: _step_classical,
    Family.VARIANT: _step_swap,
    Family.INDEPENDENT_FLIPS: _step_swap,
    Family.PAIRED_FLIPS: _step_swap,
}


def draw_bounds(model: ModelSpec) -> tuple[int, ...]:
    """The bound of each draw one step takes, in the order step takes them."""
    n, r = model.n, model.r
    if model.family is Family.CLASSICAL:
        return (r, n - r)
    if model.family is Family.VARIANT:
        return (n, n)
    if model.family is Family.INDEPENDENT_FLIPS:
        return (n, n, 2, 2)
    return (n, n, 2)


def step(model: ModelSpec, state, rng):
    """One sampled step of the model's chain: each draw of draw_bounds, in order."""
    _check_state(model, state)
    return _STEPPERS[model.family](model, state, [int(rng.integers(b)) for b in draw_bounds(model)])


def step_units(model: ModelSpec) -> int:
    """Number of equally likely draw outcomes of one step.

    Every one-step transition probability is a count of outcomes over this:
    classical r(n-r), variant n^2, independent flips 4n^2, paired 2n^2.
    """
    return prod(draw_bounds(model))


@dataclass(frozen=True)
class KernelRow:
    """One row of the transition kernel: distinct targets with exact weights."""

    source: UrnState | SignedUrnState
    entries: tuple

    def total(self) -> Fraction:
        return sum((w for _, w in self.entries), Fraction(0))

    def weight_to(self, target) -> Fraction:
        for t, w in self.entries:
            if t == target:
                return w
        return Fraction(0)


def kernel_row(model: ModelSpec, state) -> KernelRow:
    """The exact law of one step out of a state.

    The stepper runs on each of the step_units(model) equally likely
    outcomes of draw_bounds; a target weighs the count of outcomes reaching
    it over step_units, so the weights sum to exactly 1.  The kernel is
    symmetric (every atomic move is an involution with the same selection
    probability both ways), hence doubly stochastic with uniform stationary
    law.
    """
    _check_state(model, state)
    stepper = _STEPPERS[model.family]
    bounds = draw_bounds(model)
    hits = Counter(stepper(model, state, outcome) for outcome in product(*map(range, bounds)))
    units = prod(bounds)
    by_index = lambda tw: (getattr(tw[0], "signs", 0), tw[0].rack1)
    entries = tuple(sorted(((t, Fraction(c, units)) for t, c in hits.items()), key=by_index))
    return KernelRow(source=state, entries=entries)
