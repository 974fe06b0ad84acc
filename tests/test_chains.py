"""State representation, single steps, and exact kernel rows."""

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnmix import chains
from urnmix.chains import (
    SignedUrnState,
    UrnState,
    draw_bounds,
    initial_state,
    kernel_row,
    step,
    step_units,
    subset_rank,
    subset_unrank,
)
from urnmix.models import Family, ModelSpec
from urnmix.montecarlo import WalkerStream

SMALL_MODELS = [
    ModelSpec(Family.CLASSICAL, 4, 2),
    ModelSpec(Family.VARIANT, 4, 2),
    ModelSpec(Family.VARIANT, 5, 2),
    ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
    ModelSpec(Family.PAIRED_FLIPS, 3, 1),
]


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec(Family.VARIANT, 1, 1)
    with pytest.raises(ValueError):
        ModelSpec(Family.VARIANT, 4, 0)
    with pytest.raises(ValueError):
        ModelSpec(Family.VARIANT, 5, 3)  # r > n/2
    ModelSpec(Family.VARIANT, 5, 2)


def test_initial_state():
    assert initial_state(ModelSpec(Family.CLASSICAL, 6, 2)) == UrnState(0b11)
    assert initial_state(ModelSpec(Family.PAIRED_FLIPS, 6, 3)) == SignedUrnState(0b111, 0)


@given(st.integers(2, 16), st.data())
def test_subset_rank_unrank_roundtrip(n, data):
    r = data.draw(st.integers(1, n // 2))
    masks = [
        sum(1 << b for b in sub) for sub in itertools.combinations(range(n), r)
    ]
    masks.sort()
    # colex rank order coincides with numeric mask order
    for rank, mask in enumerate(masks):
        assert subset_rank(mask) == rank
        assert subset_unrank(n, r, rank) == mask


class _NoDraws:
    """A draw source that fails the test if anything draws from it."""

    def integers(self, bound):
        raise AssertionError(f"drew from bound {bound} after a rejected state")


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_step_rejects_wrong_state_shape(family):
    model = ModelSpec(family, 4, 2)
    start = initial_state(model)
    bad = [
        UrnState(0b11) if family.signed else SignedUrnState(0b11, 0),  # the other state type
        replace(start, rack1=0b111),  # three balls on rack 1
        replace(start, rack1=0b10001),  # a bit beyond ball n
    ]
    if family.signed:
        bad.append(SignedUrnState(0b11, 0b10000))  # a charge beyond ball n
    for state in bad:
        with pytest.raises(ValueError):
            step(model, state, _NoDraws())
        with pytest.raises(ValueError):
            kernel_row(model, state)


def test_classical_always_swaps():
    model = ModelSpec(Family.CLASSICAL, 6, 3)
    state = initial_state(model)
    rng = WalkerStream(1, 0)
    for _ in range(50):
        nxt = step(model, state, rng)
        assert nxt != state
        assert nxt.rack1.bit_count() == 3
        state = nxt


def test_kernel_row_variant_2_1():
    model = ModelSpec(Family.VARIANT, 2, 1)
    row = kernel_row(model, UrnState(0b01))
    assert row.weight_to(UrnState(0b01)) == Fraction(1, 2)
    assert row.weight_to(UrnState(0b10)) == Fraction(1, 2)


def test_kernel_row_classical_4_2():
    model = ModelSpec(Family.CLASSICAL, 4, 2)
    row = kernel_row(model, UrnState(0b0011))
    # forced swap: the state always changes, each cross pair equally likely
    assert row.weight_to(UrnState(0b0011)) == 0
    targets = dict(row.entries)
    assert len(targets) == 4
    assert all(w == Fraction(1, 4) for w in targets.values())
    assert set(targets) == {
        UrnState(0b0101),
        UrnState(0b1001),
        UrnState(0b0110),
        UrnState(0b1010),
    }


def test_kernel_row_independent_2_1():
    model = ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1)
    row = kernel_row(model, SignedUrnState(0b01, 0b00))
    w = row.weight_to
    # same ball drawn (prob 1/2): charge flip is a fair coin on that ball
    assert w(SignedUrnState(0b01, 0b00)) == Fraction(1, 4)
    assert w(SignedUrnState(0b01, 0b01)) == Fraction(1, 8)
    assert w(SignedUrnState(0b01, 0b10)) == Fraction(1, 8)
    # distinct balls (prob 1/2): swap with two independent charge coins
    assert w(SignedUrnState(0b10, 0b00)) == Fraction(1, 8)
    assert w(SignedUrnState(0b10, 0b01)) == Fraction(1, 8)
    assert w(SignedUrnState(0b10, 0b10)) == Fraction(1, 8)
    assert w(SignedUrnState(0b10, 0b11)) == Fraction(1, 8)
    assert row.total() == 1


def test_kernel_row_paired_2_1():
    model = ModelSpec(Family.PAIRED_FLIPS, 2, 1)
    row = kernel_row(model, SignedUrnState(0b01, 0b00))
    w = row.weight_to
    # same ball (either of the two): the coin flips just that ball or nothing
    assert w(SignedUrnState(0b01, 0b00)) == Fraction(1, 4)
    assert w(SignedUrnState(0b01, 0b01)) == Fraction(1, 8)
    assert w(SignedUrnState(0b01, 0b10)) == Fraction(1, 8)
    # distinct balls: swap, both charges flip together or stay
    assert w(SignedUrnState(0b10, 0b00)) == Fraction(1, 4)
    assert w(SignedUrnState(0b10, 0b11)) == Fraction(1, 4)
    assert w(SignedUrnState(0b10, 0b01)) == 0
    assert row.total() == 1


@pytest.mark.parametrize("model", SMALL_MODELS, ids=str)
def test_kernel_rows_stochastic_and_symmetric(model):
    from urnmix.exact import enumerate_states

    states = enumerate_states(model)
    rows = {s: kernel_row(model, s) for s in states}
    for s in states:
        assert rows[s].total() == 1
        assert all(w > 0 for _, w in rows[s].entries)
    for s in states:
        for t, w in rows[s].entries:
            assert rows[t].weight_to(s) == w


def test_classical_row_support_size():
    # exactly r(n-r) targets, each with weight 1/(r(n-r))
    model = ModelSpec(Family.CLASSICAL, 6, 2)
    row = kernel_row(model, initial_state(model))
    assert len(row.entries) == 2 * 4
    assert all(w == Fraction(1, 8) for _, w in row.entries)


def test_step_units_denominators():
    assert step_units(ModelSpec(Family.CLASSICAL, 6, 2)) == 8
    assert step_units(ModelSpec(Family.VARIANT, 6, 2)) == 36
    assert step_units(ModelSpec(Family.INDEPENDENT_FLIPS, 6, 2)) == 144
    assert step_units(ModelSpec(Family.PAIRED_FLIPS, 6, 2)) == 72


@pytest.mark.parametrize("model", SMALL_MODELS, ids=str)
def test_kernel_weights_are_integer_step_units(model):
    units = step_units(model)
    row = kernel_row(model, initial_state(model))
    for _, w in row.entries:
        assert (w * units).denominator == 1


@pytest.mark.parametrize("model", SMALL_MODELS, ids=str)
def test_sampler_matches_kernel_row(model):
    """Empirical one-step frequencies agree with the exact row."""
    start = initial_state(model)
    row = kernel_row(model, start)
    rng = WalkerStream(20240817, 5)
    trials = 40000
    counts = Counter(step(model, start, rng) for _ in range(trials))
    assert set(counts) <= {t for t, _ in row.entries}
    for target, weight in row.entries:
        freq = counts[target] / trials
        sigma = (float(weight) * (1 - float(weight)) / trials) ** 0.5
        assert abs(freq - float(weight)) < 5 * sigma + 1e-9


def test_paired_flip_parity():
    """Paired steps flip 0 or 2 charges, or 1 only via a same-ball draw."""
    model = ModelSpec(Family.PAIRED_FLIPS, 6, 3)
    state = initial_state(model)
    rng = WalkerStream(3, 0)
    for _ in range(300):
        nxt = step(model, state, rng)
        flipped = (state.signs ^ nxt.signs).bit_count()
        assert flipped in (0, 1, 2)
        if flipped == 1:
            assert nxt.rack1 == state.rack1  # same ball drawn twice
        state = nxt


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(SMALL_MODELS))
def test_stream_consumption_is_fixed_per_step(seed, model):
    """Each step draws from exactly the bounds of draw_bounds, in order."""

    class CountingStream:
        def __init__(self, inner):
            self.inner = inner
            self.bounds = []

        def integers(self, n):
            self.bounds.append(n)
            return self.inner.integers(n)

    rng = CountingStream(WalkerStream(seed, 0))
    state = initial_state(model)
    for t in range(1, 6):
        state = step(model, state, rng)
        assert rng.bounds == list(draw_bounds(model)) * t


def _one_charge_paired(model, state, draws):
    """A faulty paired step: the coin flips only the first drawn ball."""
    b1, b2, c = draws
    return SignedUrnState(chains._swap_subset(state.rack1, b1, b2), state.signs ^ (c << b1))


def test_kernel_rows_check_catches_a_faulty_sampler(monkeypatch):
    """kernel_row is counted from the stepper, so verify compares the sampler
    itself with the independently built integer table."""
    from urnmix import verify

    assert verify.kernel_rows().ok
    monkeypatch.setitem(chains._STEPPERS, Family.PAIRED_FLIPS, _one_charge_paired)
    result = verify.kernel_rows()
    assert not result.ok
    assert "paired" in result.detail
