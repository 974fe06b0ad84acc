"""Spectral bounds, spherical functions, moments, and the lower bound."""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnmix import bounds, catalog, exact, verify
from urnmix.bounds import (
    bound_curve,
    crossover_f,
    l2n_sq_bound,
    leading_l2_term,
    log_l2n_sq_bound,
    lower_bound,
    moment_s1,
    spectral_measure,
    spherical_s1,
    theorem_k,
    tv_upper,
    variance_ratio,
)
from urnmix.chains import UrnState, initial_state
from urnmix.models import Family, ModelSpec


# --- character-sum oracle for spherical functions ------------------------
#
# For the subgroup K fixing the split {0..r-1 | r..n-1}, the spherical
# function of the i-th component at the coset of g is the K-average of the
# component's character at g*kappa.  Characters come from fixed-subset
# counts, a path completely independent of the closed forms under test.


def _fix_count(perm, size):
    n = len(perm)
    if size < 0:
        return 0
    return sum(
        1
        for sub in itertools.combinations(range(n), size)
        if set(perm[i] for i in sub) == set(sub)
    )


def _char(perm, i):
    return _fix_count(perm, i) - _fix_count(perm, i - 1)


def _coset_rep(n, r, rack1):
    """A permutation sending the initial rack split to the given mask."""
    ones = [b for b in range(n) if rack1 >> b & 1]
    zeros = [b for b in range(n) if not rack1 >> b & 1]
    perm = [0] * n
    for slot, b in enumerate(ones):
        perm[slot] = b
    for slot, b in enumerate(zeros):
        perm[r + slot] = b
    return tuple(perm)


def _spherical_oracle(n, r, rack1, i):
    g = _coset_rep(n, r, rack1)
    total = Fraction(0)
    count = 0
    for left in itertools.permutations(range(r)):
        for right in itertools.permutations(range(r, n)):
            kappa = tuple(left) + tuple(right)
            gk = tuple(g[kappa[x]] for x in range(n))
            total += _char(gk, i)
            count += 1
    return total / count


def _all_masks(n, r):
    return [sum(1 << b for b in sub) for sub in itertools.combinations(range(n), r)]


@pytest.mark.parametrize("n", range(2, 7))
def test_spherical_s1_matches_character_oracle(n):
    for r in range(1, n // 2 + 1):
        for mask in _all_masks(n, r):
            want = _spherical_oracle(n, r, mask, 1)
            assert spherical_s1(n, r, UrnState(mask)) == want


def test_spherical_s1_examples():
    assert spherical_s1(4, 2, initial_state(ModelSpec(Family.VARIANT, 4, 2))) == 1
    assert spherical_s1(3, 1, UrnState(0b010)) == Fraction(-1, 2)
    assert spherical_s1(2, 1, UrnState(0b10)) == -1


@pytest.mark.parametrize("n", range(2, 7))
def test_spherical_functions_average_to_zero(n):
    for r in range(1, n // 2 + 1):
        masks = _all_masks(n, r)
        assert sum(spherical_s1(n, r, UrnState(m)) for m in masks) == 0
        for i in range(1, r + 1):
            assert sum(_spherical_oracle(n, r, m, i) for m in masks) == 0


@pytest.mark.parametrize("n", range(3, 7))
def test_s1_squared_expansion(n):
    """s1^2 expands over the 0th, 1st, and 2nd spherical functions.

    The three coefficients are exactly the ones variance_ratio rests on;
    checking the expansion state by state against the character oracle
    validates that formula from an independent direction.
    """
    for r in range(1, n // 2 + 1):
        alpha = Fraction(1, n - 1)
        beta = Fraction((n - 2 * r) ** 2, r * (n - r) * (n - 2))
        gamma = (
            1
            + Fraction(3 * n - 2, (n - 1) * (n - 2))
            - Fraction(n * n, r * (n - r) * (n - 2))
        )
        if r == 1:
            assert gamma == 0
        for mask in _all_masks(n, r):
            s1 = spherical_s1(n, r, UrnState(mask))
            s2 = _spherical_oracle(n, r, mask, 2) if r >= 2 else Fraction(0)
            assert s1 * s1 == alpha + beta * s1 + gamma * s2


# --- bound sums -----------------------------------------------------------


def test_l2n_sq_bound_variant_4_2():
    model = ModelSpec(Family.VARIANT, 4, 2)
    assert l2n_sq_bound(model, 0, exact=True) == Fraction(5, 4)
    assert l2n_sq_bound(model, 1, exact=True) == Fraction(7, 32)
    assert float(l2n_sq_bound(model, 1, exact=True)) == 0.21875
    assert math.isclose(l2n_sq_bound(model, 1), 0.21875, rel_tol=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(Family.CLASSICAL, 6, 3),
        ModelSpec(Family.VARIANT, 6, 3),
        ModelSpec(Family.INDEPENDENT_FLIPS, 4, 2),
        ModelSpec(Family.PAIRED_FLIPS, 4, 2),
    ],
    ids=str,
)
def test_float_bound_tracks_exact_bound(model):
    for k in range(0, 25):
        want = l2n_sq_bound(model, k, exact=True)
        got = l2n_sq_bound(model, k)
        assert math.isclose(got, float(want), rel_tol=1e-11)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(list(Family)),
    st.integers(3, 12),
    st.integers(1, 40),
    st.data(),
)
def test_bound_is_nonincreasing_in_k(family, n, k, data):
    r = data.draw(st.integers(1, n // 2))
    model = ModelSpec(family, n, r)
    assert l2n_sq_bound(model, k) <= l2n_sq_bound(model, k - 1) + 1e-12


def test_tv_upper_is_sqrt_of_bound():
    model = ModelSpec(Family.VARIANT, 10, 5)
    for k in (0, 1, 5):
        assert tv_upper(model, k) == math.sqrt(l2n_sq_bound(model, k))


def test_bound_handles_large_n_without_overflow():
    # dims near C(2000, 1000) overflow doubles; the log-space path must not
    model = ModelSpec(Family.VARIANT, 2000, 1000)
    val = l2n_sq_bound(model, math.ceil(0.25 * 2000 * math.log(2000)))
    assert 0 < val < 10


def _per_entry_bound(model, k):
    """The spectral sum one Fraction per catalog entry: the integer sum's reference."""
    total = Fraction(0)
    trivial = catalog.trivial_label(model)
    for e in catalog.catalog_entries(model):
        if e.label != trivial:
            total += e.weight * e.eigenvalue ** (2 * k)
    return total / 4


@st.composite
def small_models(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(2, 9))
    return ModelSpec(family, n, draw(st.integers(1, n // 2)))


@settings(max_examples=40, deadline=None)
@given(small_models(), st.integers(0, 60))
@example(ModelSpec(Family.PAIRED_FLIPS, 9, 4), 0)
@example(ModelSpec(Family.VARIANT, 200, 100), 358)  # the rational crossing of criterion 6
@example(ModelSpec(Family.VARIANT, 200, 100), 359)
def test_exact_bound_equals_per_entry_fraction_sum(model, k):
    entries = catalog.catalog_entries(model)
    want = _per_entry_bound(model, k)
    assert l2n_sq_bound(model, k, exact=True) == want
    assert l2n_sq_bound(model, k, exact=True, entries=entries) == want


def _walker_measure(model):
    """The walker's nontrivial components grouped by eigenvalue numerator."""
    trivial = (model.n, 0, 0)
    grouped = {}
    for label, dim, mult, num in catalog._components(model):
        if label != trivial:
            grouped[num] = grouped.get(num, 0) + dim * mult
    return grouped


@pytest.mark.parametrize("n", [*range(2, 41), 64, 100, 200])
def test_closed_form_independent_measure_equals_walker(n):
    """Every r up to n = 40, and the balanced rack beyond."""
    for r in range(1, n // 2 + 1) if n <= 40 else [n // 2]:
        model = ModelSpec(Family.INDEPENDENT_FLIPS, n, r)
        want = _walker_measure(model)
        measure = spectral_measure(model)
        assert dict(zip(measure.nums, measure.weights)) == want
        assert list(measure.nums) == sorted(want, reverse=True)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(2, 9), st.data())
def test_float_bound_within_1e12_of_exact(family, n, data):
    r = data.draw(st.integers(1, n // 2))
    model = ModelSpec(family, n, r)
    for p in bound_curve(model, range(61)):
        want = l2n_sq_bound(model, p.k, exact=True)
        assert abs(p.l2n_sq - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(Family.CLASSICAL, 3000, 1500),
        ModelSpec(Family.VARIANT, 200, 100),
        ModelSpec(Family.INDEPENDENT_FLIPS, 24, 12),
        ModelSpec(Family.PAIRED_FLIPS, 24, 12),
        ModelSpec(Family.VARIANT, 2, 1),
    ],
    ids=str,
)
def test_bound_curve_equals_single_bounds_bit_for_bit(model):
    ks = list(range(0, 600, 7)) + [1, 2, 0]
    for k, p in zip(ks, bound_curve(model, ks)):
        assert p.k == k
        assert p.l2n_sq == l2n_sq_bound(model, k)
        assert p.tv_upper == tv_upper(model, k)


def test_zero_eigenvalue_counts_only_at_k0():
    # variant(2,1): the one nontrivial eigenvalue is 0
    model = ModelSpec(Family.VARIANT, 2, 1)
    assert l2n_sq_bound(model, 0) == 0.25
    assert l2n_sq_bound(model, 1) == 0.0
    assert log_l2n_sq_bound(model, 3) == -math.inf


@pytest.mark.parametrize("family", [Family.CLASSICAL, Family.VARIANT])
def test_float_bound_accurate_at_large_n(family):
    # eigenvalues within 1/n^2 of 1 raised to powers near 10^4: log|lambda|
    # must keep its digits (log1p), or the bound drifts by ~1e-12
    model = ModelSpec(family, 3000, 1500)
    ks = [9005, 12005] if family is Family.VARIANT else [4505, 9005]
    with localcontext() as ctx:
        ctx.prec = 40
        for p in bound_curve(model, ks):
            want = sum(
                Decimal(e.weight) * (Decimal(e.eigenvalue.numerator) / e.eigenvalue.denominator) ** (2 * p.k)
                for e in catalog.catalog_entries(model)
                if e.label != catalog.trivial_label(model)
            ) / 4
            assert abs(Decimal(p.l2n_sq) / want - 1) < Decimal("1e-14")


@pytest.mark.parametrize("family", list(Family))
def test_spectral_measure_matches_reference(family):
    for n in range(2, 11):
        for r in range(1, n // 2 + 1):
            model = ModelSpec(family, n, r)
            assert verify.spectral_measure_mismatch(model, 20) is None
            nums = spectral_measure(model).nums
            assert list(nums) == sorted(nums, reverse=True)


@pytest.mark.parametrize("n", [1100, 10000])
def test_overflowing_bound_is_inf_with_finite_log(n):
    # C(n, n/2)/4 at k = 0 is past the float range; it used to raise
    model = ModelSpec(Family.VARIANT, n, n // 2)
    assert l2n_sq_bound(model, 0) == math.inf
    assert tv_upper(model, 0) == math.inf
    assert bound_curve(model, [0])[0].l2n_sq == math.inf
    log_b = log_l2n_sq_bound(model, 0)
    assert math.isfinite(log_b)
    assert math.isclose(log_b, math.log(exact.space_size(model) - 1) - math.log(4), rel_tol=1e-14)


def test_log_bound_matches_log_of_exact_value():
    model = ModelSpec(Family.VARIANT, 1100, 550)
    for k in (0, 1, 3):
        want = l2n_sq_bound(model, k, exact=True)
        log_want = math.log(want.numerator) - math.log(want.denominator)
        assert math.isclose(log_l2n_sq_bound(model, k), log_want, rel_tol=1e-13)
    small = ModelSpec(Family.PAIRED_FLIPS, 6, 3)
    for k in (0, 4, 40):
        assert math.isclose(
            log_l2n_sq_bound(small, k), math.log(l2n_sq_bound(small, k, exact=True)), rel_tol=1e-13
        )
        assert l2n_sq_bound(small, k) == math.exp(log_l2n_sq_bound(small, k))


def test_float_bound_rejects_entries_and_negative_k():
    model = ModelSpec(Family.VARIANT, 6, 3)
    with pytest.raises(ValueError):
        l2n_sq_bound(model, 2, entries=catalog.catalog_entries(model))
    with pytest.raises(ValueError):
        bound_curve(model, [3, -1])
    with pytest.raises(ValueError):
        l2n_sq_bound(model, -1)


def test_bounds_reject_non_integer_step_counts():
    model = ModelSpec(Family.VARIANT, 6, 3)
    calls = [
        lambda: bound_curve(model, [2.5]),
        lambda: bound_curve(model, [1, 2, 2.5]),
        lambda: tv_upper(model, 2.5),
        lambda: log_l2n_sq_bound(model, 2.5),
        lambda: l2n_sq_bound(model, 2.5),
        lambda: l2n_sq_bound(model, 2.5, exact=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="integer"):
            call()


def test_bounds_accept_numpy_step_counts_and_empty_grids():
    model = ModelSpec(Family.VARIANT, 6, 3)
    want = l2n_sq_bound(model, 2)
    assert l2n_sq_bound(model, np.int32(2)) == want
    assert l2n_sq_bound(model, np.int64(2), exact=True) == l2n_sq_bound(model, 2, exact=True)
    assert [p.l2n_sq for p in bound_curve(model, np.array([2], dtype=np.uint16))] == [want]
    assert bound_curve(model, []) == []
    assert bound_curve(model, np.array([])) == []


def test_bounds_past_int64_give_values():
    # the grid is float64: 2^64 and beyond still decay, and the -1
    # eigenvalue of classical(2,1) never does
    big = 10**20
    variant = ModelSpec(Family.VARIANT, 10, 5)
    assert [p.l2n_sq for p in bound_curve(variant, [big])] == [0.0]
    assert tv_upper(variant, big) == 0.0
    assert l2n_sq_bound(ModelSpec(Family.CLASSICAL, 2, 1), big) == 0.25
    want = 2 * big * math.log(0.8) + math.log(9 / 4)
    assert math.isclose(log_l2n_sq_bound(variant, big), want, rel_tol=1e-12)


def test_bounds_reject_step_counts_past_the_float_range():
    model = ModelSpec(Family.VARIANT, 10, 5)
    for call in (
        lambda: bound_curve(model, [10**400]),
        lambda: l2n_sq_bound(model, 10**400),
        lambda: log_l2n_sq_bound(model, 10**400),
    ):
        with pytest.raises(ValueError, match="float range"):
            call()


def test_leading_l2_term():
    model = ModelSpec(Family.VARIANT, 200, 100)
    assert math.isclose(leading_l2_term(model, 64), 199 * 0.99**128, rel_tol=1e-12)
    signed = ModelSpec(Family.INDEPENDENT_FLIPS, 10, 5)
    assert math.isclose(leading_l2_term(signed, 3), 2 * 10 * 0.9**12, rel_tol=1e-12)


def test_theorem_k_values():
    assert theorem_k(ModelSpec(Family.VARIANT, 100, 50), 4.0) == 216
    assert theorem_k(ModelSpec(Family.PAIRED_FLIPS, 100, 50), 4.0) == 431
    assert theorem_k(ModelSpec(Family.INDEPENDENT_FLIPS, 100, 50), 4.0) == 216
    # classical coefficient r(1 - r/n)/2 halves at perfect balance
    assert theorem_k(ModelSpec(Family.CLASSICAL, 100, 50), 4.0) == 108
    with pytest.raises(ValueError):
        theorem_k(ModelSpec(Family.VARIANT, 100, 50), 0.0)


def test_theorem_k_actually_suffices():
    # the advertised step count drives the bound below e^-c scale
    for family in Family:
        model = ModelSpec(family, 60, 30)
        for c in (1.0, 3.0):
            k = theorem_k(model, c)
            assert tv_upper(model, k) < 1.3 * math.exp(-c / 2)


def test_moments():
    assert moment_s1(4, 2) == 0.25
    assert moment_s1(7, 0) == 1.0
    assert math.isclose(moment_s1(10, 10), 0.8**10, rel_tol=1e-15)


@pytest.mark.parametrize("n,r", [(4, 2), (6, 3), (6, 2), (8, 4)])
def test_moments_and_variance_against_exact_evolution(n, r):
    model = ModelSpec(Family.VARIANT, n, r)
    for k, dist in exact.evolve_sequence(model, range(0, 9), exact=True):
        states = exact.enumerate_states(model)
        law = [Fraction(v, dist.den) for v in dist.probs]
        mean = sum(p * spherical_s1(n, r, s) for p, s in zip(law, states))
        assert math.isclose(float(mean), moment_s1(n, k), abs_tol=1e-12)
        f_vals = [math.sqrt(n - 1) * float(spherical_s1(n, r, s)) for s in states]
        ef = sum(p * f for p, f in zip(map(float, law), f_vals))
        ef2 = sum(p * f * f for p, f in zip(map(float, law), f_vals))
        var = ef2 - ef * ef
        assert math.isclose(
            variance_ratio(n, r, k), var / ef**2, rel_tol=1e-8, abs_tol=1e-12
        )


def test_variance_ratio_validation():
    with pytest.raises(ValueError):
        variance_ratio(2, 1, 3)
    with pytest.raises(ValueError):
        variance_ratio(6, 3, -1)


def test_crossover_f():
    assert crossover_f(10, 5, 1.0) == math.inf
    assert crossover_f(100, 1, 0.0) >= 100 / 33
    # increasing in r at fixed n, c
    vals = [crossover_f(100, r, 1.0) for r in range(1, 50)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lower_bound_report():
    rep = lower_bound(1000, 500, 2.0)
    assert rep.k_threshold == 1226
    assert math.isclose(rep.tv_guarantee, 1 - 1566 * math.exp(-2), rel_tol=1e-12)
    # at c = log(1566) the guarantee crosses zero, but that c exceeds log n
    # for this n, so evaluate the crossing on a larger instance
    big = lower_bound(2000, 1000, math.log(1566))
    assert abs(big.tv_guarantee) < 1e-9
    with pytest.raises(ValueError):
        lower_bound(1000, 500, -0.5)
    with pytest.raises(ValueError):
        lower_bound(1000, 500, math.log(1000) + 0.1)
    with pytest.raises(ValueError):
        lower_bound(2, 1, 0.5)


def test_lower_bound_uses_crossover_branch_for_small_r():
    rep = lower_bound(100, 1, 1.0)
    assert rep.k_threshold == math.floor(crossover_f(100, 1, 1.0))
    rep_balanced = lower_bound(100, 50, 1.0)
    assert rep_balanced.k_threshold == math.floor(25 * (math.log(100) - 1))


def test_lower_bound_is_sound_on_small_exact_model():
    """Exact TV at the threshold step count really exceeds the guarantee."""
    n, r = 10, 5
    model = ModelSpec(Family.VARIANT, n, r)
    for c in (0.5, 1.0, 2.0):
        rep = lower_bound(n, r, c)
        dist = exact.evolve(model, rep.k_threshold)
        assert exact.tv_distance(dist) >= rep.tv_guarantee
