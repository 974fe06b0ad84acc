"""Exact distribution evolution, distances, spectra, identities."""

import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnmix import exact
from urnmix.bounds import l2n_sq_bound, tv_upper
from urnmix.catalog import catalog_entries
from urnmix.chains import SignedUrnState, UrnState, initial_state, kernel_row, step_units
from urnmix.exact import (
    SpaceCapError,
    distance_curve,
    distribution_csv,
    enumerate_states,
    evolve,
    evolve_sequence,
    expected_spectrum,
    space_size,
    spectrum,
    state_at,
    state_index,
    subset_marginal,
    trace_identity_check,
    tv_distance,
    _kernel_table,
)
from urnmix.models import Family, ModelSpec
from urnmix.verify import kernel_table_mismatch


def _law(dist):
    """An exact law as one Fraction per state."""
    return [Fraction(v, dist.den) for v in dist.probs]


def _fraction_powers(model, kmax):
    """Laws after 0..kmax steps, by powering the kernel_row Fraction matrix."""
    states = enumerate_states(model)
    idx = {s: i for i, s in enumerate(states)}
    rows = [kernel_row(model, s) for s in states]
    v = [Fraction(0)] * len(states)
    v[state_index(model, initial_state(model))] = Fraction(1)
    laws = [v]
    for _ in range(kmax):
        nxt = [Fraction(0)] * len(states)
        for i, p in enumerate(v):
            if p:
                for t, w in rows[i].entries:
                    nxt[idx[t]] += p * w
        v = nxt
        laws.append(v)
    return laws


def test_space_size():
    assert space_size(ModelSpec(Family.CLASSICAL, 4, 2)) == 6
    assert space_size(ModelSpec(Family.VARIANT, 10, 5)) == 252
    assert space_size(ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1)) == 8
    assert space_size(ModelSpec(Family.PAIRED_FLIPS, 6, 3)) == 64 * 20


def test_state_indexing_roundtrip():
    for model in (
        ModelSpec(Family.VARIANT, 6, 2),
        ModelSpec(Family.PAIRED_FLIPS, 4, 2),
    ):
        states = enumerate_states(model)
        assert len(states) == space_size(model)
        assert len(set(states)) == len(states)
        for i, s in enumerate(states):
            assert state_index(model, s) == i
            assert state_at(model, i) == s
    # unsigned states come out in increasing mask order
    masks = [s.rack1 for s in enumerate_states(ModelSpec(Family.VARIANT, 6, 2))]
    assert masks == sorted(masks)


@pytest.mark.parametrize(
    "model", [ModelSpec(Family.VARIANT, 6, 2), ModelSpec(Family.PAIRED_FLIPS, 4, 2)], ids=str
)
def test_state_at_rejects_out_of_range_indices(model):
    size = space_size(model)
    for index in (-1, size, size + 7):
        with pytest.raises(ValueError):
            state_at(model, index)


def test_initial_state_has_index_zero():
    for family in Family:
        model = ModelSpec(family, 6, 3)
        assert state_index(model, initial_state(model)) == 0


def test_evolve_k0_is_point_mass():
    model = ModelSpec(Family.VARIANT, 4, 2)
    dist = evolve(model, 0, exact=True)
    assert dist.den == 1
    law = _law(dist)
    assert law[0] == 1
    assert all(p == 0 for p in law[1:])
    assert tv_distance(dist) == Fraction(5, 6)


def test_evolve_one_step_equals_kernel_row():
    for family in Family:
        model = ModelSpec(family, 5, 2)
        law = _law(evolve(model, 1, exact=True))
        row = kernel_row(model, initial_state(model))
        for i, s in enumerate(enumerate_states(model)):
            assert law[i] == row.weight_to(s)


def test_step_counts_must_be_integers():
    model = ModelSpec(Family.VARIANT, 6, 3)
    for exact_mode in (False, True):
        with pytest.raises(ValueError, match="integer"):
            evolve(model, 2.5, exact=exact_mode)
        with pytest.raises(ValueError, match="integer"):
            list(evolve_sequence(model, [1, 2.5], exact=exact_mode))
        with pytest.raises(ValueError, match="integer"):
            distance_curve(model, [2.5], exact=exact_mode)
    # numpy integers are step counts
    want = evolve(model, 3, exact=True)
    got = evolve(model, np.int64(3), exact=True)
    assert got.den == want.den and list(got.probs) == list(want.probs)
    assert [p.k for p in distance_curve(model, np.arange(3, dtype=np.uint8))] == [0, 1, 2]


def test_variant_2_1_mixes_in_one_step():
    dist = evolve(ModelSpec(Family.VARIANT, 2, 1), 1, exact=True)
    assert tv_distance(dist) == 0


def test_classical_2_1_never_mixes():
    model = ModelSpec(Family.CLASSICAL, 2, 1)
    for k, dist in evolve_sequence(model, [1, 2, 3, 4], exact=True):
        assert tv_distance(dist) == Fraction(1, 2)
        # forced swap on two states is deterministic: the mass just bounces
        expected = [0, 1] if k % 2 else [1, 0]
        assert _law(dist) == expected


def test_tv_is_nonincreasing_in_k():
    for model in (
        ModelSpec(Family.VARIANT, 6, 3),
        ModelSpec(Family.CLASSICAL, 5, 2),
        ModelSpec(Family.INDEPENDENT_FLIPS, 4, 2),
        ModelSpec(Family.PAIRED_FLIPS, 4, 1),
    ):
        last = None
        for _, dist in evolve_sequence(model, range(0, 12), exact=True):
            tv = tv_distance(dist)
            if last is not None:
                assert tv <= last
            last = tv


def test_variant_4_2_k3_golden():
    """Frozen third-step distance; the law itself is checked against matrix powers below."""
    dist = evolve(ModelSpec(Family.VARIANT, 4, 2), 3, exact=True)
    assert tv_distance(dist) == Fraction(13, 192)


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(Family.VARIANT, 4, 2),
        ModelSpec(Family.CLASSICAL, 5, 2),
        ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
        ModelSpec(Family.PAIRED_FLIPS, 3, 1),
    ],
    ids=lambda m: f"{m.family.value}-{m.n}-{m.r}",
)
def test_exact_law_equals_fraction_matrix_powers(model):
    """Integer numerators over step_units^k are the kernel_row Fraction powers."""
    ks = [0, 1, 2, 3, 6]
    want = _fraction_powers(model, ks[-1])
    for k, dist in evolve_sequence(model, ks, exact=True):
        assert dist.exact and dist.den == step_units(model) ** k
        assert dist.probs.dtype == object and all(type(v) is int for v in dist.probs)
        assert _law(dist) == want[k]


def test_float_and_rational_paths_agree():
    for model in (
        ModelSpec(Family.VARIANT, 6, 3),
        ModelSpec(Family.INDEPENDENT_FLIPS, 4, 2),
    ):
        for k in (1, 4, 9):
            df = evolve(model, k)
            dr = evolve(model, k, exact=True)
            assert np.allclose(df.probs, [float(p) for p in _law(dr)], atol=1e-14)
            assert math.isclose(
                tv_distance(df), float(tv_distance(dr)), abs_tol=1e-12
            )


def test_probabilities_sum_to_one():
    for family in Family:
        model = ModelSpec(family, 6, 2)
        dist = evolve(model, 7, exact=True)
        assert sum(dist.probs) == dist.den and sum(_law(dist)) == 1
        distf = evolve(model, 7)
        assert math.isclose(float(np.sum(distf.probs)), 1.0, abs_tol=1e-12)


def test_plancherel_identity_exact():
    """The normalized l2 distance equals the spectral sum, as Fractions."""
    for model in (
        ModelSpec(Family.VARIANT, 6, 3),
        ModelSpec(Family.CLASSICAL, 5, 2),
        ModelSpec(Family.PAIRED_FLIPS, 3, 1),
    ):
        for k, dist in evolve_sequence(model, range(0, 12), exact=True):
            assert exact.l2n_sq_distance(dist) == l2n_sq_bound(model, k, exact=True)


def _per_state_tv(dist):
    u = Fraction(1, space_size(dist.model))
    return sum(abs(p - u) for p in _law(dist)) / 2


def _per_state_l2n_sq(dist):
    n_states = space_size(dist.model)
    u = Fraction(1, n_states)
    return Fraction(n_states, 4) * sum((p - u) ** 2 for p in _law(dist))


def _per_state_marginal(dist):
    base = math.comb(dist.model.n, dist.model.r)
    marg = [Fraction(0)] * base
    for idx, p in enumerate(_law(dist)):
        marg[idx % base] += p
    return marg


@st.composite
def rational_models(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(2, 5 if family.signed else 9))
    return ModelSpec(family, n, draw(st.integers(1, n // 2)))


@settings(max_examples=30, deadline=None)
@given(rational_models(), st.integers(0, 12))
@example(ModelSpec(Family.CLASSICAL, 2, 1), 0)
@example(ModelSpec(Family.CLASSICAL, 2, 1), 5)
@example(ModelSpec(Family.PAIRED_FLIPS, 4, 2), 0)
@example(ModelSpec(Family.INDEPENDENT_FLIPS, 4, 2), 7)
def test_integer_reductions_equal_per_state_fractions(model, k):
    """The integer-numerator reductions give the per-state Fraction sums exactly."""
    dist = evolve(model, k, exact=True)
    tv = tv_distance(dist)
    l2 = exact.l2n_sq_distance(dist)
    assert type(tv) is Fraction and tv == _per_state_tv(dist)
    assert type(l2) is Fraction and l2 == _per_state_l2n_sq(dist)
    if model.family.signed:
        marg = subset_marginal(dist)
        assert marg.exact and marg.den == dist.den
        assert all(type(v) is int for v in marg.probs)
        assert _law(marg) == _per_state_marginal(dist)


def test_tv_never_exceeds_upper_bound():
    for model in (
        ModelSpec(Family.VARIANT, 8, 3),
        ModelSpec(Family.INDEPENDENT_FLIPS, 5, 2),
    ):
        for k, dist in evolve_sequence(model, range(0, 15)):
            assert tv_distance(dist) <= tv_upper(model, k) + 1e-12


def test_distance_curve_shape():
    model = ModelSpec(Family.VARIANT, 6, 3)
    curve = distance_curve(model, [0, 2, 4])
    assert [p.k for p in curve] == [0, 2, 4]
    assert curve[0].tv > curve[1].tv > curve[2].tv
    assert all(p.l2n_sq >= 0 for p in curve)


def test_spectrum_equals_catalog_multiset():
    for model in (
        ModelSpec(Family.CLASSICAL, 5, 2),
        ModelSpec(Family.VARIANT, 6, 3),
        ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
        ModelSpec(Family.PAIRED_FLIPS, 4, 2),
    ):
        got = spectrum(model)
        want = sorted((float(x) for x in expected_spectrum(model)), reverse=True)
        assert len(got) == space_size(model)
        assert np.allclose(got, want, atol=1e-8)


def test_spectrum_signed_2_1_literal():
    indep = spectrum(ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1))
    assert np.allclose(indep, [1, 0.25, 0.25, 0.25, 0.25, 0, 0, 0], atol=1e-12)
    paired = spectrum(ModelSpec(Family.PAIRED_FLIPS, 2, 1))
    assert np.allclose(paired, [1, 0.5, 0.25, 0.25, 0.25, 0.25, 0, -0.5], atol=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_expected_spectrum_repeats_catalog(family):
    model = ModelSpec(family, 6, 3)
    want = []
    for e in catalog_entries(model):
        want.extend([float(e.eigenvalue)] * e.weight)
    got = expected_spectrum(model)
    assert np.array_equal(got, np.sort(np.array(want))[::-1])


def test_trace_identity():
    rows = trace_identity_check(ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1), 4)
    assert rows[0].kernel_trace == pytest.approx(2.0, abs=1e-12)
    for row in rows:
        assert row.rel_err < 1e-10
    rows = trace_identity_check(ModelSpec(Family.VARIANT, 6, 3), 6)
    for row in rows:
        assert row.rel_err < 1e-10
    rows = trace_identity_check(ModelSpec(Family.PAIRED_FLIPS, 3, 1), 2)
    assert [row.k for row in rows] == [1, 2]
    for row in rows:
        assert abs(row.kernel_trace - row.catalog_trace) < 1e-9


def test_spectrum_variant_4_2_literal():
    eigs = spectrum(ModelSpec(Family.VARIANT, 4, 2))
    assert np.allclose(eigs, [1, 0.5, 0.5, 0.5, 0.25, 0.25], atol=1e-12)


def test_subset_marginal_of_signed_evolution():
    for family in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS):
        signed = ModelSpec(family, 6, 3)
        plain = ModelSpec(Family.VARIANT, 6, 3)
        for k in (0, 1, 5):
            marg = subset_marginal(evolve(signed, k))
            ref = evolve(plain, k)
            assert marg.model == plain
            assert np.allclose(marg.probs, ref.probs, atol=1e-12)


def test_space_caps(monkeypatch):
    def no_table(model):
        raise AssertionError("kernel table built before the cap check")

    monkeypatch.setattr(exact, "_kernel_table", no_table)
    with pytest.raises(SpaceCapError):
        evolve(ModelSpec(Family.VARIANT, 40, 20), 1)
    with pytest.raises(SpaceCapError):
        evolve(ModelSpec(Family.VARIANT, 20, 10), 1, exact=True)  # rational cap
    with pytest.raises(SpaceCapError):
        evolve(ModelSpec(Family.VARIANT, 6, 3), 51, exact=True)  # step cap
    with pytest.raises(SpaceCapError):
        evolve(ModelSpec(Family.VARIANT, 6, 3), exact.FLOAT_STEP_CAP + 1)  # float step cap
    with pytest.raises(SpaceCapError):
        spectrum(ModelSpec(Family.VARIANT, 16, 8))  # dense cap
    err = None
    try:
        evolve(ModelSpec(Family.VARIANT, 40, 20), 1)
    except SpaceCapError as e:
        err = e
    assert err.required == space_size(ModelSpec(Family.VARIANT, 40, 20))
    assert str(err.cap) in str(err)


def test_distribution_csv_roundtrip():
    model = ModelSpec(Family.VARIANT, 4, 2)
    dist = evolve(model, 2)
    text = distribution_csv(dist)
    lines = text.strip().splitlines()
    assert lines[0] == "rank,probability"
    assert len(lines) == 1 + space_size(model)
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(parsed, dist.probs, rtol=0, atol=0)  # 17g round-trips


# -- the integer kernel table against the kernel_row oracle ---------------------


EDGE_SHAPES = [
    (Family.CLASSICAL, 2, 1),
    (Family.VARIANT, 2, 1),
    (Family.CLASSICAL, 5, 1),
    (Family.CLASSICAL, 6, 3),
    (Family.VARIANT, 7, 3),
    (Family.VARIANT, 8, 4),
] + [
    (family, n, r)
    for family in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS)
    for n, r in ((2, 1), (3, 1), (4, 2), (5, 2))
]


@pytest.mark.parametrize("family,n,r", EDGE_SHAPES)
def test_kernel_table_equals_oracle(family, n, r):
    model = ModelSpec(family, n, r)
    assert kernel_table_mismatch(model, _kernel_table(model)) is None


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    n=st.integers(min_value=2, max_value=9),
    data=st.data(),
)
def test_kernel_table_equals_oracle_property(family, n, data):
    if family.signed:
        n = min(n, 5)
    r = data.draw(st.integers(min_value=1, max_value=n // 2))
    model = ModelSpec(family, n, r)
    assert kernel_table_mismatch(model, _kernel_table(model)) is None


def test_kernel_table_check_catches_one_target_off_by_one():
    for family in Family:
        model = ModelSpec(family, 4, 2)
        counts, targets, units = _kernel_table(model)
        for pos in (0, len(targets) // 2, len(targets) - 1):
            bad = targets.copy()
            bad[pos] += 1 if bad[pos] == 0 else -1
            assert kernel_table_mismatch(model, (counts, bad, units)) is not None


def test_kernel_table_rows_above_62_balls():
    """Masks beyond 62 balls are Python ints; the table is the same kind."""
    for model in (ModelSpec(Family.VARIANT, 70, 1), ModelSpec(Family.CLASSICAL, 64, 2)):
        counts, targets, units = _kernel_table(model)
        assert targets.dtype == np.intp
        assert len(counts) == space_size(model)
        for idx in (0, 7, space_size(model) - 1):
            start = int(counts[:idx].sum())
            row = kernel_row(model, state_at(model, idx))
            assert counts[idx] == len(row.entries)
            assert targets[start : start + counts[idx]].tolist() == [
                state_index(model, t) for t, _ in row.entries
            ]
            assert units[start : start + counts[idx]].tolist() == [
                int(w * step_units(model)) for _, w in row.entries
            ]


# -- sizes that only the table makes cheap --------------------------------------


def test_float_plancherel_variant_16_8():
    """12,870 states, k up to 50: float l2 distance equals the spectral sum."""
    model = ModelSpec(Family.VARIANT, 16, 8)
    for k, dist in evolve_sequence(model, [5, 20, 50]):
        want = l2n_sq_bound(model, k)
        assert abs(exact.l2n_sq_distance(dist) - want) <= 1e-9 * want


def test_subset_marginal_paired_7_3():
    """4,480 signed states collapse onto the variant(7,3) law."""
    signed = ModelSpec(Family.PAIRED_FLIPS, 7, 3)
    plain = ModelSpec(Family.VARIANT, 7, 3)
    ks = [0, 1, 5, 20]
    for (k, d_signed), (_, d_plain) in zip(evolve_sequence(signed, ks), evolve_sequence(plain, ks)):
        marg = subset_marginal(d_signed)
        assert marg.model == plain
        assert np.abs(marg.probs - d_plain.probs).max() <= 1e-12


def test_float_weights_reuse_the_units_buffer():
    """The first next() holds no third table-length array.

    At k = 0 it builds the table and the float weights and yields the point
    mass.  A separate weights array next to targets and units would hold
    24 bytes per kernel entry; filling the weights into the units buffer
    keeps 16, plus state-length arrays and one conversion block.
    """
    model = ModelSpec(Family.PAIRED_FLIPS, 8, 4)
    gc.collect()
    tracemalloc.start()
    try:
        counts, targets, units = _kernel_table(model)
        weights = units / step_units(model)
        separate_peak = tracemalloc.get_traced_memory()[1]
        del counts, targets, units, weights
        tracemalloc.reset_peak()
        next(evolve_sequence(model, [0, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries, states = len(_kernel_table(model)[1]), space_size(model)
    assert separate_peak >= 24 * entries
    assert peak <= 16 * entries + 4 * 8 * states + 2 * 8 * exact._CONVERT_BLOCK
    assert separate_peak - peak >= 7 * entries


def test_kernel_table_row_sum_check_raises(monkeypatch):
    model = ModelSpec(Family.VARIANT, 4, 2)
    monkeypatch.setattr(exact, "step_units", lambda m: step_units(m) + 1)
    with pytest.raises(RuntimeError, match="step_units"):
        _kernel_table(model)


def test_spectrum_rejects_asymmetric_kernel(monkeypatch):
    model = ModelSpec(Family.CLASSICAL, 4, 2)
    counts, targets, units = _kernel_table(model)
    units = units.copy()
    units[0] += 1  # row 0 keeps its sum but no longer mirrors its column
    units[1] -= 1
    monkeypatch.setattr(exact, "_kernel_table", lambda m: (counts, targets, units))
    with pytest.raises(RuntimeError, match="asymmetry"):
        spectrum(model)
