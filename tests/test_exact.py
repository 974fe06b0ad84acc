"""Exact distribution evolution, distances, spectra, identities."""

import gc
import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnmix import exact
from urnmix.bounds import l2n_sq_bound, tv_upper
from urnmix.catalog import catalog_entries
from urnmix.chains import initial_state, kernel_row, step, step_units
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
from urnmix.models import STEP_CAP, Family, ModelSpec, checked_space_size, step_count
from urnmix.montecarlo import WalkerStream
from urnmix.verify import evolution_mismatch, kernel_table_mismatch


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


INDEXED_MODELS = [
    ModelSpec(Family.CLASSICAL, 6, 3),
    ModelSpec(Family.VARIANT, 6, 2),
    ModelSpec(Family.INDEPENDENT_FLIPS, 4, 1),
    ModelSpec(Family.PAIRED_FLIPS, 4, 2),
]


@pytest.mark.parametrize("model", INDEXED_MODELS, ids=str)
def test_state_indexing_roundtrip(model):
    states = enumerate_states(model)
    assert len(states) == space_size(model)
    assert len(set(states)) == len(states)
    for i, s in enumerate(states):
        assert state_index(model, s) == i
        assert state_at(model, i) == s
        assert s.signs >> model.charge_bits == 0
    # within each charge word the subsets come out in increasing mask order
    masks = [s.rack1 for s in states[: math.comb(model.n, model.r)]]
    assert masks == sorted(masks)


@pytest.mark.parametrize("model", INDEXED_MODELS, ids=str)
def test_state_at_rejects_out_of_range_indices(model):
    size = space_size(model)
    for index in (-1, size, size + 7):
        with pytest.raises(ValueError):
            state_at(model, index)


def test_state_at_takes_numpy_ints_and_refuses_floats_and_bools():
    """A numpy index gives the same state with Python-int fields, which chains.step can take on."""
    model = ModelSpec(Family.PAIRED_FLIPS, 64, 1)
    got = state_at(model, np.int64(323))
    assert got == state_at(model, 323) and type(got.rack1) is int and type(got.signs) is int
    rng = WalkerStream(5, 0)
    for _ in range(200):
        got = step(model, got, rng)
    for index in (3.0, True):
        with pytest.raises(ValueError, match="state index"):
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


@settings(max_examples=30)
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

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_kernel_table", no_table)
        with pytest.raises(SpaceCapError):
            evolve(ModelSpec(Family.VARIANT, 20, 10), 1, exact=True)  # rational cap
        with pytest.raises(SpaceCapError):
            evolve(ModelSpec(Family.VARIANT, 6, 3), 51, exact=True)  # step cap
        with pytest.raises(SpaceCapError) as info:
            evolve(ModelSpec(Family.VARIANT, 6, 3), STEP_CAP + 1)  # float step cap
        assert info.value.cap == STEP_CAP
        with pytest.raises(SpaceCapError):
            spectrum(ModelSpec(Family.VARIANT, 16, 8))  # dense cap
    # float evolution's only size gate is the table's byte cap, checked before _ball_bits
    monkeypatch.setattr(exact, "_ball_bits", _no_ball_bits)
    model = ModelSpec(Family.VARIANT, 40, 20)
    with pytest.raises(SpaceCapError) as info:
        evolve(model, 1)
    err = info.value
    assert (err.required, err.cap, err.at_least) == (24 * space_size(model) * 401, exact.TABLE_BYTE_CAP, False)
    assert str(err.cap) in str(err)


def test_no_table_past_a_million_states_fits_the_byte_cap(monkeypatch):
    """The byte cap refuses every model past 10^6 states, so no state cap is needed beside it.

    Each refusal is exact (not at_least), so its required is _table_bytes.
    """
    monkeypatch.setattr(exact, "_ball_bits", _no_ball_bits)
    for family in Family:
        for n in range(2, 21 if family.signed else 41):
            for r in range(1, n // 2 + 1):
                model = ModelSpec(family, n, r)
                if space_size(model) > 10**6:
                    with pytest.raises(SpaceCapError) as info:
                        _kernel_table(model)
                    err = info.value
                    assert not err.at_least and err.required > exact.TABLE_BYTE_CAP == err.cap, model


def test_table_byte_cap_edge(monkeypatch):
    """A table of exactly TABLE_BYTE_CAP estimated bytes builds; one byte less raises."""
    for model in (ModelSpec(Family.VARIANT, 6, 3), ModelSpec(Family.PAIRED_FLIPS, 4, 2),
                  ModelSpec(Family.VARIANT, 70, 1)):
        monkeypatch.setattr(exact, "TABLE_BYTE_CAP", 0)
        with pytest.raises(SpaceCapError) as info:
            _kernel_table(model)
        need = info.value.required
        monkeypatch.setattr(exact, "TABLE_BYTE_CAP", need)
        entries = _kernel_table(model)[0].size
        # 24 bytes an entry, plus a Python int per cross entry past 62 balls
        assert need == 24 * entries if model.n <= 62 else need > 24 * entries
        monkeypatch.setattr(exact, "TABLE_BYTE_CAP", need - 1)
        with pytest.raises(SpaceCapError) as info:
            _kernel_table(model)
        assert (info.value.required, info.value.cap) == (need, need - 1)


class _Built(Exception):
    pass


def _no_ball_bits(n):
    raise _Built


@pytest.mark.parametrize(
    "family, n, r, k, rational",
    [("variant", 3000, 1, 1, False), ("variant", 10**4, 1, 1, True), ("independent", 11, 5, 2, False),
     ("classical", 25, 8, 1, False)],
)
def test_table_byte_cap_stops_before_allocating(monkeypatch, family, n, r, k, rational):
    """Tables past the byte cap, stopped before _ball_bits."""
    monkeypatch.setattr(exact, "_ball_bits", _no_ball_bits)
    model = ModelSpec(Family(family), n, r)
    with pytest.raises(SpaceCapError, match="kernel table") as info:
        evolve(model, k, exact=rational)
    assert info.value.cap == exact.TABLE_BYTE_CAP


@pytest.mark.parametrize("family, n, r", [("independent", 10, 5), ("paired", 10, 5), ("paired", 9, 4)])
def test_largest_signed_tables_pass_the_byte_cap(monkeypatch, family, n, r):
    """independent(10,5) measured 810 MB peak for one float step; it and paired(10,5) still build."""
    monkeypatch.setattr(exact, "_ball_bits", _no_ball_bits)
    with pytest.raises(_Built):
        evolve(ModelSpec(Family(family), n, r), 1)


def test_checked_space_size_is_space_size_within_the_cap():
    for family in Family:
        for n in range(2, 30):
            for r in range(1, n // 2 + 1):
                model = ModelSpec(family, n, r)
                size = space_size(model)
                for cap in (1, 100, 10**4, 10**6, size):
                    if size <= cap:
                        assert checked_space_size(model, cap, "states") == size
                        continue
                    with pytest.raises(SpaceCapError) as info:
                        checked_space_size(model, cap, "states")
                    assert (info.value.required, info.value.at_least) == (size, False)


@pytest.mark.parametrize("family", list(Family))
def test_space_caps_take_no_time_at_huge_n(family):
    """comb(4e9, 2e9) alone would run for minutes; the caps stop before forming it."""
    model = ModelSpec(family, 4 * 10**9, 2 * 10**9)
    t0 = time.perf_counter()
    for exact_mode in (False, True):
        with pytest.raises(SpaceCapError) as info:
            evolve(model, 1, exact=exact_mode)
        assert info.value.at_least and info.value.required > info.value.cap
        assert "needs at least" in str(info.value)
        if not exact_mode:
            assert info.value.cap == exact.TABLE_BYTE_CAP
    assert time.perf_counter() - t0 < 0.5


def test_space_cap_error_keeps_huge_figures_exact_and_prints_them_short():
    # str() of a 5,001-digit int raises ValueError past Python's 4,300-digit limit
    k = 10**5000
    for call, required in ((lambda: evolve(ModelSpec(Family.VARIANT, 4, 2), k), k),
                           (lambda: l2n_sq_bound(ModelSpec(Family.VARIANT, 10, 5), k, exact=True), 2 * k * 7)):
        with pytest.raises(SpaceCapError) as info:
            call()
        assert info.value.required == required
        message = str(info.value)
        assert "needs about " in message and f"cap is {info.value.cap}" in message
        assert len(message) < 100
    assert "needs about 1.00e25 " in str(SpaceCapError(99951 * 10**20, 1, "x"))  # 9.9951e24 rounds up


def test_negative_step_counts_are_rejected():
    model = ModelSpec(Family.VARIANT, 6, 3)
    for call in (lambda: step_count(-1), lambda: evolve(model, -1), lambda: evolve(model, -1, exact=True),
                 lambda: list(evolve_sequence(model, [2, -1])), lambda: distance_curve(model, [-3])):
        with pytest.raises(ValueError, match="k >= 0"):
            call()


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


@settings(max_examples=30)
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
        targets, units = _kernel_table(model)
        for pos in (0, targets.size // 2, targets.size - 1):
            bad = targets.copy()
            bad.flat[pos] += 1 if bad.flat[pos] == 0 else -1
            assert kernel_table_mismatch(model, (bad, units)) is not None


def _assert_rows_match_kernel_row(model, table, sources):
    """Rows at the given source indices hold kernel_row's (target, units) pairs, in any order."""
    targets, units = table
    assert targets.dtype == np.intp
    assert targets.shape == (space_size(model), len(units))
    for idx in sources:
        row = kernel_row(model, state_at(model, idx))
        assert len(units) == len(row.entries)
        assert set(zip(targets[idx].tolist(), units.tolist())) == {
            (state_index(model, t), int(w * step_units(model))) for t, w in row.entries
        }


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n, r", [(2, 1), (3, 1), (5, 2), (6, 3), (7, 2)])
def test_kernel_table_columns_follow_the_move_classes(family, n, r):
    """One column per move class, with the units of the _kernel_table docstring."""
    model = ModelSpec(family, n, r)
    swaps, same = r * (n - r), math.comb(r, 2) + math.comb(n - r, 2)
    if family is Family.CLASSICAL:
        want = [1] * swaps
    elif family is Family.VARIANT:
        want = [n * n - 2 * swaps] + [2] * swaps
    elif family is Family.INDEPENDENT_FLIPS:
        want = [2 * n + 2 * same] + [2 * r] * r + [2 * (n - r)] * (n - r) + [2] * (same + 4 * swaps)
    else:
        want = [n + 2 * same] + [1] * n + [2] * (same + 2 * swaps)
    targets, units = _kernel_table(model)
    assert targets.shape == (space_size(model), len(want))
    assert sorted(units.tolist()) == sorted(want)
    assert sum(want) == step_units(model)


def test_kernel_table_rows_above_62_balls():
    """Masks beyond 62 balls are Python ints; the table is the same kind."""
    for model in (ModelSpec(Family.VARIANT, 70, 1), ModelSpec(Family.CLASSICAL, 64, 2)):
        size = space_size(model)
        _assert_rows_match_kernel_row(model, _kernel_table(model), (0, 7, size - 1))


@pytest.mark.parametrize("family", [Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS])
def test_signed_rows_at_far_charge_words(family):
    """Rows laid out by the charge-word XOR equal kernel_row at words 0, 2^n - 1 and between.

    At 64,512 states the full oracle is too slow, so rows are sampled at the
    first, a middle and the last charge word, at both ends of the subsets.
    """
    model = ModelSpec(family, 9, 4)
    base = math.comb(9, 4)
    sources = [signs * base + rank for signs in (0, 0b101100110, (1 << 9) - 1) for rank in (0, 57, base - 1)]
    _assert_rows_match_kernel_row(model, _kernel_table(model), sources)


# sha256 of evolve(model, k).probs.tobytes(), recorded when a step scattered
# the law over the table with bincount and the table still sorted its rows.
# The gather step sums each state's contributions in ascending source order,
# which is bincount's order, and a row reaches each target once, so neither
# the form of the step nor the layout of the columns in a row changes a bit.
FLOAT_LAW_DIGESTS = {
    ("classical", 8, 4, 1): "70b762e46a3b99a625ba576ce3175d2db498cd3d6069f4d5ec214af0c17860c3",
    ("classical", 8, 4, 7): "f1d8bb03734fe3d74ac77559010761f7633074fb059ec75fb1895bf10a79e857",
    ("classical", 8, 4, 40): "0653a315ff9308f3808350b88d3d6b454eed2598ab4353da244576506b0e8884",
    ("variant", 8, 4, 1): "5acd90e214b91528b91e4c72f2dd624d1b577efb5375c1b11905080d306bac2d",
    ("variant", 8, 4, 7): "3bbf8ce5ef2404b2ba826e4a99bc62598bd1031dcbbc109a6a5e963500c339d3",
    ("variant", 8, 4, 40): "e041777931224d7d42c5d094902dc498bd2ef8c62597d4b3288c73ba7dcce6d9",
    ("independent", 6, 3, 1): "b4f5e90c3f64ab7974d93a89d16250b0548ed5c316863855fe002957fd17f52e",
    ("independent", 6, 3, 7): "d8e431f274ab12a209e17ec2a475d8685b5aab6ee506255e60a97961b47d1668",
    ("independent", 6, 3, 40): "1d8c5da686cad99a261402cfdd3117b4f886996123911ad2cd834198d1ba18fa",
    ("paired", 6, 3, 1): "d335113da8c82e85e039bc9689e45794128faa57a836bc1fe61c295eb5927596",
    ("paired", 6, 3, 7): "dd896bcd0efa325cb80d371343e8b97c4a764c7e5aa42cbeea71e363d051b842",
    ("paired", 6, 3, 40): "014f12e7571be2b4b3cc540f873971875597e57677d7d4fc923383387a36bd72",
}


@pytest.mark.parametrize("family, n, r, k", sorted(FLOAT_LAW_DIGESTS))
def test_float_laws_keep_their_bytes(family, n, r, k):
    probs = evolve(ModelSpec(Family(family), n, r), k).probs
    assert hashlib.sha256(probs.tobytes()).hexdigest() == FLOAT_LAW_DIGESTS[family, n, r, k]


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


def test_float_evolution_holds_16_bytes_per_entry():
    """Neither the build nor a step holds a third table-length array.

    The first next(), at k = 0, builds the table and decodes it into the
    gather index and yields the point mass: table and index take 16 bytes
    per kernel entry, plus state-length arrays.  The second takes one step,
    which holds the index and the gathered products.
    """
    model = ModelSpec(Family.PAIRED_FLIPS, 8, 4)
    gc.collect()
    tracemalloc.start()
    try:
        laws = evolve_sequence(model, [0, 1])
        next(laws)
        next(laws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries, states = _kernel_table(model)[0].size, space_size(model)
    assert peak <= 16 * entries + 4 * 8 * states


def test_kernel_table_row_sum_check_raises(monkeypatch):
    model = ModelSpec(Family.VARIANT, 4, 2)
    monkeypatch.setattr(exact, "step_units", lambda m: step_units(m) + 1)
    with pytest.raises(RuntimeError, match="step_units"):
        _kernel_table(model)


def test_spectrum_rejects_asymmetric_kernel(monkeypatch):
    model = ModelSpec(Family.CLASSICAL, 4, 2)
    targets, units = _kernel_table(model)
    targets = targets.copy()
    targets[0, 0] = 0  # row 0 keeps its sum but no longer mirrors its column
    monkeypatch.setattr(exact, "_kernel_table", lambda m: (targets, units))
    with pytest.raises(RuntimeError, match="asymmetry"):
        spectrum(model)


def test_evolution_rejects_a_row_that_repeats_a_target(monkeypatch):
    """The gather needs each source once per row; a repeat raises, not a wrong law."""
    model = ModelSpec(Family.CLASSICAL, 4, 2)
    targets, units = _kernel_table(model)
    targets[3, 1] = targets[3, 0]
    monkeypatch.setattr(exact, "_kernel_table", lambda m: (targets.copy(), units))
    with pytest.raises(RuntimeError, match="repeats a target"):
        evolve(model, 1)


@pytest.mark.parametrize(
    "family, n, r",
    [("classical", 8, 4), ("classical", 12, 6), ("variant", 8, 4), ("variant", 14, 7),
     ("independent", 4, 2), ("independent", 6, 3), ("paired", 4, 2), ("paired", 6, 3)],
)
def test_evolution_equals_scatter_over_the_table(family, n, r):
    """Float laws to the byte and rational laws exactly, against bincount and np.add.at."""
    assert evolution_mismatch(ModelSpec(Family(family), n, r), (0, 1, 2, 7, 40)) is None
