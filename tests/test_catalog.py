"""Component catalog: dimensions, multiplicities, eigenvalues."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnmix import catalog
from urnmix.catalog import (
    SignedIrrep,
    UnsignedIrrep,
    catalog_entries,
    dim_two_row,
    eig_classical,
    eig_independent,
    eig_paired,
    eig_variant,
    total_weight,
    trivial_label,
)
from urnmix.models import Family, ModelSpec, SpaceCapError
from urnmix.verify import reference_catalog


def test_dim_two_row():
    # hook lengths by hand: [4] -> 1, [3,1] -> 3, [2,2] -> 2
    assert dim_two_row(4, 0) == 1
    assert dim_two_row(4, 1) == 3
    assert dim_two_row(4, 2) == 2
    assert dim_two_row(6, 3) == 5
    assert dim_two_row(14, 7) == math.comb(14, 7) - math.comb(14, 6)


def test_eigenvalue_formulas():
    assert eig_classical(4, 2, 1) == 0
    assert eig_classical(4, 2, 2) == Fraction(-1, 2)
    assert eig_classical(2, 1, 1) == -1
    assert eig_variant(4, 1) == Fraction(1, 2)
    assert eig_variant(4, 2) == Fraction(1, 4)
    assert eig_variant(100, 1) == Fraction(49, 50)
    assert eig_variant(4, 2) == eig_variant(4, 1) ** 2
    assert eig_independent(2, 1, 0) == Fraction(1, 4)
    assert eig_independent(2, 2, 0) == 1
    assert eig_paired(2, 2, 0, 0) == 1
    assert eig_paired(2, 0, 0, 0) == Fraction(1, 2)
    assert eig_paired(2, 0, 0, 1) == Fraction(-1, 2)


@given(st.integers(2, 40), st.data())
def test_variant_eigenvalues_nonnegative_and_ordered(n, data):
    i = data.draw(st.integers(0, n // 2))
    lam = eig_variant(n, i)
    assert 0 <= lam <= 1
    if i >= 1:
        assert lam <= eig_variant(n, i - 1)


@given(st.integers(2, 24), st.data())
def test_independent_eigenvalues_in_unit_interval(n, data):
    j = data.draw(st.integers(0, n))
    ell = data.draw(st.integers(0, j // 2))
    assert 0 <= eig_independent(n, j, ell) <= 1


def test_unsigned_catalog_variant_4_2():
    entries = catalog_entries(ModelSpec(Family.VARIANT, 4, 2))
    assert [(e.label.i, e.dim, e.mult) for e in entries] == [
        (0, 1, 1),
        (1, 3, 1),
        (2, 2, 1),
    ]
    assert [e.eigenvalue for e in entries] == [1, Fraction(1, 2), Fraction(1, 4)]
    assert total_weight(entries) == math.comb(4, 2)


def test_signed_catalog_independent_2_1():
    entries = catalog_entries(ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1))
    got = [(e.label.j, e.label.ell, e.label.m, e.dim, e.mult, e.eigenvalue) for e in entries]
    assert got == [
        (0, 0, 0, 1, 1, Fraction(0)),
        (0, 0, 1, 1, 1, Fraction(0)),
        (1, 0, 0, 2, 2, Fraction(1, 4)),
        (2, 0, 0, 1, 1, Fraction(1)),
        (2, 1, 0, 1, 1, Fraction(0)),
    ]
    assert total_weight(entries) == 2**2 * math.comb(2, 1)


def test_unsigned_catalog_classical_2_1():
    entries = catalog_entries(ModelSpec(Family.CLASSICAL, 2, 1))
    assert [(e.label.i, e.dim, e.eigenvalue) for e in entries] == [
        (0, 1, Fraction(1)),
        (1, 1, Fraction(-1)),
    ]


def test_signed_catalog_paired_2_1_eigenvalues():
    entries = catalog_entries(ModelSpec(Family.PAIRED_FLIPS, 2, 1))
    by_label = {(e.label.j, e.label.ell, e.label.m): e.eigenvalue for e in entries}
    assert by_label == {
        (2, 0, 0): Fraction(1),
        (1, 0, 0): Fraction(1, 4),
        (0, 0, 0): Fraction(1, 2),
        (0, 0, 1): Fraction(-1, 2),
        (2, 1, 0): Fraction(0),
    }


def test_partition_labels():
    assert UnsignedIrrep(1).partition_label(4) == "[3,1]"
    assert UnsignedIrrep(0).partition_label(4) == "[4]"
    assert SignedIrrep(1, 0, 0).partition_label(2) == "([1];[1])"
    assert SignedIrrep(0, 0, 1).partition_label(2) == "([];[1,1])"


@pytest.mark.parametrize("n", range(2, 15))
def test_dimension_identity_unsigned(n):
    for r in range(1, n // 2 + 1):
        entries = catalog_entries(ModelSpec(Family.VARIANT, n, r))
        assert total_weight(entries) == math.comb(n, r)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("family", [Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS])
def test_dimension_identity_signed(n, family):
    for r in range(1, n // 2 + 1):
        entries = catalog_entries(ModelSpec(family, n, r))
        assert total_weight(entries) == 2**n * math.comb(n, r)
        assert all(e.dim > 0 and e.mult > 0 for e in entries)


@pytest.mark.parametrize("family", list(Family))
def test_trivial_component_unique_top_eigenvalue(family):
    for n, r in [(2, 1), (4, 2), (6, 3), (7, 3)]:
        model = ModelSpec(family, n, r)
        entries = catalog_entries(model)
        top = trivial_label(model)
        ones = [e for e in entries if e.eigenvalue == 1]
        if family is Family.CLASSICAL and n == 2:
            # the two-state forced swap is periodic: -1 shows up too
            assert any(e.eigenvalue == -1 for e in entries)
        assert [e.label for e in ones] == [top]
        assert all(abs(e.eigenvalue) <= 1 for e in entries)
        nontriv = [e for e in entries if e.label != top]
        assert len(nontriv) == len(entries) - 1
        assert top not in [e.label for e in nontriv]


@settings(max_examples=40)
@given(st.integers(2, 12), st.data())
def test_catalog_sorted_and_weight_consistent(n, data):
    r = data.draw(st.integers(1, n // 2))
    family = data.draw(st.sampled_from(list(Family)))
    entries = catalog_entries(ModelSpec(family, n, r))
    keys = [
        (e.label.i,) if isinstance(e.label, UnsignedIrrep)
        else (e.label.j, e.label.ell, e.label.m)
        for e in entries
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(e.weight == e.dim * e.mult for e in entries)


@pytest.mark.parametrize("family", [Family.CLASSICAL, Family.VARIANT])
def test_unsigned_catalog_equals_reference_formulas(family):
    for n in range(2, 61):
        for r in range(1, n // 2 + 1):
            model = ModelSpec(family, n, r)
            assert catalog_entries(model) == reference_catalog(model), str(model)


@pytest.mark.parametrize("family", [Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS])
def test_signed_catalog_equals_reference_formulas(family):
    # every r up to n = 16, then the two ends and the middle up to n = 30
    for n in range(2, 31):
        rs = range(1, n // 2 + 1) if n <= 16 else sorted({1, n // 4, n // 2})
        for r in rs:
            model = ModelSpec(family, n, r)
            assert catalog_entries(model) == reference_catalog(model), str(model)


def test_catalog_large_unsigned_dims_from_recurrence():
    # the recurrence must stay exact far past the float range
    entries = catalog_entries(ModelSpec(Family.VARIANT, 3000, 1500))
    assert entries[1].dim == 2999
    assert entries[-1].dim == math.comb(3000, 1500) - math.comb(3000, 1499)
    assert total_weight(entries) == math.comb(3000, 1500)


@pytest.mark.parametrize("family", list(Family))
def test_catalog_is_capped_before_it_is_walked(family):
    """The catalog shares the spectral measure's size check, so a huge n stops at once."""
    with pytest.raises(SpaceCapError) as info:
        catalog_entries(ModelSpec(family, 4 * 10**9, 2 * 10**9))
    assert info.value.cap == catalog.MEASURE_SIZE_CAP


def test_catalog_size_counts_every_signed_component():
    # the closed-form independent measure builds at n = 1000; the catalog walks n^3/16 components
    model = ModelSpec(Family.INDEPENDENT_FLIPS, 1000, 500)
    catalog._check_measure_size(model, closed_form=True)
    with pytest.raises(SpaceCapError):
        catalog_entries(model)
