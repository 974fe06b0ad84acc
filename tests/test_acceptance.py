"""Acceptance suite: one test per release criterion.

Each criterion is a check of urnmix.verify, the same check that
`urnmix verify --level full` runs; its grids, tolerances and rational
curves are defined there.  Each test prints the check's PASS/FAIL line
(visible with pytest -rA or -s) and asserts it.  Only two assertions are
not checks of the library: criterion 1's time limit and criterion 8's
thread-count loop through the CLI.  The tests after the criteria show
that the checks catch a mutation of what they guard.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from urnmix import bounds, catalog, cli, exact, montecarlo, verify


def report(num, result):
    print(f"criterion {num}: {result.line()}")
    assert result.ok, result.detail


def test_criterion_1_dimension_identities():
    t0 = time.perf_counter()
    result = verify.dimension_identities()
    elapsed = time.perf_counter() - t0
    report(1, result)
    assert elapsed < 1.0


def test_criterion_2_spectrum_equality():
    report(2, verify.spectrum_match_grid())


@pytest.fixture(scope="module")
def plancherel():
    # criteria 3 and 4 are one check, so each rational curve is built once
    return verify.plancherel()


def test_criterion_3_plancherel_equality(plancherel):
    report(3, plancherel)


def test_criterion_4_upper_bound_lemma(plancherel):
    report(4, plancherel)


def test_criterion_5_moment_identities():
    report(5, verify.moment_identities())


def test_criterion_6_cutoff_demonstration():
    report(6, verify.cutoff_window())


def test_criterion_7_montecarlo_consistency():
    report(7, verify.montecarlo_consistency())


def test_criterion_8_determinism(capsys, tmp_path):
    # 40,000 walkers make one block that two or more threads split
    args = [
        "simulate", "--family", "paired", "--n", "50", "--r", "25",
        "--k", "40", "--walkers", "40000", "--seed", "424242",
    ]
    sums, states = set(), set()
    for threads in ("1", "4", "8"):
        path = tmp_path / f"states-{threads}.bin"
        code = cli.main(args + ["--threads", threads, "--states-out", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        sums.add(json.loads(captured.err)["output_sha256"])
        states.add(path.read_bytes())
    assert len(sums) == 1
    assert len(states) == 1
    report(8, verify.determinism())


def test_criterion_9_signed_marginal():
    report(9, verify.signed_marginal())


def test_cutoff_window_catches_shifted_bound_curve(monkeypatch):
    # the curve at k reports the bound at k - 40: the tv crossing moves to
    # 399, still inside the ratio and centre clauses, so the rational
    # confirmation has to catch it
    true_curve = bounds.bound_curve

    def shifted(model, ks):
        ks = list(ks)
        return [replace(p, k=k) for k, p in zip(ks, true_curve(model, [k - 40 for k in ks]))]

    monkeypatch.setattr(bounds, "bound_curve", shifted)
    result = verify.cutoff_window()
    assert not result.ok
    assert "1/25" in result.detail


def test_plancherel_catches_one_unit_off(monkeypatch):
    true_bound = bounds.l2n_sq_bound

    def off(model, k, exact=False, entries=None):
        value = true_bound(model, k, exact=exact, entries=entries)
        return value + Fraction(1, value.denominator) if exact and k == 7 else value

    monkeypatch.setattr(bounds, "l2n_sq_bound", off)
    result = verify.plancherel()
    assert not result.ok
    assert "k=7: exact l2 distance != spectral sum" in result.detail


def test_rational_spectral_sums_never_build_the_catalog(monkeypatch, capsys):
    # exact --rational and plancherel read the spectral measure alone
    def no_catalog(model):
        raise AssertionError("catalog_entries built for a spectral sum")

    monkeypatch.setattr(catalog, "catalog_entries", no_catalog)
    argv = ["exact", "--family", "paired", "--n", "4", "--r", "2", "--k-grid", "0:6:1", "--rational"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert verify.plancherel().ok


def test_signed_marginal_catches_perturbed_marginal(monkeypatch):
    true_marginal = exact.subset_marginal

    def perturbed(dist):
        marg = true_marginal(dist)
        marg.probs[0] += 1e-9
        return marg

    monkeypatch.setattr(exact, "subset_marginal", perturbed)
    result = verify.signed_marginal()
    assert not result.ok
    assert "marginal off by 1e-09" in result.detail


@pytest.mark.parametrize("mean_off, tv", [(True, 0.0), (False, 1.0)])
def test_montecarlo_failure_keeps_the_check_name(monkeypatch, mean_off, tv):
    # one bad summary for both runs: either the moment clause or the tv
    # clause fails, and both report the name the PASS line uses
    mean = bounds.moment_s1(100, 115) + (1.0 if mean_off else 0.0)
    bad = montecarlo.SimSummary(mean, 1e-3, tv, None, 0.0)
    monkeypatch.setattr(montecarlo, "run", lambda config, **kwargs: bad)
    result = verify.montecarlo_consistency()
    line = result.line()
    assert line.startswith("FAIL montecarlo-consistency: ")
    assert ("stderr" if mean_off else "empirical tv") in line
