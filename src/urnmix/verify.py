"""Self-check suites: quick structural checks and a full numerical audit.

Each check returns a named result; the CLI turns failures into exit code 1.
The full suite is the library's own acceptance sweep: exact spectra against
the catalog, the Plancherel identity in rational arithmetic, moment
formulas against exact evolution, signed-to-unsigned marginals, Monte Carlo
consistency, and determinism of the simulators.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bounds, catalog, chains, exact, montecarlo
from .models import Family, ModelSpec

__all__ = [
    "CheckResult",
    "VerifyReport",
    "run_quick",
    "run_full",
    "reference_catalog",
    "spectral_measure_mismatch",
    "montecarlo_replay_mismatch",
    "SPECTRUM_GRID",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self):
        out = []
        for r in self.results:
            out.append(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
        return out

    def first_failure(self):
        for r in self.results:
            if not r.ok:
                return r
        return None


# grid used by the spectrum and Plancherel audits
SPECTRUM_GRID = [
    (Family.CLASSICAL, 4, 2),
    (Family.CLASSICAL, 5, 2),
    (Family.CLASSICAL, 6, 3),
    (Family.VARIANT, 4, 2),
    (Family.VARIANT, 5, 2),
    (Family.VARIANT, 6, 3),
    (Family.INDEPENDENT_FLIPS, 2, 1),
    (Family.INDEPENDENT_FLIPS, 3, 1),
    (Family.INDEPENDENT_FLIPS, 4, 2),
    (Family.PAIRED_FLIPS, 2, 1),
    (Family.PAIRED_FLIPS, 3, 1),
    (Family.PAIRED_FLIPS, 4, 2),
]

PLANCHEREL_GRID = SPECTRUM_GRID + [
    (Family.VARIANT, 12, 6),
    (Family.INDEPENDENT_FLIPS, 6, 3),
]


def _check_dimension_identity_unsigned(n_max: int = 14) -> CheckResult:
    for n in range(2, n_max + 1):
        for r in range(1, n // 2 + 1):
            for family in (Family.CLASSICAL, Family.VARIANT):
                got = catalog.total_weight(catalog.unsigned_catalog(n, r, family))
                want = comb(n, r)
                if got != want:
                    return CheckResult(
                        "dimension-identity-unsigned",
                        False,
                        f"{family.value} n={n} r={r}: sum dim*mult = {got}, want {want}",
                    )
    return CheckResult(
        "dimension-identity-unsigned", True, f"exact for all n <= {n_max}"
    )


def _check_dimension_identity_signed(n_max: int = 10) -> CheckResult:
    for n in range(2, n_max + 1):
        for r in range(1, n // 2 + 1):
            for family in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS):
                got = catalog.total_weight(catalog.signed_catalog(n, r, family))
                want = (1 << n) * comb(n, r)
                if got != want:
                    return CheckResult(
                        "dimension-identity-signed",
                        False,
                        f"{family.value} n={n} r={r}: sum dim*mult = {got}, want {want}",
                    )
    return CheckResult("dimension-identity-signed", True, f"exact for all n <= {n_max}")


def _check_eigenvalue_sanity() -> CheckResult:
    for family, n, r in SPECTRUM_GRID:
        model = ModelSpec(family, n, r)
        entries = catalog.catalog_entries(model)
        ones = [e for e in entries if e.eigenvalue == 1]
        if len(ones) != 1 or ones[0].label != catalog.trivial_label(model):
            return CheckResult(
                "eigenvalue-sanity",
                False,
                f"{family.value} ({n},{r}): eigenvalue 1 not unique to the trivial label",
            )
        bad = [e for e in entries if abs(e.eigenvalue) > 1]
        if bad:
            return CheckResult(
                "eigenvalue-sanity",
                False,
                f"{family.value} ({n},{r}): |eigenvalue| > 1 at {bad[0].label}",
            )
    return CheckResult("eigenvalue-sanity", True, "unique top eigenvalue, all within [-1, 1]")


def _check_kernel_rows() -> CheckResult:
    """The oracle rows sum to 1 and are symmetric; the integer table equals them."""
    grid = [
        ModelSpec(Family.CLASSICAL, 4, 2),
        ModelSpec(Family.VARIANT, 4, 2),
        ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
        ModelSpec(Family.PAIRED_FLIPS, 3, 1),
    ]
    for model in grid:
        weights = {}
        counts, targets, units = [], [], []
        step = chains.step_units(model)
        states = exact.enumerate_states(model)
        for s in states:
            row = chains.kernel_row(model, s)
            if row.total() != 1:
                return CheckResult(
                    "kernel-rows", False, f"{model.family.value}: row sum {row.total()} != 1"
                )
            counts.append(len(row.entries))
            for t, w in row.entries:
                weights[(s, t)] = w
                targets.append(exact.state_index(model, t))
                units.append(w * step)
        for (s, t), w in weights.items():
            if weights.get((t, s), Fraction(0)) != w:
                return CheckResult(
                    "kernel-rows",
                    False,
                    f"{model.family.value}: kernel not symmetric at {s} -> {t}",
                )
        table = exact._kernel_table(model)
        oracle = (counts, targets, units)
        for name, got, want in zip(("counts", "targets", "units"), table, oracle):
            if got.tolist() != want:
                return CheckResult(
                    "kernel-rows",
                    False,
                    f"{model.family.value}: kernel table {name} differ from kernel_row",
                )
    return CheckResult(
        "kernel-rows",
        True,
        "kernel_row rows sum to 1 exactly, kernels symmetric; "
        f"kernel table equals kernel_row on {len(grid)} models",
    )


def reference_catalog(model: ModelSpec) -> list[tuple]:
    """The catalog by its defining formulas: (label, dim, mult, eigenvalue) rows.

    Binomials per dimension, the eig_* closed forms, and for signed
    families the multiplicity counted split by split: slow (O(n^4) signed)
    but independent of the walker behind catalog_entries and the spectral
    measure.
    """
    n, r, family = model.n, model.r, model.family
    if family is Family.CLASSICAL:
        return [((i,), catalog.dim_two_row(n, i), 1, catalog.eig_classical(n, r, i)) for i in range(r + 1)]
    if family is Family.VARIANT:
        return [((i,), catalog.dim_two_row(n, i), 1, catalog.eig_variant(n, i)) for i in range(r + 1)]
    rows = []
    for j in range(n + 1):
        for ell in range(j // 2 + 1):
            mult_by_m: dict[int, int] = {}
            for i in range(max(ell, r - (n - j)), min(r, j - ell) + 1):
                for m in range(min(r - i, (n - j) - (r - i)) + 1):
                    mult_by_m[m] = mult_by_m.get(m, 0) + 1
            for m in sorted(mult_by_m):
                if family is Family.INDEPENDENT_FLIPS:
                    lam = catalog.eig_independent(n, j, ell)
                else:
                    lam = catalog.eig_paired(n, j, ell, m)
                dim = comb(n, j) * catalog.dim_two_row(j, ell) * catalog.dim_two_row(n - j, m)
                rows.append(((j, ell, m), dim, mult_by_m[m], lam))
    return rows


def spectral_measure_mismatch(model: ModelSpec, kmax: int) -> str | None:
    """Compare the catalog and the spectral measure with reference_catalog.

    The catalog must equal it row for row; the measure must hold its
    nontrivial eigenvalues with their summed weights; and the float bound,
    read from bound_curve, must lie within 1e-12 relative of the rational
    spectral sum of the reference at every k = 0..kmax.
    """
    label = f"{model.family.value} ({model.n},{model.r})"
    want = reference_catalog(model)
    got = [(astuple(e.label), e.dim, e.mult, e.eigenvalue) for e in catalog.catalog_entries(model)]
    if got != want:
        return f"{label}: catalog differs from the reference formulas"
    trivial = astuple(catalog.trivial_label(model))
    grouped: dict[Fraction, int] = {}
    for idx, dim, mult, lam in want:
        if idx != trivial:
            grouped[lam] = grouped.get(lam, 0) + dim * mult
    measure = bounds.spectral_measure(model)
    pairs = {Fraction(num, measure.den): w for num, w in zip(measure.nums, measure.weights)}
    if pairs != grouped:
        return f"{label}: spectral measure differs from the grouped reference"
    for p in bounds.bound_curve(model, range(kmax + 1)):
        exact_sum = sum(w * lam ** (2 * p.k) for lam, w in grouped.items()) / 4
        if abs(p.l2n_sq - exact_sum) > 1e-12 * exact_sum:
            return f"{label} k={p.k}: float bound {p.l2n_sq!r} vs exact {float(exact_sum)!r}"
    return None


def _check_spectral_measure(kmax: int = 30) -> CheckResult:
    grid = [
        ModelSpec(Family.CLASSICAL, 9, 4),
        ModelSpec(Family.VARIANT, 10, 5),
        ModelSpec(Family.INDEPENDENT_FLIPS, 8, 3),
        ModelSpec(Family.PAIRED_FLIPS, 8, 4),
    ]
    for model in grid:
        bad = spectral_measure_mismatch(model, kmax)
        if bad:
            return CheckResult("spectral-measure", False, bad)
    return CheckResult(
        "spectral-measure",
        True,
        f"catalog and measure equal the reference formulas on {len(grid)} models; "
        f"float bound within 1e-12 of the rational sum, k <= {kmax}",
    )


def _mask_of(column) -> int:
    """A column of uint64 mask words, low word first, as one Python int."""
    return sum(int(word) << (64 * w) for w, word in enumerate(column))


def montecarlo_replay_mismatch(
    model: ModelSpec, k: int, seed: int, lo: int, hi: int
) -> str | None:
    """Compare the packed Monte Carlo walk with scalar chains.step replay.

    Walkers lo .. hi-1 are walked as one block; each walker's rack and
    charge words, read back as masks, must equal the state chains.step
    reaches from the same WalkerStream.
    """
    rack, signs = montecarlo._walk(model, k, seed, lo, hi)
    for j in range(hi - lo):
        state = chains.initial_state(model)
        stream = montecarlo.WalkerStream(seed, lo + j)
        for _ in range(k):
            state = chains.step(model, state, stream)
        got = (_mask_of(rack[:, j]), 0 if signs is None else _mask_of(signs[:, j]))
        if got != (state.rack1, getattr(state, "signs", 0)):
            return (
                f"{model.family.value} ({model.n},{model.r}) k={k} walker {lo + j}: "
                "packed words differ from scalar replay"
            )
    return None


def _check_montecarlo_replay(k: int = 16) -> CheckResult:
    grid = [ModelSpec(family, n, r) for family in Family for n, r in ((9, 4), (130, 61))]
    for model in grid:
        bad = montecarlo_replay_mismatch(model, k, seed=20240817, lo=5, hi=8)
        if bad:
            return CheckResult("montecarlo-replay", False, bad)
    return CheckResult(
        "montecarlo-replay",
        True,
        f"walkers 5-7 equal scalar replay for k={k} on {len(grid)} models "
        "(one and three mask words)",
    )


def _spectrum_mismatch(model: ModelSpec, tol: float = 1e-8):
    got = exact.spectrum(model)
    want = exact.expected_spectrum(model)
    if got.shape != want.shape:
        return f"{model.family.value} ({model.n},{model.r}): {got.shape[0]} eigenvalues, catalog says {want.shape[0]}"
    err = float(np.abs(got - want).max())
    if err > tol:
        return f"{model.family.value} ({model.n},{model.r}): spectrum mismatch {err:.3g} > {tol}"
    return None


def _check_spectrum(grid, name: str) -> CheckResult:
    for family, n, r in grid:
        bad = _spectrum_mismatch(ModelSpec(family, n, r))
        if bad:
            return CheckResult(name, False, bad)
    return CheckResult(name, True, f"kernel spectra match the catalog on {len(grid)} models")


def _check_plancherel_rational(kmax: int = 20) -> CheckResult:
    for family, n, r in PLANCHEREL_GRID:
        model = ModelSpec(family, n, r)
        entries = catalog.catalog_entries(model)
        points = exact.distance_curve(model, range(1, kmax + 1), exact=True)
        for p in points:
            want = bounds.l2n_sq_bound(model, p.k, exact=True, entries=entries)
            if p.l2n_sq != want:
                return CheckResult(
                    "plancherel-rational",
                    False,
                    f"{family.value} ({n},{r}) k={p.k}: exact l2 distance != spectral sum",
                )
    return CheckResult(
        "plancherel-rational",
        True,
        f"exact equality on {len(PLANCHEREL_GRID)} models, k <= {kmax}",
    )


def _check_tv_upper(kmax: int = 20) -> CheckResult:
    for family, n, r in PLANCHEREL_GRID:
        model = ModelSpec(family, n, r)
        entries = catalog.catalog_entries(model)
        points = exact.distance_curve(model, range(1, kmax + 1), exact=True)
        for p in points:
            bound = bounds.l2n_sq_bound(model, p.k, exact=True, entries=entries)
            if p.tv * p.tv > bound:
                return CheckResult(
                    "tv-upper-bound",
                    False,
                    f"{family.value} ({n},{r}) k={p.k}: tv exceeds the spectral bound",
                )
    return CheckResult("tv-upper-bound", True, "tv^2 <= spectral sum everywhere (exact)")


def _check_moments(kmax: int = 15) -> CheckResult:
    for n in (6, 8, 10):
        r = n // 2
        model = ModelSpec(Family.VARIANT, n, r)
        states = exact.enumerate_states(model)
        s1 = np.array([float(bounds.spherical_s1(n, r, s)) for s in states])
        for k, dist in exact.evolve_sequence(model, range(1, kmax + 1), exact=False):
            mean = float(np.dot(dist.probs, s1))
            want = bounds.moment_s1(n, k)
            if abs(mean - want) > 1e-10:
                return CheckResult(
                    "moment-identities",
                    False,
                    f"variant ({n},{r}) k={k}: E[s1] off by {abs(mean - want):.3g}",
                )
            mean_sq = float(np.dot(dist.probs, s1 * s1))
            var_ratio = (mean_sq - mean * mean) / (mean * mean)
            want_ratio = bounds.variance_ratio(n, r, k)
            rel = abs(var_ratio - want_ratio) / abs(want_ratio)
            if rel > 1e-8:
                return CheckResult(
                    "moment-identities",
                    False,
                    f"variant ({n},{r}) k={k}: variance ratio off by rel {rel:.3g}",
                )
    return CheckResult(
        "moment-identities", True, f"s1 mean and variance ratio match, k <= {kmax}"
    )


def _check_signed_marginal(kmax: int = 10) -> CheckResult:
    for family in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS):
        signed_model = ModelSpec(family, 6, 3)
        plain_model = ModelSpec(Family.VARIANT, 6, 3)
        signed_iter = exact.evolve_sequence(signed_model, range(kmax + 1), exact=False)
        plain_iter = exact.evolve_sequence(plain_model, range(kmax + 1), exact=False)
        for (k1, d_signed), (k2, d_plain) in zip(signed_iter, plain_iter):
            marg = exact.subset_marginal(d_signed)
            err = float(np.abs(marg.probs - d_plain.probs).max())
            if err > 1e-12:
                return CheckResult(
                    "signed-marginal",
                    False,
                    f"{family.value} (6,3) k={k1}: marginal off by {err:.3g}",
                )
    return CheckResult(
        "signed-marginal", True, f"rack marginals equal the variant law, k <= {kmax}"
    )


def _check_montecarlo() -> CheckResult:
    model = ModelSpec(Family.VARIANT, 100, 50)
    cfg = montecarlo.SimConfig(model=model, k=115, walkers=10**5, seed=20240817)
    summary = montecarlo.run(cfg)
    want = bounds.moment_s1(100, 115)
    dev = abs(summary.mean_s1 - want)
    if dev > 4 * summary.stderr_s1:
        return CheckResult(
            "montecarlo-moment",
            False,
            f"variant (100,50) k=115: mean s1 off by {dev:.3g} > 4 stderr",
        )
    small = ModelSpec(Family.VARIANT, 10, 5)
    cfg2 = montecarlo.SimConfig(model=small, k=3, walkers=10**6, seed=20240817)
    summary2 = montecarlo.run(cfg2)
    tv_exact = exact.tv_distance(exact.evolve(small, 3))
    gap = abs(summary2.empirical_tv - tv_exact)
    if gap > 0.01:
        return CheckResult(
            "montecarlo-tv",
            False,
            f"variant (10,5) k=3: empirical tv off by {gap:.3g} > 0.01",
        )
    return CheckResult(
        "montecarlo-consistency",
        True,
        f"moment within {dev / summary.stderr_s1:.2f} stderr; tv gap {gap:.4f}",
    )


def _check_determinism() -> CheckResult:
    model = ModelSpec(Family.INDEPENDENT_FLIPS, 6, 3)
    cfg = montecarlo.SimConfig(model=model, k=7, walkers=20000, seed=7)
    a = montecarlo.run(cfg, block_size=1 << 16)
    b = montecarlo.run(cfg, block_size=777)
    if (a.mean_s1, a.stderr_s1, a.empirical_tv) != (b.mean_s1, b.stderr_s1, b.empirical_tv):
        return CheckResult(
            "determinism", False, "simulation summary depends on the batching"
        )
    d1 = exact.evolve(model, 5)
    d2 = exact.evolve(model, 5)
    if not np.array_equal(d1.probs, d2.probs):
        return CheckResult("determinism", False, "exact evolution not reproducible")
    return CheckResult("determinism", True, "simulation independent of batching; evolution reproducible")


def _check_cutoff_window() -> CheckResult:
    model = ModelSpec(Family.VARIANT, 200, 100)
    n = model.n
    k_up = math.ceil(0.25 * n * (math.log(n) + 4))
    k_down = math.floor(0.25 * n * (math.log(n) - 4))
    up = bounds.tv_upper(model, k_up)
    down = bounds.leading_l2_term(model, k_down)
    if up >= 0.2:
        return CheckResult(
            "cutoff-window", False, f"tv bound {up:.3g} at k={k_up} not below 0.2"
        )
    if down <= 1:
        return CheckResult(
            "cutoff-window", False, f"leading l2 term {down:.3g} at k={k_down} not above 1"
        )
    # the window between the first step the tv bound certifies mixed and
    # the last step the leading l2 term certifies unmixed; both exist, as
    # the checks above hold at the ends of ks
    ks = range(k_down, k_up + 1)
    k_mixed = next(p.k for p in bounds.bound_curve(model, ks) if p.tv_upper < 0.2)
    k_unmixed = max(k for k in ks if bounds.leading_l2_term(model, k) > 1)
    ratio = k_mixed / k_unmixed
    if ratio >= 1.6:
        return CheckResult(
            "cutoff-window",
            False,
            f"tv bound below 0.2 only at k={k_mixed}, l2 term above 1 until "
            f"k={k_unmixed}: ratio {ratio:.2f} not below 1.6",
        )
    centre = n * math.log(n) / 4
    if not k_unmixed <= centre <= k_mixed:
        return CheckResult(
            "cutoff-window",
            False,
            f"bounds cross at k={k_unmixed} and k={k_mixed}, "
            f"not around n log n / 4 = {centre:.1f}",
        )
    return CheckResult(
        "cutoff-window",
        True,
        f"mixed by k={k_up} (tv<= {up:.3g}), unmixed at k={k_down} "
        f"(l2 term {down:.3g}); bounds cross at k={k_unmixed} and k={k_mixed}, "
        f"ratio {ratio:.2f}",
    )


def run_quick() -> VerifyReport:
    """Structural checks: exact identities, kernel sanity, small spectra, walker replay."""
    results = (
        _check_dimension_identity_unsigned(),
        _check_dimension_identity_signed(),
        _check_eigenvalue_sanity(),
        _check_kernel_rows(),
        _check_spectrum(
            [
                (Family.CLASSICAL, 4, 2),
                (Family.VARIANT, 4, 2),
                (Family.INDEPENDENT_FLIPS, 2, 1),
                (Family.PAIRED_FLIPS, 2, 1),
            ],
            "spectrum-match",
        ),
        _check_spectral_measure(),
        _check_montecarlo_replay(),
    )
    return VerifyReport(results)


def run_full() -> VerifyReport:
    """Quick checks plus the full numerical audit (about a minute)."""
    results = list(run_quick().results)
    results.append(_check_spectrum(SPECTRUM_GRID, "spectrum-match-grid"))
    results.append(_check_plancherel_rational())
    results.append(_check_tv_upper())
    results.append(_check_moments())
    results.append(_check_signed_marginal())
    results.append(_check_montecarlo())
    results.append(_check_determinism())
    results.append(_check_cutoff_window())
    return VerifyReport(tuple(results))
