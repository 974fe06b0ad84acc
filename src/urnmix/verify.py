"""The catalogue of checks behind `urnmix verify` and the acceptance tests.

Each check is a named function of no arguments that returns a CheckResult;
its grid sizes and step counts are constants in its body.  `urnmix verify`
calls every check of QUICK or FULL in order, prints each result's line()
and turns a failure into exit code 1, and tests/test_acceptance.py asserts
the same checks one release criterion at a time.  QUICK holds the
structural checks; FULL adds the numerical audit: exact evolution against
a scatter over the kernel table, exact spectra against the catalog, the
Plancherel identity in rational arithmetic, moment formulas against exact
evolution, signed-to-unsigned marginals, Monte Carlo consistency,
determinism of the simulators and the cutoff window at n = 200.  Every
grid, tolerance and rational curve of those criteria is defined here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bounds, catalog, chains, exact, montecarlo
from .exact import _label
from .models import Family, ModelSpec, space_size

__all__ = [
    "CheckResult",
    "CheckFailed",
    "Check",
    "QUICK",
    "FULL",
    "reference_catalog",
    "kernel_table_mismatch",
    "evolution_mismatch",
    "spectral_measure_mismatch",
    "montecarlo_replay_mismatch",
    "SPECTRUM_GRID",
    "PLANCHEREL_GRID",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


class CheckFailed(Exception):
    """Raised by a check body; its message is the FAIL detail."""


@dataclass(frozen=True)
class Check:
    """A named check: the body returns the PASS detail or raises CheckFailed.

    The name is given once, so a check reports the same name whether it
    passes or fails.
    """

    name: str
    body: Callable[[], str]

    def __call__(self) -> CheckResult:
        try:
            return CheckResult(self.name, True, self.body())
        except CheckFailed as exc:
            return CheckResult(self.name, False, str(exc))


def _check(name: str):
    return lambda body: Check(name, body)


# one model per family, small enough for a dense spectrum in the quick level
SMALL_GRID = [
    ModelSpec(Family.CLASSICAL, 4, 2),
    ModelSpec(Family.VARIANT, 4, 2),
    ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1),
    ModelSpec(Family.PAIRED_FLIPS, 2, 1),
]

# signed n = 5, r = 2: same-rack blocks of unequal size, C(2,2) = 1 and C(3,2) = 3
KERNEL_ROW_GRID = SMALL_GRID[:2] + [
    ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
    ModelSpec(Family.PAIRED_FLIPS, 3, 1),
    ModelSpec(Family.INDEPENDENT_FLIPS, 5, 2),
    ModelSpec(Family.PAIRED_FLIPS, 5, 2),
]

SPECTRAL_MEASURE_GRID = [
    ModelSpec(Family.CLASSICAL, 9, 4),
    ModelSpec(Family.VARIANT, 10, 5),
    ModelSpec(Family.INDEPENDENT_FLIPS, 8, 3),
    # odd n, r < n/2: the split bounds ilo and ihi of the closed-form
    # independent measure each clip for some (j, ell), and both bounds of
    # the paired measure's mult grid for some (j, ell, m)
    ModelSpec(Family.INDEPENDENT_FLIPS, 13, 5),
    ModelSpec(Family.PAIRED_FLIPS, 8, 4),
    ModelSpec(Family.PAIRED_FLIPS, 13, 5),
]

# one and three mask words per walker; at (64, 32) every bound is a power of
# two, so every family draws by shift there and by multiply at the others
REPLAY_GRID = [ModelSpec(family, n, r) for family in Family for n, r in ((9, 4), (64, 32), (130, 61))]

SPECTRUM_GRID = [
    ModelSpec(Family.CLASSICAL, 4, 2),
    ModelSpec(Family.CLASSICAL, 5, 2),
    ModelSpec(Family.CLASSICAL, 6, 3),
    ModelSpec(Family.VARIANT, 4, 2),
    ModelSpec(Family.VARIANT, 5, 2),
    ModelSpec(Family.VARIANT, 6, 3),
    ModelSpec(Family.INDEPENDENT_FLIPS, 2, 1),
    ModelSpec(Family.INDEPENDENT_FLIPS, 3, 1),
    ModelSpec(Family.INDEPENDENT_FLIPS, 4, 2),
    ModelSpec(Family.PAIRED_FLIPS, 2, 1),
    ModelSpec(Family.PAIRED_FLIPS, 3, 1),
    ModelSpec(Family.PAIRED_FLIPS, 4, 2),
]

PLANCHEREL_GRID = SPECTRUM_GRID + [
    ModelSpec(Family.VARIANT, 12, 6),
    ModelSpec(Family.INDEPENDENT_FLIPS, 6, 3),
]


@_check("dimension-identities")
def dimension_identities() -> str:
    """Criterion 1: sum of dim * mult is the state count, C(n, r) << charge_bits."""
    unsigned_n_max, signed_n_max = 14, 10
    for n in range(2, unsigned_n_max + 1):
        for r in range(1, n // 2 + 1):
            for family in Family:
                if family.signed and n > signed_n_max:
                    continue
                model = ModelSpec(family, n, r)
                got = catalog.total_weight(catalog.catalog_entries(model))
                want = comb(n, r) << model.charge_bits
                if got != want:
                    raise CheckFailed(
                        f"{family.value} n={n} r={r}: sum dim*mult = {got}, want {want}"
                    )
    return f"exact for n <= {unsigned_n_max} unsigned, n <= {signed_n_max} signed"


@_check("eigenvalue-sanity")
def eigenvalue_sanity() -> str:
    for model in SPECTRUM_GRID:
        entries = catalog.catalog_entries(model)
        ones = [e for e in entries if e.eigenvalue == 1]
        if len(ones) != 1 or ones[0].label != catalog.trivial_label(model):
            raise CheckFailed(f"{_label(model)}: eigenvalue 1 not unique to the trivial label")
        bad = [e for e in entries if abs(e.eigenvalue) > 1]
        if bad:
            raise CheckFailed(f"{_label(model)}: |eigenvalue| > 1 at {bad[0].label}")
    return "unique top eigenvalue, all within [-1, 1]"


def kernel_table_mismatch(model: ModelSpec, table) -> str | None:
    """Compare an integer kernel table (targets, units) with kernel_row.

    kernel_row counts the stepper behind chains.step over all its draws, so
    this compares the sampler itself with the table.  Targets must be intp,
    one row per state and one column per unit; each row must hold
    kernel_row's (target, weight) pairs, in any order, as (index, units)
    integers: weight w is w.numerator * (step_units // w.denominator)
    units, and a denominator that does not divide step_units fails.  The
    table must be symmetric with every row summing to step_units, so
    kernel_row's rows sum to 1 exactly.
    """
    label = _label(model)
    targets, units = table
    if targets.dtype != np.intp:
        return f"{label}: kernel table targets are {targets.dtype}, not intp"
    step = chains.step_units(model)
    n_states = space_size(model)
    if targets.shape != (n_states, len(units)):
        return f"{label}: kernel table shape {targets.shape}, want {(n_states, len(units))}"
    columns = units.tolist()
    # one kernel_row at a time; its targets are distinct, so equal sets of
    # equal length are equal rows
    for source, (state, got) in enumerate(zip(exact.enumerate_states(model), targets)):
        row = chains.kernel_row(model, state).entries
        if len(row) != len(columns):
            return f"{label}: kernel table row length {len(columns)}, kernel_row {len(row)}"
        want = set()
        for t, w in row:
            scale, rem = divmod(step, w.denominator)
            if rem:
                return f"{label}: kernel_row weight {w} is not in units of 1/{step}"
            want.add((exact.state_index(model, t), w.numerator * scale))
        if set(zip(got.tolist(), columns)) != want:
            return f"{label}: kernel table row {source} differs from kernel_row"
    mat = np.zeros((n_states, n_states), dtype=np.int64)
    mat[np.arange(n_states)[:, None], targets] = units
    if not np.array_equal(mat, mat.T):
        return f"{label}: kernel not symmetric"
    if not np.all(mat.sum(axis=1) == step):
        return f"{label}: kernel rows do not sum to step_units"
    return None


@_check("kernel-rows")
def kernel_rows() -> str:
    """The sampler's exact rows equal the integer table, sum to 1 and are symmetric."""
    for model in KERNEL_ROW_GRID:
        bad = kernel_table_mismatch(model, exact._kernel_table(model))
        if bad:
            raise CheckFailed(bad)
    return (
        "kernel_row rows sum to 1 exactly, kernels symmetric; "
        f"kernel table equals kernel_row on {len(KERNEL_ROW_GRID)} models"
    )


def evolution_mismatch(model: ModelSpec, ks) -> str | None:
    """Compare evolve_sequence with a scatter over the kernel table, in both modes.

    The scatter repeats the law over the table rows, multiplies by the
    column weights tiled to the table's length and adds each product into
    its target: np.bincount for a float law, np.add.at into Python ints for
    an exact one.  bincount adds each target's contributions in source
    order, as the gather step does, so float laws must agree to the byte;
    exact laws must have equal numerators and den.
    """
    targets, units = exact._kernel_table(model)
    n_states, width = targets.shape
    targets = targets.ravel()
    step = chains.step_units(model)
    start = exact.state_index(model, chains.initial_state(model))
    for rational in (False, True):
        weights = np.tile(units.astype(object) if rational else units / step, n_states)
        probs = np.zeros(n_states, dtype=weights.dtype)
        probs[start] = 1
        den, step_no = (1 if rational else None), 0
        for k, dist in exact.evolve_sequence(model, ks, exact=rational):
            while step_no < k:
                contrib = np.repeat(probs, width) * weights
                if rational:
                    probs = np.zeros(n_states, dtype=object)
                    np.add.at(probs, targets, contrib)
                    den *= step
                else:
                    probs = np.bincount(targets, weights=contrib, minlength=n_states)
                step_no += 1
            if rational:
                same = np.array_equal(dist.probs, probs)
            else:
                same = dist.probs.dtype == probs.dtype and dist.probs.tobytes() == probs.tobytes()
            if not same or dist.den != den:
                mode = "rational" if rational else "float"
                return f"{_label(model)}: {mode} law at k={k} differs from the scatter over the kernel table"
    return None


@_check("evolution-scatter")
def evolution_scatter() -> str:
    """The gather step of evolve_sequence equals a scatter over the table, step by step."""
    for model in KERNEL_ROW_GRID:
        bad = evolution_mismatch(model, range(21))
        if bad:
            raise CheckFailed(bad)
    return (
        "float laws equal to the byte, rational numerators and den equal, to a scatter "
        f"over the kernel table at k = 0..20 on {len(KERNEL_ROW_GRID)} models"
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
    nontrivial eigenvalues with their summed weights, as many as the term
    count behind EXACT_SUM_TOTAL_CAP; and the float bound, read from
    bound_curve, must lie within 1e-12 relative of the rational spectral
    sum of the reference at every k = 0..kmax.
    """
    label = _label(model)
    want = reference_catalog(model)
    if catalog.catalog_entries(model) != want:
        return f"{label}: catalog differs from the reference formulas"
    trivial = catalog.trivial_label(model)
    grouped: dict[Fraction, int] = {}
    for idx, dim, mult, lam in want:
        if idx != trivial:
            grouped[lam] = grouped.get(lam, 0) + dim * mult
    measure = bounds.spectral_measure(model)
    pairs = {Fraction(num, measure.den): w for num, w in zip(measure.nums, measure.weights)}
    if pairs != grouped:
        return f"{label}: spectral measure differs from the grouped reference"
    terms = bounds._distinct_eigenvalues(model)
    if terms != len(measure.nums):
        return f"{label}: {terms} exact-sum terms counted for {len(measure.nums)} eigenvalues"
    for p in bounds.bound_curve(model, range(kmax + 1)):
        exact_sum = sum(w * lam ** (2 * p.k) for lam, w in grouped.items()) / 4
        if abs(p.l2n_sq - exact_sum) > 1e-12 * exact_sum:
            return f"{label} k={p.k}: float bound {p.l2n_sq!r} vs exact {float(exact_sum)!r}"
    return None


@_check("spectral-measure")
def spectral_measure() -> str:
    kmax = 30
    for model in SPECTRAL_MEASURE_GRID:
        bad = spectral_measure_mismatch(model, kmax)
        if bad:
            raise CheckFailed(bad)
    terms = sum(bounds._distinct_eigenvalues(model) for model in SPECTRAL_MEASURE_GRID)
    return (
        f"catalog, measure and term count ({terms} in all) equal the reference on "
        f"{len(SPECTRAL_MEASURE_GRID)} models; float bound within 1e-12 of the rational sum, k <= {kmax}"
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
        got = chains.UrnState(_mask_of(rack[:, j]), 0 if signs is None else _mask_of(signs[:, j]))
        if got != state:
            return f"{_label(model)} k={k} walker {lo + j}: packed words differ from scalar replay"
    return None


@_check("montecarlo-replay")
def montecarlo_replay() -> str:
    k = 16
    for model in REPLAY_GRID:
        bad = montecarlo_replay_mismatch(model, k, seed=20240817, lo=5, hi=8)
        if bad:
            raise CheckFailed(bad)
    return (
        f"walkers 5-7 equal scalar replay for k={k} on {len(REPLAY_GRID)} models "
        "(one and three mask words, draws by multiply and by shift)"
    )


def _spectrum_detail(grid) -> str:
    worst = 0.0
    for model in grid:
        got = exact.spectrum(model)
        want = exact.expected_spectrum(model)
        if got.shape != want.shape:
            raise CheckFailed(
                f"{_label(model)}: {got.shape[0]} eigenvalues, catalog says {want.shape[0]}"
            )
        err = float(np.abs(got - want).max())
        if not err < 1e-8:
            raise CheckFailed(f"{_label(model)}: spectrum mismatch {err:.3g}, not below 1e-8")
        worst = max(worst, err)
    return f"kernel spectra match the catalog on {len(grid)} models, worst gap {worst:.2e}"


spectrum_match = Check("spectrum-match", lambda: _spectrum_detail(SMALL_GRID))

# criterion 2
spectrum_match_grid = Check("spectrum-match-grid", lambda: _spectrum_detail(SPECTRUM_GRID))


@_check("plancherel")
def plancherel() -> str:
    """Criteria 3 and 4, walking one rational and one float curve per model.

    The exact l2 distance equals the rational spectral sum, tv^2 is at most
    that sum, and the float l2 distance is within 1e-12 of it, and within
    1e-9 relative where the sum is at least 1e-12 (below that, float64
    cancellation dominates a quantity that is itself below measurement).
    """
    kmax = 20
    ks = range(1, kmax + 1)
    worst = 0.0
    for model in PLANCHEREL_GRID:
        floats = exact.distance_curve(model, ks)
        for p, f in zip(exact.distance_curve(model, ks, exact=True), floats):
            at = f"{_label(model)} k={p.k}"
            bound = bounds.l2n_sq_bound(model, p.k, exact=True)
            if p.l2n_sq != bound:
                raise CheckFailed(f"{at}: exact l2 distance != spectral sum")
            if p.tv * p.tv > bound:
                raise CheckFailed(f"{at}: tv^2 exceeds the spectral sum")
            want = float(bound)
            gap = abs(f.l2n_sq - want)
            rel = gap / want if want >= 1e-12 else 0.0
            if not (gap < 1e-12 and rel <= 1e-9):
                raise CheckFailed(f"{at}: float l2 distance off by {gap:.3g} (rel {rel:.3g})")
            worst = max(worst, rel)
    return (
        f"exact l2 = spectral sum and tv^2 <= it on {len(PLANCHEREL_GRID)} models, "
        f"k <= {kmax}; float rel gap {worst:.2e}"
    )


@_check("moment-identities")
def moment_identities() -> str:
    """Criterion 5: E[s1] to 1e-10 and the variance ratio to 1e-8 relative."""
    kmax = 15
    worst_mean = worst_var = 0.0
    for n in (6, 8, 10):
        r = n // 2
        model = ModelSpec(Family.VARIANT, n, r)
        states = exact.enumerate_states(model)
        s1 = np.array([float(bounds.spherical_s1(n, r, s)) for s in states])
        for k, dist in exact.evolve_sequence(model, range(1, kmax + 1)):
            mean = float(np.dot(dist.probs, s1))
            gap = abs(mean - bounds.moment_s1(n, k))
            if not gap < 1e-10:
                raise CheckFailed(f"variant ({n},{r}) k={k}: E[s1] off by {gap:.3g}")
            mean_sq = float(np.dot(dist.probs, s1 * s1))
            var_ratio = (mean_sq - mean * mean) / (mean * mean)
            want_ratio = bounds.variance_ratio(n, r, k)
            rel = abs(var_ratio - want_ratio) / abs(want_ratio)
            if not rel < 1e-8:
                raise CheckFailed(f"variant ({n},{r}) k={k}: variance ratio off by rel {rel:.3g}")
            worst_mean, worst_var = max(worst_mean, gap), max(worst_var, rel)
    return (
        f"s1 mean and variance ratio match, k <= {kmax}: mean gap {worst_mean:.2e}, "
        f"variance ratio rel gap {worst_var:.2e}"
    )


@_check("signed-marginal")
def signed_marginal() -> str:
    """Criterion 9: both signed families' rack marginals are the variant law, to 1e-12."""
    kmax = 10
    plain_model = ModelSpec(Family.VARIANT, 6, 3)
    worst = 0.0
    for family in (Family.INDEPENDENT_FLIPS, Family.PAIRED_FLIPS):
        signed_iter = exact.evolve_sequence(ModelSpec(family, 6, 3), range(kmax + 1))
        plain_iter = exact.evolve_sequence(plain_model, range(kmax + 1))
        for (k, d_signed), (_, d_plain) in zip(signed_iter, plain_iter):
            marg = exact.subset_marginal(d_signed)
            err = float(np.abs(marg.probs - d_plain.probs).max())
            if not err <= 1e-12:
                raise CheckFailed(f"{family.value} (6,3) k={k}: marginal off by {err:.3g}")
            worst = max(worst, err)
    return f"rack marginals equal the variant law, k <= {kmax}, worst gap {worst:.2e}"


@_check("montecarlo-consistency")
def montecarlo_consistency() -> str:
    """Criterion 7: mean s1 within 4 stderr of the moment formula, empirical tv within 0.01."""
    summary = montecarlo.run(
        montecarlo.SimConfig(ModelSpec(Family.VARIANT, 100, 50), k=115, walkers=10**5, seed=20240817)
    )
    gap_se = abs(summary.mean_s1 - bounds.moment_s1(100, 115)) / summary.stderr_s1
    if not gap_se < 4:
        raise CheckFailed(f"variant (100,50) k=115: mean s1 off by {gap_se:.3g} stderr, not below 4")
    small = ModelSpec(Family.VARIANT, 10, 5)
    sim = montecarlo.run(montecarlo.SimConfig(small, k=3, walkers=10**6, seed=20240817))
    gap_tv = abs(sim.empirical_tv - exact.tv_distance(exact.evolve(small, 3)))
    if not gap_tv < 0.01:
        raise CheckFailed(f"variant (10,5) k=3: empirical tv off by {gap_tv:.3g}, not below 0.01")
    return f"moment within {gap_se:.2f} stderr; tv gap {gap_tv:.4f}"


@_check("determinism")
def determinism() -> str:
    """Criterion 8 below the CLI: batching, thread count, float and rational reruns."""
    model = ModelSpec(Family.INDEPENDENT_FLIPS, 6, 3)
    # two MIN_PIECE pieces: with two threads the one block is walked on both
    cfg = montecarlo.SimConfig(model=model, k=7, walkers=2 * montecarlo.MIN_PIECE, seed=7)
    a = montecarlo.run(cfg, block_size=1 << 16, threads=1)
    b = montecarlo.run(cfg, block_size=777, threads=1)
    c = montecarlo.run(cfg, block_size=1 << 16, threads=2)
    if (a.mean_s1, a.stderr_s1, a.empirical_tv) != (b.mean_s1, b.stderr_s1, b.empirical_tv):
        raise CheckFailed("simulation summary depends on the batching")
    if (a.mean_s1, a.stderr_s1, a.empirical_tv) != (c.mean_s1, c.stderr_s1, c.empirical_tv):
        raise CheckFailed("simulation summary depends on the thread count")
    if not np.array_equal(exact.evolve(model, 9).probs, exact.evolve(model, 9).probs):
        raise CheckFailed("float evolution not reproducible")
    # != on object arrays compares elementwise, so compare den and array_equal
    first, again = exact.evolve(model, 9, exact=True), exact.evolve(model, 9, exact=True)
    if first.den != again.den or not np.array_equal(first.probs, again.probs):
        raise CheckFailed("rational evolution not reproducible")
    return "simulation independent of batching and thread count; float and rational reruns equal"


def _within(got: float, want: float, rel: float = 1e-12) -> bool:
    return abs(got - want) <= rel * abs(want)


@_check("cutoff-window")
def cutoff_window() -> str:
    """Criterion 6: the variant chain at n = 200 mixes within a narrow window.

    The bounds at the offset steps n/4 (log n +- 4) match frozen goldens.
    The window runs from the last step the leading l2 term certifies
    unmixed (> 1) to the first step the tv bound certifies mixed (< 0.2);
    its ratio stays under 1.6 and it brackets n log n / 4.  Each crossing
    is confirmed off the float path.  The ratio of the offset steps
    themselves, (log n + 4)/(log n - 4), depends on n alone.
    """
    n = 200
    model = ModelSpec(Family.VARIANT, n, 100)
    k_up = math.ceil(0.25 * n * (math.log(n) + 4))
    k_down = math.floor(0.25 * n * (math.log(n) - 4))
    up = bounds.tv_upper(model, k_up)
    down = bounds.leading_l2_term(model, k_down)
    # frozen goldens from the first verified run
    if (k_up, k_down) != (465, 64) or not (
        _within(up, 0.06616679589092031) and _within(down, 54.97408187214245)
    ):
        raise CheckFailed(
            f"tv bound {up!r} at k={k_up}, l2 term {down!r} at k={k_down}: not the goldens"
        )
    # the goldens put both ends of ks on the right side of the thresholds,
    # so both crossings exist
    ks = range(k_down, k_up + 1)
    k_mixed = next(p.k for p in bounds.bound_curve(model, ks) if p.tv_upper < 0.2)
    k_unmixed = max(k for k in ks if bounds.leading_l2_term(model, k) > 1)
    ratio = k_mixed / k_unmixed
    if not ratio < 1.6:
        raise CheckFailed(
            f"tv bound below 0.2 only at k={k_mixed}, l2 term above 1 until "
            f"k={k_unmixed}: ratio {ratio:.2f} not below 1.6"
        )
    centre = n * math.log(n) / 4
    if not k_unmixed <= centre <= k_mixed:
        raise CheckFailed(
            f"bounds cross at k={k_unmixed} and k={k_mixed}, "
            f"not around n log n / 4 = {centre:.1f}"
        )
    # the rational l2 sum straddles 1/25 (tv bound 1/5) at k_mixed, and the
    # leading term (n-1)(1-2/n)^(2k) > 1 solves to a closed form at k_unmixed
    before = bounds.l2n_sq_bound(model, k_mixed - 1, exact=True)
    if not before >= Fraction(1, 25) > bounds.l2n_sq_bound(model, k_mixed, exact=True):
        raise CheckFailed(f"the rational l2 sum does not cross 1/25 at k={k_mixed}")
    if k_unmixed != math.floor(math.log(n - 1) / (-2 * math.log(1 - 2 / n))):
        raise CheckFailed(f"l2 term crossing k={k_unmixed} is not the closed form")
    return (
        f"mixed by k={k_up} (tv <= {up:.3g}), unmixed at k={k_down} "
        f"(l2 term {down:.3g}); bounds cross at k={k_unmixed} and k={k_mixed}, "
        f"ratio {ratio:.2f}, confirmed in rational arithmetic"
    )


QUICK = (
    dimension_identities,
    eigenvalue_sanity,
    kernel_rows,
    spectrum_match,
    spectral_measure,
    montecarlo_replay,
)

FULL = QUICK + (
    evolution_scatter,
    spectrum_match_grid,
    plancherel,
    moment_identities,
    signed_marginal,
    montecarlo_consistency,
    determinism,
    cutoff_window,
)
