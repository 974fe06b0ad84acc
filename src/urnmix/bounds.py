"""Spectral mixing bounds, spherical function values, and the moment lower bound.

The chains here are invariant under a group action that makes the uniform
law stationary and the kernel diagonalizable over the component catalog.
Squared l2 distance to uniform after k steps (scaled by |X|/4) equals
(1/4) sum_rho dim * mult * eigenvalue^(2k) over nontrivial components, and
total variation is at most its square root.  The lower bound runs the usual
second-moment argument on the first spherical function.

Natural logarithm throughout.  Float bounds read one spectral measure: the
nontrivial spectrum grouped by distinct eigenvalue, with the exact integer
weight of each and both logs precomputed, so a sweep over many k is one
vectorized logsumexp.  Big dimensions (n in the thousands) stay finite in
log space; a bound that itself exceeds the float range comes out as inf,
and log_l2n_sq_bound gives its finite log.  The exact mode sums integer
numerators over one common denominator and returns one Fraction, for
cross-checks and rational curves.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from . import catalog
from .catalog import eig_classical
from .models import Family, ModelSpec, step_count

__all__ = [
    "BoundCurvePoint",
    "LowerBoundReport",
    "SpectralMeasure",
    "spectral_measure",
    "l2n_sq_bound",
    "log_l2n_sq_bound",
    "tv_upper",
    "bound_curve",
    "leading_l2_term",
    "theorem_k",
    "spherical_s1",
    "moment_s1",
    "variance_ratio",
    "lower_bound",
    "crossover_f",
    "GUARANTEE_CONSTANT",
]

# 1 - GUARANTEE_CONSTANT * exp(-c) lower-bounds total variation at the
# threshold step count.  It collapses the sharper 1 - 54 e^-c - 1512 e^-2c
# guarantee: for c >= 0, 54 + 1512 e^-c <= 1566.
GUARANTEE_CONSTANT = 1566


@dataclass(frozen=True)
class BoundCurvePoint:
    """The spectral bound at one step count (tv_upper is the raw sqrt)."""

    k: int
    l2n_sq: float
    tv_upper: float


@dataclass(frozen=True)
class LowerBoundReport:
    """Second-moment lower bound at one decay parameter c."""

    c: float
    k_threshold: int
    tv_guarantee: float
    mean_f: float
    var_ratio: float


@dataclass(frozen=True)
class SpectralMeasure:
    """The nontrivial spectrum grouped by distinct eigenvalue.

    Eigenvalue nums[d] / den carries the exact integer weight weights[d],
    the summed dim * mult of its components; nums descend.  log_abs holds
    log|eigenvalue| (-inf at 0) and log_weight log(weight), both float64
    arrays; log_total is the log of the summed weight, |X| - 1.  The trivial
    component (eigenvalue 1, dimension 1) is left out.
    """

    den: int
    nums: tuple
    weights: tuple
    log_abs: np.ndarray
    log_weight: np.ndarray
    log_total: float


def _log_abs(num: int, den: int) -> float:
    """log|num/den|; log1p near 1, where log(num) - log(den) would cancel."""
    a = abs(num)
    if 2 * a >= den:
        return math.log1p((a - den) / den)
    return math.log(a / den) if a else -math.inf


def _independent_weights(n: int, r: int) -> dict[int, int]:
    """Independent-flips weights by eigenvalue numerator, in closed form.

    The eigenvalue depends on (j, ell) alone, and summing the walker's
    dim[n-j-m, m] * mult over m collapses, through
    sum_{m <= t} dim[s-m, m] = C(s, t), to

        C(n, j) * dim[j-ell, ell] * sum_{i = ilo..ihi} C(n-j, r-i),

    with ilo, ihi the split bounds of catalog._components.  The inner sum is
    a difference of prefix sums of C(n-j, u) over u = r-i, so the measure
    costs O(n^2) terms against the walker's O(n^3).  The trivial component
    is (j, ell) = (n, 0), which has weight 1, and is left out.
    """
    grouped: dict[int, int] = {}
    choose = 1  # C(n, j)
    for j in range(n + 1):
        rest = n - j
        prefix = [0]  # prefix[t + 1] = sum_{u <= t} C(rest, u)
        c = 1
        for u in range(min(r, rest) + 1):
            prefix.append(prefix[-1] + c)
            c = c * (rest - u) // (u + 1)
        for ell, dim in enumerate(catalog._two_row_dims(j, j // 2)):
            ilo, ihi = max(ell, r - rest), min(r, j - ell)
            if ilo > ihi or (j == n and ell == 0):
                continue
            num = j * j - 2 * ell * (j - ell + 1)
            weight = choose * dim * (prefix[r - ilo + 1] - prefix[r - ihi])
            grouped[num] = grouped.get(num, 0) + weight
        choose = choose * rest // (j + 1)
    return grouped


def spectral_measure(model: ModelSpec) -> SpectralMeasure:
    """Group the nontrivial components by eigenvalue, summing exact weights.

    Independent flips use the O(n^2) closed form; the other families group
    the catalog walker's components.
    """
    if model.family is Family.INDEPENDENT_FLIPS:
        grouped = _independent_weights(model.n, model.r)
    else:
        trivial = astuple(catalog.trivial_label(model))
        grouped = {}
        for label, dim, mult, num in catalog._components(model):
            if label != trivial:
                grouped[num] = grouped.get(num, 0) + dim * mult
    den = catalog._eigen_den(model)
    nums = sorted(grouped, reverse=True)
    weights = [grouped[num] for num in nums]
    return SpectralMeasure(
        den=den,
        nums=tuple(nums),
        weights=tuple(weights),
        log_abs=np.array([_log_abs(num, den) for num in nums]),
        log_weight=np.array([math.log(w) for w in weights]),
        log_total=math.log(sum(weights)),
    )


# bytes of one (k x distinct eigenvalue) block of log terms
_BLOCK_BYTES = 1 << 20
_LOG4 = math.log(4)


def _log_bounds(measure: SpectralMeasure, ks) -> np.ndarray:
    """log of (1/4) sum_d weight_d |eigenvalue_d|^(2k), for each k.

    One logsumexp per k, over the distinct eigenvalues, in blocks of k that
    keep the temporaries near _BLOCK_BYTES.  A zero eigenvalue counts only
    at k = 0, where the sum is the total weight.  The grid is evaluated in
    float64, exact for k below 2^53, so step counts past int64 still give a
    value; one past the float range (about 1.8e308) raises ValueError.
    """
    ks = np.asarray(ks).reshape(-1)
    if ks.dtype.kind not in "iu":
        # a float or object grid: each entry must still be an integer
        ks = [step_count(k) for k in ks.tolist()]
    try:
        ks = np.asarray(ks, dtype=np.float64)
    except OverflowError:
        raise ValueError("a step count is past the float range") from None
    if ks.size and ks.min() < 0:
        raise ValueError(f"need k >= 0, got {int(ks.min())}")
    out = np.full(ks.shape, measure.log_total)
    moving = np.flatnonzero(ks > 0)
    rows = max(1, _BLOCK_BYTES // (8 * len(measure.log_abs)))
    # doubling the logs rather than k gives the same bits and keeps every
    # finite k finite
    twice_log_abs = 2.0 * measure.log_abs
    with np.errstate(divide="ignore"):
        for start in range(0, len(moving), rows):
            at = moving[start : start + rows]
            terms = np.multiply.outer(ks[at], twice_log_abs)
            terms += measure.log_weight
            top = terms.max(axis=1)
            top[top == -np.inf] = 0.0  # every eigenvalue zero: the sum is 0
            terms -= top[:, None]
            np.exp(terms, out=terms)
            out[at] = top + np.log(terms.sum(axis=1))
    return out - _LOG4


def _from_log(log_bound: float) -> float:
    """exp, giving inf past the float range instead of raising."""
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


def log_l2n_sq_bound(model: ModelSpec, k: int) -> float:
    """Natural log of l2n_sq_bound(model, k); finite wherever the bound is nonzero."""
    return float(_log_bounds(spectral_measure(model), [k])[0])


def _entry_numerators(model: ModelSpec, entries) -> tuple[list[int], list[int]]:
    """Nontrivial entries as (nums, weights) over _eigen_den, grouped by eigenvalue."""
    den = catalog._eigen_den(model)
    trivial = catalog.trivial_label(model)
    grouped: dict[int, int] = {}
    for e in entries:
        if e.label != trivial:
            lam = e.eigenvalue
            num = lam.numerator * (den // lam.denominator)
            grouped[num] = grouped.get(num, 0) + e.weight
    return list(grouped), list(grouped.values())


def l2n_sq_bound(model: ModelSpec, k: int, exact: bool = False, entries=None):
    """(1/4) sum over nontrivial components of dim * mult * eigenvalue^(2k).

    This equals |X|/4 times the squared l2 distance of the k-step law from
    uniform (an identity, not just a bound).  Float mode evaluates the
    spectral measure in log space and returns inf when the bound itself
    exceeds the float range (large n at small k); log_l2n_sq_bound gives
    its log.  For float sweeps use bound_curve, which builds the measure
    once.

    Exact mode sums integers: with eigenvalues num / den over the common
    denominator den = catalog._eigen_den(model), it returns the one Fraction
    sum(weight * num^(2k)) / (4 den^(2k)).  The numerators and weights come
    from the spectral measure.  entries, a catalog_entries list, makes them
    come from those rows instead, grouped by eigenvalue: the same value,
    read from a catalog a caller already holds (the benchmark checks its
    catalogs this way).
    """
    k = step_count(k)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if not exact:
        if entries is not None:
            raise ValueError("entries apply to exact mode; use bound_curve for float sweeps")
        return _from_log(log_l2n_sq_bound(model, k))
    if entries is None:
        measure = spectral_measure(model)
        nums, weights = measure.nums, measure.weights
    else:
        nums, weights = _entry_numerators(model, entries)
    power = 2 * k
    total = sum(w * num**power for num, w in zip(nums, weights))
    return Fraction(total, 4 * catalog._eigen_den(model) ** power)


def tv_upper(model: ModelSpec, k: int) -> float:
    """Square root of l2n_sq_bound: the spectral total-variation bound.

    Returned raw; values above 1 are vacuous and should be clamped to 1
    for presentation only.
    """
    return math.sqrt(l2n_sq_bound(model, k))


def bound_curve(model: ModelSpec, ks) -> list[BoundCurvePoint]:
    """Evaluate the bound on a step grid, building the spectral measure once.

    Each point equals l2n_sq_bound(model, k) bit for bit.
    """
    ks = list(ks)
    logs = _log_bounds(spectral_measure(model), ks)
    points = []
    for k, log_bound in zip(ks, logs.tolist()):
        b = _from_log(log_bound)
        points.append(BoundCurvePoint(k=k, l2n_sq=b, tv_upper=math.sqrt(b)))
    return points


def leading_l2_term(model: ModelSpec, k: int) -> float:
    """Dominant single term of the l2 sum (without the 1/4 factor).

    (n-1) eig_1^(2k) for the unsigned families; 2n (1 - 1/n)^(4k) for both
    signed families.  Values above 1 certify the chain is not yet mixed in
    the l2 sense.
    """
    n, r = model.n, model.r
    if model.family is Family.CLASSICAL:
        lam = float(eig_classical(n, r, 1))
        return (n - 1) * lam ** (2 * k)
    if model.family is Family.VARIANT:
        return (n - 1) * (1 - 2 / n) ** (2 * k)
    return 2 * n * math.exp(4 * k * math.log(1 - 1 / n))


_THEOREM_COEFS = {
    Family.CLASSICAL: lambda n, r: 0.5 * r * (1 - r / n),
    Family.VARIANT: lambda n, r: n / 4,
    Family.INDEPENDENT_FLIPS: lambda n, r: n / 4,
    Family.PAIRED_FLIPS: lambda n, r: n / 2,
}


def theorem_k(model: ModelSpec, c: float) -> int:
    """Step count at which the spectral bound certifies mixing, for slack c > 0.

    classical      (1/2) r (1 - r/n) (log n + c)
    variant        (1/4) n (log n + c)
    independent    (1/4) n (log n + c)
    paired         (1/2) n (log n + c)

    rounded up to an integer.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    coef = _THEOREM_COEFS[model.family](model.n, model.r)
    return math.ceil(coef * (math.log(model.n) + c))


def spherical_s1(n: int, r: int, state) -> Fraction:
    """First spherical function at a state: 1 - j n / (r(n-r)).

    j counts the rack-1 balls with labels above r, i.e. the balls that have
    strayed from the initial arrangement.  For signed states the charge word
    is ignored (the value lives on the rack marginal).  Equals 1 exactly at
    the initial state and averages to 0 under the uniform law.
    """
    ModelSpec(Family.VARIANT, n, r)
    j = (state.rack1 >> r).bit_count()
    return 1 - Fraction(j * n, r * (n - r))


def moment_s1(n: int, k: int) -> float:
    """Mean of the first spherical function after k variant steps: (1-2/n)^k."""
    return (1 - 2 / n) ** k


def variance_ratio(n: int, r: int, k: int) -> float:
    """Var(f)/E(f)^2 after k variant steps, where f = sqrt(n-1) * s1.

    Three-term closed form obtained by expanding s1^2 back into spherical
    functions:

        1/E(f)^2
        + (4n^2/(n-2)) / (n^2-(n-2r)^2) * (((n-2r)/n)^2 (1-2/n)^(-k) - 1)
        + (3n-2) / ((n-1)(n-2))
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    ModelSpec(Family.VARIANT, n, r)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    shrink = 1 - 2 / n
    ef_sq = (n - 1) * shrink ** (2 * k)
    gap = n * n - (n - 2 * r) ** 2
    t2 = (4 * n * n / (n - 2)) / gap * (((n - 2 * r) / n) ** 2 * shrink ** (-k) - 1)
    t3 = (3 * n - 2) / ((n - 1) * (n - 2))
    return 1 / ef_sq + t2 + t3


def crossover_f(n: int, r: int, c: float) -> float:
    """Step budget below which the off-center start dominates the lower bound.

    (n-2) log(n/(n-2r)) + (1/2)(n-2) log(1 + (n-2)(1-((n-2r)/n)^2) e^-c / 4).
    Increasing in r, and +inf at the balanced case 2r = n, where the first
    branch of the lower bound always wins.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    ModelSpec(Family.VARIANT, n, r)
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    if 2 * r == n:
        return math.inf
    ratio = (n - 2 * r) / n
    first = (n - 2) * math.log(n / (n - 2 * r))
    second = 0.5 * (n - 2) * math.log1p(0.25 * (n - 2) * (1 - ratio * ratio) * math.exp(-c))
    return first + second


def lower_bound(n: int, r: int, c: float) -> LowerBoundReport:
    """Second-moment lower bound for the variant chain.

    For 0 <= c <= log n, after

        k = floor(min((1/4) n (log n - c), crossover_f(n, r, c)))

    steps the total variation distance from uniform is still at least
    1 - 1566 e^-c.  The report also carries the mean of f = sqrt(n-1) s1 and
    the variance ratio at that k, the two quantities the Chebyshev argument
    runs on.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    ModelSpec(Family.VARIANT, n, r)
    if not 0 <= c <= math.log(n):
        raise ValueError(f"need 0 <= c <= log n = {math.log(n):.6g}, got c={c}")
    k_real = min(0.25 * n * (math.log(n) - c), crossover_f(n, r, c))
    k_threshold = math.floor(k_real)
    return LowerBoundReport(
        c=c,
        k_threshold=k_threshold,
        tv_guarantee=1 - GUARANTEE_CONSTANT * math.exp(-c),
        mean_f=math.sqrt(n - 1) * (1 - 2 / n) ** k_threshold,
        var_ratio=variance_ratio(n, r, k_threshold),
    )
