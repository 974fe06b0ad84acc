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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog
from .catalog import MEASURE_SIZE_CAP, eig_classical
from .models import Family, ModelSpec, SpaceCapError, step_count

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
    "EXACT_SUM_BIT_CAP",
    "EXACT_SUM_TOTAL_CAP",
    "MEASURE_SIZE_CAP",
]

# 1 - GUARANTEE_CONSTANT * exp(-c) lower-bounds total variation at the
# threshold step count.  It collapses the sharper 1 - 54 e^-c - 1512 e^-2c
# guarantee: for c >= 0, 54 + 1512 e^-c <= 1566.
GUARANTEE_CONSTANT = 1566

# Bits allowed in the denominator 4 * den^(2k) of an exact spectral sum,
# estimated as 2k * den.bit_length() before any power is taken.  The largest
# sums in use are the n = 200 variant cutoff checks at k = 358, 359 (den =
# 40000, 16 bits: 11,488); exact evolution stops at RATIONAL_STEP_CAP = 50
# steps and 10^4 states (at most 2 * 50 * 27 = 2,700 bits).  variant(10,5) at
# k = 10^5 would need 1.4 million bits.
EXACT_SUM_BIT_CAP = 1 << 16

# Bits over all terms: the bits above times the distinct eigenvalues, 256 terms
# at EXACT_SUM_BIT_CAP.  The n = 200 cutoff sum has 100 (1.15e6 bits);
# paired(64,32) at k = 2,520 has 2,096 (1.4e8) and took 1 s on 2 vCPUs.
EXACT_SUM_TOTAL_CAP = 1 << 24

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


def _signed_cells(model: ModelSpec, j: int):
    """The nontrivial signed cells (ell, a, b, num) of first size j, as int64 arrays.

    num is the eigenvalue numerator over n^2, in [-n^2, n^2].  Paired cells
    are the components ([j-l, l]; [n-j-m, m]) of catalog._components with
    (a, b) = (m, mult), where on the (l, m) grid the walker's split count is

        mult = min(j-l, r-m) - max(l, r-(n-j)+m) + 1,

    and its positive cells are exactly the walker's components at j.  An
    independent eigenvalue depends on (j, l) alone, so its cells are one per
    l, with (a, b) = (ilo, ihi), the split bounds of catalog._components, and
    ilo <= ihi.  Both conditions force l, m <= r, where the grids stop.  The
    trivial cell (j = n, l = m = 0) is left out.
    """
    n, r = model.n, model.r
    rest = n - j
    ell = np.arange(min(j // 2, r) + 1)
    first = j * j - 2 * ell * (j - ell + 1)
    if model.family is Family.INDEPENDENT_FLIPS:
        ilo = np.maximum(ell, r - rest)
        ihi = np.minimum(r, j - ell)
        if j == n:
            ihi[0] = -1
        at = np.flatnonzero(ilo <= ihi)
        return at, ilo[at], ihi[at], first[at]
    m = np.arange(min(rest // 2, r) + 1)
    mult = np.minimum.outer(j - ell, r - m) - np.maximum.outer(ell, r - rest + m) + 1
    if j == n:
        mult[0, 0] = 0
    ell_at, m_at = np.nonzero(mult > 0)
    num = first[ell_at] + (rest * rest - 2 * m * (rest - m + 1) - rest)[m_at]
    return ell_at, m_at, mult[ell_at, m_at], num


def _signed_weights(model: ModelSpec) -> tuple[list[int], list[int]]:
    """Signed (nums, weights), nums descending, one numpy pass per j.

    Each cell adds C(n,j) * dim[j-l,l] * second to its numerator's slot of an
    object accumulator indexed by num + n^2.  second is dim[n-j-m,m] * mult
    for paired flips.  For independent flips it sums that over m, which
    collapses, through sum_{m <= t} dim[s-m, m] = C(s, t), to
    sum_{i = ilo..ihi} C(n-j, r-i): a difference of prefix sums of C(n-j, u)
    over u = r-i, so the measure costs O(n^2) cells against paired's O(n^3).
    The weights are Python ints in object arrays: they pass int64 near n = 60.
    """
    n, r = model.n, model.r
    offset = n * n
    acc = np.zeros(2 * offset + 1, dtype=object)
    seen = np.zeros(2 * offset + 1, dtype=bool)
    dims = [np.array(catalog._two_row_dims(s, min(s // 2, r)), dtype=object) for s in range(n + 1)]
    choose = 1  # C(n, j)
    for j in range(n + 1):
        rest = n - j
        ell, a, b, num = _signed_cells(model, j)
        if model.family is Family.PAIRED_FLIPS:
            second = dims[rest][a] * b
        else:
            binom = [1]  # C(rest, u) for u = 0..min(r, rest)
            for u in range(min(r, rest)):
                binom.append(binom[-1] * (rest - u) // (u + 1))
            prefix = np.array([0, *itertools.accumulate(binom)], dtype=object)
            second = prefix[r - a + 1] - prefix[r - b]
        num += offset
        np.add.at(acc, num, (dims[j] * choose)[ell] * second)
        seen[num] = True
        choose = choose * rest // (j + 1)
    slots = np.flatnonzero(seen)[::-1]
    return (slots - offset).tolist(), acc[slots].tolist()


def _distinct_eigenvalues(model: ModelSpec) -> int:
    """How many distinct nontrivial eigenvalues, counted without any weight.

    r for the unsigned families, whose numerators strictly decrease in i;
    the distinct numerators of the int64 cells of _signed_cells otherwise.
    """
    if not model.family.signed:
        return model.r
    n = model.n
    seen = np.zeros(2 * n * n + 1, dtype=bool)
    for j in range(n + 1):
        seen[_signed_cells(model, j)[3] + n * n] = True
    return int(np.count_nonzero(seen))


def spectral_measure(model: ModelSpec) -> SpectralMeasure:
    """Group the nontrivial components by eigenvalue, summing exact weights.

    Both signed families go through _signed_weights, one numpy pass per j
    over the cells of _signed_cells; the unsigned rows are already one per
    eigenvalue, in descending order.  SpaceCapError, before any weight is
    formed, past MEASURE_SIZE_CAP (see catalog._check_measure_size).
    """
    catalog._check_measure_size(model, closed_form=True)
    if model.family.signed:
        nums, weights = _signed_weights(model)
    else:
        # every row but the trivial first
        _, weights, _, nums = zip(*itertools.islice(catalog._components(model), 1, None))
    den = catalog._eigen_den(model)
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
    catalogs this way).  SpaceCapError when the denominator would need more
    than EXACT_SUM_BIT_CAP bits, or all its terms more than EXACT_SUM_TOTAL_CAP.
    """
    k = step_count(k)
    if not exact:
        if entries is not None:
            raise ValueError("entries apply to exact mode; use bound_curve for float sweeps")
        return _from_log(log_l2n_sq_bound(model, k))
    den = catalog._eigen_den(model)
    bits = 2 * k * den.bit_length()
    if bits > EXACT_SUM_BIT_CAP:
        raise SpaceCapError(bits, EXACT_SUM_BIT_CAP, "exact spectral sum denominator bits")
    if entries is None:
        # the terms are counted from the numerators, before any weight is formed
        catalog._check_measure_size(model, closed_form=True)
        terms = _distinct_eigenvalues(model)
    else:
        nums, weights = _entry_numerators(model, entries)
        terms = len(nums)
    if bits * terms > EXACT_SUM_TOTAL_CAP:
        raise SpaceCapError(bits * terms, EXACT_SUM_TOTAL_CAP, "exact spectral sum bits over all terms")
    if entries is None:
        measure = spectral_measure(model)
        nums, weights = measure.nums, measure.weights
    power = 2 * k
    total = sum(w * num**power for num, w in zip(nums, weights))
    return Fraction(total, 4 * den**power)


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

    rounded up to an integer.  ValueError for a c that is not finite, or
    whose step count is past the float range.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"need a finite c > 0, got {c}")
    coef = _THEOREM_COEFS[model.family](model.n, model.r)
    k = coef * (math.log(model.n) + c)
    if k == math.inf:
        raise ValueError(f"the step count for c = {c} is past the float range")
    return math.ceil(k)


def spherical_s1(n: int, r: int, state) -> Fraction:
    """First spherical function at a state: 1 - j n / (r(n-r)).

    j counts the rack-1 balls with labels above r, i.e. the balls that have
    strayed from the initial arrangement.  For signed states the charge word
    is ignored (the value lives on the rack marginal).  Equals 1 exactly at
    the initial state and averages to 0 under the uniform law.  ValueError
    unless the rack holds r of the n balls.
    """
    ModelSpec(Family.VARIANT, n, r)
    if state.rack1 >> n or state.rack1.bit_count() != r:
        raise ValueError(f"rack {state.rack1:#b} is not {r} of {n} balls")
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
    k = step_count(k)
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
