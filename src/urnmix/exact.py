"""Exact finite-state analysis: evolution, distances, spectra.

States are indexed by colexicographic subset rank; signed states add the
charge word as the high part, index = signs * C(n,r) + subset_rank.  Every
exact path reads one integer kernel table, built with numpy: per source
index, the distinct targets in merged order and their integer weights in
units of 1/step_units(model).  Float and rational evolution share one
stepping loop over it.  A float law is a float64 array, scattered with
bincount, and is deterministic for a fixed model (no parallel reductions):
bincount adds each target's contributions in source-row order, so the order
of the targets inside a row changes no bit.  A rational law
is an object array of Python-int numerators over the common denominator
step_units(model)^k, scattered with np.add.at, so results are exact and
bitwise reproducible; a Fraction is built once per answer, never per
state.  The dense kernel behind spectrum and the trace check is filled
from the table in one assignment.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import numpy as np

from .bounds import spectral_measure
from .chains import (
    SignedUrnState,
    UrnState,
    initial_state,
    step_units,
    subset_rank,
    subset_unrank,
)
from .models import Family, ModelSpec, SpaceCapError, checked_space_size, space_size, step_count

__all__ = [
    "SpaceCapError",
    "Distribution",
    "space_size",
    "state_index",
    "state_at",
    "enumerate_states",
    "evolve",
    "evolve_sequence",
    "distance_curve",
    "ExactCurvePoint",
    "tv_distance",
    "l2n_sq_distance",
    "subset_marginal",
    "spectrum",
    "expected_spectrum",
    "trace_identity_check",
    "TraceCheckRow",
    "distribution_csv",
    "DENSE_CAP",
    "FLOAT_STATE_CAP",
    "FLOAT_STEP_CAP",
    "RATIONAL_STATE_CAP",
    "RATIONAL_STEP_CAP",
]

FLOAT_STATE_CAP = 10**6
FLOAT_STEP_CAP = 10**5
RATIONAL_STATE_CAP = 10**4
RATIONAL_STEP_CAP = 50
DENSE_CAP = 4096

# kernel entries per block when the float weights are made
_CONVERT_BLOCK = 1 << 14


def state_index(model: ModelSpec, state) -> int:
    """Rank of a state, consistent with enumerate_states order."""
    rank = subset_rank(state.rack1)
    if model.family.signed:
        return state.signs * comb(model.n, model.r) + rank
    return rank


def state_at(model: ModelSpec, index: int) -> UrnState | SignedUrnState:
    """Inverse of state_index."""
    base = comb(model.n, model.r)
    if model.family.signed:
        signs, rank = divmod(index, base)
        if signs >> model.n:
            raise ValueError(f"index {index} out of range")
        return SignedUrnState(rack1=subset_unrank(model.n, model.r, rank), signs=signs)
    return UrnState(rack1=subset_unrank(model.n, model.r, index))


def enumerate_states(model: ModelSpec):
    """All states in index order.

    Colex rank of fixed-size subsets coincides with numeric mask order, so
    the subsets are simply the sorted masks.
    """
    n, r = model.n, model.r
    masks = sorted(sum(1 << b for b in c) for c in combinations(range(n), r))
    if not model.family.signed:
        return [UrnState(m) for m in masks]
    states = []
    for signs in range(1 << n):
        for m in masks:
            states.append(SignedUrnState(rack1=m, signs=signs))
    return states


@dataclass
class Distribution:
    """A probability vector over the indexed state space.

    A float law holds float64 probabilities and den = None.  An exact law
    holds an object array of Python-int numerators over den: state i has
    probability probs[i] / den, with den = step_units(model)^k after k
    steps.
    """

    model: ModelSpec
    probs: np.ndarray
    den: int | None = None

    @property
    def exact(self) -> bool:
        return self.den is not None


def _label(model: ModelSpec) -> str:
    return f"{model.family.value} ({model.n},{model.r})"


def _ball_bits(n: int) -> np.ndarray:
    """1 << b for each ball: int64 up to 62 balls, Python ints beyond."""
    if n <= 62:
        return np.left_shift(1, np.arange(n, dtype=np.int64))
    return np.array([1 << b for b in range(n)], dtype=object)


def _subsets(bits: np.ndarray, r: int):
    """The r-subsets in index order: ascending masks and a membership table.

    inside[s, b] is true when ball b+1 sits on rack 1 in the s-th subset.
    """
    n = len(bits)
    members = np.fromiter(
        chain.from_iterable(combinations(range(n), r)), dtype=np.intp, count=comb(n, r) * r
    ).reshape(-1, r)
    masks = bits[members].sum(axis=1)
    order = np.argsort(masks)
    inside = np.zeros((len(masks), n), dtype=bool)
    inside[np.arange(len(masks))[:, None], members[order]] = True
    return masks[order], inside


def _kernel_table(model: ModelSpec):
    """The aggregated kernel in CSR form: (counts, targets, units).

    Row s (source index s) holds counts[s] distinct targets, in merged order
    (move order unsigned, see _signed_table for the signed rows), with
    integer weights units in 1/step_units(model); targets are intp, which
    bincount takes without a cast.  Target subsets are ranked among the
    sorted rack masks by searchsorted, so no state object or Fraction is
    built per entry.  chains.kernel_row, the sampler counted over all its
    draws, is the oracle this table equals row for row, as sets of (target,
    units) pairs.
    """
    bits = _ball_bits(model.n)
    masks, inside = _subsets(bits, model.r)
    if model.family.signed:
        counts, targets, units = _signed_table(model, bits, masks, inside)
    else:
        counts, targets, units = _unsigned_table(model, bits, masks, inside)
    starts = np.cumsum(counts) - counts
    if np.any(np.add.reduceat(units, starts) != step_units(model)):
        raise RuntimeError(f"{_label(model)}: kernel table rows do not sum to step_units")
    return counts, targets, units


def _unsigned_table(model: ModelSpec, bits, masks, inside):
    """Unsigned rows in move order: the r(n-r) swaps, then the variant chain's hold.

    Every swap of a rack-1 ball with a rack-2 ball reaches a distinct
    subset, so no two entries of a row share a target.
    """
    n, r = model.n, model.r
    base = len(masks)
    members = np.nonzero(inside)[1].reshape(base, r)
    others = np.nonzero(~inside)[1].reshape(base, n - r)
    swapped = masks[:, None, None] ^ bits[members][:, :, None] ^ bits[others][:, None, :]
    targets = np.searchsorted(masks, swapped.reshape(base, -1))
    del swapped
    if model.family is Family.VARIANT:
        targets = np.concatenate([targets, np.arange(base)[:, None]], axis=1)
        units = np.full(targets.shape, 2, dtype=np.int64)
        units[:, -1] = n * n - 2 * r * (n - r)
    else:
        units = np.ones(targets.shape, dtype=np.int64)
    counts = np.full(base, targets.shape[1], dtype=np.intp)
    return counts, targets.ravel(), units.ravel()


def _signed_table(model: ModelSpec, bits, masks, inside):
    """Signed rows: merged once at charge word 0, then laid out for all 2^n.

    A move is a rack change (none, or the swap of an unordered ball pair)
    with a charge flip word and its units.  A row's moves are merged by
    sorting their targets from charge word 0, flip * C(n,r) + subset rank.
    The kernel commutes with flipping charges, so one broadcast XOR of each
    charge word into those flips lays out every row; counts and units repeat.
    """
    n = model.n
    base = len(masks)
    b1, b2 = np.triu_indices(n, 1)
    both = bits[b1] | bits[b2]
    swap = np.where(inside[:, b1] != inside[:, b2], both, 0)
    pair_rank = np.searchsorted(masks, masks[:, None] ^ swap)
    del swap
    if model.family is Family.INDEPENDENT_FLIPS:
        hold, single, pair_flips = 2 * n, 2, (np.zeros_like(both), bits[b1], bits[b2], both)
    else:
        hold, single, pair_flips = n, 1, (np.zeros_like(both), both)
    pair_flips = np.stack(pair_flips, axis=1)
    flips = np.concatenate([[0], bits, pair_flips.ravel()])
    move_units = np.concatenate([[hold], np.full(n, single), np.full(pair_flips.size, 2)])
    rank = np.concatenate(
        [
            np.broadcast_to(np.arange(base)[:, None], (base, n + 1)),
            np.repeat(pair_rank, pair_flips.shape[1], axis=1),
        ],
        axis=1,
    )
    del pair_rank
    keys = flips * base + rank
    order = np.argsort(keys, axis=1)
    keys = np.take_along_axis(keys, order, axis=1)
    fresh = np.ones(keys.shape, dtype=bool)
    fresh[:, 1:] = keys[:, 1:] != keys[:, :-1]
    starts = np.flatnonzero(fresh)
    flip, rank = np.divmod(keys.ravel()[starts], base)
    targets = np.bitwise_xor(np.arange(1 << n)[:, None], flip, dtype=np.intp)
    targets *= base
    targets += rank
    units = np.tile(np.add.reduceat(move_units[order].ravel(), starts), 1 << n)
    counts = np.tile(fresh.sum(axis=1), 1 << n)
    return counts, targets.ravel(), units


def evolve(model: ModelSpec, k: int, exact: bool = False) -> Distribution:
    """Law of the chain after k steps from the deterministic initial state."""
    for _, dist in evolve_sequence(model, [k], exact=exact):
        pass
    return dist


def evolve_sequence(model: ModelSpec, ks, exact: bool = False):
    """Step once per unit k, yielding a Distribution at each requested k.

    The yielded distributions are fresh copies and safe to keep.
    """
    ks = sorted({step_count(k) for k in ks})
    if not ks:
        raise ValueError(f"bad step grid {ks}")
    state_cap, step_cap, kind = (
        (RATIONAL_STATE_CAP, RATIONAL_STEP_CAP, "rational evolution") if exact
        else (FLOAT_STATE_CAP, FLOAT_STEP_CAP, "evolution")
    )
    n_states = checked_space_size(model, state_cap, f"{kind} state count")
    if ks[-1] > step_cap:
        raise SpaceCapError(ks[-1], step_cap, f"{kind} step count")

    counts, targets, units = _kernel_table(model)
    step = step_units(model)
    start = state_index(model, initial_state(model))

    if exact:
        # Python-int weights in units of 1/step: each step multiplies the
        # common denominator by step and the numerators stay integers.
        weights = units.astype(object)
        probs = np.zeros(n_states, dtype=object)
        probs[start] = 1
        den = 1
    else:
        # The float weights overwrite the int64 units in place, a block at a
        # time, so targets, units and a separate weights array are never
        # alive together; each block's cast copy is the only temporary.
        weights = units.view(np.float64)
        for lo in range(0, len(units), _CONVERT_BLOCK):
            block = slice(lo, lo + _CONVERT_BLOCK)
            np.divide(units[block], step, out=weights[block])
        probs = np.zeros(n_states)
        probs[start] = 1.0
        den = None
    del units
    step_no = 0
    for k in ks:
        while step_no < k:
            # one table-length temporary, freed before the next step makes its own
            contrib = np.repeat(probs, counts)
            contrib *= weights
            if exact:
                probs = np.zeros(n_states, dtype=object)
                np.add.at(probs, targets, contrib)
                den *= step
            else:
                probs = np.bincount(targets, weights=contrib, minlength=n_states)
            del contrib
            step_no += 1
        yield k, Distribution(model, probs.copy(), den)


@dataclass(frozen=True)
class ExactCurvePoint:
    k: int
    tv: object
    l2n_sq: object


def distance_curve(model: ModelSpec, ks, exact: bool = False) -> list[ExactCurvePoint]:
    """Total variation and scaled l2 distance from uniform along a step grid."""
    points = []
    for k, dist in evolve_sequence(model, ks, exact=exact):
        points.append(
            ExactCurvePoint(k=k, tv=tv_distance(dist), l2n_sq=l2n_sq_distance(dist))
        )
    return points


def tv_distance(dist: Distribution):
    """(1/2) sum |p(x) - 1/|X||; a Fraction in exact mode, float otherwise.

    Exact mode sums integers: with p(x) = v(x) / D over the law's
    denominator D, this is sum |v N - D| / (2 N D), N = |X|, built as one
    Fraction.
    """
    n_states = space_size(dist.model)
    if dist.exact:
        total = np.abs(dist.probs * n_states - dist.den).sum()
        return Fraction(total, 2 * n_states * dist.den)
    return float(0.5 * np.abs(dist.probs - 1.0 / n_states).sum())


def l2n_sq_distance(dist: Distribution):
    """(|X|/4) sum (p(x) - 1/|X|)^2; matches the spectral sum exactly.

    Exact mode sums integers over the law's denominator D, as
    sum (v N - D)^2 / (4 N D^2), and builds one Fraction.
    """
    n_states = space_size(dist.model)
    if dist.exact:
        gaps = dist.probs * n_states - dist.den
        return Fraction(np.dot(gaps, gaps), 4 * n_states * dist.den**2)
    d = dist.probs - 1.0 / n_states
    return float(n_states / 4.0 * np.dot(d, d))


def subset_marginal(dist: Distribution) -> Distribution:
    """Collapse a signed distribution onto the rack subset, as a variant law.

    index = signs * C(n,r) + rank, so rank b collects every C(n,r)-th entry;
    an exact law keeps its denominator.
    """
    model = dist.model
    if not model.family.signed:
        raise ValueError("subset_marginal applies to signed families")
    marg = dist.probs.reshape(-1, comb(model.n, model.r)).sum(axis=0)
    return Distribution(ModelSpec(Family.VARIANT, model.n, model.r), marg, dist.den)


def _dense_kernel(model: ModelSpec) -> np.ndarray:
    n_states = checked_space_size(model, DENSE_CAP, "dense kernel state count")
    counts, targets, units = _kernel_table(model)
    mat = np.zeros((n_states, n_states))
    mat[np.repeat(np.arange(n_states), counts), targets] = units / step_units(model)
    return mat


def spectrum(model: ModelSpec) -> np.ndarray:
    """All kernel eigenvalues, descending.

    The rational kernel is symmetric, so the float matrix is symmetric to
    the last bit; this is checked (tolerance 1e-15, RuntimeError otherwise)
    before symmetrizing and calling the dense symmetric eigensolver.
    """
    mat = _dense_kernel(model)
    skew = np.abs(mat - mat.T).max()
    if skew > 1e-15:
        raise RuntimeError(f"{_label(model)}: kernel asymmetry {skew}")
    sym = (mat + mat.T) / 2.0
    return np.sort(np.linalg.eigvalsh(sym))[::-1]


def _catalog_spectrum(model: ModelSpec):
    """(eigenvalues, integer weights) from the spectral measure, trivial 1 first."""
    measure = spectral_measure(model)
    return [1.0] + [num / measure.den for num in measure.nums], (1,) + measure.weights


def expected_spectrum(model: ModelSpec) -> np.ndarray:
    """Eigenvalues predicted by the catalog, with weights, descending."""
    values, weights = _catalog_spectrum(model)
    return np.sort(np.repeat(values, weights))[::-1]


@dataclass(frozen=True)
class TraceCheckRow:
    k: int
    kernel_trace: float
    catalog_trace: float
    rel_err: float


def trace_identity_check(model: ModelSpec, kmax: int) -> list[TraceCheckRow]:
    """Compare tr(P^k) against sum dim * mult * eigenvalue^k for k = 1..kmax.

    Agreement pins dimensions, multiplicities and eigenvalues jointly; a
    wrong entry anywhere shows up at some power.
    """
    if kmax < 1:
        raise ValueError(f"need kmax >= 1, got {kmax}")
    mat = _dense_kernel(model)
    values, weights = _catalog_spectrum(model)
    out = []
    power = mat.copy()
    for k in range(1, kmax + 1):
        kernel_trace = float(np.trace(power))
        catalog_trace = float(sum(w * lam**k for lam, w in zip(values, weights)))
        denom = max(1.0, abs(catalog_trace))
        out.append(
            TraceCheckRow(
                k=k,
                kernel_trace=kernel_trace,
                catalog_trace=catalog_trace,
                rel_err=abs(kernel_trace - catalog_trace) / denom,
            )
        )
        if k < kmax:
            power = power @ mat
    return out


def distribution_csv(dist: Distribution) -> str:
    """CSV snapshot rank,probability with 18 significant digits.

    An exact law is divided as Python int / int, which rounds correctly,
    as float(Fraction) does.
    """
    probs = dist.probs / dist.den if dist.exact else dist.probs
    buf = io.StringIO()
    buf.write("rank,probability\n")
    for idx, p in enumerate(probs):
        buf.write(f"{idx},{float(p):.17e}\n")
    return buf.getvalue()
