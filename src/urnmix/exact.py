"""Exact finite-state analysis: evolution, distances, spectra.

A state's index is signs * C(n,r) + subset_rank(rack1): the charge word
above the colexicographic subset rank, signs = 0 when unsigned.  Every
exact path reads one integer kernel table, built with numpy: a fixed set of
move columns, with each source index's target in every column and one
integer weight per column in units of 1/step_units(model).  Float and
rational evolution share one stepping statement over it, a gather: the
kernel is symmetric, so each state's own row, sorted by source, lists the
states that step into it, and a step takes their products with the
distinct weights and sums them over the columns.  A float law is a float64
array and is deterministic for a fixed model (no parallel reductions): the
sum adds each state's contributions in ascending source order, as a
bincount scatter over the table does, so the order of the columns changes
no bit.  A rational law is an object array of Python-int numerators over
the common denominator step_units(model)^k, so results are exact and
bitwise reproducible; a Fraction is built once per answer, never per
state.  The dense kernel behind spectrum and the trace check is filled
from the table in one assignment.  Float evolution is bounded by the
table's estimated bytes alone, rational evolution also by its state count.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import numpy as np

from .bounds import spectral_measure
from .chains import UrnState, initial_state, step_units, subset_rank, subset_unrank
from .models import STEP_CAP, Family, ModelSpec, SpaceCapError, as_int, checked_space_size, space_size, step_count

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
    "TABLE_BYTE_CAP",
    "RATIONAL_STATE_CAP",
    "RATIONAL_STEP_CAP",
]

RATIONAL_STATE_CAP = 10**4
RATIONAL_STEP_CAP = 50
DENSE_CAP = 4096
# estimated bytes (_table_bytes) that one kernel table and its float evolution may hold
TABLE_BYTE_CAP = 1 << 30
# table entries decoded into the gather index at a time
_DECODE_ENTRIES = 1 << 14


def state_index(model: ModelSpec, state: UrnState) -> int:
    """Rank of a state, consistent with enumerate_states order."""
    return state.signs * comb(model.n, model.r) + subset_rank(state.rack1)


def state_at(model: ModelSpec, index: int) -> UrnState:
    """Inverse of state_index; index may be any integer type, the state holds Python ints."""
    signs, rank = divmod(as_int(index, "state index"), comb(model.n, model.r))
    if signs >> model.charge_bits:
        raise ValueError(f"index {index} out of range")
    return UrnState(subset_unrank(model.n, model.r, rank), signs)


def _colex_reversed(n: int, r: int):
    """The r-subsets of the balls as descending tuples, last index first.

    combinations over the balls in descending order compares the largest
    ball first, so it yields the masks in descending numeric order.  Colex
    rank of fixed-size subsets coincides with numeric mask order, so the
    reverse of this is index order, with no sort.
    """
    return combinations(range(n - 1, -1, -1), r)


def enumerate_states(model: ModelSpec) -> list[UrnState]:
    """All states in index order."""
    masks = [sum(1 << b for b in c) for c in _colex_reversed(model.n, model.r)]
    masks.reverse()
    return [UrnState(m, signs) for signs in range(1 << model.charge_bits) for m in masks]


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
        chain.from_iterable(_colex_reversed(n, r)), dtype=np.intp, count=comb(n, r) * r
    ).reshape(-1, r)[::-1]
    masks = bits[members].sum(axis=1)
    inside = np.zeros((len(masks), n), dtype=bool)
    inside[np.arange(len(masks))[:, None], members] = True
    return masks, inside


def _table_bytes(model: ModelSpec, width: int) -> int:
    """Estimated peak bytes of a kernel table with width columns and a float step over it.

    Evolution holds 16 bytes per entry at most: the intp table, then the
    gather index decoded from it and a step's gathered products.  The
    estimate counts 24 bytes per entry, half as much again, which leaves
    room for the allocator and the state-length arrays.  Past 62 balls the
    masks are Python ints, and each cross entry also builds one while the
    table is formed: a rack mask with two balls swapped, of up to n bits,
    and the pointer to it.
    """
    n, r = model.n, model.r
    size = 24 * space_size(model) * width
    if n > 62:
        size += comb(n, r) * r * (n - r) * (sys.getsizeof(1 << (n - 1)) + 8)
    return size


def _kernel_table(model: ModelSpec):
    """The aggregated kernel as fixed move columns: (targets, units).

    Every step falls into a move class that reaches one distinct state and
    has the same number of draw outcomes from every source, so every row
    has the same columns.  targets[s, c] is where column c leads from source
    index s, an intp array of shape (states, columns) that evolution sorts
    and decodes in place; units[c] is the column's int64 weight in units of
    1/step_units(model).  A column names balls by their place on their rack.
    With r(n-r) cross pairs (a rack-1 ball and a rack-2 ball) and S =
    C(r,2) + C(n-r,2) same-rack pairs, the columns and their units are:

    - classical: each cross swap, 1;
    - variant: the hold, n^2 - 2r(n-r); each cross swap, 2;
    - independent: the hold, 2n + 2S; the flip of one rack-1 ball, 2r, and
      of one rack-2 ball, 2(n-r); each same-rack pair flip, 2; each cross
      swap with no flip, the rack-1 ball's, the rack-2 ball's or both
      flipped, 2;
    - paired: the hold, n + 2S; each single flip, 1; each same-rack pair
      flip, 2; each cross swap with no flip or both flipped, 2.

    Swapped subsets are ranked among the sorted rack masks by searchsorted,
    so no state object or Fraction is built per entry.  Signed targets are
    formed at charge word 0, flip * C(n,r) + subset rank; the kernel
    commutes with flipping charges, so one broadcast XOR of each charge word
    into those flips lays out the rows of all 2^n words.  chains.kernel_row,
    the sampler counted over all its draws, is the oracle this table equals
    row for row, as sets of (target, units) pairs.

    Float evolution's only size gate is here, before anything is allocated:
    the state count, walked against TABLE_BYTE_CAP // (24 * columns), then
    _table_bytes against TABLE_BYTE_CAP.  SpaceCapError gives that estimate,
    or a lower bound (at_least) when the walk stopped early.
    """
    n, r, family = model.n, model.r, model.family
    swaps, same = r * (n - r), comb(r, 2) + comb(n - r, 2)
    # (units, count) runs in column order
    if family is Family.CLASSICAL:
        columns = [(1, swaps)]
    elif family is Family.VARIANT:
        columns = [(n * n - 2 * swaps, 1), (2, swaps)]
    elif family is Family.INDEPENDENT_FLIPS:
        columns = [(2 * n + 2 * same, 1), (2 * r, r), (2 * (n - r), n - r), (2, same + 4 * swaps)]
    else:
        columns = [(n + 2 * same, 1), (1, n), (2, same + 2 * swaps)]
    width, what = sum(count for _, count in columns), "kernel table size in bytes"
    try:
        checked_space_size(model, TABLE_BYTE_CAP // (24 * width), what)
    except SpaceCapError as err:
        if err.at_least:  # an exact count falls through to the full estimate
            raise SpaceCapError(24 * width * err.required, TABLE_BYTE_CAP, what, at_least=True) from None
    table_bytes = _table_bytes(model, width)
    if table_bytes > TABLE_BYTE_CAP:
        raise SpaceCapError(table_bytes, TABLE_BYTE_CAP, what)
    if sum(u * c for u, c in columns) != step_units(model):
        raise RuntimeError(f"{_label(model)}: kernel table rows do not sum to step_units")
    units = np.repeat(*np.array(columns, dtype=np.int64).T)

    bits = _ball_bits(n)
    masks, inside = _subsets(bits, r)
    base = len(masks)
    rack1 = bits[np.nonzero(inside)[1].reshape(base, r)]
    rack2 = bits[np.nonzero(~inside)[1].reshape(base, n - r)]
    swapped = masks[:, None, None] ^ rack1[:, :, None] ^ rack2[:, None, :]
    cross = np.searchsorted(masks, swapped.reshape(base, -1))
    del swapped
    own = np.arange(base)[:, None]
    if family is Family.CLASSICAL:
        targets = cross
    elif family is Family.VARIANT:
        targets = np.concatenate([own, cross], axis=1)
    else:
        (i1, j1), (i2, j2) = np.triu_indices(r, 1), np.triu_indices(n - r, 1)
        pairs = np.concatenate([rack1[:, i1] | rack1[:, j1], rack2[:, i2] | rack2[:, j2]], axis=1)
        # cross pair a * (n - r) + b is rack-1 ball a and rack-2 ball b
        first, second = np.repeat(rack1, n - r, axis=1), np.tile(rack2, r)
        if family is Family.INDEPENDENT_FLIPS:
            cross_flips = (np.zeros_like(first), first, second, first | second)
        else:
            cross_flips = (np.zeros_like(first), first | second)
        flips = np.concatenate([np.zeros_like(own), rack1, rack2, pairs, *cross_flips], axis=1)
        ranks = np.concatenate(
            [np.broadcast_to(own, (base, 1 + n + same)), np.tile(cross, len(cross_flips))], axis=1
        )
        targets = np.bitwise_xor(np.arange(1 << n)[:, None, None], flips, dtype=np.intp)
        targets *= base
        targets += ranks
        targets = targets.reshape(-1, width)
    return targets, units


def _gather_index(model: ModelSpec, targets: np.ndarray, wid: np.ndarray) -> np.ndarray:
    """Each state's kernel row as a (columns, states) gather index.

    The kernel is symmetric, so row t of the table, read as sources, holds
    every state that steps into t, with the same weight.  Each row is
    sorted in place by source, with the column's weight class wid in the
    low bits, and decoded block by block into wid * states + source: the
    place of weight * probs[source] in the flattened outer product of the
    distinct weights with the law.  Row j of the index holds each state's
    j-th smallest source, so a sum over axis 0 adds a state's contributions
    in ascending source order, as bincount over the table does.  That needs
    each source once per row, checked here (RuntimeError otherwise).  The
    index and the table together take 16 bytes per entry.
    """
    n_states, width = targets.shape
    shift = int(wid.max()).bit_length()
    targets <<= shift
    targets |= wid
    targets.sort(axis=1)
    index = np.empty((width, n_states), dtype=np.intp)
    rows = max(1, _DECODE_ENTRIES // width)
    for lo in range(0, n_states, rows):
        block = targets[lo : lo + rows]
        sources = block >> shift
        if not (sources[:, 1:] > sources[:, :-1]).all():
            raise RuntimeError(f"{_label(model)}: a kernel table row repeats a target")
        block &= (1 << shift) - 1
        block *= n_states
        block += sources
        index[:, lo : lo + rows] = block.T
    return index


def evolve(model: ModelSpec, k: int, exact: bool = False) -> Distribution:
    """Law of the chain after k steps from the deterministic initial state."""
    for _, dist in evolve_sequence(model, [k], exact=exact):
        pass
    return dist


def evolve_sequence(model: ModelSpec, ks, exact: bool = False):
    """Step once per unit k, yielding a Distribution at each requested k.

    The yielded distributions are fresh copies and safe to keep.  Every cap
    is checked before anything is allocated: RATIONAL_STATE_CAP and
    RATIONAL_STEP_CAP, or STEP_CAP, then the kernel table's byte cap.
    """
    ks = sorted({step_count(k) for k in ks})
    if not ks:
        raise ValueError(f"bad step grid {ks}")
    if exact:
        checked_space_size(model, RATIONAL_STATE_CAP, "rational evolution state count")
    step_cap, kind = (RATIONAL_STEP_CAP, "rational evolution") if exact else (STEP_CAP, "evolution")
    if ks[-1] > step_cap:
        raise SpaceCapError(ks[-1], step_cap, f"{kind} step count")

    targets, units = _kernel_table(model)
    n_states = len(targets)
    values, wid = np.unique(units, return_inverse=True)
    index = _gather_index(model, targets, wid)
    del targets  # freed before the first step, which allocates as much again
    step = step_units(model)
    start = state_index(model, initial_state(model))

    # law[0] is the law between steps.  A step writes its product with each
    # distinct weight into the rows of law (numpy copies law[0] first, as
    # the operands overlap), gathers every state's sources from them and
    # sums the gather back into law[0].  An exact law has Python-int weights
    # in units of 1/step, so each step multiplies the denominator by step.
    weights, den = (values.astype(object), 1) if exact else (values / step, None)
    law = np.zeros((len(weights), n_states), dtype=weights.dtype)
    law[0, start] = 1
    step_no = 0
    for k in ks:
        while step_no < k:
            np.take(np.multiply.outer(weights, law[0], out=law).ravel(), index).sum(axis=0, out=law[0])
            if exact:
                den *= step
            step_no += 1
        yield k, Distribution(model, law[0].copy(), den)


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
    targets, units = _kernel_table(model)
    mat = np.zeros((n_states, n_states))
    mat[np.arange(n_states)[:, None], targets] = units / step_units(model)
    return mat


def spectrum(model: ModelSpec) -> np.ndarray:
    """All kernel eigenvalues, descending.

    Each entry is units / step_units(model), so the float matrix is
    symmetric to the bit exactly when the integer table is.  That is checked
    exactly (RuntimeError otherwise) before the dense symmetric eigensolver
    reads the matrix as it is.
    """
    mat = _dense_kernel(model)
    if not np.array_equal(mat, mat.T):
        raise RuntimeError(f"{_label(model)}: kernel asymmetry")
    return np.sort(np.linalg.eigvalsh(mat))[::-1]


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
