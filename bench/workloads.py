"""The four benchmark workloads: input generation and one pass over the inputs.

``make_inputs(workload, seed, smoke)`` turns the seed into plain data (model
tuples, step grids, simulation seeds, command lines) without importing
urnmix.  ``run_pass(workload, inputs, rec, ctx)`` makes every call of one
pass through a ``tracing.Recorder`` and checks every output against an
independent computation.  A failed check marks the operation that produced
the output as failed; nothing aborts the pass.

The seed only moves quantities that leave the cost of a pass nearly
unchanged (grid offsets, sampled check points, Monte Carlo seeds, which of
several same-sized CLI inputs run, and the order of tasks), so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import threading
import time

from tracing import FAILED

WORKLOADS = ("evolve-large", "spectral-sweep", "monte-carlo", "cli-small")

# Percentile reported as op_tail_s, per workload.  Each leaves at least ten
# samples beyond it at the fewest passes a run makes at the seed commit, and
# falls inside a run of same-kind operations of a pass rather than on the
# edge between two kinds: on evolve-large p95 and p99 would sit where the
# slowest curve points meet the oracle rows, whose cost depends on the
# sampled states; p90 sits in the upper part of the classical(14,7) points.
# On spectral-sweep p99 sits among the second-slowest pair of bound curves.
# It is fixed rather than recomputed from each run's sample count, so that
# it names the same rank of a pass whether a run fits four passes or five.
# A run with too few samples falls back to the highest level that qualifies.
TAIL_PERCENTILE = {
    "evolve-large": 90.0,
    "spectral-sweep": 99.0,
    "monte-carlo": 95.0,
    "cli-small": 75.0,
}

SIGNED = ("independent", "paired")


def space_size(family: str, n: int, r: int) -> int:
    return math.comb(n, r) << n if family in SIGNED else math.comb(n, r)


def cutoff_coef(family: str, n: int, r: int) -> float:
    """Scale of the spectral cutoff: k = coef * (log n + c)."""
    if family == "classical":
        return 0.5 * r * (1 - r / n)
    if family == "paired":
        return n / 2
    return n / 4


def first_eigenvalue(family: str, n: int, r: int) -> float:
    """Contraction of E[s1] per step (s1 of a signed state reads the racks only)."""
    if family == "classical":
        return 1 - n / (r * (n - r))
    return 1 - 2 / n


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, smoke)


def _evolve_inputs(rng: random.Random, smoke: bool) -> dict:
    if smoke:
        models = [("classical", 6, 3), ("variant", 6, 3), ("independent", 3, 1), ("paired", 3, 1)]
        kbase, rational, spec = 20, ("variant", 4, 2, 10), ("independent", 2, 1)
    else:
        # the largest spaces that keep a pass near six seconds at the seed
        # commit (3432, 3432, 1280 and 1280 states; paired(7,3) alone would
        # add 4.4 s of kernel build)
        models = [("classical", 14, 7), ("variant", 14, 7), ("independent", 6, 3), ("paired", 6, 3)]
        kbase, rational, spec = 190, ("variant", 10, 5, 30), ("independent", 5, 2)
    tasks = []
    for fam, n, r in models:
        # Unsigned grids are three times as long, so that most curve points,
        # and the median operation, are on the 3432-state laws rather than
        # on the boundary between the two space sizes.
        kmax = kbase * (1 if fam in SIGNED else 3) + rng.randrange(21)
        tasks.append({
            "kind": "curve",
            "model": [fam, n, r],
            "kmax": kmax,
            "row_checks": rng.sample(range(space_size(fam, n, r)), 4),
            "marginal_ks": sorted(rng.sample(range(kmax + 1), 16)) if fam in SIGNED else [],
        })
    fam, n, r, kmax = rational
    tasks.append({"kind": "rational", "model": [fam, n, r], "kmax": kmax - rng.randrange(3)})
    tasks.append({"kind": "spectrum", "model": list(spec), "trace_kmax": 4})
    rng.shuffle(tasks)
    return {"tasks": tasks}


def _window(rng: random.Random, family: str, n: int, r: int, points: int) -> list[int]:
    """`points` evenly spaced step counts over coef*(log n + c), c in [-2, 4]."""
    coef = cutoff_coef(family, n, r)
    stride = max(1, round(6 * coef / points))
    start = round(coef * (math.log(n) - 2)) + rng.randrange(stride)
    return [start + j * stride for j in range(points)]


def _sweep_inputs(rng: random.Random, smoke: bool) -> dict:
    if smoke:
        sweeps = [("paired", 8, 4), ("independent", 8, 4), ("variant", 50, 25), ("classical", 50, 25)]
        small = [("paired", 3, 1), ("variant", 6, 3)]
        lb_n, n_c = 50, 4
    else:
        # signed n=64 (12,529 catalog entries) and unsigned n=3000: no kernel
        # could be built at these sizes, only the catalog
        sweeps = [("paired", 64, 32), ("independent", 64, 32), ("variant", 3000, 1500), ("classical", 3000, 1500)]
        small = [("paired", 6, 3), ("independent", 6, 3), ("variant", 20, 10), ("classical", 20, 10)]
        lb_n, n_c = 3000, 20
    tasks = []
    for fam, n, r in sweeps:
        tasks.append({"kind": "sweep", "model": [fam, n, r], "ks": _window(rng, fam, n, r, 100)})
    for fam, n, r in small:
        # A fixed grid: the cost of a rational sum grows with k.  Every k up
        # to 59, so that these rational sums are most of the operations of a
        # pass and the median operation lies among them rather than where
        # the sparse, uneven mix of small calls meets them.
        tasks.append({"kind": "exact-sweep", "model": [fam, n, r], "ks": list(range(60))})
    u = rng.random()
    cs = [(j + u) / n_c * math.log(lb_n) for j in range(n_c)]
    tasks.append({
        "kind": "lower-bound",
        "n": lb_n,
        "r": rng.randrange(lb_n // 3, lb_n // 2 + 1),
        "cs": cs,
        "theorem_models": [list(m) for m in sweeps],
    })
    rng.shuffle(tasks)
    return {"tasks": tasks}


def _mc_inputs(rng: random.Random, smoke: bool) -> dict:
    seed = lambda: rng.getrandbits(32)
    if smoke:
        big = [("classical", 8, 4, 500), ("variant", 8, 4, 500), ("independent", 8, 4, 500), ("paired", 8, 4, 500)]
        tv_model, tv_walkers, rep_n = ("variant", 4, 2), 1000, 6
        rep_walkers = dict.fromkeys(("classical", "variant", "independent", "paired"), 2)
        inv = ("independent", 3, 1, 6, 1500)
    else:
        # walker counts put each family between 0.6 and 0.9 s at the seed commit
        big = [("classical", 48, 24, 18000), ("variant", 64, 32, 150000),
               ("independent", 64, 32, 90000), ("paired", 64, 32, 60000)]
        tv_model, tv_walkers, rep_n = ("variant", 10, 5), 50000, 16
        # Replays are most of the operations of a pass.  Classical replays
        # are the slowest; with 40 of them and 4 of each other family, about
        # as many operations are faster than the classical block as are
        # slower, so the median operation lies in its middle rather than on
        # the edge between two families.
        rep_walkers = {"classical": 40, "variant": 4, "independent": 4, "paired": 4}
        inv = ("independent", 4, 2, 12, 6000)
    tasks = []
    for fam, n, r, walkers in big:
        scale = 0.5 if fam == "paired" else 0.25
        tasks.append({"kind": "run", "model": [fam, n, r], "k": round(scale * n * math.log(n)),
                      "walkers": walkers, "seed": seed()})
    tasks.append({"kind": "tv", "model": list(tv_model), "k": rng.choice([3, 4, 5]),
                  "walkers": tv_walkers, "seed": seed()})
    fam, n, r, k, walkers = inv
    tasks.append({"kind": "batching", "model": [fam, n, r], "k": k, "walkers": walkers, "seed": seed()})
    for fam, walkers in rep_walkers.items():
        tasks.append({"kind": "replay", "model": [fam, rep_n, rep_n // 2], "k": 48,
                      "walkers": walkers, "seed": seed()})
    rng.shuffle(tasks)
    return {"tasks": tasks}


# CLI inputs come from fixed pools so that the byte-contract outputs
# (catalog, exact --rational, simulate) can be compared with sha256 digests
# recorded at the seed commit in golden_cli.json.
CATALOG_POOL = {
    "classical": [(6, 3), (8, 4), (10, 4)],
    "variant": [(6, 3), (8, 4), (10, 5)],
    "independent": [(3, 1), (4, 2), (5, 2)],
    "paired": [(3, 1), (4, 2), (5, 2)],
}
RATIONAL_POOL = [
    ("variant", 6, 3, "0:10:1"), ("classical", 6, 3, "0:12:2"), ("independent", 3, 1, "0:8:1"),
    ("paired", 3, 1, "0:8:1"), ("variant", 8, 4, "0:20:4"), ("paired", 4, 2, "0:6:1"),
]
FLOAT_EXACT_POOL = [
    ("variant", 8, 4, "0:40:1"), ("classical", 8, 4, "0:40:2"),
    ("independent", 4, 2, "0:30:1"), ("paired", 4, 2, "0:30:1"),
]
BOUNDS_K_POOL = [
    ("variant", 100, 50, "100:300:10"), ("paired", 12, 6, "0:60:3"),
    ("independent", 12, 6, "0:60:3"), ("classical", 100, 30, "0:200:10"),
]
BOUNDS_C_POOL = [("variant", 100, 50, "0.5:4:0.5"), ("variant", 400, 200, "1:5:0.5"), ("paired", 20, 10, "1:3:1")]
SIMULATE_POOL = {
    "classical": (12, 6, 20, 20000),
    "variant": (12, 6, 15, 20000),
    "independent": (8, 4, 15, 20000),
    "paired": (8, 4, 20, 20000),
}
SIMULATE_SEEDS = range(8)

# At the seed commit this input dies with an uncaught OverflowError
# (exit 1).  It runs once per cli-small run as a probe and is reported on
# its own, outside the counted operations.
DEFECT_PROBE = ["bounds", "--family", "variant", "--n", "1100", "--r", "550", "--k", "0"]

CLI_TIMEOUT_S = 120


def _model_args(fam: str, n: int, r: int) -> list[str]:
    return ["--family", fam, "--n", str(n), "--r", str(r)]


def catalog_argv(fam, n, r):
    return ["catalog"] + _model_args(fam, n, r)


def rational_argv(fam, n, r, grid):
    return ["exact"] + _model_args(fam, n, r) + ["--k-grid", grid, "--rational"]


def simulate_argv(fam, seed):
    n, r, k, walkers = SIMULATE_POOL[fam]
    return ["simulate"] + _model_args(fam, n, r) + ["--k", str(k), "--walkers", str(walkers), "--seed", str(seed)]


def golden_argvs() -> list[list[str]]:
    """Every byte-contract command line the cli-small workload can draw."""
    out = [catalog_argv(f, n, r) for f, sizes in CATALOG_POOL.items() for n, r in sizes]
    out += [rational_argv(*e) for e in RATIONAL_POOL]
    out += [simulate_argv(f, s) for f in SIMULATE_POOL for s in SIMULATE_SEEDS]
    return out


def _cli_inputs(rng: random.Random, smoke: bool) -> dict:
    procs = [catalog_argv(f, *rng.choice(sizes)) for f, sizes in CATALOG_POOL.items()]
    procs += [rational_argv(*e) for e in rng.sample(RATIONAL_POOL, 2)]
    procs += [["exact"] + _model_args(*e[:3]) + ["--k-grid", e[3]] for e in rng.sample(FLOAT_EXACT_POOL, 2)]
    procs += [["bounds"] + _model_args(*e[:3]) + ["--k-grid", e[3]] for e in rng.sample(BOUNDS_K_POOL, 2)]
    e = rng.choice(BOUNDS_C_POOL)
    procs.append(["bounds"] + _model_args(*e[:3]) + ["--c-grid", e[3]])
    procs += [simulate_argv(f, rng.choice(SIMULATE_SEEDS)) for f in SIMULATE_POOL]
    procs.append(["verify", "--level", "quick"])
    procs += [["import"], ["import"]]
    if smoke:
        # one process per subcommand
        seen, kept = set(), []
        for p in procs:
            if p[0] not in seen:
                seen.add(p[0])
                kept.append(p)
        procs = kept
    rng.shuffle(procs)
    return {"procs": procs}


_MAKERS = {
    "evolve-large": _evolve_inputs,
    "spectral-sweep": _sweep_inputs,
    "monte-carlo": _mc_inputs,
    "cli-small": _cli_inputs,
}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def run_pass(workload: str, inputs: dict, rec, ctx: dict) -> None:
    if workload == "cli-small":
        for argv in inputs["procs"]:
            _cli_task(argv, rec, ctx)
        return
    handlers = _HANDLERS[workload]
    for task in inputs["tasks"]:
        with rec.task(task["kind"]):
            handlers[task["kind"]](task, rec, ctx)


def _spec(model):
    from urnmix import Family, ModelSpec

    fam, n, r = model
    return ModelSpec(Family(fam), n, r)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _any_failed(*results) -> bool:
    return any(x is FAILED for x in results)


def _fail_exc(rec, op, exc) -> None:
    rec.fail(op, f"{type(exc).__name__}: {exc}")


# -- evolve-large --------------------------------------------------------------


def _evolve(rec, model, ks, on_dist) -> dict:
    """Drive evolve_sequence one curve point at a time; return {k: op}.

    A point is one operation, as distance_curve computes it: the next() that
    yields the law at the following grid point, plus on_dist(op, k, dist),
    which reduces that law inside the same operation.  The first next() also
    builds the kernel; its time is exact.kernel_build, the later ones
    exact.step.  ks must be sorted and distinct.  Returns None if
    evolve_sequence raised.
    """
    from urnmix import evolve_sequence

    gen = evolve_sequence(model, ks)
    name = "exact.kernel_build"
    ops = {}
    for want in ks:
        op = rec.new_op("exact.curve_point")
        try:
            k, dist = rec.timed(op, "exact", name, next, gen)
        except Exception as exc:
            _fail_exc(rec, op, exc)
            return None
        name = "exact.step"
        ops[k] = op
        rec.check(op, k == want, f"{model}: evolve_sequence yielded k={k}, expected {want}")
        on_dist(op, k, dist)
    states = space_size(model.family.value, model.n, model.r)
    rec.counts["exact.states"] += states
    rec.counts["exact.steps"] += ks[-1]
    rec.counts["exact.state_steps"] += states * ks[-1]
    return ops


def _curve_task(task, rec, ctx):
    """Float distance curve over a dense k grid, checked four ways."""
    from urnmix import initial_state, kernel_row, tv_distance
    from urnmix.exact import l2n_sq_distance, state_at, state_index, subset_marginal

    model = _spec(task["model"])
    label = task["model"]
    ks = list(range(task["kmax"] + 1))
    marginal_ks = set(task["marginal_ks"])
    tv, l2, marginals, first_step = {}, {}, {}, []

    def reduce(op, k, dist):
        for out, name, fn in ((tv, "exact.tv_distance", tv_distance), (l2, "exact.l2n_sq_distance", l2n_sq_distance)):
            try:
                out[k] = rec.timed(op, "exact", name, fn, dist)
            except Exception as exc:
                _fail_exc(rec, op, exc)
                out[k] = FAILED
        if k == 1:
            first_step.append(dist.probs)
        if k in marginal_ks:
            marginals[k] = rec.call("exact", "exact.subset_marginal", subset_marginal, dist), rec.ops[-1]

    point_ops = _evolve(rec, model, ks, reduce)
    if point_ops is None:
        return

    # Plancherel: the directly computed l2 distance equals the spectral sum,
    # and tv stays under its square root.
    entries = _catalog(rec, model, label)
    points = FAILED if entries is FAILED else _bound_curve(rec, model, label, ks, len(entries))
    if points is not FAILED:
        for p in points:
            if tv[p.k] is FAILED or l2[p.k] is FAILED:
                continue
            if p.l2n_sq >= 1e-12 and _rel(l2[p.k], p.l2n_sq) > 1e-9:
                rec.check(point_ops[p.k], False, f"{label} k={p.k}: Plancherel rel err {_rel(l2[p.k], p.l2n_sq):.3g}")
                break
            # 1e-12: float TV has a noise floor near 1e-14 once the law is uniform
            if tv[p.k] > p.tv_upper * (1 + 1e-9) + 1e-12:
                rec.check(point_ops[p.k], False, f"{label} k={p.k}: tv {tv[p.k]:.17g} above the spectral bound")
                break

    # One step from the start must be the oracle row of the start state.
    row = rec.call("chains", "chains.kernel_row", kernel_row, model, initial_state(model))
    if row is not FAILED and first_step:
        probs1 = first_step[0]
        idx = [state_index(model, t) for t, _ in row.entries]
        worst = max(abs(probs1[i] - float(w)) for i, (_, w) in zip(idx, row.entries))
        mass = float(probs1[idx].sum())
        rec.check(point_ops[1], worst <= 1e-15 and abs(mass - 1) <= 1e-12,
                  f"{label}: k=1 law differs from the start row by {worst:.3g}")
    # Oracle rows at sampled states: exact row sums and symmetry.
    for idx in task["row_checks"]:
        s = state_at(model, idx)
        row = rec.call("chains", "chains.kernel_row", kernel_row, model, s)
        if row is FAILED:
            continue
        rec.check(rec.ops[-1], row.total() == 1, f"{label} state {idx}: row sum {row.total()}")
        for t, w in row.entries[:2]:
            back = rec.call("chains", "chains.kernel_row", kernel_row, model, t)
            if back is not FAILED:
                rec.check(rec.ops[-1], back.weight_to(s) == w, f"{label} state {idx}: kernel not symmetric")

    # Ignoring charges, a signed chain is the variant chain.
    if marginals:
        def compare(point_op, k, dist):
            m, op = marginals[k]
            if m is not FAILED:
                err = float(abs(m.probs - dist.probs).max())
                rec.check(op, err <= 1e-12, f"{label} k={k}: rack marginal off by {err:.3g}")

        _evolve(rec, _spec(["variant", model.n, model.r]), sorted(marginals), compare)


def _rational_task(task, rec, ctx):
    """Rational curve against the float curve and the rational spectral sum."""
    from urnmix import distance_curve, l2n_sq_bound

    model = _spec(task["model"])
    label = task["model"]
    ks = list(range(task["kmax"] + 1))
    exact_pts = rec.call("exact", "exact.distance_curve_rational", distance_curve, model, ks, exact=True)
    op = rec.ops[-1]
    float_pts = rec.call("exact", "exact.distance_curve", distance_curve, model, ks)
    entries = _catalog(rec, model, label)
    if _any_failed(exact_pts, float_pts, entries):
        return
    for p, f in zip(exact_pts, float_pts):
        if abs(float(p.tv) - f.tv) > 1e-12:
            rec.check(op, False, f"{label} k={p.k}: float tv {f.tv!r} vs rational {float(p.tv)!r}")
            break
        want = rec.call("bounds", "bounds.l2n_sq_bound", l2n_sq_bound, model, p.k, exact=True, entries=entries)
        if want is not FAILED and p.l2n_sq != want:
            rec.check(op, False, f"{label} k={p.k}: rational l2 distance != rational spectral sum")
            break


def _spectrum_task(task, rec, ctx):
    """Dense kernel spectrum against the catalog, plus the trace identity."""
    import numpy as np
    from urnmix import spectrum
    from urnmix.exact import expected_spectrum, trace_identity_check

    model = _spec(task["model"])
    label = task["model"]
    got = rec.call("exact", "exact.spectrum", spectrum, model)
    op = rec.ops[-1]
    want = rec.call("exact", "exact.expected_spectrum", expected_spectrum, model)
    if not _any_failed(got, want):
        if rec.check(op, got.shape == want.shape, f"{label}: {got.shape} eigenvalues vs catalog {want.shape}"):
            err = float(np.abs(got - want).max())
            rec.check(op, err <= 1e-8, f"{label}: spectrum differs from the catalog by {err:.3g}")
    rows = rec.call("exact", "exact.trace_identity_check", trace_identity_check, model, task["trace_kmax"])
    if rows is not FAILED:
        worst = max(row.rel_err for row in rows)
        rec.check(rec.ops[-1], worst <= 1e-9, f"{label}: trace identity rel err {worst:.3g}")


# -- spectral-sweep -----------------------------------------------------------


def _catalog(rec, model, label):
    """catalog_entries as one operation, with its size counts and checks."""
    from urnmix import catalog_entries

    entries = rec.call("catalog", "catalog.catalog_entries", catalog_entries, model)
    if entries is FAILED:
        return FAILED
    op = rec.ops[-1]
    rec.counts["catalog.entries"] += len(entries)
    rec.counts["catalog.distinct_eigenvalues"] += len({e.eigenvalue for e in entries})
    weight = sum(e.dim * e.mult for e in entries)
    rec.check(op, weight == space_size(*label), f"{label}: total weight {weight} != space size")
    top = [e for e in entries if e.eigenvalue == 1]
    rec.check(op, len(top) == 1 and all(abs(e.eigenvalue) <= 1 for e in entries),
              f"{label}: eigenvalue 1 not simple or |eigenvalue| > 1")
    return entries


def _bound_curve(rec, model, label, ks, n_entries):
    from urnmix import bound_curve

    points = rec.call("bounds", "bounds.bound_curve", bound_curve, model, ks)
    if points is FAILED:
        return FAILED
    op = rec.ops[-1]
    rec.counts["bounds.k_values"] += len(ks)
    rec.counts["bounds.term_evals"] += n_entries * len(ks)
    if not rec.check(op, [p.k for p in points] == ks, f"{label}: bound curve grid mismatch"):
        return FAILED
    prev = math.inf
    for p in points:
        ok = math.isfinite(p.l2n_sq) and 0 <= p.l2n_sq <= prev * (1 + 1e-12)
        ok = ok and _rel(p.tv_upper, math.sqrt(p.l2n_sq)) <= 1e-15
        if not rec.check(op, ok, f"{label} k={p.k}: bound {p.l2n_sq!r} not finite, nonincreasing, sqrt-consistent"):
            break
        prev = p.l2n_sq
    return points


def _sweep_task(task, rec, ctx):
    """Catalog plus a bound sweep where no kernel could be built."""
    model = _spec(task["model"])
    entries = _catalog(rec, model, task["model"])
    if entries is not FAILED:
        _bound_curve(rec, model, task["model"], task["ks"], len(entries))


def _exact_sweep_task(task, rec, ctx):
    """Float bound sweep against the rational spectral sum at small n."""
    from urnmix import l2n_sq_bound

    model = _spec(task["model"])
    label = task["model"]
    entries = _catalog(rec, model, label)
    if entries is FAILED:
        return
    points = _bound_curve(rec, model, label, task["ks"], len(entries))
    if points is FAILED:
        return
    op = rec.ops[-1]
    for p in points:
        want = rec.call("bounds", "bounds.l2n_sq_bound", l2n_sq_bound, model, p.k, exact=True, entries=entries)
        if want is not FAILED and want and _rel(p.l2n_sq, float(want)) > 1e-10:
            rec.check(op, False, f"{label} k={p.k}: float bound {p.l2n_sq!r} vs exact {float(want)!r}")
            break


def _lower_bound_task(task, rec, ctx):
    """Lower-bound reports and theorem step counts over a c grid."""
    from urnmix import lower_bound, theorem_k

    n, r = task["n"], task["r"]
    for c in task["cs"]:
        rep = rec.call("bounds", "bounds.lower_bound", lower_bound, n, r, c)
        if rep is FAILED:
            continue
        ok = 0 <= rep.k_threshold <= 0.25 * n * math.log(n)
        ok = ok and _rel(rep.tv_guarantee, 1 - 1566 * math.exp(-c)) <= 1e-12
        ok = ok and _rel(rep.mean_f, math.sqrt(n - 1) * (1 - 2 / n) ** rep.k_threshold) <= 1e-9
        rec.check(rec.ops[-1], ok, f"lower_bound({n},{r},{c!r}) inconsistent: {rep}")
    for label in task["theorem_models"]:
        model = _spec(label)
        c = task["cs"][len(task["cs"]) // 2]
        k = rec.call("bounds", "bounds.theorem_k", theorem_k, model, c)
        if k is not FAILED:
            want = math.ceil(cutoff_coef(*label) * (math.log(model.n) + c))
            rec.check(rec.ops[-1], abs(k - want) <= 1, f"theorem_k{label} = {k}, expected about {want}")


# -- monte-carlo ----------------------------------------------------------------


def _mc_run(rec, task, **kwargs):
    from urnmix import SimConfig, run

    model = _spec(task["model"])
    cfg = SimConfig(model=model, k=task["k"], walkers=task["walkers"], seed=task["seed"])
    fam = task["model"][0]
    summary = rec.call("montecarlo", f"montecarlo.run.{fam}", run, cfg, **kwargs)
    if summary is not FAILED:
        steps = task["walkers"] * task["k"]
        rec.counts["montecarlo.walker_steps"] += steps
        rec.counts[f"montecarlo.walker_steps.{fam}"] += steps
    return summary


def _mc_moment_check(rec, task, summary) -> None:
    fam, n, r = task["model"]
    want = first_eigenvalue(fam, n, r) ** task["k"]
    dev = abs(summary.mean_s1 - want)
    rec.check(rec.ops[-1], math.isfinite(summary.mean_s1) and dev <= 5 * summary.stderr_s1,
              f"{task['model']} k={task['k']}: mean s1 {summary.mean_s1!r} is {dev:.3g} from {want!r}, "
              f"stderr {summary.stderr_s1:.3g}")


def _mc_run_task(task, rec, ctx):
    """Vectorized walkers at the cutoff scale; E[s1] has a closed form."""
    summary = _mc_run(rec, task)
    if summary is not FAILED:
        _mc_moment_check(rec, task, summary)


def _mc_tv_task(task, rec, ctx):
    """Small space: the empirical TV path, against exact evolution."""
    from urnmix import evolve, tv_distance

    summary = _mc_run(rec, task)
    if summary is FAILED:
        return
    op = rec.ops[-1]
    _mc_moment_check(rec, task, summary)
    if not rec.check(op, summary.empirical_tv is not None, f"{task['model']}: empirical TV path not taken"):
        return
    model = _spec(task["model"])
    dist = rec.call("exact", "exact.evolve", evolve, model, task["k"])
    if dist is FAILED:
        return
    tv = rec.call("exact", "exact.tv_distance", tv_distance, dist)
    if tv is not FAILED:
        gap = abs(summary.empirical_tv - tv)
        rec.check(op, gap <= summary.tv_bias_ceiling,
                  f"{task['model']} k={task['k']}: empirical TV off by {gap:.3g} > {summary.tv_bias_ceiling:.3g}")


def _mc_batching_task(task, rec, ctx):
    """The summary is a function of the configuration, not of the batching."""
    a = _mc_run(rec, task)
    b = _mc_run(rec, task, block_size=777)
    if _any_failed(a, b):
        return
    same = (a.mean_s1, a.stderr_s1, a.empirical_tv) == (b.mean_s1, b.stderr_s1, b.empirical_tv)
    rec.check(rec.ops[-1], same, f"{task['model']}: summary depends on the batch size")


def _mc_replay_task(task, rec, ctx):
    """Terminal states of a vectorized run, replayed walker by walker."""
    from urnmix import WalkerStream, initial_state, step

    path = os.path.join(ctx["tmp_dir"], "states.bin")
    summary = _mc_run(rec, task, states_path=path)
    if summary is FAILED:
        return
    run_op = rec.ops[-1]
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    magic = b"URNMC01\x00"
    walkers = task["walkers"]
    if not rec.check(run_op, data[:8] == magic and len(data) == 8 + 16 * walkers,
                     f"{task['model']}: malformed states file"):
        return
    records = struct.unpack(f"<{2 * walkers}Q", data[8:])
    model = _spec(task["model"])
    signed = model.family.signed
    for w in range(walkers):
        op = rec.new_op("chains.replay")

        def walk():
            stream = WalkerStream(task["seed"], w)
            state = initial_state(model)
            for _ in range(task["k"]):
                state = step(model, state, stream)
            return state

        try:
            state = rec.timed(op, "chains", "chains.replay", walk)
        except Exception as exc:
            _fail_exc(rec, op, exc)
            continue
        rec.counts["chains.scalar_steps"] += task["k"]
        got = (state.signs if signed else 0, state.rack1)
        rec.check(op, got == records[2 * w:2 * w + 2], f"{task['model']} walker {w}: scalar replay differs")


# -- cli-small ------------------------------------------------------------------


def _cli_task(argv, rec, ctx):
    """One CLI process, then checks on its exit code, output and manifest."""
    sub = argv[0]
    if sub == "import":
        cmd = [sys.executable, "-c", "import urnmix"]
    else:
        cmd = [sys.executable, "-m", "urnmix.cli"] + argv
    with rec.task(f"cli {sub}"):
        op = rec.new_op(f"cli.{sub}")
        try:
            proc, maxrss_kb = rec.timed(op, "cli", f"cli.{sub}", run_cli, cmd, ctx)
        except (OSError, subprocess.SubprocessError) as exc:
            _fail_exc(rec, op, exc)
            return
        ctx["cli_peak_kb"] = max(ctx.get("cli_peak_kb", 0), maxrss_kb)
        rec.counts["cli.processes"] += 1
        rec.samples[f"cli.process_s.{sub}"].append(op.latency)
        label = " ".join(argv)
        if not rec.check(op, proc.returncode == 0, f"{label}: exit {proc.returncode}: {_last_line(proc.stderr)}"):
            return
        if sub == "import":
            return
        out = proc.stdout
        try:
            manifest = json.loads(proc.stderr.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            rec.check(op, False, f"{label}: no manifest on stderr")
            return
        rec.samples["cli.manifest_gap_s"].append(op.latency - manifest["wall_time_s"])
        if sub == "verify":
            rec.samples["verify.quick_s"].append(manifest["wall_time_s"])
        try:
            stable = _stable_output(rec, op, argv, out)
            _check_cli_text(rec, op, argv, out.decode())
        except (ValueError, IndexError, KeyError) as exc:
            rec.check(op, False, f"{label}: unreadable output ({type(exc).__name__}: {exc})")
            return
        digest = hashlib.sha256(stable).hexdigest()
        rec.check(op, manifest["output_sha256"] == digest, f"{label}: manifest sha256 does not match the output")
        golden = ctx["golden"].get(label)
        if golden is not None:
            rec.check(op, digest == golden, f"{label}: output sha256 differs from the seed commit's")
        elif sub in ("catalog", "simulate") or "--rational" in argv:
            rec.check(op, False, f"{label}: no golden digest recorded")


def run_cli(cmd: list[str], ctx: dict) -> tuple[subprocess.CompletedProcess, int]:
    """Run one process to its end; return it and its own peak RSS in KiB.

    The process is reaped with wait4, so the RSS is this child's alone and
    not that of every child the benchmark has waited for.  Output goes to
    anonymous files in the run's scratch directory; a process still running
    after CLI_TIMEOUT_S is killed.
    """
    with tempfile.TemporaryFile(dir=ctx["tmp_dir"]) as out, tempfile.TemporaryFile(dir=ctx["tmp_dir"]) as err:
        proc = subprocess.Popen(cmd, cwd=ctx["root"], env=ctx["env"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read()), usage.ru_maxrss


def _stable_output(rec, op, argv, out: bytes) -> bytes:
    """The bytes the manifest digests: simulate's JSON with elapsed_s zeroed."""
    if argv[0] != "simulate":
        return out
    doc = json.loads(out)
    want = first_eigenvalue(doc["family"], doc["n"], doc["r"]) ** doc["k"]
    rec.check(op, abs(doc["mean_s1"] - want) <= 5 * doc["stderr_s1"], f"{' '.join(argv)}: mean s1 off")
    doc["elapsed_s"] = 0.0
    return (json.dumps(doc) + "\n").encode()


def _last_line(data: bytes) -> str:
    lines = data.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows[0], rows[1:]


def _check_cli_text(rec, op, argv, text) -> None:
    sub, label = argv[0], " ".join(argv)
    if sub == "verify":
        lines = text.strip().splitlines()
        rec.check(op, bool(lines) and all(x.startswith("PASS ") for x in lines), f"{label}: a check did not pass")
        return
    if sub == "simulate":
        return
    fam, n, r = argv[2], int(argv[4]), int(argv[6])
    header, rows = _csv(text)
    if sub == "catalog":
        # labels contain commas, so read the numeric columns from the right
        total = rows[-1]
        ok = total[3] == "TOTAL" and int(total[-4]) == int(total[-3]) == space_size(fam, n, r)
        ok = ok and sum(int(x[-4]) * int(x[-3]) for x in rows[:-1]) == space_size(fam, n, r)
        rec.check(op, ok, f"{label}: total weight is not the space size")
    elif sub == "exact":
        for row in rows:
            tv, l2, upper, rel = (float(x) for x in row[1:5])
            ok = rel <= 1e-9 or l2 < 1e-12
            if "--rational" in argv:
                ok = rel == 0
            ok = ok and tv <= upper * (1 + 1e-9) + 1e-12
            if not rec.check(op, ok, f"{label} k={row[0]}: Plancherel error {rel!r} or tv above bound"):
                break
    elif "--k-grid" in argv:
        prev = math.inf
        for row in rows:
            l2, raw, clamped = (float(x) for x in row[1:4])
            ok = l2 <= prev * (1 + 1e-12) and _rel(raw, math.sqrt(l2)) <= 1e-15 and clamped == min(1.0, raw)
            if not rec.check(op, ok, f"{label} k={row[0]}: bound row inconsistent"):
                break
            prev = l2
    else:
        ok = header[:2] == ["c", "theorem_k"] and len(rows) >= 1
        ok = ok and (fam != "variant" or header[2:] == ["lower_k_threshold", "tv_guarantee", "note"])
        rec.check(op, ok, f"{label}: unexpected c-mode table")


def defect_probe(ctx) -> dict:
    """Run DEFECT_PROBE once; the ROADMAP asks for exit 0, 2 or 3, never a traceback."""
    cmd = [sys.executable, "-m", "urnmix.cli"] + DEFECT_PROBE
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ctx["root"], env=ctx["env"], capture_output=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    failed = proc.returncode not in (0, 2, 3) or b"Traceback" in proc.stderr
    return {"argv": " ".join(DEFECT_PROBE), "exit": proc.returncode, "failed": failed,
            "stderr_last_line": _last_line(proc.stderr), "wall_s": wall}


_HANDLERS = {
    "evolve-large": {"curve": _curve_task, "rational": _rational_task, "spectrum": _spectrum_task},
    "spectral-sweep": {"sweep": _sweep_task, "exact-sweep": _exact_sweep_task, "lower-bound": _lower_bound_task},
    "monte-carlo": {"run": _mc_run_task, "tv": _mc_tv_task, "batching": _mc_batching_task,
                    "replay": _mc_replay_task},
}
