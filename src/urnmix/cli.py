"""Command line interface.

Commands: catalog, bounds, exact, simulate, verify.  Tabular results go to
stdout (or --output) as CSV with floats at 17 significant digits; simulate
emits JSON.  Every run also writes a manifest (JSON: command, model,
parameters, seed, version, wall time, sha256 of the output) to stderr, or
to <output>.manifest.json when --output is used.  Exit codes: 0 success,
1 verification failure, 2 bad arguments, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

# numpy-backed modules are imported by the subcommands that call them, after
# the model and the grids are checked, so catalog, usage errors and rejected
# models start without numpy
from . import __version__, catalog
from .models import MAX_THREADS, Family, ModelSpec, SpaceCapError, space_size, thread_count

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


# the most points a --k-grid or --c-grid may have, counted before any list is built
GRID_POINT_CAP = 10**6


def _grid_parts(spec: str, kind):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    a, b, s = (kind(p) for p in parts)
    if s <= 0 or b < a:
        raise ValueError(f"bad grid {spec!r}")
    return a, b, s


def _check_grid_points(points) -> None:
    if points > GRID_POINT_CAP:
        raise SpaceCapError(points, GRID_POINT_CAP, "grid points")


def _parse_int_grid(spec: str) -> list[int]:
    a, b, s = _grid_parts(spec, int)
    _check_grid_points((b - a) // s + 1)
    return list(range(a, b + 1, s))


def _parse_float_grid(spec: str) -> list[float]:
    a, b, s = _grid_parts(spec, float)
    if not all(map(math.isfinite, (a, b, s))):
        raise ValueError(f"grid parts must be finite, got {spec!r}")
    # the loop's count, up to the rounding of its sums; b - a may overflow to inf
    span = (b - a + 1e-12) / s
    _check_grid_points(math.floor(span) + 1 if span < math.inf else span)
    out = []
    v = a
    while v <= b + 1e-12:
        out.append(round(v, 12))
        v += s
    return out


def _thread_count(text: str) -> int:
    try:
        return thread_count(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer from 1 to {MAX_THREADS}, got {text!r}") from None


def _model_of(args) -> ModelSpec:
    return ModelSpec(Family(args.family), args.n, args.r)


def _emit(args, command: str, data: str, stable: bytes | None = None,
          model: ModelSpec | None = None, parameters: dict | None = None,
          seed: int | None = None, t0: float = 0.0) -> None:
    """Write the payload and its run manifest."""
    payload = data.encode()
    digest = hashlib.sha256(stable if stable is not None else payload).hexdigest()
    manifest = {
        "command": command,
        "model": None
        if model is None
        else {"family": model.family.value, "n": model.n, "r": model.r},
        "parameters": parameters or {},
        "seed": seed,
        "threads": getattr(args, "threads", None),
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "output_sha256": digest,
    }
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(data)
        with open(args.output + ".manifest.json", "w") as fh:
            json.dump(manifest, fh)
            fh.write("\n")
    else:
        sys.stdout.write(data)
        sys.stderr.write(json.dumps(manifest) + "\n")


def cmd_catalog(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    entries = catalog.catalog_entries(model)
    lines = ["family,n,r,label,dim,mult,eigenvalue_num,eigenvalue_den"]
    for e in entries:
        lines.append(
            f"{model.family.value},{model.n},{model.r},"
            f"{e.label.partition_label(model.n)},{e.dim},{e.mult},"
            f"{e.eigenvalue.numerator},{e.eigenvalue.denominator}"
        )
    total = catalog.total_weight(entries)
    lines.append(
        f"{model.family.value},{model.n},{model.r},TOTAL,"
        f"{total},{space_size(model)},,"
    )
    _emit(args, "catalog", "\n".join(lines) + "\n", model=model, t0=t0)
    return EXIT_OK


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    modes = [m for m in (args.k, args.k_grid, args.c, args.c_grid) if m is not None]
    if len(modes) != 1:
        raise ValueError("bounds needs exactly one of --k, --k-grid, --c, --c-grid")
    by_k = args.k is not None or args.k_grid is not None
    if by_k:
        ks = [args.k] if args.k is not None else _parse_int_grid(args.k_grid)
    else:
        cs = [args.c] if args.c is not None else _parse_float_grid(args.c_grid)
    from . import bounds

    if by_k:
        points = bounds.bound_curve(model, ks)
        lines = ["k,l2n_sq_bound,tv_upper_raw,tv_upper_clamped"]
        for p in points:
            lines.append(
                f"{p.k},{_fmt(p.l2n_sq)},{_fmt(p.tv_upper)},{_fmt(min(1.0, p.tv_upper))}"
            )
        params = {"k_grid": ks}
    else:
        is_variant = model.family is Family.VARIANT
        header = "c,theorem_k"
        if is_variant:
            header += ",lower_k_threshold,tv_guarantee,note"
        lines = [header]
        for c in cs:
            row = f"{_fmt(c)},{bounds.theorem_k(model, c)}"
            if is_variant:
                if model.n >= 3 and c <= math.log(model.n):
                    rep = bounds.lower_bound(model.n, model.r, c)
                    note = "vacuous" if rep.tv_guarantee <= 0 else ""
                    row += f",{rep.k_threshold},{_fmt(rep.tv_guarantee)},{note}"
                else:
                    row += ",,,"
            lines.append(row)
        params = {"c_grid": cs}
    _emit(args, "bounds", "\n".join(lines) + "\n", model=model, parameters=params, t0=t0)
    return EXIT_OK


def cmd_exact(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    if (args.k is None) == (args.k_grid is None):
        raise ValueError("exact needs exactly one of --k, --k-grid")
    ks = [args.k] if args.k is not None else _parse_int_grid(args.k_grid)
    from . import bounds, exact

    # distances first: evolution checks its caps before the bounds build a spectral measure
    points = []
    for k, last_dist in exact.evolve_sequence(model, ks, exact=args.rational):
        points.append((k, exact.tv_distance(last_dist), exact.l2n_sq_distance(last_dist)))
    if args.rational:
        bounds_at = [bounds.l2n_sq_bound(model, k, exact=True) for k, _, _ in points]
    else:
        bounds_at = [p.l2n_sq for p in bounds.bound_curve(model, [k for k, _, _ in points])]
    lines = ["k,tv_exact,l2n_sq_exact,tv_upper,plancherel_rel_err"]
    for (k, tv, l2), bound in zip(points, bounds_at):
        rel = abs(float(l2 - bound)) / float(bound) if bound else (0.0 if l2 == 0 else math.inf)
        lines.append(f"{k},{_fmt(tv)},{_fmt(l2)},{_fmt(math.sqrt(float(bound)))},{_fmt(rel)}")
    if args.dump_dist:
        with open(args.dump_dist, "w") as fh:
            fh.write(exact.distribution_csv(last_dist))
    params = {"k_grid": ks, "rational": bool(args.rational)}
    _emit(args, "exact", "\n".join(lines) + "\n", model=model, parameters=params, t0=t0)
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    from . import montecarlo

    cfg = montecarlo.SimConfig(model=model, k=args.k, walkers=args.walkers, seed=args.seed)
    summary = montecarlo.run(cfg, states_path=args.states_out, threads=args.threads)
    doc = {
        "family": model.family.value,
        "n": model.n,
        "r": model.r,
        "k": args.k,
        "walkers": args.walkers,
        "seed": args.seed,
        "mean_s1": summary.mean_s1,
        "stderr_s1": summary.stderr_s1,
        "empirical_tv": summary.empirical_tv,
        "tv_bias_ceiling": summary.tv_bias_ceiling,
        "elapsed_s": summary.elapsed_s,
    }
    stable = dict(doc)
    stable["elapsed_s"] = 0.0
    _emit(
        args,
        "simulate",
        json.dumps(doc) + "\n",
        stable=(json.dumps(stable) + "\n").encode(),
        model=model,
        parameters={"k": args.k, "walkers": args.walkers},
        seed=args.seed,
        t0=t0,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    from . import verify

    results = [check() for check in (verify.QUICK if args.level == "quick" else verify.FULL)]
    data = "\n".join(result.line() for result in results) + "\n"
    _emit(args, "verify", data, parameters={"level": args.level}, t0=t0)
    for result in results:
        if not result.ok:
            sys.stderr.write(f"verification failed: {result.name}: {result.detail}\n")
            return EXIT_VERIFY
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnmix",
        description="Spectral mixing analysis for urn chains (classical, "
        "variant, and two signed generalizations).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument(
                "--family",
                required=True,
                choices=[f.value for f in Family],
                help="chain family",
            )
            p.add_argument("--n", type=int, required=True, help="number of balls")
            p.add_argument("--r", type=int, required=True, help="rack-1 size (<= n/2)")
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("catalog", help="component catalog as CSV")
    add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("bounds", help="spectral bound curves and theorem step counts")
    add_common(p)
    p.add_argument("--k", type=int, help="single step count")
    p.add_argument("--k-grid", help="step grid start:stop:step")
    p.add_argument("--c", type=float, help="single decay parameter")
    p.add_argument("--c-grid", help="decay grid start:stop:step")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exact distances from uniform along a step grid")
    add_common(p)
    p.add_argument("--k", type=int, help="single step count")
    p.add_argument("--k-grid", help="step grid start:stop:step")
    p.add_argument("--rational", action="store_true", help="exact rational evolution")
    p.add_argument("--dump-dist", help="also write the final distribution CSV here")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo walkers")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="steps per walker")
    p.add_argument("--walkers", type=int, required=True, help="number of walkers")
    p.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    p.add_argument("--states-out", help="stream terminal states to this binary file")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=thread_count(),
        help=f"1..{MAX_THREADS}, default the CPUs this process may use; each block of walkers "
        "is split across them, with the same output for any count",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the self-check suites")
    add_common(p, model=False)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SpaceCapError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
