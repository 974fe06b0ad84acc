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
import os
import sys
import time

from . import __version__, bounds, catalog, exact, montecarlo
from .models import Family, ModelSpec

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_int_grid(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    a, b, s = (int(p) for p in parts)
    if s <= 0 or b < a:
        raise ValueError(f"bad grid {spec!r}")
    return list(range(a, b + 1, s))


def _parse_float_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    a, b, s = (float(p) for p in parts)
    if s <= 0 or b < a:
        raise ValueError(f"bad grid {spec!r}")
    out = []
    v = a
    while v <= b + 1e-12:
        out.append(round(v, 12))
        v += s
    return out


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("URNMIX_SEED")
    if env is not None:
        return int(env)
    return 0


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
        f"{total},{exact.space_size(model)},,"
    )
    _emit(args, "catalog", "\n".join(lines) + "\n", model=model, t0=t0)
    return EXIT_OK


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    modes = [m for m in (args.k, args.k_grid, args.c, args.c_grid) if m is not None]
    if len(modes) != 1:
        raise ValueError("bounds needs exactly one of --k, --k-grid, --c, --c-grid")

    if args.k is not None or args.k_grid is not None:
        ks = [args.k] if args.k is not None else _parse_int_grid(args.k_grid)
        if ks and ks[0] < 0:
            raise ValueError("step counts must be nonnegative")
        points = bounds.bound_curve(model, ks)
        lines = ["k,l2n_sq_bound,tv_upper_raw,tv_upper_clamped"]
        for p in points:
            lines.append(
                f"{p.k},{_fmt(p.l2n_sq)},{_fmt(p.tv_upper)},{_fmt(min(1.0, p.tv_upper))}"
            )
        params = {"k_grid": ks}
    else:
        cs = [args.c] if args.c is not None else _parse_float_grid(args.c_grid)
        if any(c <= 0 for c in cs):
            raise ValueError("c must be positive")
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
    if not args.rational:
        curve = {p.k: p.l2n_sq for p in bounds.bound_curve(model, ks)}
    lines = ["k,tv_exact,l2n_sq_exact,tv_upper,plancherel_rel_err"]
    last_dist = None
    for k, dist in exact.evolve_sequence(model, ks, exact=args.rational):
        tv = exact.tv_distance(dist)
        l2 = exact.l2n_sq_distance(dist)
        if args.rational:
            bound = bounds.l2n_sq_bound(model, k, exact=True)
        else:
            bound = curve[k]
        if bound == 0:
            rel = 0.0 if l2 == 0 else math.inf
        else:
            rel = abs(float(l2 - bound)) / float(bound)
        lines.append(
            f"{k},{_fmt(tv)},{_fmt(l2)},{_fmt(math.sqrt(float(bound)))},{_fmt(rel)}"
        )
        last_dist = dist
    if args.dump_dist:
        with open(args.dump_dist, "w") as fh:
            fh.write(exact.distribution_csv(last_dist))
    _emit(
        args,
        "exact",
        "\n".join(lines) + "\n",
        model=model,
        parameters={"k_grid": ks, "rational": bool(args.rational)},
        t0=t0,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    model = _model_of(args)
    seed = _resolve_seed(args)
    cfg = montecarlo.SimConfig(model=model, k=args.k, walkers=args.walkers, seed=seed)
    summary = montecarlo.run(cfg, states_path=args.states_out)
    doc = {
        "family": model.family.value,
        "n": model.n,
        "r": model.r,
        "k": args.k,
        "walkers": args.walkers,
        "seed": seed,
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
        seed=seed,
        t0=t0,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    # imported here so that the other subcommands do not load the suites
    from . import verify

    report = verify.run_quick() if args.level == "quick" else verify.run_full()
    data = "\n".join(report.lines()) + "\n"
    _emit(args, "verify", data, parameters={"level": args.level}, t0=t0)
    if not report.ok:
        first = report.first_failure()
        sys.stderr.write(f"verification failed: {first.name}: {first.detail}\n")
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
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="recorded in the manifest; all computation runs on one thread",
        )

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
    p.add_argument("--seed", type=int, help="seed (default: URNMIX_SEED or 0)")
    p.add_argument("--states-out", help="stream terminal states to this binary file")
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
    except exact.SpaceCapError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
