"""urnmix benchmark: four workloads against the public API and the CLI.

Run from the repository root:

    python3 bench/run.py --workload evolve-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

A run repeats one pass over the workload's seed-generated inputs until
--seconds have gone by (whole passes only), checks every output, prints a
human-readable report, writes bench/out/<workload>-s<seed>-t<trace>.json
(metadata, all metrics and, when traced, every span), and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 passes alternate
untraced and traced, and the metrics are the per-layer ones derived from
the traced passes.  See bench/README.md for what each workload exercises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Recorder

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
LAYERS = ("bench", "catalog", "bounds", "chains", "exact", "montecarlo", "cli")
FAMILIES = ("classical", "variant", "independent", "paired")
SUBCOMMANDS = ("catalog", "bounds", "exact", "simulate", "verify")
SETUP_PROBES = 15
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "exact.kernel_build_s": "s", "exact.step_s": "s", "exact.reduce_s": "s",
        "exact.rational_s": "s", "exact.spectrum_s": "s",
        "exact.states": "count", "exact.steps": "count",
        "catalog.build_s": "s", "catalog.entries": "count", "catalog.distinct_eigenvalues": "count",
        "bounds.sweep_s": "s", "bounds.k_values": "count", "bounds.term_evals": "count",
        "bounds.lower_bound_s": "s",
        "montecarlo.walker_steps": "count",
        "chains.kernel_row_s": "s", "chains.scalar_steps_per_s": "1/s",
        "cli.import_s": "s", "cli.manifest_gap_s": "s", "cli.processes": "count",
        "cli.defect_probe_failures": "count",
        "verify.quick_s": "s",
        "trace.overhead_s": "s", "trace.spans": "count",
    }
    for fam in FAMILIES:
        units[f"montecarlo.walker_steps_per_s.{fam}"] = "1/s"
        units[f"montecarlo.run_s.{fam}"] = "s"
    for sub in SUBCOMMANDS:
        units[f"cli.process_s.{sub}"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


# -- environment ----------------------------------------------------------------


def thread_caps() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        caps[var] = str(min(int(current), nproc)) if current.isdigit() and int(current) > 0 else str(nproc)
    return caps


def child_env(caps: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ)
    env.update(caps)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("URNMIX_SEED", None)
    return env


def import_urnmix():
    """Import urnmix from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import urnmix

    if Path(urnmix.__file__).resolve().parent != SRC / "urnmix":
        raise SystemExit(f"urnmix imported from {urnmix.__file__}, not from {SRC}")
    return urnmix


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(caps: dict[str, str]) -> dict:
    from importlib import metadata as md
    import platform

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "urnmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": md.version("numpy"),
        "thread_caps": caps,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- statistics -----------------------------------------------------------------


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, -(-len(sorted_vals) * q // 100) - 1)
    return sorted_vals[int(idx)]


def tail_level(n: int, wanted: float) -> float | None:
    """`wanted` if at least ten of n samples lie beyond it, else the highest ladder level that has."""
    for q in (wanted,) + TAIL_LADDER:
        if q <= wanted and n - -(-n * q // 100) >= 10:
            return q
    return None


def median_or_zero(vals) -> float:
    return statistics.median(vals) if vals else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# -- set-up -------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    import_urnmix()
    workloads.make_inputs(workload, seed, smoke)
    sys.stdout.write("ready\n")


def setup_probe_cmd(workload: str, seed: int, smoke: bool) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload,
            "--seed", str(seed)] + (["--smoke"] if smoke else [])


def measure_setup(cmd: list[str], env: dict) -> float:
    """Wall time of a fresh interpreter that imports urnmix and builds the inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout != b"ready\n":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return wall


# -- one run ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, caps: dict) -> dict:
    """Repeat passes until `seconds` of pass time have gone by.

    Wall time and work rate are taken per pass and reported as medians
    over passes, which discounts passes that ran while the machine was
    slow.  Operation latencies are pooled over all passes.  SETUP_PROBES
    set-up probes run between passes, in proportion to the pass time gone
    by, so that their median, too, spans the whole run rather than one
    moment of it.
    """
    env = child_env(caps)
    probe_cmd = setup_probe_cmd(workload, seed, smoke)
    setup = [measure_setup(probe_cmd, env)]
    inputs = workloads.make_inputs(workload, seed, smoke)
    in_process = workload != "cli-small"
    if in_process:
        import_urnmix()
    tmp_dir = BENCH / "out" / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    ctx = {"root": str(ROOT), "env": env, "tmp_dir": str(tmp_dir), "golden": {}}
    if workload == "cli-small":
        ctx["golden"] = json.loads((BENCH / "golden_cli.json").read_text())

    plain, traced = Recorder(False), Recorder(True)
    passes = []
    spent = 0.0
    while True:
        use_trace = trace and len(passes) % 2 == 1
        rec = traced if use_trace else plain
        mark = rec.mark()
        t0 = time.perf_counter()
        workloads.run_pass(workload, inputs, rec, ctx)
        wall = time.perf_counter() - t0
        spent += wall
        passes.append({"traced": use_trace, "wall": wall, "work_per_s": pass_work_rate(workload, rec, mark),
                       "ops": (mark[2], len(rec.ops))})
        if spent >= seconds and (not trace or len(passes) >= 2):
            break
        if not smoke:
            while len(setup) < math.ceil(SETUP_PROBES * spent / seconds):
                setup.append(measure_setup(probe_cmd, env))
    while len(setup) < (1 if smoke else SETUP_PROBES):
        setup.append(measure_setup(probe_cmd, env))
    probe = workloads.defect_probe(ctx) if workload == "cli-small" else None

    # cli-small: the largest counted CLI process, each measured on its own
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else ctx.get("cli_peak_kb", 0)
    peak_rss_mb = peak_kb / 1024
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "setup": setup, "passes": passes, "plain": plain, "traced": traced,
        "peak_rss_mb": peak_rss_mb, "probe": probe, "inputs": inputs,
    }


WORK_UNIT = {
    "evolve-large": "state-steps in evolve_sequence",
    "spectral-sweep": "bound terms in bound_curve",
    "monte-carlo": "walker-steps in montecarlo.run",
    "cli-small": "CLI processes",
}

# What work_per_s is on each workload, under its own name; the report prints
# it under that name too, and "n/a" for the names of the other workloads.
WORK_NAME = {
    "evolve-large": "exact_state_steps_per_s",
    "spectral-sweep": "bound_terms_per_s",
    "monte-carlo": "mc_walker_steps_per_s",
}


def pass_work_rate(workload: str, rec, mark) -> float:
    """The workload's unit of work per second of time in the calls that do it, over one pass."""
    t0, c0, n0 = mark
    t = {k: v - t0.get(k, 0.0) for k, v in rec.time_in.items()}
    c = {k: v - c0.get(k, 0) for k, v in rec.counts.items()}
    get = lambda d, k: d.get(k, 0)
    if workload == "evolve-large":
        return ratio(get(c, "exact.state_steps"), get(t, "exact.kernel_build") + get(t, "exact.step"))
    if workload == "spectral-sweep":
        return ratio(get(c, "bounds.term_evals"), get(t, "bounds.bound_curve"))
    if workload == "monte-carlo":
        run_time = sum(get(t, f"montecarlo.run.{f}") for f in FAMILIES)
        return ratio(get(c, "montecarlo.walker_steps"), run_time)
    return ratio(get(c, "cli.processes"), sum(op.latency for op in rec.ops[n0:]))


def end_to_end(res: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus report-only extras."""
    rec = res["plain"]
    plain_passes = [p for p in res["passes"] if not p["traced"]]
    lat = sorted(op.latency for op in rec.ops)
    level = tail_level(len(lat), workloads.TAIL_PERCENTILE[res["workload"]])
    metrics = {
        "setup_s": statistics.median(res["setup"]),
        "wall_s": statistics.median(p["wall"] for p in plain_passes),
        "op_p50_s": percentile(lat, 50.0),
        "op_tail_s": percentile(lat, level) if level is not None else lat[-1],
        "peak_rss_mb": res["peak_rss_mb"],
        "work_per_s": statistics.median(p["work_per_s"] for p in plain_passes),
    }
    extras = {
        "work_unit": WORK_UNIT[res["workload"]],
        "op_samples": len(lat),
        "op_tail_percentile": level if level is not None else "max (too few samples)",
        "failed_op_ratio": ratio(sum(op.failed for op in rec.ops), len(rec.ops)),
        "pass_walls_s": [p["wall"] for p in plain_passes],
        "setup_samples_s": res["setup"],
    }
    return metrics, extras


def per_layer(res: dict) -> dict:
    """Per-layer metrics from the traced passes, per pass unless a rate or median."""
    rec = res["traced"]
    traced_walls = [p["wall"] for p in res["passes"] if p["traced"]]
    plain_walls = [p["wall"] for p in res["passes"] if not p["traced"]]
    n = len(traced_walls)
    t, c, s = rec.time_in, rec.counts, rec.samples
    m = {
        "exact.kernel_build_s": t["exact.kernel_build"] / n,
        "exact.step_s": ratio(t["exact.step"], c["exact.steps"]),
        "exact.reduce_s": (t["exact.tv_distance"] + t["exact.l2n_sq_distance"]) / n,
        "exact.rational_s": t["exact.distance_curve_rational"] / n,
        "exact.spectrum_s": (t["exact.spectrum"] + t["exact.trace_identity_check"]) / n,
        "exact.states": c["exact.states"] // n,
        "exact.steps": c["exact.steps"] // n,
        "catalog.build_s": t["catalog.catalog_entries"] / n,
        "catalog.entries": c["catalog.entries"] // n,
        "catalog.distinct_eigenvalues": c["catalog.distinct_eigenvalues"] // n,
        "bounds.sweep_s": t["bounds.bound_curve"] / n,
        "bounds.k_values": c["bounds.k_values"] // n,
        "bounds.term_evals": c["bounds.term_evals"] // n,
        "bounds.lower_bound_s": (t["bounds.lower_bound"] + t["bounds.theorem_k"]) / n,
        "montecarlo.walker_steps": c["montecarlo.walker_steps"] // n,
        "chains.kernel_row_s": t["chains.kernel_row"] / n,
        "chains.scalar_steps_per_s": ratio(c["chains.scalar_steps"], t["chains.replay"]),
        "cli.import_s": median_or_zero(s["cli.process_s.import"]),
        "cli.manifest_gap_s": median_or_zero(s["cli.manifest_gap_s"]),
        "cli.processes": c["cli.processes"] // n,
        "cli.defect_probe_failures": int(bool(res["probe"] and res["probe"]["failed"])),
        "verify.quick_s": median_or_zero(s["verify.quick_s"]),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
        "trace.spans": len(rec.spans) // n,
    }
    for fam in FAMILIES:
        run_time = t[f"montecarlo.run.{fam}"]
        m[f"montecarlo.walker_steps_per_s.{fam}"] = ratio(c[f"montecarlo.walker_steps.{fam}"], run_time)
        m[f"montecarlo.run_s.{fam}"] = run_time / n
    for sub in SUBCOMMANDS:
        m[f"cli.process_s.{sub}"] = median_or_zero(s[f"cli.process_s.{sub}"])
    self_times = rec.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0) / n
    return m


def summarize(res: dict, meta: dict) -> dict:
    recs = [res["plain"], res["traced"]]
    attempted = sum(len(r.ops) for r in recs)
    failed = sum(op.failed for r in recs for op in r.ops)
    e2e, extras = end_to_end(res)
    layer = per_layer(res) if res["trace"] else None
    units = END_TO_END if not res["trace"] else per_layer_units()
    chosen = layer if res["trace"] else e2e
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
        },
        "end_to_end": e2e,
        "extras": extras,
        "per_layer": layer,
        "failures": res["plain"].failures + res["traced"].failures,
        "defect_probe": res["probe"],
        "meta": meta,
    }


def report(summary: dict, res: dict) -> None:
    """Human-readable lines before the final JSON line."""
    out = sys.stdout
    out.write(f"# urnmix bench: workload={res['workload']} seed={res['seed']} "
              f"seconds={res['seconds']} trace={int(res['trace'])}\n")
    out.write(f"# meta {json.dumps(summary['meta'])}\n")
    e2e, ex = summary["end_to_end"], summary["extras"]
    for name, unit in END_TO_END.items():
        out.write(f"{name:<26} {e2e[name]:.6g} {unit}\n")
    out.write(f"{'work unit':<26} {ex['work_unit']}\n")
    out.write(f"{'op samples':<26} {ex['op_samples']} (tail = p{ex['op_tail_percentile']})\n")
    r = summary["result"]
    out.write(f"{'failed_op_ratio':<26} {ex['failed_op_ratio']:.6g} 1 ({r['failed']} of {r['attempted']})\n")
    for name in WORK_NAME.values():
        val = f"{e2e['work_per_s']:.6g} 1/s (= work_per_s)" if WORK_NAME.get(res["workload"]) == name else "n/a"
        out.write(f"{name:<26} {val}\n")
    if summary["per_layer"] is not None:
        units = per_layer_units()
        for name, val in summary["per_layer"].items():
            out.write(f"{name:<36} {val:.6g} {units[name]}\n")
    probe = summary["defect_probe"]
    if probe is not None:
        state = "FAILS" if probe["failed"] else "ok"
        out.write(f"# defect probe `urnmix {probe['argv']}`: exit {probe['exit']} {state} "
                  f"({probe['stderr_last_line']}); not counted in failed\n")
    for line in summary["failures"]:
        out.write(f"# failure: {line}\n")


def write_results(summary: dict, res: dict) -> Path:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{res['workload']}-s{res['seed']}-t{int(res['trace'])}.json"
    doc = dict(summary)
    doc["inputs"] = res["inputs"]
    doc["passes"] = res["passes"]
    doc["op_latencies"] = [op.latency for op in res["plain"].ops]
    doc["op_names"] = [op.name for op in res["plain"].ops]
    if res["trace"]:
        doc["spans"] = res["traced"].span_records()
    path.write_text(json.dumps(doc) + "\n")
    return path


# -- smoke ---------------------------------------------------------------------------


def smoke(caps: dict) -> int:
    """Every workload at tiny size, untraced and traced; checks metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run_workload(workload, 0, 0.0, trace, True, caps)
            summary = summarize(res, {})
            got = summary["result"]["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{workload} trace={int(trace)}: metric {m['name']} missing")
                elif entry.get("unit") != m["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: metric {m['name']} unit "
                                    f"{entry.get('unit')!r}, BENCHMARK.json says {m['unit']!r}")
            if not summary["result"]["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {summary['failures'][:3]}")
            print(f"smoke {workload} trace={int(trace)}: {summary['result']['attempted']} ops, "
                  f"{summary['result']['failed']} failed")
    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


# -- entry ------------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, check metric names")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "urnmix" / "__init__.py").is_file():
        sys.stderr.write(f"error: no urnmix sources under {SRC}; run from a full checkout\n")
        return 2
    caps = thread_caps()
    os.environ.update(caps)
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.smoke)
        return 0
    if args.smoke:
        return smoke(caps)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, caps)
    summary = summarize(res, metadata(caps))
    report(summary, res)
    path = write_results(summary, res)
    sys.stdout.write(f"# results written to {path.relative_to(ROOT)}\n")
    sys.stdout.write(json.dumps(summary["result"]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
