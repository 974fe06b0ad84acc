"""Run every workload over ten seeds and write a BENCH_<label>.json summary.

    python3 bench/collect.py --label seed

For each workload in BENCHMARK.json: one untraced run per seed in SEEDS
(end-to-end metrics), then one traced run (per-layer metrics).  The summary keeps every value, and for
each end-to-end metric its median, quartiles (statistics.quantiles, n=4)
and spread = (q3 - q1) / median, next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, metadata, thread_caps

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"meta": metadata(thread_caps()), "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": bounds[m["name"]], "values": vals}
            print(f"{workload:<15} {m['name']:<12} median {med:<12.6g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[m['name']]})", flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    path = BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
