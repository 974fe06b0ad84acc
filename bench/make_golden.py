"""Record sha256 digests of the CLI's byte-contract outputs.

Writes bench/golden_cli.json: for every catalog, exact --rational and
simulate command line that the cli-small workload can draw, the sha256 of
its output (for simulate, of the JSON with elapsed_s zeroed, as in the
manifest).  The recorded file holds the digests of the seed commit; rerun
this only to extend the pools, and only on a commit whose outputs are known
to be the seed's.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

from run import BENCH, ROOT, child_env, thread_caps
from workloads import golden_argvs


def main() -> int:
    env = child_env(thread_caps())
    table = {}
    for argv in golden_argvs():
        proc = subprocess.run([sys.executable, "-m", "urnmix.cli"] + argv, cwd=ROOT, env=env,
                              capture_output=True, timeout=120, check=True)
        out = proc.stdout
        if argv[0] == "simulate":
            doc = json.loads(out)
            doc["elapsed_s"] = 0.0
            out = (json.dumps(doc) + "\n").encode()
        table[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    (BENCH / "golden_cli.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
