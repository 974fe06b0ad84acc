"""Package-wide checks: no assert in the package, and the two scripts' CSV."""

import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "urnmix").glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_holds_no_assert(path):
    """python -O strips assert, so validation must raise; with none, tier-1 covers -O runs too."""
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}; raise an exception instead"


def _script_rows(name, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return list(csv.reader(io.StringIO(done.stdout)))


def test_cutoff_curve_script_prints_a_falling_upper_bound():
    rows = _script_rows("cutoff_curve.py", "--n", "40", "--points", "5")
    assert rows[0] == ["k", "c_offset", "tv_upper", "lower_proxy"]
    assert len(rows) == 1 + 5
    tv_upper = [float(row[2]) for row in rows[1:]]
    assert all(a >= b for a, b in zip(tv_upper, tv_upper[1:]))


def test_crossover_scan_script_switches_branch_at_most_once():
    rows = _script_rows("crossover_scan.py", "--n", "40")
    assert rows[0] == ["r", "f_branch", "log_branch", "k_threshold", "active"]
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 21))
    active = [row[4] for row in rows[1:]]
    assert set(active) <= {"f", "log"}
    assert active == sorted(active, key=["f", "log"].index)  # every f before every log
