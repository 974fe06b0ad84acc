"""End-to-end command line behavior: formats, manifests, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from urnmix import bounds, cli, montecarlo, verify
from urnmix.chains import initial_state, kernel_row
from urnmix.exact import enumerate_states
from urnmix.models import Family, ModelSpec, SpaceCapError

GOLDEN_CLI = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden_cli.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_independent_2_1(capsys):
    code, out, err = run_cli(capsys, "catalog", "--family", "independent", "--n", "2", "--r", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,r,label,dim,mult,eigenvalue_num,eigenvalue_den"
    assert len(lines) == 1 + 5 + 1  # header, five components, footer
    footer = lines[-1].split(",")
    assert footer[3] == "TOTAL"
    assert footer[4] == "8" and footer[5] == "8"
    manifest = json.loads(err)
    assert manifest["command"] == "catalog"
    assert manifest["model"] == {"family": "independent", "n": 2, "r": 1}
    assert list(manifest)[:4] == ["command", "model", "parameters", "seed"]


def test_catalog_variant_4_2(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--family", "variant", "--n", "4", "--r", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 + 1
    footer = lines[-1].split(",")
    assert footer[4] == "6" and footer[5] == "6"
    # eigenvalues are exact fractions in num/den columns
    top = lines[1].split(",")
    assert top[6] == "1" and top[7] == "1"


def test_catalog_rejects_oversized_rack(capsys):
    code, _, err = run_cli(capsys, "catalog", "--family", "classical", "--n", "5", "--r", "3")
    assert code == 2
    assert "error" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "catalog", "--family", "nope", "--n", "4", "--r", "2")
    assert code == 2


def test_exact_variant_2_1_single_step(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "variant", "--n", "2", "--r", "1", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,tv_exact,l2n_sq_exact,tv_upper,plancherel_rel_err"
    row = lines[1].split(",")
    assert row[0] == "1"
    assert float(row[1]) == 0.0


def test_exact_plancherel_column_small(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--family", "independent", "--n", "2", "--r", "1", "--k-grid", "0:5:1"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5"]
    assert all(float(r[4]) <= 1e-9 for r in rows)


def test_exact_space_cap_exit(capsys):
    code, _, err = run_cli(capsys, "exact", "--family", "variant", "--n", "40", "--r", "20", "--k", "1")
    assert code == 3
    assert "cap" in err


def test_exact_float_step_cap_exit(capsys):
    code, _, err = run_cli(
        capsys, "exact", "--family", "variant", "--n", "6", "--r", "3", "--k", "1000000000000"
    )
    assert code == 3
    assert "step count" in err


def test_bounds_past_int64_and_past_the_float_range(capsys):
    args = ["bounds", "--family", "variant", "--n", "10", "--r", "5", "--k"]
    code, out, err = run_cli(capsys, *args, "100000000000000000000")
    assert code == 0
    assert out.splitlines()[1] == "100000000000000000000,0,0,0"
    code, out, err = run_cli(capsys, *args, str(10**400))
    assert code == 2
    assert "Traceback" not in err and "float range" in err


def _kernel_row_law(model, k):
    """The k-step law as one Fraction per state, stepping kernel_row rows."""
    law = {initial_state(model): Fraction(1)}
    for _ in range(k):
        nxt = {}
        for s, p in law.items():
            for t, w in kernel_row(model, s).entries:
                nxt[t] = nxt.get(t, 0) + p * w
        law = nxt
    return [law.get(s, Fraction(0)) for s in enumerate_states(model)]


def test_exact_rational_dump(tmp_path, capsys):
    dump = tmp_path / "dist.csv"
    code, out, _ = run_cli(
        capsys,
        "exact", "--family", "variant", "--n", "4", "--r", "2",
        "--k-grid", "0:3:1", "--rational", "--dump-dist", str(dump),
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(float(Fraction(13, 192)), abs=1e-16)
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "rank,probability"
    assert len(lines) == 7
    assert sum(float(line.split(",")[1]) for line in lines[1:]) == pytest.approx(1.0)
    want = _kernel_row_law(ModelSpec(Family.VARIANT, 4, 2), 3)
    assert lines[1:] == [f"{idx},{float(p):.17e}" for idx, p in enumerate(want)]
    # 12^30 is past 2^53: only a correctly rounded division gives these lines
    code, _, _ = run_cli(
        capsys,
        "exact", "--family", "classical", "--n", "7", "--r", "3",
        "--k", "30", "--rational", "--dump-dist", str(dump),
    )
    assert code == 0
    want = _kernel_row_law(ModelSpec(Family.CLASSICAL, 7, 3), 30)
    lines = dump.read_text().strip().splitlines()
    assert lines[1:] == [f"{idx},{float(p):.17e}" for idx, p in enumerate(want)]


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden_digest(command, capsys):
    """The byte contract: catalog, exact --rational and simulate keep their recorded sha256.

    simulate is digested with elapsed_s zeroed, as its manifest does.
    """
    argv = command.split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "simulate":
        doc = json.loads(out)
        doc["elapsed_s"] = 0.0
        out = json.dumps(doc) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CLI[command]


def test_bounds_k_grid(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "variant", "--n", "100", "--r", "50", "--k-grid", "116:216:50"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,l2n_sq_bound,tv_upper_raw,tv_upper_clamped"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == [116, 166, 216]
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(0.063583747953468411, rel=1e-12)
    assert float(last[3]) <= 1.0


def test_bounds_c_mode_variant_has_lower_columns(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "variant", "--n", "100", "--r", "50", "--c", "2"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "c,theorem_k,lower_k_threshold,tv_guarantee,note"
    cells = row.split(",")
    assert cells[1] == "166"
    assert cells[2] == "65"
    assert float(cells[3]) < 0
    assert cells[4] == "vacuous"


def test_bounds_c_mode_other_families_plain(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "paired", "--n", "100", "--r", "50", "--c", "4"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "c,theorem_k"
    assert row.split(",")[1] == "431"


def test_bounds_requires_exactly_one_mode(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--family", "variant", "--n", "10", "--r", "5")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "bounds", "--family", "variant", "--n", "10", "--r", "5", "--k", "3", "--c", "1"
    )
    assert code == 2


def test_bad_grid_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "bounds", "--family", "variant", "--n", "10", "--r", "5", "--k-grid", "5:1:1"
    )
    assert code == 2


def test_simulate_reproducible_checksum(tmp_path, capsys):
    args = [
        "simulate", "--family", "variant", "--n", "100", "--r", "50",
        "--k", "8", "--walkers", "2000", "--seed", "31",
    ]
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args, "--threads", "8")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    e1 = doc1.pop("elapsed_s")
    e2 = doc2.pop("elapsed_s")
    assert doc1 == doc2
    assert e1 >= 0 and e2 >= 0
    m1, m2 = json.loads(err1), json.loads(err2)
    assert m1["output_sha256"] == m2["output_sha256"]
    assert m1["seed"] == 31


@pytest.mark.parametrize("threads, used", [("1", 1), ("2", 2)])
def test_simulate_walks_on_the_requested_threads(threads, used, capsys, monkeypatch):
    # two CPUs, whatever this machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "_pin", lambda cpus: None)
    idents = set()
    walk = montecarlo._walk

    def recorded(*args):
        idents.add(threading.get_ident())
        return walk(*args)

    monkeypatch.setattr(montecarlo, "_walk", recorded)
    code, _, err = run_cli(
        capsys, "simulate", "--family", "variant", "--n", "8", "--r", "4",
        "--k", "2", "--walkers", "40000", "--threads", threads,
    )
    assert code == 0
    assert json.loads(err)["threads"] == int(threads)
    assert len(idents) == used


def test_simulate_tv_past_64_balls(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--family", "variant", "--n", "70", "--r", "1",
        "--k", "3", "--walkers", "3500",
    )
    assert code == 0
    assert "Traceback" not in err
    assert math.isfinite(json.loads(out)["empirical_tv"])


def test_import_leaves_verify_unloaded():
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import sys, urnmix.cli; print('urnmix.verify' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Runs a CLI invocation as `python -m urnmix.cli` would, then reports whether
# numpy was loaded; the last stdout line is that answer.
NUMPY_PROBE = """
import runpy, sys
sys.argv = ["urnmix", *sys.argv[1:]]
try:
    runpy.run_module("urnmix.cli", run_name="__main__")
except SystemExit as e:
    code = e.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "probe,argv,want",
    [
        ("import sys, urnmix; print(0, 'numpy' in sys.modules)", [], "0 False"),
        (NUMPY_PROBE, ["catalog", "--family", "paired", "--n", "5", "--r", "2"], "0 False"),
        (NUMPY_PROBE, ["catalog", "--family", "variant", "--n", "8", "--r", "4"], "0 False"),
        (NUMPY_PROBE, ["catalog", "--family", "paired", "--n", "5"], "2 False"),
        # the subcommands that compute with numpy do load it
        (NUMPY_PROBE, ["bounds", "--family", "variant", "--n", "4", "--r", "2", "--k", "1"], "0 True"),
        # but only after the model, the grids and the modes are checked
        (NUMPY_PROBE, ["bounds", "--family", "variant", "--n", "8", "--r", "9", "--k", "1"], "2 False"),
        (NUMPY_PROBE, ["exact", "--family", "variant", "--n", "8", "--r", "9", "--k", "1"], "2 False"),
        (NUMPY_PROBE, ["simulate", "--family", "variant", "--n", "8", "--r", "9", "--k", "1",
                       "--walkers", "1"], "2 False"),
        (NUMPY_PROBE, ["bounds", "--family", "variant", "--n", "8", "--r", "4", "--k", "1", "--c", "1"], "2 False"),
        (NUMPY_PROBE, ["exact", "--family", "variant", "--n", "8", "--r", "4", "--k-grid", "1:2"], "2 False"),
        (NUMPY_PROBE, ["bounds", "--family", "variant", "--n", "8", "--r", "4",
                       "--k-grid", "0:10000000000:1"], "3 False"),
    ],
    ids=["import", "catalog", "catalog-variant", "usage-error", "bounds", "bounds-bad-model",
         "exact-bad-model", "simulate-bad-model", "bounds-two-modes", "exact-bad-grid", "bounds-grid-cap"],
)
def test_start_up_is_numpy_free(probe, argv, want):
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.splitlines()[-1:] == [want], done.stderr


@pytest.mark.parametrize("threads", ["0", "-1", "65", "1000000", "two"])
def test_threads_out_of_range_is_usage_error(threads, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--family", "variant", "--n", "4", "--r", "2",
        "--k", "1", "--walkers", "1", "--threads", threads,
    )
    assert code == 2
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("command", ["catalog", "bounds", "exact", "verify"])
def test_only_simulate_takes_threads(command, capsys):
    """The other subcommands never read a thread count, so they do not take one."""
    model = [] if command == "verify" else ["--family", "variant", "--n", "4", "--r", "2"]
    code, out, err = run_cli(capsys, command, *model, "--threads", "2")
    assert code == 2
    assert out == ""
    assert "--threads" in err


def test_manifest_records_threads_only_for_simulate(capsys):
    code, _, err = run_cli(capsys, "catalog", "--family", "variant", "--n", "4", "--r", "2")
    assert code == 0
    assert json.loads(err)["threads"] is None


def test_exact_rational_sum_cap_exit(capsys, monkeypatch):
    # den = 16 (5 bits): k = 4 needs 40 bits and fits, k = 5 needs 50
    monkeypatch.setattr(bounds, "EXACT_SUM_BIT_CAP", 40)
    code, out, err = run_cli(
        capsys, "exact", "--family", "variant", "--n", "4", "--r", "2", "--k-grid", "0:5:1", "--rational"
    )
    assert code == 3
    assert out == ""
    assert "needs 50 but the cap is 40" in err


@pytest.mark.parametrize("family, n, r, figure", [
    ("independent", 1000, 500, "about 8.69e607"),
    ("paired", 3000, 1500, "about 3.57e1812"),
])
def test_exact_cap_exit_prints_a_huge_figure_short(capsys, family, n, r, figure):
    # the full figures ran to 674 and 1,879 characters of stderr
    code, out, err = run_cli(capsys, "exact", "--family", family, "--n", str(n), "--r", str(r), "--k", "1")
    assert code == 3
    assert out == ""
    assert f"needs {figure} but the cap is 1073741824" in err
    assert len(err) < 100


def test_bounds_sum_cap_exit(capsys, monkeypatch):
    # no bounds mode takes an exact sum: stand one in for the sweep
    monkeypatch.setattr(bounds, "bound_curve", lambda model, ks: bounds.l2n_sq_bound(model, 10**5, exact=True))
    code, out, err = run_cli(capsys, "bounds", "--family", "variant", "--n", "10", "--r", "5", "--k", "1")
    assert code == 3
    assert out == ""
    assert "cap" in err


# inputs that once crashed with a traceback or never returned
HUGE = ["--family", "variant", "--n", "4000000000", "--r", "2000000000"]
EDGE_ARGVS = [
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c", "inf"], 2),
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c", "1e400"], 2),
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c", "1e308"], 2),  # finite, but theorem_k is not
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c-grid", "1:inf:1"], 2),
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c-grid", "1:2:nan"], 2),
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--c-grid", "0:1e300:1e-300"], 3),
    (["bounds", "--family", "variant", "--n", "10", "--r", "5", "--k-grid", "0:10000000000:1"], 3),
    (["bounds", *HUGE, "--k", "5"], 3),
    (["catalog", *HUGE], 3),
    (["exact", *HUGE, "--k", "1", "--rational"], 3),
    (["simulate", *HUGE, "--k", "1", "--walkers", "1"], 3),
    (["simulate", "--family", "variant", "--n", "100000000", "--r", "2", "--k", "1", "--walkers", "1000"], 3),
    (["simulate", "--family", "variant", "--n", "8", "--r", "4", "--k", "1", "--walkers", "100000000000"], 3),
    (["simulate", "--family", "variant", "--n", "8", "--r", "4", "--k", "1000000000000", "--walkers", "1"], 3),
    # within every state cap, but past the kernel table's byte cap
    (["exact", "--family", "variant", "--n", "3000", "--r", "1", "--k", "1"], 3),
    (["exact", "--family", "variant", "--n", "10000", "--r", "1", "--k", "1", "--rational"], 3),
    (["exact", "--family", "independent", "--n", "11", "--r", "5", "--k", "2"], 3),
    (["exact", "--family", "paired", "--n", "70", "--r", "3", "--k", "1"], 3),
    (["exact", "--family", "paired", "--n", "400", "--r", "200", "--k", "1"], 3),
]


@pytest.mark.parametrize("argv, want", EDGE_ARGVS, ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_edge_inputs_exit_cleanly(argv, want):
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-O", "-m", "urnmix.cli", *argv],
        cwd=src, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == want, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr


@pytest.mark.parametrize("family, n, r", [("paired", 400, 200), ("independent", 1000, 500), ("paired", 70, 3)])
def test_exact_refusal_builds_no_spectral_measure(capsys, monkeypatch, family, n, r):
    def no_measure(model):
        raise AssertionError("spectral measure built before evolution checked its caps")

    monkeypatch.setattr(bounds, "spectral_measure", no_measure)
    code, out, err = run_cli(capsys, "exact", "--family", family, "--n", str(n), "--r", str(r), "--k", "1")
    assert (code, out) == (3, "") and "kernel table size in bytes" in err


def test_grids_are_capped_before_they_are_built(monkeypatch):
    monkeypatch.setattr(cli, "GRID_POINT_CAP", 5)
    assert cli._parse_int_grid("0:8:2") == [0, 2, 4, 6, 8]
    assert cli._parse_float_grid("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
    for parse, spec, points in ((cli._parse_int_grid, "0:10:2", 6), (cli._parse_int_grid, f"0:{10**400}:1", 10**400 + 1),
                                (cli._parse_float_grid, "1:3.5:0.5", 6), (cli._parse_float_grid, "0:1e300:1e-300", math.inf)):
        with pytest.raises(SpaceCapError) as info:
            parse(spec)
        assert info.value.required == points


def test_output_flag_writes_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "catalog.csv"
    code, out, err = run_cli(
        capsys, "catalog", "--family", "variant", "--n", "6", "--r", "3",
        "--output", str(target),
    )
    assert code == 0
    assert out == "" and err == ""
    assert target.read_text().startswith("family,n,r,label")
    manifest = json.loads((tmp_path / "catalog.csv.manifest.json").read_text())
    assert manifest["command"] == "catalog"
    assert len(manifest["output_sha256"]) == 64


def _verify_line_heads(capsys, level):
    code, out, _ = run_cli(capsys, "verify", "--level", level)
    assert code == 0
    return [line.split(":", 1)[0] for line in out.splitlines()]


def test_verify_quick_passes(capsys):
    heads = _verify_line_heads(capsys, "quick")
    assert heads == [f"PASS {check.name}" for check in verify.QUICK]


def test_verify_full_passes(capsys):
    # exactly one PASS line per catalogue check, in catalogue order
    heads = _verify_line_heads(capsys, "full")
    assert heads == [f"PASS {check.name}" for check in verify.FULL]
    assert len(set(heads)) == len(heads)


def test_verify_catches_broken_eigenvalue(capsys, monkeypatch):
    from urnmix import catalog
    from urnmix.models import Family

    true_components = catalog._components

    def broken(model):
        # every nontrivial variant eigenvalue one unit of 1/n^2 too low
        for label, dim, mult, num in true_components(model):
            if model.family is Family.VARIANT and label != (0,):
                num -= 1
            yield label, dim, mult, num

    monkeypatch.setattr(catalog, "_components", broken)
    code, out, err = run_cli(capsys, "verify", "--level", "quick")
    assert code == 1
    assert "spectrum" in err
    assert any(line.startswith("FAIL spectrum") for line in out.splitlines())
    assert any(line.startswith("FAIL spectral-measure") for line in out.splitlines())


@pytest.mark.parametrize("n", [1100, 10000])
def test_bounds_overflow_prints_inf(capsys, n):
    # the k=0 bound C(n, n/2)/4 is past the float range: inf, exit 0
    code, out, err = run_cli(
        capsys, "bounds", "--family", "variant", "--n", str(n), "--r", str(n // 2), "--k", "0"
    )
    assert code == 0
    assert "Traceback" not in err
    assert out.splitlines() == ["k,l2n_sq_bound,tv_upper_raw,tv_upper_clamped", "0,inf,inf,1"]


def test_exact_float_bound_column_matches_bound_curve(capsys):
    from urnmix import bounds
    from urnmix.models import Family, ModelSpec

    code, out, _ = run_cli(
        capsys, "exact", "--family", "paired", "--n", "5", "--r", "2", "--k-grid", "0:12:3"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    curve = bounds.bound_curve(ModelSpec(Family.PAIRED_FLIPS, 5, 2), range(0, 13, 3))
    assert [int(row[0]) for row in rows] == [p.k for p in curve]
    assert [float(row[3]) for row in rows] == [p.tv_upper for p in curve]
    assert all(float(row[4]) < 1e-12 for row in rows)
