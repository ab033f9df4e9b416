"""Smoke tests of the scripts in ``scripts/``, each run as a subprocess."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_run_chr12a_prints_one_row_per_solver(tmp_path):
    # The table at 64 iterations from seed 0, pinned in every column but the
    # last, time (s).
    proc = run_script("run_chr12a.py", "--iters", "64", "--seed", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line[:76] for line in lines] == [
        "chr12a (n=12, best known 9552)",
        "solver         iters     relaxed   rounded     infeas    nonstat  assign err",
        "-" * 76,
        "tos-split1        64    13342.40     11452   2.57e-04   2.19e-01      0.1989",
        "tos-split2        64    13447.27     11452   2.55e-03   2.28e-01      0.1989",
        "fw                64    10748.45     12746   0.00e+00   1.35e-02      0.3344"]
    assert all(len(line) == 86 for line in lines[1:])


def test_run_bench_prints_the_tally(tmp_path):
    out = tmp_path / "bench"
    proc = run_script("run_bench.py", "--instances", "1", "--size", "5", "--iters", "32",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    tally = proc.stdout.split("pairwise win/tie/loss on rounded objective value:\n")[1]
    assert [line.split(":")[0].strip() for line in tally.splitlines()] == [
        "tos-split1_vs_fw", "tos-split1_vs_tos-split2", "tos-split2_vs_fw"]
    assert (out / "bench_summary.json").exists()
    # The instance of make_rng(0): n, then the rows of A and of B.
    assert (out / "rand5_0.dat").read_text() == (
        "5\n"
        "85 63 51 26 30\n4 7 1 17 81\n64 91 50 60 97\n72 63 54 55 93\n27 81 67 0 39\n"
        "85 55 3 76 72\n84 17 8 86 2\n54 8 29 48 42\n40 2 0 12 0\n67 52 64 25 61\n")


def test_run_bench_prints_no_tally_of_an_earlier_run(tmp_path):
    # A run that fails before its sweep prints no tally, although the --out
    # of an earlier run holds a bench_summary.json.
    out = tmp_path / "bench"
    args = ("--instances", "1", "--iters", "32", "--out", str(out))
    assert run_script("run_bench.py", *args, "--size", "4", cwd=tmp_path).returncode == 0
    assert (out / "bench_summary.json").exists()

    bad_size = run_script("run_bench.py", *args, "--size", "0", cwd=tmp_path)
    assert bad_size.returncode == 2
    assert "--size: expected an integer >= 1, got 0" in bad_size.stderr
    assert bad_size.stdout == "" and not (out / "rand0_0.dat").exists()

    bad_tol = run_script("run_bench.py", *args, "--size", "4", "--tol", "-1", cwd=tmp_path)
    assert bad_tol.returncode == 2
    assert "--tol: expected a number >= 0, got -1.0" in bad_tol.stderr
    assert bad_tol.stdout == "" and (out / "bench_summary.json").exists()


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_run_bench_checks_tol_before_writing(tmp_path, tol):
    # A --tol the CLI would refuse leaves no instance file or manifest behind.
    out = tmp_path / "bench"
    proc = run_script("run_bench.py", "--instances", "2", "--size", "4", "--tol", tol,
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert f"--tol: expected a number >= 0, got {float(tol)!r}" in proc.stderr
    assert proc.stdout == "" and not out.exists()
