"""Smoke tests of the scripts in ``scripts/``, each run as a subprocess."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_run_chr12a_prints_one_row_per_solver(tmp_path):
    proc = run_script("run_chr12a.py", "--iters", "64", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[3:]]
    assert rows == ["tos-split1", "tos-split2", "fw"]


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
