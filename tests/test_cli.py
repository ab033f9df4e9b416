import hashlib
import importlib.resources
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tosqap import initial_point, make_rng, qap, qap_objective
from tosqap.cli import main, pairwise_tally, write_trace
from tosqap.qap import QapInstance, build_problem, estimate_smoothness
from tosqap.solver import StepRule, TraceRecord

from pins import on_core


def write_instance(path, n, seed):
    rng = make_rng(seed)
    a = rng.integers(0, 10, (n, n))
    b = rng.integers(0, 10, (n, n))
    lines = [str(n)]
    lines += [" ".join(str(v) for v in row) for row in a]
    lines += [" ".join(str(v) for v in row) for row in b]
    path.write_text("\n".join(lines) + "\n")
    return QapInstance(path.stem, a.astype(float), b.astype(float))


class TestSolve:
    def test_writes_artifacts_and_valid_summary(self, tmp_path, capsys):
        inst_path = tmp_path / "small.dat"
        inst = write_instance(inst_path, 5, 1)
        out = tmp_path / "out"
        rc = main(["solve", str(inst_path), "--solver", "tos-split2",
                   "--iters", "200", "--seed", "3", "--out", str(out)])
        assert rc == 0
        stem = "small_tos-split2_seed3"
        trace = (out / f"{stem}.trace.csv").read_text().splitlines()
        assert trace[0] == "t,f,coupling,certificate,infeasibility,nonstationarity"
        ts = [int(line.split(",")[0]) for line in trace[1:]]
        assert ts == sorted(set(ts))
        assert ts[-1] <= 200
        summary = json.loads((out / f"{stem}.summary.json").read_text())
        assert summary["solver"] == "tos-split2"
        assert summary["instance"] == "small"
        assert summary["y1_digest"] == hashlib.sha256(
            initial_point(5, 3).tobytes()).hexdigest()[:16]
        # summary round-trip: the saved iterate reproduces the metrics
        iterate = np.loadtxt(out / f"{stem}.iterate.txt")
        assert qap_objective(inst, iterate) == pytest.approx(
            summary["relaxed_value"], rel=1e-10)
        perm = summary["permutation"]
        assert sorted(perm) == list(range(5))
        p_mat = np.eye(5)[:, perm].T
        assert qap_objective(inst, np.eye(5)[perm]) == pytest.approx(
            summary["rounded_value"]) or qap_objective(inst, p_mat) == pytest.approx(
            summary["rounded_value"])

    def test_fw_solver(self, tmp_path):
        inst_path = tmp_path / "fwtest.dat"
        write_instance(inst_path, 4, 2)
        rc = main(["solve", str(inst_path), "--solver", "fw", "--iters", "100",
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_malformed_file_names_token(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("2 0 1 1 oops 0 2 2 0")
        rc = main(["solve", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "token 5" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["tos-split1", "tos-split2", "fw"])
    def test_one_by_one_instance(self, tmp_path, capsys, solver):
        inst_path = tmp_path / "one.dat"
        inst_path.write_text("1\n3\n5\n")
        rc = main(["solve", str(inst_path), "--solver", solver, "--iters", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["permutation"] == [0]

    @pytest.mark.parametrize("step, message", [
        ("invL", "all-zero"), ("theory", "g_f + l_g + l_h")], ids=["invL", "theory"])
    def test_all_zero_a_names_the_fault(self, tmp_path, capsys, step, message):
        inst_path = tmp_path / "zero.dat"
        inst_path.write_text("2\n0 0\n0 0\n1 2\n3 4\n")
        rc = main(["solve", str(inst_path), "--step", step, "--iters", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_all_zero_hessian_map_names_the_fault(self, tmp_path, capsys):
        # A antisymmetric and B = I: the Hessian map is zero although A is not.
        inst_path = tmp_path / "antisym.dat"
        inst_path.write_text("3\n0 1 2\n-1 0 3\n-2 -3 0\n1 0 0\n0 1 0\n0 0 1\n")
        rc = main(["solve", str(inst_path), "--step", "invL", "--iters", "20",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "all-zero" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["fixed:abc", "fixed:nan", "fixed:inf", "fixed:0", "bogus"])
    def test_bad_step_names_the_flag(self, tmp_path, capsys, spec):
        inst_path = tmp_path / "s.dat"
        write_instance(inst_path, 3, 0)
        rc = main(["solve", str(inst_path), "--step", spec, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--step: expected theory | invL | fixed:<gamma>" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, least", [("--iters", "0", 1), ("--seed", "-1", 0)])
    def test_out_of_range_int_names_the_flag(self, tmp_path, capsys, flag, value, least):
        inst_path = tmp_path / "r.dat"
        write_instance(inst_path, 3, 0)
        rc = main(["solve", str(inst_path), flag, value, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert (f"{flag}: expected an integer >= {least}, got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("solver", ["tos-split2", "fw"])
    def test_negative_tol_names_the_flag(self, tmp_path, capsys, solver):
        inst_path = tmp_path / "t.dat"
        write_instance(inst_path, 3, 0)
        rc = main(["solve", str(inst_path), "--solver", solver, "--tol", "-0.5",
                   "--iters", "20", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--tol: expected a number >= 0, got -0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_best_known_names_the_flag(self, tmp_path, capsys, value):
        inst_path = tmp_path / "b.dat"
        write_instance(inst_path, 3, 0)
        rc = main(["solve", str(inst_path), "--best-known", value, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert (f"--best-known: expected a finite number, got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_infinite_tol_accepted(self, tmp_path):
        inst_path = tmp_path / "i.dat"
        write_instance(inst_path, 3, 0)
        assert main(["solve", str(inst_path), "--tol", "inf", "--iters", "20",
                     "--out", str(tmp_path / "out")]) == 0

    # The summary's gamma is the step the run took: the fixed value, 1/L of
    # the instance's estimated L, or the theory step for the split and cap.
    @pytest.mark.parametrize("solver, step", [
        ("tos-split1", "fixed:0.003"), ("tos-split2", "invL"), ("tos-split1", "theory"),
        ("fw", "invL")])
    def test_summary_reports_the_resolved_step(self, tmp_path, solver, step):
        inst_path = tmp_path / "g.dat"
        inst = write_instance(inst_path, 4, 5)
        assert main(["solve", str(inst_path), "--solver", solver, "--step", step,
                     "--iters", "50", "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / f"g_{solver}_seed0.summary.json").read_text())
        want = {"fixed:0.003": 0.003, "invL": 1.0 / estimate_smoothness(inst),
                "theory": StepRule(kind="theory").resolve(build_problem(inst, "split1"), 50)}
        assert summary["gamma"] == (None if solver == "fw" else want[step])
        # l_smooth is the L of a 1/L step, null for fixed and theory steps and FW.
        invl = solver != "fw" and step == "invL"
        assert summary["l_smooth"] == (estimate_smoothness(inst) if invl else None)

    def test_chr12a_summary_reports_l_smooth(self, tmp_path):
        # tos-split1 with the 1/L step on chr12a from seed 0 to the 512 cap.
        # The sha256 of its trace CSV and iterate file are those written
        # before l_smooth was reported: only the summary gained a key.
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        out = tmp_path / "out"
        assert main(["solve", str(inst_path), "--solver", "tos-split1", "--step", "invL",
                     "--iters", "512", "--out", str(out)]) == 0
        summary = json.loads((out / "chr12a_tos-split1_seed0.summary.json").read_text())
        l_smooth = estimate_smoothness(qap.load_instance(inst_path))
        assert (summary["l_smooth"], summary["gamma"]) == (l_smooth, 1.0 / l_smooth)
        assert [hashlib.sha256((out / f"chr12a_tos-split1_seed0.{kind}").read_bytes()).hexdigest()
                for kind in ("trace.csv", "iterate.txt")] == on_core(
            SkylakeX=["5a3eff542a4714891f2ff3d5d206114988e507df3f3930f4781d2f1af14b6707",
                      "cb198ec5321e08cdad8b5f9f8845c444969e91da1dfbbcafd25be91a64846d2d"],
            Haswell=["023384a5eac178a945a2f313e9b477e1d32dc34c14a7720cafd1aa042856e9e2",
                     "a5ed4646839080ec6e03c2d6678a254bddf88ab2a0619b90bcc2a45324263dba"])

    @pytest.mark.parametrize("solver, digests", [
        ("tos-split2", {
            "SkylakeX": ["78403e0fd8c8e5a1aa0f92f06fed2c5a633c4dae9b3a23512ef9810fda8d0462",
                         "fc9d1495d3a60bc46b318a4da80a2da00eabc508762ad852cbe37190d72fca11"],
            "Haswell": ["8fe02fe53df5d29c453f4e145dd212ac994e1f5a1d4fd254ac937639ed239825",
                        "84258f018abcfa4c2b01c55b64b1d616af6abe426f34e5be79ced89c78129559"]}),
        ("fw", {
            "SkylakeX": ["7f687437565b1b9bd1e90b53167b0214e2c2e71635ae1844791866c696ba240c",
                         "12b33433187101094cba60101a4e385d6b184f921aabdd01252b2da7ec69b4d8"],
            "Haswell": ["b894f3c0e393d57633e0f9a52a29099c40a72289fc96cbafe0b5bd6915ea657e",
                        "b68cfe1da2463b2965b8ab74a23b89aa3390b0b9e7dc0f6b17172bdaf7fa984b"]}),
    ])
    def test_chr12a_artifact_digests(self, tmp_path, solver, digests):
        # The command above for the other two solvers: the sha256 of the trace
        # CSV and iterate file, as written when each trace row was hand-joined.
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        out = tmp_path / "out"
        assert main(["solve", str(inst_path), "--solver", solver, "--step", "invL",
                     "--iters", "512", "--out", str(out)]) == 0
        assert [hashlib.sha256((out / f"chr12a_{solver}_seed0.{kind}").read_bytes()).hexdigest()
                for kind in ("trace.csv", "iterate.txt")] == on_core(**digests)

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_bytes(b"2 0 1 1 0 0 2 2 \xe9")
        rc = main(["solve", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {bad}: not UTF-8: " in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.dat"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_summary_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        inst_path = tmp_path / "env.dat"
        write_instance(inst_path, 4, 6)
        out = tmp_path / "out"
        assert main(["solve", str(inst_path), "--iters", "20", "--out", str(out)]) == 0
        summary = json.loads((out / "env_tos-split2_seed0.summary.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert isinstance(blas["name"], str) and isinstance(blas["version"], str)
        threads = summary["env"].pop("blas_threads")
        assert threads is None or (isinstance(threads, int) and threads >= 1)
        core = summary["env"].pop("blas_core")
        assert core is None or (isinstance(core, str) and core)
        assert summary["env"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "3",
        }
        header = (out / "env_tos-split2_seed0.trace.csv").read_text().splitlines()[0]
        assert header == "t,f,coupling,certificate,infeasibility,nonstationarity"

    def test_environment_records_the_live_blas_thread_count(self):
        # In a fresh interpreter OpenBLAS reads the variable when it loads.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import json; from tosqap.cli import environment; "
                                   "print(json.dumps(environment()['blas_threads']))"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        assert json.loads(proc.stdout) in (None, 1)

    def test_environment_records_the_live_blas_core(self):
        # OPENBLAS_CORETYPE forces the kernels OpenBLAS loads.  Haswell's
        # need AVX2, as the Haswell values of the pinned outputs do.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import json; from tosqap.cli import environment; "
                                   "print(json.dumps(environment()['blas_core']))"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        assert json.loads(proc.stdout) in (None, "Haswell")

    def test_byte_identical_traces_same_seed(self, tmp_path):
        inst_path = tmp_path / "rep.dat"
        write_instance(inst_path, 5, 4)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main(["solve", str(inst_path), "--iters", "300", "--seed", "7",
                       "--out", str(out)])
            assert rc == 0
            outs.append((out / "rep_tos-split2_seed7.trace.csv").read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def solve_in_fresh_interpreter(out, solver, iters, seed, **env_vars):
        """``solve`` chr12a at tol 1e-5 in a new interpreter: (trace bytes,
        iterate bytes, summary without ``wall_time``)."""
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, **env_vars,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "tosqap.cli", "solve", str(inst_path),
                        "--solver", solver, "--iters", str(iters), "--seed", str(seed),
                        "--tol", "1e-5", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        stem = f"chr12a_{solver}_seed{seed}"
        summary = json.loads((out / f"{stem}.summary.json").read_text())
        del summary["wall_time"]
        return ((out / f"{stem}.trace.csv").read_bytes(),
                (out / f"{stem}.iterate.txt").read_bytes(), summary)

    @pytest.mark.parametrize("solver", ["tos-split2", "fw"])
    def test_byte_identical_across_processes(self, tmp_path, solver):
        # The README's promise at a fixed BLAS thread count, in fresh
        # interpreters that hash strings differently.
        runs = [self.solve_in_fresh_interpreter(tmp_path / hash_seed, solver, 256, 3,
                                                OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED=hash_seed)
                for hash_seed in ("1", "2")]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("solver", ["tos-split1", "tos-split2"])
    def test_byte_identical_across_blas_threads(self, tmp_path, solver):
        # At n = 12 the bytes of a tol run, to its stop at t = 2560, do not
        # depend on the OpenBLAS thread count either; only the recorded
        # environment differs.
        runs = []
        for threads in ("1", "2"):
            trace, iterate, summary = self.solve_in_fresh_interpreter(
                tmp_path / threads, solver, 100000, 0, OPENBLAS_NUM_THREADS=threads)
            assert summary.pop("env")["OPENBLAS_NUM_THREADS"] == threads
            assert (summary["stopped_by"], summary["iterations"]) == ("tol", 2560)
            runs.append((trace, iterate, summary))
        assert runs[0] == runs[1]

    @staticmethod
    def solve_chr12a(out, solver, seed, iters):
        """``solve`` chr12a at tol 1e-5 in this process: (summary, trace rows)."""
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        assert main(["solve", str(inst_path), "--solver", solver, "--iters", str(iters),
                     "--seed", str(seed), "--tol", "1e-5", "--out", str(out)]) == 0
        stem = f"chr12a_{solver}_seed{seed}"
        return (json.loads((out / f"{stem}.summary.json").read_text()),
                (out / f"{stem}.trace.csv").read_text().splitlines()[1:])

    @pytest.mark.parametrize("iters, stopped_by, iterations, checkpoints", [
        (100000, "tol", 1408, 12), (64, "cap", 64, 7)])
    def test_summary_says_why_the_run_stopped(self, tmp_path, iters, stopped_by,
                                              iterations, checkpoints):
        # chr12a from seed 1 meets tol 1e-5 on split2 at the stop check t = 1408.
        summary, rows = self.solve_chr12a(tmp_path / "out", "tos-split2", 1, iters)
        assert (summary["stopped_by"], summary["iterations"], summary["checkpoints"]) == (
            stopped_by, iterations, checkpoints)
        assert int(rows[-1].split(",")[0]) == iterations and len(rows) == checkpoints

    def test_summary_counts_checks_beside_trace_rows(self, tmp_path):
        # chr12a from seed 0 meets tol 1e-5 on split1 at t = 2560: 13 trace
        # rows (1, 2, ..., 2048, 2560), 27 points checked (those and every
        # 128th iteration).
        summary, rows = self.solve_chr12a(tmp_path / "out", "tos-split1", 0, 100000)
        assert (summary["stopped_by"], summary["iterations"], summary["checkpoints"],
                summary["checks"]) == ("tol", 2560, 13, 27)
        assert len(rows) == 13

    def test_tolerance_met_at_the_cap_wins(self, tmp_path):
        # chr12a from seed 3 meets tol 1e-5 on split1 at the stop check
        # t = 1664; with the cap there too, the run still stopped on tol.
        summary, rows = self.solve_chr12a(tmp_path / "out", "tos-split1", 3, 1664)
        assert (summary["stopped_by"], summary["iterations"]) == ("tol", 1664)
        assert summary["infeasibility"] < 1e-5 and summary["nonstationarity"] < 1e-5
        assert int(rows[-1].split(",")[0]) == 1664

    def test_fw_trace_ends_at_the_reported_point(self, tmp_path):
        # From seed 3 FW meets the tolerance between powers of two; the
        # trace still ends on the row of the point it returns.
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        out = tmp_path / "out"
        assert main(["solve", str(inst_path), "--solver", "fw", "--iters", "256",
                     "--seed", "3", "--tol", "1e-5", "--out", str(out)]) == 0
        summary = json.loads((out / "chr12a_fw_seed3.summary.json").read_text())
        last = (out / "chr12a_fw_seed3.trace.csv").read_text().splitlines()[-1].split(",")
        assert int(last[0]) == summary["iterations"] < 256
        assert summary["stopped_by"] == "tol"
        assert float(last[1]) == summary["relaxed_value"]
        assert float(last[5]) == summary["nonstationarity"] < 1e-5


HEADER = "t,f,coupling,certificate,infeasibility,nonstationarity\n"


class TestWriteTrace:
    def test_special_values_as_literal_text(self, tmp_path):
        # Each entry is %.17g of the float, t included; a missing metric is nan.
        path = tmp_path / "trace.csv"
        write_trace(path, [
            TraceRecord(t=0, objective=None, coupling=-0.0, certificate=math.inf,
                        infeasibility=-math.inf, nonstationarity=math.nan),
            TraceRecord(t=100000, objective=5e-324, coupling=1e300, certificate=1.2e17,
                        infeasibility=np.float64(0.1), nonstationarity=2 / 3),
            TraceRecord(t=7, objective=-1.5, coupling=0.0, certificate=1.0),
        ])
        assert path.read_text() == HEADER + (
            "0,nan,-0,inf,-inf,nan\n"
            "100000,4.9406564584124654e-324,1.0000000000000001e+300,1.2e+17,"
            "0.10000000000000001,0.66666666666666663\n"
            "7,-1.5,0,1,nan,nan\n")

    def test_one_row_and_empty_traces(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [TraceRecord(t=1, objective=2.0, coupling=3.0, certificate=4.0,
                                       infeasibility=5.0, nonstationarity=6.0)])
        assert path.read_text() == HEADER + "1,2,3,4,5,6\n"
        write_trace(path, [])
        assert path.read_text() == HEADER


class TestBench:
    def make_manifest(self, tmp_path, n_instances, solvers, iters=150, seed=0, step="invL"):
        entries = []
        for k in range(n_instances):
            p = tmp_path / f"inst{k}.dat"
            write_instance(p, 4, 10 + k)
            entries.append({"path": str(p)})
        manifest = {
            "instances": entries,
            "solvers": solvers,
            "config": {"iters": iters, "seed": seed, "step": step},
            "out_dir": str(tmp_path / "bench_out"),
        }
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps(manifest))
        return mp, tmp_path / "bench_out"

    def test_single_instance_three_solvers_shared_start(self, tmp_path):
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split1", "tos-split2", "fw"])
        assert main(["bench", str(mp)]) == 0
        report = json.loads((out / "bench_summary.json").read_text())
        rows = report["rows"]
        assert len(rows) == 3
        assert all("error" not in r for r in rows)
        digests = {r["y1_digest"] for r in rows}
        assert len(digests) == 1  # every solver saw the same initial point
        # Both TOS cells run to the 150 cap (rows 1, 2, ..., 128, 150); FW's
        # gap rounds to <= 0 after 37 steps (rows 0, 1, ..., 32, 37) on
        # SkylakeX kernels, after 66 (rows 0, 1, ..., 64, 66) on Haswell's.
        assert [(r["stopped_by"], r["iterations"], r["checkpoints"]) for r in rows] == [
            ("cap", 150, 9), ("cap", 150, 9),
            on_core(SkylakeX=("gap", 37, 8), Haswell=("gap", 66, 9))]
        assert set(report["tally"]) == {
            "tos-split1_vs_tos-split2", "tos-split1_vs_fw", "tos-split2_vs_fw"}

    def test_rows_count_checks_beside_trace_rows(self, tmp_path):
        # Without a tol a TOS cell checks its trace rows alone; FW checks
        # every point it reaches, 38 for its 37 steps (67 for 66 on Haswell).
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split1", "fw"])
        assert main(["bench", str(mp)]) == 0
        rows = json.loads((out / "bench_summary.json").read_text())["rows"]
        assert [(r["stopped_by"], r["checkpoints"], r["checks"]) for r in rows] == [
            ("cap", 9, 9), on_core(SkylakeX=("gap", 8, 38), Haswell=("gap", 9, 67))]

    def test_rows_report_the_resolved_step(self, tmp_path):
        mp, out = self.make_manifest(tmp_path, 2, ["tos-split1", "fw"], iters=20,
                                     step="fixed:0.01")
        assert main(["bench", str(mp)]) == 0
        rows = json.loads((out / "bench_summary.json").read_text())["rows"]
        assert [(r["solver"], r["gamma"], r["l_smooth"]) for r in rows] == [
            ("tos-split1", 0.01, None), ("fw", None, None)] * 2

    def test_rows_report_l_smooth(self, tmp_path):
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split2", "fw"], iters=20)
        assert main(["bench", str(mp)]) == 0
        rows = json.loads((out / "bench_summary.json").read_text())["rows"]
        l_smooth = estimate_smoothness(qap.load_instance(tmp_path / "inst0.dat"))
        assert [(r["solver"], r["gamma"], r["l_smooth"]) for r in rows] == [
            ("tos-split2", 1.0 / l_smooth, l_smooth), ("fw", None, None)]

    def test_report_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        assert main(["bench", str(mp)]) == 0
        report = json.loads((out / "bench_summary.json").read_text())
        assert report["env"]["OMP_NUM_THREADS"] == "2"
        assert report["env"]["numpy"] == np.__version__
        assert "env" not in report["rows"][0]  # one record per report, not per row

    def test_out_dir_defaults_to_runs(self, tmp_path, monkeypatch):
        # The manifest's out_dir is the one way to set the directory.
        p = tmp_path / "inst.dat"
        write_instance(p, 4, 10)
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"instances": [{"path": str(p)}], "solvers": ["fw"],
                                  "config": {"iters": 20}}))
        monkeypatch.chdir(tmp_path)
        assert main(["bench", str(mp)]) == 0
        assert (tmp_path / "runs" / "bench_summary.json").exists()
        with pytest.raises(SystemExit):
            main(["bench", str(mp), "--out", str(tmp_path / "elsewhere")])

    def test_diverged_cell_says_so(self, tmp_path):
        # At the fixed step 1e300 split1's second iterate overflows, while
        # split2's stays finite to the cap.  The overflow warnings are not
        # the fault under test.
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split1", "tos-split2"],
                                     step="fixed:1e300")
        with np.errstate(all="ignore"):
            assert main(["bench", str(mp)]) == 0
        rows = json.loads((out / "bench_summary.json").read_text())["rows"]
        assert rows[0] == {"solver": "tos-split1", "instance": "inst0",
                           "error": "non-finite iterate at iteration 2",
                           "stopped_by": "divergence", "iterations": 2}
        assert (rows[1]["stopped_by"], rows[1]["iterations"]) == ("cap", 150)

    def test_diverged_fw_cell_says_so(self, tmp_path):
        # FW's gradient 2e400 J/4 at the start point overflows.
        p = tmp_path / "big.dat"
        p.write_text("4\n" + " ".join(["1e200"] * 32) + "\n")
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"instances": [{"path": str(p)}], "solvers": ["fw"],
                                  "out_dir": str(tmp_path / "bench_out")}))
        with np.errstate(all="ignore"):
            assert main(["bench", str(mp)]) == 1  # no cell succeeded
        rows = json.loads((tmp_path / "bench_out" / "bench_summary.json").read_text())["rows"]
        assert rows == [{"solver": "fw", "instance": "big",
                         "error": "non-finite gradient at iteration 0",
                         "stopped_by": "divergence", "iterations": 0}]

    def test_five_instances_tally_sums(self, tmp_path):
        mp, out = self.make_manifest(tmp_path, 5, ["tos-split2", "fw"], iters=100)
        assert main(["bench", str(mp)]) == 0
        report = json.loads((out / "bench_summary.json").read_text())
        t = report["tally"]["tos-split2_vs_fw"]
        assert t["win"] + t["tie"] + t["loss"] == 5

    def test_empty_manifest_is_config_error(self, tmp_path, capsys):
        mp = tmp_path / "empty.json"
        mp.write_text(json.dumps({"instances": [], "solvers": ["fw"]}))
        assert main(["bench", str(mp)]) == 2
        assert "manifest error" in capsys.readouterr().err

    def test_duplicate_instance_name_rejected(self, tmp_path, capsys):
        for sub, n in (("a", 4), ("b", 3)):
            (tmp_path / sub).mkdir()
            write_instance(tmp_path / sub / "x.dat", n, 0)
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({
            "instances": [{"path": str(tmp_path / "a" / "x.dat")},
                          {"path": str(tmp_path / "b" / "x.dat")}],
            "solvers": ["tos-split2", "fw"],
            "out_dir": str(tmp_path / "o"),
        }))
        assert main(["bench", str(mp)]) == 2
        err = capsys.readouterr().err
        assert "manifest error" in err and "'x'" in err
        assert not (tmp_path / "o").exists()

    def test_instance_without_path_names_its_index(self, tmp_path, capsys):
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split2"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["instances"].append({"file": "other.dat"})
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        err = capsys.readouterr().err
        assert "manifest error: instances[1]" in err and '"path"' in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("iters", "ten"), ("seed", None), ("tol", -1.0), ("iters", 0), ("seed", -1),
        ("tol", True)])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, key, value):
        mp, out = self.make_manifest(tmp_path, 1, ["tos-split2", "fw"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["config"][key] = value
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        err = capsys.readouterr().err
        assert f"manifest error: config.{key}: expected" in err and " >= " in err
        assert not out.exists()

    @pytest.mark.parametrize("where, edit", [
        ("manifest", lambda m: [m]),
        ("config", lambda m: {**m, "config": [m["config"]]}),
        ("instances", lambda m: {**m, "instances": m["instances"][0]}),
        ("solvers", lambda m: {**m, "solvers": "fw"}),
        ("out_dir", lambda m: {**m, "out_dir": 5}),
    ], ids=["manifest", "config", "instances", "solvers", "out_dir"])
    def test_wrong_json_type_names_its_key(self, tmp_path, capsys, where, edit):
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        mp.write_text(json.dumps(edit(json.loads(mp.read_text()))))
        assert main(["bench", str(mp)]) == 2
        noun = {"instances": "an array", "solvers": "an array", "out_dir": "a string"}.get(
            where, "an object")
        assert f"manifest error: {where}: expected {noun}, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [0, None, ["x.dat"]], ids=["int", "null", "array"])
    def test_non_string_path_names_its_entry(self, tmp_path, capsys, path):
        # open(0) would read stdin: the path is checked before any file opens.
        mp, out = self.make_manifest(tmp_path, 2, ["fw"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["instances"][1]["path"] = path
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        assert (f"manifest error: instances[1].path: expected a string, got {path!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, least", [("iters", 1), ("seed", 0)])
    @pytest.mark.parametrize("value", [2.5, True, "10", 10.0])
    def test_config_int_must_be_a_json_integer(self, tmp_path, capsys, key, least, value):
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["config"][key] = value
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        assert (f"manifest error: config.{key}: expected an integer >= {least}, "
                f"got {value!r}" in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_solver_rejected(self, tmp_path, capsys):
        p = tmp_path / "i.dat"
        write_instance(p, 3, 0)
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({
            "instances": [{"path": str(p)}], "solvers": ["annealing"]}))
        assert main(["bench", str(mp)]) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_bad_step_is_manifest_error(self, tmp_path, capsys):
        good = tmp_path / "good.dat"
        write_instance(good, 3, 1)
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({
            "instances": [{"path": str(good)}],
            "solvers": ["tos-split2"],
            "config": {"iters": 50, "step": "bogus"},
            "out_dir": str(tmp_path / "o"),
        }))
        # a bad step spec fails before any cell runs, like every manifest fault
        assert main(["bench", str(mp)]) == 2
        assert "manifest error: config.step: expected" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_best_known_names_its_entry(self, tmp_path, capsys):
        mp, out = self.make_manifest(tmp_path, 2, ["tos-split2"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["instances"][1]["best_known"] = "abc"
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        assert ("manifest error: instances[1].best_known: expected a finite number, got 'abc'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf")])
    def test_non_finite_or_bool_best_known_names_its_entry(self, tmp_path, capsys, value):
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        manifest = json.loads(mp.read_text())
        manifest["instances"][0]["best_known"] = value  # NaN and Infinity: json's extension
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        assert ("manifest error: instances[0].best_known: expected a finite number, "
                f"got {value!r}" in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_instance_file_is_named(self, tmp_path, capsys):
        mp, out = self.make_manifest(tmp_path, 2, ["tos-split2"], iters=20)
        manifest = json.loads(mp.read_text())
        bad = tmp_path / "bad.dat"
        bad.write_text("2\n1 2 3 4\n5 6 x 8\n")
        manifest["instances"][1]["path"] = str(bad)
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 1
        assert (f"error: {bad}: token 8: expected a finite number, got 'x'"
                in capsys.readouterr().err)

    def test_bad_instance_file_creates_no_out_dir(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("2\n1 2 3 4\n5 6 x 8\n")
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({
            "instances": [{"path": str(bad)}],
            "solvers": ["fw"],
            "out_dir": str(tmp_path / "o"),
        }))
        assert main(["bench", str(mp)]) == 1
        assert f"error: {bad}: token 8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_json_manifest_names_the_file(self, tmp_path, capsys):
        mp = tmp_path / "m.json"
        mp.write_text('{"instances": x}')
        assert main(["bench", str(mp)]) == 2
        assert (f"manifest error: {mp}: not JSON: Expecting value: line 1 column 15 (char 14)"
                in capsys.readouterr().err)

    def test_non_utf8_manifest_names_the_file(self, tmp_path, capsys):
        mp = tmp_path / "m.json"
        mp.write_bytes(b"\xff\xfe{}")
        assert main(["bench", str(mp)]) == 2
        assert (f"manifest error: {mp}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                "in position 0: invalid start byte" in capsys.readouterr().err)

    def test_non_utf8_instance_file_is_named(self, tmp_path, capsys):
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        bad = Path(json.loads(mp.read_text())["instances"][0]["path"])
        bad.write_bytes(b"\xff" + bad.read_bytes())
        assert main(["bench", str(mp)]) == 1
        assert f"error: {bad}: not UTF-8: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_not_a_manifest_error(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "absent.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.json" in err

    @pytest.mark.parametrize("where, allowed", [
        ("manifest", "instances, solvers, config, out_dir"),
        ("config", "iters, seed, tol, step"),
        ("instances[0]", "path, best_known"),
    ], ids=["manifest", "config", "instance"])
    def test_unknown_key_names_it_and_the_allowed_ones(self, tmp_path, capsys, where, allowed):
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        manifest = json.loads(mp.read_text())
        entry = {"manifest": manifest, "config": manifest["config"],
                 "instances[0]": manifest["instances"][0]}[where]
        entry["tolerance"] = 1e-5
        mp.write_text(json.dumps(manifest))
        assert main(["bench", str(mp)]) == 2
        assert (f"manifest error: {where}: unknown key 'tolerance'; allowed: {allowed}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_duplicate_solver_rejected(self, tmp_path, capsys):
        mp, out = self.make_manifest(tmp_path, 1, ["fw", "tos-split2", "fw"], iters=20)
        assert main(["bench", str(mp)]) == 2
        assert "manifest error: solvers: 'fw' is listed twice" in capsys.readouterr().err
        assert not out.exists()


class TestPairwiseTally:
    def test_counts(self):
        rows = [
            {"instance": "i1", "solver": "a", "rounded_value": 10.0},
            {"instance": "i1", "solver": "b", "rounded_value": 12.0},
            {"instance": "i2", "solver": "a", "rounded_value": 9.0},
            {"instance": "i2", "solver": "b", "rounded_value": 9.0},
            {"instance": "i3", "solver": "a", "rounded_value": 5.0},
            {"instance": "i3", "solver": "b", "rounded_value": 4.0},
        ]
        assert pairwise_tally(rows, ["a", "b"]) == {
            "a_vs_b": {"win": 1, "tie": 1, "loss": 1}}

    def test_missing_cells_skipped(self):
        rows = [
            {"instance": "i1", "solver": "a", "rounded_value": 1.0},
            {"instance": "i1", "solver": "b", "error": "boom"},
        ]
        assert pairwise_tally(rows, ["a", "b"]) == {
            "a_vs_b": {"win": 0, "tie": 0, "loss": 0}}
