import hashlib
import importlib.resources
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tosqap import initial_point, make_rng, qap_objective
from tosqap.cli import main, pairwise_tally
from tosqap.qap import QapInstance


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
        assert summary["env"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "3",
        }
        header = (out / "env_tos-split2_seed0.trace.csv").read_text().splitlines()[0]
        assert header == "t,f,coupling,certificate,infeasibility,nonstationarity"

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

    @pytest.mark.parametrize("solver", ["tos-split2", "fw"])
    def test_byte_identical_across_processes(self, tmp_path, solver):
        # The README's promise at a fixed BLAS thread count, in fresh
        # interpreters that hash strings differently.
        inst_path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        src = str(Path(__file__).resolve().parents[1] / "src")
        stem = f"chr12a_{solver}_seed3"
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "tosqap.cli", "solve", str(inst_path),
                            "--solver", solver, "--iters", "256", "--seed", "3", "--tol", "1e-5",
                            "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
            summary = json.loads((out / f"{stem}.summary.json").read_text())
            del summary["wall_time"]
            runs.append(((out / f"{stem}.trace.csv").read_bytes(),
                         (out / f"{stem}.iterate.txt").read_bytes(), summary))
        assert runs[0] == runs[1]

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
        assert float(last[1]) == summary["relaxed_value"]
        assert float(last[5]) == summary["nonstationarity"] < 1e-5


class TestBench:
    def make_manifest(self, tmp_path, n_instances, solvers, iters=150, seed=0):
        entries = []
        for k in range(n_instances):
            p = tmp_path / f"inst{k}.dat"
            write_instance(p, 4, 10 + k)
            entries.append({"path": str(p)})
        manifest = {
            "instances": entries,
            "solvers": solvers,
            "config": {"iters": iters, "seed": seed, "step": "invL"},
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
        assert set(report["tally"]) == {
            "tos-split1_vs_tos-split2", "tos-split1_vs_fw", "tos-split2_vs_fw"}

    def test_report_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        mp, out = self.make_manifest(tmp_path, 1, ["fw"], iters=20)
        assert main(["bench", str(mp)]) == 0
        report = json.loads((out / "bench_summary.json").read_text())
        assert report["env"]["OMP_NUM_THREADS"] == "2"
        assert report["env"]["numpy"] == np.__version__
        assert "env" not in report["rows"][0]  # one record per report, not per row

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
