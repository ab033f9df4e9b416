"""Smoke tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (CELL_KINDS, WORKLOADS, make_instance, random_mean, replays,  # noqa: E402
                       run_cell, shrink)

tq = bench.import_tosqap()
with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_round(name: str, tracer=None, seed: int = 3):
    workload = shrink(tq, WORKLOADS[name])
    inst, relabel = make_instance(tq, workload, seed)
    return workload, bench.run_round(tq, workload, inst, relabel, 0,
                                     itertools.count().__next__, tracer, paired=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_checks_traced_and_untraced(name):
    tracer = Tracer()
    workload, cells = tiny_round(name, tracer)
    plain = [c for c in cells if not c["traced"]]
    traced = [c for c in cells if c["traced"]]
    assert [c["kind"] for c in plain] == [c["kind"] for c in traced] == list(CELL_KINDS)
    assert [c["problems"] for c in cells] == [[]] * len(cells)
    assert tracer.unrestored() == []
    # Tracing changes no output.
    for a, b in zip(plain, traced):
        assert {k: v for k, v in a.items() if k.endswith("sha256")} == \
               {k: v for k, v in b.items() if k.endswith("sha256")}
    metrics = layer_metrics(tracer, traced, replays(tq, workload))
    metrics["trace.overhead_frac"] = 0.0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["lap.fw_calls"] >= 1 and metrics["prox.simplex_calls"] >= 1
    assert (metrics["solver.replay_iters"] > 0) == replays(tq, workload)


def test_tracer_restores_every_binding():
    originals = {
        "lap": tq.lap.solve_lap_min, "qap": tq.qap.solve_lap_min, "fw": tq.fw.solve_lap_min,
    }
    projections = {name: getattr(tq.prox, name) for name in dir(tq.prox)
                   if name.startswith("project_")}
    tracer = Tracer()
    with tracer:
        assert tq.qap.solve_lap_min is not originals["qap"]
        assert tq.prox.project_simplex is not projections["project_simplex"]
    assert tracer.patched and tracer.unrestored() == []
    for mod, fn in originals.items():
        assert getattr(tq, mod).solve_lap_min is fn
    for name, fn in projections.items():
        assert getattr(tq.prox, name) is fn


def _off_by_one(monkeypatch):
    original = tq.qap.relax_and_round

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, rounded_value=res.rounded_value + 1)

    monkeypatch.setattr(tq.qap, "relax_and_round", corrupted)


def _fw_not_doubly_stochastic(monkeypatch):
    original = tq.fw.run_fw

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        iterate = res.iterate.copy()
        iterate[0, 0] += 1e-3
        return dataclasses.replace(res, iterate=iterate)

    monkeypatch.setattr(tq.fw, "run_fw", corrupted)


@pytest.mark.parametrize("corrupt, kinds", [
    (_off_by_one, {"split1", "split2"}),
    (_fw_not_doubly_stochastic, {"fw"}),
])
def test_corrupted_results_count_as_failed(monkeypatch, corrupt, kinds):
    corrupt(monkeypatch)
    _, cells = tiny_round("chr12a")
    assert {c["kind"] for c in cells if c["problems"]} == kinds


def test_exception_counts_as_failed_and_run_goes_on(monkeypatch):
    def diverge(*args, **kwargs):
        raise tq.solver.DivergenceError(7)

    monkeypatch.setattr(tq.solver, "run_tos_product_space", diverge)
    _, cells = tiny_round("composite")
    failed = {c["kind"]: c["problems"] for c in cells if c["problems"]}
    assert list(failed) == ["consensus"]
    assert "DivergenceError" in failed["consensus"][0]


def test_e2e_metric_names_match_spec():
    _, cells = tiny_round("chr12a")
    metrics = bench.e2e_metrics(cells, [0.1, 0.2, 0.3], [0.02, 0.03])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(v["value"] > 0 for v in metrics.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
           {k: v["unit"] for k, v in metrics.items()}


def test_random_mean_matches_enumeration():
    inst, _ = make_instance(tq, shrink(tq, WORKLOADS["rand100"], n=5), seed=1)
    values = [tq.qap.permutation_objective(inst, tq.lap.Permutation(5, p))
              for p in itertools.permutations(range(5))]
    assert random_mean(inst) == pytest.approx(np.mean(values), rel=1e-12)


def test_relabeled_chr12a_is_the_same_problem():
    workload = dataclasses.replace(WORKLOADS["chr12a"], tos_iters=64)
    inst, relabel = make_instance(tq, workload, 5)
    original = tq.qap.load_instance(
        os.path.join(os.path.dirname(tq.__file__), "data", "chr12a.dat"))
    assert not np.array_equal(inst.a, original.a)
    y1 = tq.qap.initial_point(inst.n, 0)
    assert tq.qap.qap_objective(inst, relabel(y1)) == \
        pytest.approx(tq.qap.qap_objective(original, y1), rel=1e-12)
    assert random_mean(inst) == pytest.approx(random_mean(original), rel=1e-12)
    a = run_cell(tq, workload, original, "split2", y1, 0)
    b = run_cell(tq, workload, inst, "split2", relabel(y1), 0)
    assert b.rounded_value == a.rounded_value
    assert b.run.iterations_run == a.run.iterations_run


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chr12a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
