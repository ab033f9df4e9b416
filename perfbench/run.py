#!/usr/bin/env python3
"""tosqap benchmark: time-to-solution per solver, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload chr12a --seed 1 --seconds 60 --trace 0

One process, one caller, closed loop: rounds run one after another in
whole passes over the workload's panel of initial points, and another pass
starts only if it should end within ``--seconds``; the first pass always
runs, and takes 45-55 s untraced on the machine NOTE.md describes.  Each
round runs every cell kind of ``workloads.CELL_KINDS`` from its initial
point.  Every cell's output is checked (``checks.py``); a cell that raises
or fails a check counts as failed, and the run goes on.

``--trace 0`` prints the end-to-end metrics, with solve times in multiples
of a fixed reference loop timed before every solve (``reference_work``), so
that the drift of a shared machine's speed cancels; ``--trace 1`` solves each
cell once, traced, and prints the per-layer metrics and the tracing
overhead, measured in the first round, where each cell is also solved
once untraced just before its traced copy.  A traced pass takes about 30%
longer than an untraced one.  The last line of standard
output is one JSON object; the full record of the run (environment, every
cell with its sha256 digests, per-cell self times by layer) goes to
``perfbench/out/``.  NOTE.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS
from workloads import (CELL_KINDS, TOS_KINDS, WORKLOADS, make_instance, random_mean,
                       replays, run_cell)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Fresh interpreters timed for ``setup_s`` in an untraced run, one before
#: each round and the rest after the last; the median is reported.
SETUP_REPEATS = 7
#: An untraced cell is solved again, on the same inputs, until its solves
#: add up to MIN_CELL_S or it has MAX_RUNS; its time is their median.  Short
#: solves are hit hardest by bursts of load on a shared machine.  Repeats
#: must give the same outputs.  A traced run makes no repeats, so that the
#: untraced and traced solves its overhead compares are one each.
MIN_CELL_S = 0.5
MAX_RUNS = 10
#: Repetitions of ``reference_work``; one call takes about 20 ms on the
#: machine NOTE.md describes.
REFERENCE_REPS = 40
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_tosqap():
    """Import the package from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "tosqap", "__init__.py")):
        raise SystemExit(f"error: tosqap sources not found under {SRC}")
    sys.path.insert(0, SRC)
    tosqap = importlib.import_module("tosqap")
    for layer in LAYERS:
        importlib.import_module(f"tosqap.{layer}")
    if os.path.dirname(os.path.abspath(tosqap.__file__)) != os.path.join(SRC, "tosqap"):
        raise SystemExit(f"error: imported tosqap from {tosqap.__file__}, not {SRC}")
    return tosqap


def setup_probe(workload: str, seed: int) -> None:
    """Time importing tosqap and making the workload's instance, in this fresh
    interpreter, and print the seconds.

    numpy is imported first, untimed.  Its import is about three quarters of
    a full setup, the package cannot change it, and on a shared machine a
    full setup moved by a third between runs while no other metric did.
    """
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    tq = import_tosqap()
    make_instance(tq, WORKLOADS[workload], seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> float:
    """Seconds of one setup, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def reference_work() -> float:
    """Fixed work that calls nothing of tosqap, in the mix the n = 12 solves
    are made of: simplex projections of the rows of a 12 x 12 matrix, a
    relaxation loop over numpy scalars like the LAP solver's, and small
    matrix products with a Gaussian draw.

    An untraced run times it before every solve, and reports solve times in
    multiples of its mean, so that the machine's speed, which drifts by a
    third between runs on a shared host, cancels (NOTE.md, *Reference time*).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    c = rng.random((12, 12))
    x = np.full((12, 12), 1.0 / 12)
    ks = np.arange(1, 13)
    total = 0.0
    for _ in range(REFERENCE_REPS):
        out = np.empty_like(x)
        for i in range(12):
            v = np.asarray(x[i] + c[i] - 0.5, dtype=np.float64).ravel()
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - 1.0
            rho = np.nonzero(u * ks > css)[0][-1]
            out[i] = np.maximum(v - css[rho] / (rho + 1.0), 0.0)
        x = out
        best = np.full(13, np.inf)
        arg = np.zeros(13, dtype=np.int64)
        dual = np.zeros(13)
        for i in range(12):
            row = c[i] - dual[1:]
            for j in range(1, 13):
                if row[j - 1] < best[j]:
                    best[j] = row[j - 1]
                    arg[j] = i
            for j in range(13):
                if best[j] < np.inf:
                    dual[j] += 0.01 * best[j]
        for _ in range(4):
            g = c @ x @ c.T + 0.05 * rng.standard_normal((12, 12))
            total += float(np.sum(g * x))
    return total


def run_round(tq, workload, inst, relabel, index: int, next_id, tracer=None,
              paired: bool = False, refs=None):
    """Run, time and check every cell of one round; return their records.

    With a tracer, each cell is solved traced, once.  ``paired`` puts an
    untraced solve of each cell at once before its traced copy, on the same
    inputs, so that both see the same load on the machine.  With a list
    ``refs``, ``reference_work`` is timed before every untraced solve and
    its seconds are appended.
    """
    from checks import digest

    start = index % workload.starts
    mean = random_mean(inst)
    records, y1 = [], None
    variants = (None,) if tracer is None else (None, tracer) if paired else (tracer,)
    for kind in CELL_KINDS:
        pair = []
        for cell_tracer in variants:
            rec = {"id": next_id(), "round": index, "start": start, "kind": kind,
                   "traced": cell_tracer is not None}
            result = _run_cell(tq, workload, inst, kind, y1, mean, rec, cell_tracer,
                               repeat=tracer is None, refs=refs)
            pair.append(rec)
            if kind == "init" and y1 is None and result is not None:
                y1 = relabel(result)
        for rec in pair:
            if y1 is not None:
                rec["y1_sha256"] = digest(y1)
        records += pair
    return records


def _run_cell(tq, workload, inst, kind, y1, mean, rec, tracer, repeat: bool, refs=None):
    """Solve one cell, with ``repeat`` repeating a short one, and check it.
    Fills ``rec`` and returns the result, or None when the cell failed."""
    from checks import check_cell, digest

    times: list[float] = []
    result = None
    t0 = time.perf_counter()
    try:
        if kind != "init" and y1 is None:
            raise RuntimeError("no initial point: the round's init cell failed")
        while True:
            gc.collect()
            if refs is not None:
                t0 = time.perf_counter()
                reference_work()
                refs.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            if tracer is None:
                result = run_cell(tq, workload, inst, kind, y1, rec["start"])
            else:
                with tracer, tracer.cell(rec["id"], kind):
                    result = run_cell(tq, workload, inst, kind, y1, rec["start"])
            times.append(time.perf_counter() - t0)
            described = _describe(kind, result, mean, workload, digest)
            if len(times) == 1:
                first = described
            elif described != first:
                raise RuntimeError(f"repeat {len(times)} differs from the first run")
            if not repeat or sum(times) >= MIN_CELL_S or len(times) == MAX_RUNS:
                break
        rec.update(described)
        rec["problems"] = check_cell(tq, workload, inst, kind, result)
    except Exception as exc:  # a failed cell is recorded; the run goes on
        if not times:
            times.append(time.perf_counter() - t0)
        rec["problems"] = [f"{type(exc).__name__}: {exc}"]
        result = None
    rec["time_s"] = statistics.median(times)
    rec["runs"] = len(times)
    return result


def _describe(kind, result, mean, workload, digest) -> dict:
    import numpy as np

    if kind == "init":
        return {"iterate_sha256": digest(result)}
    if kind in TOS_KINDS or kind == "fw":
        run = result.run if kind in TOS_KINDS else None
        iterations = run.iterations_run if run else result.iterations_run
        cap = workload.tos_iters if run else workload.fw_iters
        out = {
            "iterations": iterations,
            "stopped_by": "cap" if iterations >= cap else "tol",
            "rounded_value": result.rounded_value,
            "ratio": result.rounded_value / mean,
            "infeasibility": result.infeasibility,
            "nonstationarity": result.nonstationarity,
            "perm_sha256": digest(np.asarray(result.permutation.mapping, dtype=np.int64)),
            "iterate_sha256": digest(result.relaxed_iterate if run else result.iterate),
        }
        if run:
            out["checkpoints"] = len(run.trace)
        return out
    if kind == "consensus":
        return {"iterations": workload.consensus_iters,
                "block_residual": result.block_residuals[-1],
                "iterate_sha256": digest(result.x_out)}
    return {"iterations": workload.stochastic_iters, "tau": result.tau,
            "iterate_sha256": digest(result.z_out)}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout's git directory, read without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the paths and bytes of the package sources."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tosqap")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def e2e_metrics(cells: list[dict], setup_times: list[float], refs: list[float]) -> dict:
    """Solve times in multiples of the run's reference time, the mean of its
    ``reference_work`` timings; ``setup_s`` in seconds.  The mean, not the
    median: a solve of seconds lives through the machine's fast and slow
    spells in proportion, and so do the mean's samples.

    A kind's time is the mean over the run's cells of that kind of each
    cell's median solve.  The mean, not the median, is taken over the cells,
    because the starts of the panel differ in work (on chr12a a TOS solve
    stops at t = 2048 from some and t = 4096 from others), so a median over
    them would report one start's solve.  Failed cells count with their time.
    """
    ref = statistics.mean(refs)
    values = {"setup_s": (statistics.median(setup_times), "s")}
    for kind in CELL_KINDS:
        values[f"{kind}_ref"] = (statistics.mean(
            c["time_s"] for c in cells if c["kind"] == kind) / ref, "ref")
    for kind in ("split1", "split2", "fw"):
        ratios = [c["ratio"] for c in cells if c["kind"] == kind and not c["problems"]]
        values[f"{kind}_ratio"] = (statistics.mean(ratios) if ratios else None, "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    tq = import_tosqap()
    workload = WORKLOADS[args.workload]
    setup_times: list[float] = []
    refs: list[float] | None = None
    next_id = itertools.count().__next__
    cells: list[dict] = []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        refs = []
        for _ in range(3):  # warm-up
            reference_work()

    # Whole passes over the start panel; another pass only if it should fit.
    t_start = time.perf_counter()
    rounds = 0
    while True:
        if tracer is None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(args.workload, args.seed))
        inst, relabel = make_instance(tq, workload, args.seed, rounds)
        cells += run_round(tq, workload, inst, relabel, rounds, next_id, tracer,
                           paired=rounds == 0, refs=refs)
        if tracer is not None and tracer.unrestored():
            raise SystemExit(f"error: tracer left wrapped bindings: {tracer.unrestored()}")
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds % workload.starts == 0 and \
                elapsed * (1 + workload.starts / rounds) > args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    while tracer is None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(args.workload, args.seed))

    failed = sum(1 for c in cells if c["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "measured_s": measured_s,
        "environment": environment(), "setup_times_s": setup_times,
        "reference_s": refs,
        "random_mean": random_mean(inst), "attempted": len(cells), "failed": failed,
        "failed_frac": failed / len(cells), "cells": cells,
    }
    if tracer is None:
        metrics = e2e_metrics(cells, setup_times, refs)
    else:
        from layers import cell_self_times, layer_metrics, unit_of

        traced = [c for c in cells if c["traced"]]
        plain = [c for c in cells if not c["traced"]]  # round 0's, paired
        overhead = (sum(c["time_s"] for c in traced if c["round"] == 0)
                    / sum(c["time_s"] for c in plain) - 1)
        values = layer_metrics(tracer, [c for c in traced if not c["problems"]],
                               replays(tq, workload))
        values["trace.overhead_frac"] = overhead
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        record["cell_self_s"] = {str(k): v for k, v in cell_self_times(tracer).items()}
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.csv.gz")
        os.makedirs(OUT, exist_ok=True)
        with gzip.open(spans_path, "wt", compresslevel=1) as f:  # level 9 takes ~10 s
            f.write("id,parent,cell,name,start,end,child\n")
            for i, parent, cell, name, start, end, child in tracer.spans:
                f.write(f"{i},{parent},{cell},{name},{start!r},{end!r},{child!r}\n")
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    for kind in CELL_KINDS:
        group = [c for c in cells if c["kind"] == kind]
        ts = [c["time_s"] for c in group]
        print(f"# {kind:<11} cells {len(ts):<3} solves {sum(c['runs'] for c in group):<3} "
              f"mean {statistics.mean(ts):.4f} s  min {min(ts):.4f}  max {max(ts):.4f}")
    for c in cells:
        for p in c["problems"]:
            print(f"# FAILED cell {c['id']} ({c['kind']}, round {c['round']}): {p}")
    if refs:
        print(f"# reference  timed {len(refs)}  mean {statistics.mean(refs):.5f} s  "
              f"min {min(refs):.5f}  max {max(refs):.5f}")
    print(f"# rounds {rounds}, cells {len(cells)}, failed_frac {failed / len(cells):g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(cells), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
