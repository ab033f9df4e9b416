"""Command-line harness: solve single instances and run benchmark sweeps.

Subcommands:

* ``solve``   -- run one solver on one instance, writing a CSV trace, the
  relaxed iterate and a JSON summary; a run that fails writes its summary
  alone, with the error, and exits 1;
* ``bench``   -- run a manifest of (instance, solver) cells one after
  another in manifest order, all solvers sharing the per-instance initial
  point, and tally pairwise wins.

Everything algorithmic comes from flags or the manifest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from dataclasses import replace

import numpy as np

from . import qap
from .fw import FwConfig, run_fw
from .linalg import check_int, check_real
from .solver import DivergenceError, SolverConfig, StepRule

SOLVERS = ("tos-split1", "tos-split2", "fw")

#: Environment variables that set the BLAS thread count; the bytes of a
#: relaxed iterate can change with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRACE_COLUMNS = ("t", "f", "coupling", "certificate", "infeasibility", "nonstationarity")


def write_trace(path, records) -> None:
    """One CSV row per record, each entry ``%.17g``; a missing metric reads nan."""
    rows = [(r.t, r.objective, r.coupling, r.certificate, r.infeasibility, r.nonstationarity)
            for r in records]
    np.savetxt(path, np.array(rows, dtype=float).reshape(-1, len(TRACE_COLUMNS)), fmt="%.17g",
               delimiter=",", header=",".join(TRACE_COLUMNS), comments="")


def _openblas(name: str):
    """The function ``name`` of numpy's OpenBLAS (``get_num_threads``, say),
    looked up through numpy's own extension module, whose linked libraries a
    symbol lookup searches; None when no such library or symbol is found."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def source_digest() -> str:
    """sha256 over the relative path and bytes of every file of the package,
    ``__pycache__`` skipped: the recipe of perfbench's ``source_digest``, so
    that a CLI artifact and a benchmark record of one source tree match."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    """What besides the seed decides a run's bytes: the package sources
    (``source_digest``), interpreter and numpy versions, the BLAS library
    numpy was built with, CPU count, the live BLAS thread count and core type
    (``OPENBLAS_CORETYPE`` forces one), and the thread variables (None when
    unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, core = _openblas("get_num_threads"), _openblas("get_corename")
    if core is not None:
        core.restype = ctypes.c_char_p
    return {
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "blas_threads": None if threads is None else threads(),
        "blas_core": None if core is None else core().decode(),
        **{name: os.environ.get(name) for name in THREAD_VARS},
    }


def _step_rule(spec, where: str) -> StepRule:
    """Parse theory | invL | fixed:<gamma>; a ``ValueError`` names ``where``."""
    if spec == "theory":
        return StepRule(kind="theory")
    if spec == "invL":
        return StepRule(kind="inv_smoothness")
    if isinstance(spec, str) and spec.startswith("fixed:"):
        try:
            return StepRule.fixed(float(spec[len("fixed:"):]))
        except ValueError:
            pass
    raise ValueError(f"{where}: expected theory | invL | fixed:<gamma> with gamma "
                     f"a positive number, got {spec!r}")


class ManifestError(ValueError):
    """A fault in a bench manifest, found before any cell runs (exit 2)."""


#: QAPLIB's best known objective value of each bundled instance, by file stem.
BEST_KNOWN = {"chr12a": 9552.0}


def _resolve_best_known(inst: qap.QapInstance, override=None, source=None):
    """``inst`` with its reference value, ``override`` (from ``source``, "flag"
    or "manifest") or else the bundled one, and the summary keys that name
    both: a sha256 of A's then B's float64 bytes, the value and its source."""
    best, source = (BEST_KNOWN.get(inst.name), "bundled") if override is None else (
        float(override), source)
    digest = hashlib.sha256(inst.a.tobytes() + inst.b.tobytes()).hexdigest()[:16]
    inputs = {"instance_sha256": digest, "best_known": best,
              "best_known_from": None if best is None else source}
    return (inst if best is None else replace(inst, best_known=best)), inputs


def _run_cell(inst: qap.QapInstance, solver: str, iters: int, step: StepRule, tol, y1):
    """One solver's run from ``y1``: (summary row, trace, relaxed iterate).  A
    failed run's row holds its ``error`` (and, on divergence, where), with no
    trace or iterate."""
    try:
        if solver == "fw":
            res = run_fw(inst, y1, FwConfig(max_iters=iters, gap_tolerance=tol or 0.0))
            run, iterate, gamma, l_smooth = res, res.iterate, None, None
        else:
            config = SolverConfig(iters=iters, step=step)
            res = qap.relax_and_round(inst, solver.split("-", 1)[1], config, tol=tol, y1=y1)
            run, iterate = res.run, res.relaxed_iterate
            gamma, l_smooth = run.gamma, run.l_smooth
    except Exception as exc:  # the failure is the cell's record
        row = {"solver": solver, "instance": inst.name, "error": str(exc)}
        if isinstance(exc, DivergenceError):
            row.update(stopped_by="divergence", iterations=exc.iteration)
        return row, None, None
    return {
        "solver": solver,
        "instance": inst.name,
        "gamma": gamma,
        "l_smooth": l_smooth,
        "iterations": run.iterations_run,
        "stopped_by": res.stopped_by,
        "checkpoints": len(run.trace),
        "checks": res.checks,
        "relaxed_value": res.relaxed_value,
        "rounded_value": res.rounded_value,
        "infeasibility": res.infeasibility,
        "nonstationarity": res.nonstationarity,
        "assignment_error": res.assignment_err,
        "permutation": list(res.permutation.mapping),
        "wall_time": run.wall_time,
        "y1_digest": hashlib.sha256(y1.tobytes()).hexdigest()[:16],
    }, run.trace, iterate


def cmd_solve(args) -> int:
    step = _step_rule(args.step, "--step")
    check_int(args.iters, "--iters", 1)
    check_int(args.seed, "--seed", 0)
    if args.tol is not None:
        check_real(args.tol, "--tol", least=0)
    if args.best_known is not None:
        check_real(args.best_known, "--best-known", finite=True)
    if args.out == "":
        raise ValueError("--out: expected a directory name, got ''")
    inst, inputs = _resolve_best_known(qap.load_instance(args.instance), args.best_known, "flag")
    os.makedirs(args.out, exist_ok=True)
    y1 = qap.initial_point(inst.n, args.seed)
    summary, trace, iterate = _run_cell(inst, args.solver, args.iters, step, args.tol, y1)
    # JSON has no infinity: an infinite tol is written as the string "inf".
    summary.update(inputs, env=environment(), iters=args.iters, step=args.step, seed=args.seed,
                   tol="inf" if args.tol == math.inf else args.tol)
    stem = f"{inst.name}_{args.solver}_seed{args.seed}"
    if trace is not None:
        write_trace(os.path.join(args.out, stem + ".trace.csv"), trace)
        np.savetxt(os.path.join(args.out, stem + ".iterate.txt"), iterate, fmt="%.17g")
    with open(os.path.join(args.out, stem + ".summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if "error" in summary:
        print(f"error: {summary['error']}", file=sys.stderr)
        return 1
    return 0


def _check_keys(entry: dict, allowed: tuple, where: str) -> None:
    for key in entry:
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}; allowed: {', '.join(allowed)}")


def cmd_bench(args) -> int:
    with open(args.manifest, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{args.manifest}: not JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{args.manifest}: not UTF-8: {exc}") from None
    try:
        if not isinstance(manifest, dict):
            raise ValueError(f"manifest: expected an object, got {manifest!r}")
        _check_keys(manifest, ("instances", "solvers", "config", "out_dir"), "manifest")
        instances = manifest.get("instances", [])
        solvers = manifest.get("solvers", [])
        cfg = manifest.get("config", {})
        out = manifest.get("out_dir", "runs")
        for key, value, kind in (("instances", instances, list), ("solvers", solvers, list),
                                 ("config", cfg, dict), ("out_dir", out, str)):
            if not isinstance(value, kind):
                noun = {list: "an array", dict: "an object", str: "a string"}[kind]
                raise ValueError(f"{key}: expected {noun}, got {value!r}")
        if out == "":
            raise ValueError("out_dir: expected a directory name, got ''")
        if not instances or not solvers:
            raise ValueError("need at least one instance and one solver")
        for k, s in enumerate(solvers):
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}")
            if s in solvers[:k]:
                raise ValueError(f"solvers: {s!r} is listed twice")
        _check_keys(cfg, ("iters", "seed", "tol", "step"), "config")
        iters = check_int(cfg.get("iters", 1000), "config.iters", 1)
        seed = check_int(cfg.get("seed", 0), "config.seed", 0)
        tol = cfg.get("tol")
        if tol is not None:
            check_real(tol, "config.tol", least=0)
        step = _step_rule(cfg.get("step", "invL"), "config.step")
        for k, entry in enumerate(instances):
            if not isinstance(entry, dict) or "path" not in entry:
                raise ValueError(f"instances[{k}]: expected an object with a \"path\", got {entry!r}")
            _check_keys(entry, ("path", "best_known"), f"instances[{k}]")
            if not isinstance(entry["path"], str):
                raise ValueError(f"instances[{k}].path: expected a string, got {entry['path']!r}")
            if entry.get("best_known") is not None:
                check_real(entry["best_known"], f"instances[{k}].best_known", finite=True)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None

    cells = []
    paths = {}
    for entry in instances:
        inst = qap.load_instance(entry["path"])
        if inst.name in paths:
            raise ManifestError(f"duplicate instance name {inst.name!r} "
                                f"({paths[inst.name]} and {entry['path']})")
        paths[inst.name] = entry["path"]
        cells.append((*_resolve_best_known(inst, entry.get("best_known"), "manifest"),
                      qap.initial_point(inst.n, seed)))
    os.makedirs(out, exist_ok=True)

    rows = []
    for inst, inputs, y1 in cells:
        for solver in solvers:
            summary, trace, _ = _run_cell(inst, solver, iters, step, tol, y1)
            if trace is not None:
                write_trace(os.path.join(out, f"{inst.name}_{solver}_seed{seed}.trace.csv"), trace)
            rows.append({**summary, **inputs})

    tally = pairwise_tally(rows, solvers)
    config = {"iters": iters, "tol": "inf" if tol == math.inf else tol,
              "step": cfg.get("step", "invL"), "seed": seed}
    report = {"rows": rows, "tally": tally, "env": environment(), "config": config}
    with open(os.path.join(out, "bench_summary.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if any("error" not in r for r in rows) else 1


def pairwise_tally(rows, solvers):
    """Win/tie/loss counts on the rounded objective value (lower wins) for
    each solver pair."""
    by_key = {(r["instance"], r["solver"]): r for r in rows if "error" not in r}
    instances = sorted({r["instance"] for r in rows})
    tally = {}
    for a, b in itertools.combinations(solvers, 2):
        wins = ties = losses = 0
        for name in instances:
            ra, rb = by_key.get((name, a)), by_key.get((name, b))
            if ra is None or rb is None:
                continue
            ea, eb = ra["rounded_value"], rb["rounded_value"]
            if ea < eb:
                wins += 1
            elif ea > eb:
                losses += 1
            else:
                ties += 1
        tally[f"{a}_vs_{b}"] = {"win": wins, "tie": ties, "loss": losses}
    return tally


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tosqap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one solver on one instance")
    ps.add_argument("instance", help="path to a QAPLIB-format instance file")
    ps.add_argument("--solver", choices=SOLVERS, default="tos-split2")
    ps.add_argument("--iters", type=int, default=100000, help="iteration cap")
    ps.add_argument("--seed", type=int, default=0, help="seed for the initial point")
    ps.add_argument("--step", default="invL", help="theory | invL | fixed:<gamma>")
    ps.add_argument("--tol", type=float, default=None,
                    help="stop when infeasibility and nonstationarity errors fall below this")
    ps.add_argument("--best-known", type=float, default=None,
                    help="override the best known objective value")
    ps.add_argument("--out", default="runs", help="output directory")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a benchmark manifest")
    pb.add_argument("manifest", help="JSON manifest of instances, solvers, and config")
    pb.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
