"""Command-line harness: solve single instances, run benchmark sweeps,
and self-check the core numerical invariants.

Subcommands:

* ``solve``   -- run one solver on one instance, writing a CSV trace and
  a JSON summary;
* ``bench``   -- run a manifest of (instance, solver) cells one after
  another in manifest order, all solvers sharing the per-instance initial
  point, and tally pairwise wins;
* ``selftest`` -- fast invariant suite (projections, certificates,
  assignment solver vs enumeration, gradient checks).

Environment: ``TOSQAP_OUT_DIR`` overrides the output directory.
Everything algorithmic comes from flags or the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import sys

import numpy as np

from . import qap
from .fw import FwConfig, run_fw
from .lap import solve_lap_min
from .linalg import frobenius_inner, frobenius_norm, make_rng
from .prox import project_affine_doubly_stochastic, project_row_stochastic, prox_box01
from .solver import (
    CompositeProblem,
    SolverConfig,
    StepRule,
    certificate_residual,
    run_tos,
)

SOLVERS = ("tos-split1", "tos-split2", "fw")

#: Environment variables that set the BLAS thread count; the bytes of a
#: relaxed iterate can change with it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRACE_COLUMNS = ("t", "f", "coupling", "certificate", "infeasibility", "nonstationarity")


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def write_trace(path, records) -> None:
    with open(path, "w") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        for r in records:
            f.write(",".join([
                str(r.t), _fmt(r.objective), _fmt(r.coupling), _fmt(r.certificate),
                _fmt(r.infeasibility), _fmt(r.nonstationarity),
            ]) + "\n")


def environment() -> dict:
    """What besides the seed decides a run's bytes: interpreter and numpy
    versions, CPU count and the BLAS thread variables (None when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **{name: os.environ.get(name) for name in THREAD_VARS},
    }


def _out_dir(flag_value) -> str:
    out = os.environ.get("TOSQAP_OUT_DIR", flag_value)
    os.makedirs(out, exist_ok=True)
    return out


def _step_rule(spec: str) -> StepRule:
    if spec == "theory":
        return StepRule(kind="indicators")
    if spec == "invL":
        return StepRule(kind="inv_smoothness")
    if spec.startswith("fixed:"):
        return StepRule.fixed(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown step rule {spec!r}; use theory | invL | fixed:<gamma>")


def _resolve_best_known(inst: qap.QapInstance, override):
    if override is not None:
        return qap.QapInstance(inst.name, inst.a, inst.b, best_known=float(override))
    table_path = os.path.join(os.path.dirname(__file__), "data", "best_known.txt")
    table = qap.load_best_known(table_path)
    if inst.name in table:
        return qap.QapInstance(inst.name, inst.a, inst.b, best_known=table[inst.name])
    return inst


def _run_cell(inst: qap.QapInstance, solver: str, iters: int, seed: int,
              step: StepRule, tol, y1):
    if solver == "fw":
        res = run_fw(inst, y1, FwConfig(max_iters=iters, gap_tolerance=tol or 0.0))
        run, iterate = res, res.iterate
    else:
        config = SolverConfig(iters=iters, step=step, seed=seed)
        res = qap.relax_and_round(inst, solver.split("-", 1)[1], config, tol=tol, y1=y1)
        run, iterate = res.run, res.relaxed_iterate
    return {
        "solver": solver,
        "instance": inst.name,
        "iterations": run.iterations_run,
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
    inst = qap.load_instance(args.instance)
    inst = _resolve_best_known(inst, args.best_known)
    out = _out_dir(args.out)
    step = _step_rule(args.step)
    y1 = qap.initial_point(inst.n, args.seed)
    summary, trace, iterate = _run_cell(
        inst, args.solver, args.iters, args.seed, step, args.tol, y1)
    summary["env"] = environment()
    stem = f"{inst.name}_{args.solver}_seed{args.seed}"
    write_trace(os.path.join(out, stem + ".trace.csv"), trace)
    np.savetxt(os.path.join(out, stem + ".iterate.txt"), iterate, fmt="%.17g")
    with open(os.path.join(out, stem + ".summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    with open(args.manifest) as f:
        manifest = json.load(f)
    instances = manifest.get("instances", [])
    solvers = manifest.get("solvers", [])
    if not instances or not solvers:
        print("manifest error: need at least one instance and one solver", file=sys.stderr)
        return 2
    for s in solvers:
        if s not in SOLVERS:
            print(f"manifest error: unknown solver {s!r}", file=sys.stderr)
            return 2
    cfg = manifest.get("config", {})
    iters = int(cfg.get("iters", 1000))
    seed = int(cfg.get("seed", 0))
    tol = cfg.get("tol")
    step = _step_rule(cfg.get("step", "invL"))
    out = _out_dir(manifest.get("out_dir", args.out))

    cells = []
    paths = {}
    for entry in instances:
        inst = qap.load_instance(entry["path"])
        if inst.name in paths:
            print(f"manifest error: duplicate instance name {inst.name!r} "
                  f"({paths[inst.name]} and {entry['path']})", file=sys.stderr)
            return 2
        paths[inst.name] = entry["path"]
        cells.append((_resolve_best_known(inst, entry.get("best_known")),
                      qap.initial_point(inst.n, seed)))

    rows = []
    for inst, y1 in cells:
        for solver in solvers:
            try:
                summary, trace, _ = _run_cell(inst, solver, iters, seed, step, tol, y1)
                write_trace(os.path.join(out, f"{inst.name}_{solver}_seed{seed}.trace.csv"), trace)
                rows.append(summary)
            except Exception as exc:  # cell failures are recorded, the sweep continues
                rows.append({"solver": solver, "instance": inst.name, "error": str(exc)})

    tally = pairwise_tally(rows, solvers)
    report = {"rows": rows, "tally": tally, "env": environment()}
    with open(os.path.join(out, "bench_summary.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if any("error" not in r for r in rows) else 1


def pairwise_tally(rows, solvers):
    """Win/tie/loss counts on assignment error for each solver pair."""
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


def selftest(lap_solver=solve_lap_min, verbose: bool = True) -> int:
    """Fast invariant suite; returns the number of failing groups.

    ``lap_solver`` is injectable so tests can verify that a corrupted
    assignment solver is detected.
    """
    import itertools as it

    rng = make_rng(2024)
    failures = 0

    def report(group: str, ok: bool):
        nonlocal failures
        if not ok:
            failures += 1
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {group}")

    # Prox characterization for the box projection.
    ok = True
    box = prox_box01()
    for _ in range(20):
        x = rng.standard_normal((4, 4)) * 2
        z = rng.uniform(0, 1, (4, 4))
        p = box(x, 1.0)
        ok &= frobenius_inner(x - p, z - p) <= 1e-9
    report("prox characterization (box)", ok)

    # Certificate nonpositivity on a random convex quadratic instance.
    from .oracles import GradientOracle

    m = rng.standard_normal((3, 3))
    oracle = GradientOracle(
        value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
        gradient=lambda x: x - m,
    )
    problem = CompositeProblem(
        oracle=oracle, prox_g=box, prox_h=box, shape=(3, 3))
    residuals = []

    def hook(t, gamma, u, z, x, y, y_next):
        x_ref = np.full((3, 3), 0.5)
        residuals.append(certificate_residual(
            gamma, u, x, z, y, y_next, x_ref, box.value, box.value))

    run_tos(problem, SolverConfig(iters=50, step=StepRule.fixed(0.3)),
            np.zeros((3, 3)), iteration_hook=hook)
    report("certificate nonpositivity", max(residuals) <= 1e-9)

    # Assignment solver vs enumeration at n <= 6.
    ok = True
    for n in (3, 4, 5, 6):
        cost = rng.standard_normal((n, n))
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in it.permutations(range(n)))
        ok &= abs(lap_solver(cost).value - best) <= 1e-9
    report("assignment solver vs enumeration", ok)

    # Gradient vs central finite differences.
    inst = qap.QapInstance("selftest", rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4)))
    x = rng.uniform(0, 1, (4, 4))
    grad = qap.qap_gradient(inst, x)
    fd = np.zeros_like(x)
    eps = 1e-6
    for i in range(4):
        for j in range(4):
            e = np.zeros_like(x)
            e[i, j] = eps
            fd[i, j] = (qap.qap_objective(inst, x + e) - qap.qap_objective(inst, x - e)) / (2 * eps)
    report("gradient finite differences",
           frobenius_norm(grad - fd) <= 1e-6 * max(1.0, frobenius_norm(grad)))

    # Affine projection satisfies both marginals.
    y = project_affine_doubly_stochastic(rng.standard_normal((5, 5)))
    ok = (np.max(np.abs(y.sum(axis=1) - 1)) <= 1e-10
          and np.max(np.abs(y.sum(axis=0) - 1)) <= 1e-10)
    report("affine doubly stochastic projection", ok)

    # Row projection lands on the simplex.
    y = project_row_stochastic(rng.standard_normal((6, 6)))
    report("row-stochastic projection",
           bool(np.all(y >= 0) and np.max(np.abs(y.sum(axis=1) - 1)) <= 1e-12))

    return failures


def cmd_selftest(args) -> int:
    failures = selftest()
    return 0 if failures == 0 else 1


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
    pb.add_argument("--out", default="runs", help="fallback output directory")
    pb.set_defaults(func=cmd_bench)

    pt = sub.add_parser("selftest", help="run the fast invariant suite")
    pt.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
