#!/usr/bin/env python3
"""Solve the bundled chr12a instance with every solver and print a comparison.

Runs both splitting decompositions (step size 1/L) and the Frank-Wolfe
baseline from the same initial point, each as the cell that ``tosqap solve``
and ``tosqap bench`` run, then reports relaxed value, rounded value, error
metrics, and wall time per solver.
"""

import argparse
import importlib.resources

from tosqap import StepRule, cli, initial_point, load_instance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-5)
    args = ap.parse_args()

    inst = cli._resolve_best_known(
        load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat"), None)
    y1 = initial_point(inst.n, args.seed)
    rows = [cli._run_cell(inst, solver, args.iters, args.seed, StepRule.inv_smoothness(),
                          args.tol, y1)[0] for solver in cli.SOLVERS]

    header = f"{'solver':<12}{'iters':>8}{'relaxed':>12}{'rounded':>10}" \
             f"{'infeas':>11}{'nonstat':>11}{'assign err':>12}{'time (s)':>10}"
    print(f"chr12a (n={inst.n}, best known {inst.best_known:g})")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['solver']:<12}{r['iterations']:>8}{r['relaxed_value']:>12.2f}"
              f"{r['rounded_value']:>10.0f}{r['infeasibility']:>11.2e}"
              f"{r['nonstationarity']:>11.2e}{r['assignment_error']:>12.4f}{r['wall_time']:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
