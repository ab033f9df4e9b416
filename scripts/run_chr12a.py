#!/usr/bin/env python3
"""Solve the bundled chr12a instance with every solver and print a comparison.

Runs both splitting decompositions (step size 1/L) and the Frank-Wolfe
baseline from the same initial point, then reports relaxed value, rounded
value, error metrics, and wall time per solver.
"""

import argparse
import importlib.resources

import numpy as np

from tosqap import SolverConfig, StepRule, load_best_known, load_instance, relax_and_round
from tosqap.fw import FwConfig, run_fw
from tosqap.qap import SPLIT1, SPLIT2, initial_point


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-5)
    args = ap.parse_args()

    data = importlib.resources.files("tosqap") / "data"
    inst = load_instance(data / "chr12a.dat",
                         best_known=load_best_known(data / "best_known.txt")["chr12a"])
    y1 = initial_point(inst.n, args.seed)

    rows = []
    for split in (SPLIT1, SPLIT2):
        res = relax_and_round(
            inst, split,
            SolverConfig(iters=args.iters, step=StepRule.inv_smoothness(), seed=args.seed),
            tol=args.tol, y1=y1)
        rows.append((f"tos-{split}", res.run.iterations_run, res.relaxed_value,
                     res.rounded_value, res.infeasibility, res.nonstationarity,
                     res.assignment_err, res.run.wall_time))

    fw = run_fw(inst, np.array(y1), FwConfig(max_iters=args.iters, gap_tolerance=args.tol))
    rows.append(("fw", fw.iterations_run, fw.relaxed_value, fw.rounded_value,
                 fw.infeasibility, fw.nonstationarity, fw.assignment_err, fw.wall_time))

    header = f"{'solver':<12}{'iters':>8}{'relaxed':>12}{'rounded':>10}" \
             f"{'infeas':>11}{'nonstat':>11}{'assign err':>12}{'time (s)':>10}"
    print(f"chr12a (n={inst.n}, best known {inst.best_known:g})")
    print(header)
    print("-" * len(header))
    for name, iters, relaxed, rounded, infeas, nonstat, err, wall in rows:
        print(f"{name:<12}{iters:>8}{relaxed:>12.2f}{rounded:>10.0f}"
              f"{infeas:>11.2e}{nonstat:>11.2e}{err:>12.4f}{wall:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
