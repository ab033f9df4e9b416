"""Output checks.  A cell with any problem, or one that raised, counts as failed.

The assignment (LAP) values are checked against
``scipy.optimize.linear_sum_assignment``, an implementation independent of
the package's Hungarian solver.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import TOL, TOS_KINDS

#: Relative tolerance of a recomputed objective or assignment value; far
#: below 1, so a rounded value off by one is caught at every instance size.
VALUE_RTOL = 1e-12
#: Doubly stochastic tolerance of Frank-Wolfe iterates.
FEAS_TOL = 1e-6


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def check_cell(tq, workload, inst, kind: str, result) -> list[str]:
    """Problems found in one cell's result (empty when it is correct)."""
    n = inst.n
    if kind == "init":
        return _finite_square(result, n, "initial point")
    if kind in TOS_KINDS:
        problems = check_rounding(tq, inst, result.permutation, result.rounded_value,
                                  result.relaxed_iterate)
        if (result.run.iterations_run < workload.tos_iters
                and not (result.infeasibility < TOL and result.nonstationarity < TOL)):
            problems.append(
                f"stopped at {result.run.iterations_run} < {workload.tos_iters} with "
                f"infeasibility {result.infeasibility:.3g}, nonstationarity "
                f"{result.nonstationarity:.3g}, tol {TOL:g}")
        return problems
    if kind == "fw":
        return (check_rounding(tq, inst, result.permutation, result.rounded_value,
                               result.iterate)
                + _doubly_stochastic(result.iterate))
    if kind == "consensus":
        x = result.x_out
        problems = _finite_square(x, n, "consensus point")
        if not problems:
            # The box block z satisfies ||z - x|| <= the last block residual,
            # so x lies within that distance of the box.
            outside = float(np.linalg.norm(x - np.clip(x, 0.0, 1.0)))
            allowed = result.block_residuals[-1] * (1 + 1e-9) + 1e-12
            if outside > allowed:
                problems.append(f"consensus point {outside:.3g} outside the box, "
                                f"last block residual {result.block_residuals[-1]:.3g}")
        return problems
    if kind == "stochastic":
        z = result.z_out
        problems = _finite_square(z, n, "stochastic output")
        if not problems and not (z.min() >= 0.0 and z.max() <= 1.0):
            problems.append(f"stochastic output outside the box: [{z.min()}, {z.max()}]")
        if not 1 <= result.tau <= workload.stochastic_iters:
            problems.append(f"tau {result.tau} outside 1..{workload.stochastic_iters}")
        return problems
    raise ValueError(f"unknown cell kind {kind!r}")


def check_rounding(tq, inst, perm, rounded_value: float, iterate) -> list[str]:
    """The permutation is a bijection, its objective is ``rounded_value`` and it
    maximizes <iterate, P> as scipy's assignment solver does."""
    mapping = list(perm.mapping)
    if sorted(mapping) != list(range(inst.n)):
        return [f"rounded mapping is not a bijection on 0..{inst.n - 1}"]
    problems = []
    expected = tq.qap.permutation_objective(inst, perm)
    if abs(rounded_value - expected) > VALUE_RTOL * max(1.0, abs(expected)):
        problems.append(f"rounded value {rounded_value!r} != permutation_objective {expected!r}")
    x = np.asarray(iterate, dtype=np.float64)
    rows, cols = linear_sum_assignment(x, maximize=True)
    reference = float(x[rows, cols].sum())
    value = float(x[np.arange(inst.n), mapping].sum())
    if abs(value - reference) > VALUE_RTOL * inst.n * max(1.0, abs(reference)):
        problems.append(f"rounding LAP value {value!r} != scipy {reference!r}")
    return problems


def _finite_square(x, n: int, what: str) -> list[str]:
    x = np.asarray(x)
    if x.shape != (n, n):
        return [f"{what} has shape {x.shape}, expected {(n, n)}"]
    if not np.all(np.isfinite(x)):
        return [f"{what} has non-finite entries"]
    return []


def _doubly_stochastic(x) -> list[str]:
    err = max(float(np.max(np.abs(x.sum(axis=1) - 1.0))),
              float(np.max(np.abs(x.sum(axis=0) - 1.0))),
              -float(x.min()))
    if not err <= FEAS_TOL:
        return [f"FW iterate is {err:.3g} from doubly stochastic (tol {FEAS_TOL:g})"]
    return []
