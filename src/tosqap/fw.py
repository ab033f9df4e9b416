"""Frank-Wolfe baseline over the Birkhoff polytope.

Projection-free method for the relaxed assignment problem: each
iteration solves a linear assignment problem to get a vertex direction
and takes the exact minimizer of the (univariate quadratic) objective
restriction along the segment.  Serves as the comparison baseline for
the splitting solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lap import permutation_to_matrix, solve_lap_min
from .linalg import as_matrix, check_int, check_real, frobenius_inner
from .qap import QapInstance, _round, qap_gradient, qap_objective
from .solver import TraceRecord, power_of_two_schedule


@dataclass(frozen=True)
class FwConfig:
    max_iters: int
    gap_tolerance: float = 0.0

    def __post_init__(self):
        check_int(self.max_iters, "max_iters", 1)
        check_real(self.gap_tolerance, "gap_tolerance", least=0)


@dataclass
class FwResult:
    instance: str
    iterate: np.ndarray
    permutation: object
    relaxed_value: float
    rounded_value: float
    infeasibility: float  # identically 0: iterates stay in the polytope
    nonstationarity: float
    assignment_err: Optional[float]
    trace: list[TraceRecord]
    iterations_run: int
    wall_time: float


def exact_line_step(inst: QapInstance, grad: np.ndarray, direction: np.ndarray) -> float:
    """Minimizer over [0, 1] of the objective along x + eta * direction,
    given ``grad`` = grad f(x).

    The restriction is the quadratic a eta^2 + b eta + const with
    a = trace(A D B^T D^T) and b = <grad f(x), D>.  For a <= 0 the
    quadratic is concave or linear so an endpoint is optimal; ties pick
    eta = 1.
    """
    a = float(np.trace(inst.a @ direction @ inst.b.T @ direction.T))
    b = frobenius_inner(grad, direction)
    if a > 0.0:
        return min(1.0, max(0.0, -b / (2.0 * a)))
    # endpoint comparison: q(1) - q(0) = a + b
    return 1.0 if a + b <= 0.0 else 0.0


#: How far the start point's marginals and entries may stray from doubly
#: stochastic.
FEAS_TOL = 1e-6


def run_fw(inst: QapInstance, y1: np.ndarray, config: FwConfig) -> FwResult:
    """Frank-Wolfe with exact line search, started from a doubly
    stochastic (to ``FEAS_TOL``) point."""
    x = as_matrix(y1, "y1").copy()
    if x.shape != (inst.n, inst.n):
        raise ValueError(f"y1 shape {x.shape} != instance shape {(inst.n, inst.n)}")
    _check_feasible(x, FEAS_TOL)
    schedule = power_of_two_schedule(config.max_iters)
    trace: list[TraceRecord] = []
    t_start = time.perf_counter()
    # Each LAP is warm-started from the previous one's column duals, which
    # consecutive gradients leave nearly optimal; the first solves cold.
    dual_col = None
    # Pass max_iters + 1 only evaluates the final point, so the reported
    # gap and objective are always the loop's own.
    for t in range(1, config.max_iters + 2):
        grad = qap_gradient(inst, x)
        sol = solve_lap_min(grad, dual_col)
        dual_col = sol.dual_col
        s = permutation_to_matrix(sol.permutation)
        direction = s - x
        gap = frobenius_inner(grad, -direction)
        f_x = qap_objective(inst, x)
        nonstationarity = abs(gap) / max(f_x, 1.0)
        if t in schedule:
            trace.append(TraceRecord(
                t=t,
                objective=f_x,
                coupling=gap,
                certificate=0.0,
                infeasibility=0.0,
                nonstationarity=nonstationarity,
            ))
        # Stop on the normalized gap error, matching the nonstationarity
        # threshold used for the splitting solver; gap <= 0 means the
        # current point already minimizes the linearization.
        if (t > config.max_iters or gap <= 0.0
                or (config.gap_tolerance > 0.0 and nonstationarity <= config.gap_tolerance)):
            break
        eta = exact_line_step(inst, grad, direction)
        x = x + eta * direction

    perm, rounded, assignment_err = _round(inst, x)
    return FwResult(
        instance=inst.name,
        iterate=x,
        permutation=perm,
        relaxed_value=f_x,
        rounded_value=rounded,
        infeasibility=0.0,
        nonstationarity=nonstationarity,
        assignment_err=assignment_err,
        trace=trace,
        iterations_run=min(t, config.max_iters),
        wall_time=time.perf_counter() - t_start,
    )


def _check_feasible(x: np.ndarray, tol: float) -> None:
    n = x.shape[0]
    row_err = float(np.max(np.abs(x.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(x.sum(axis=0) - 1.0)))
    neg = float(max(0.0, -x.min()))
    if max(row_err, col_err, neg) > tol:
        raise ValueError(
            f"start point is not doubly stochastic within {tol}: "
            f"row err {row_err:.2e}, col err {col_err:.2e}, min entry {x.min():.2e}"
        )
