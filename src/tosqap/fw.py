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
import numpy as np

from .lap import permutation_to_matrix, solve_lap_min
from .linalg import as_matrix, check_int, check_real, frobenius_inner
from .qap import QapInstance, QapReport, _report, qap_gradient, qap_objective
from .solver import TraceRecord, power_of_two_schedule, stationarity_gap


@dataclass(frozen=True)
class FwConfig:
    max_iters: int
    gap_tolerance: float = 0.0

    def __post_init__(self):
        check_int(self.max_iters, "max_iters", 1)
        check_real(self.gap_tolerance, "gap_tolerance", least=0)


@dataclass
class FwResult(QapReport):
    iterate: np.ndarray
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
    x = as_matrix(y1, "y1", (inst.n, inst.n)).copy()
    _check_feasible(x, FEAS_TOL)
    schedule = power_of_two_schedule(config.max_iters)
    trace: list[TraceRecord] = []
    t_start = time.perf_counter()
    # Each LAP is warm-started from the previous solution, whose column duals
    # consecutive gradients leave nearly optimal; the first solves cold.
    sol = None
    # Pass t evaluates x, the point after t steps.
    for t in range(config.max_iters + 1):
        grad = qap_gradient(inst, x)
        sol = solve_lap_min(grad, sol)
        s = permutation_to_matrix(sol.permutation)
        gap = stationarity_gap(grad, x, s)
        f_x = qap_objective(inst, x)
        nonstationarity = abs(gap) / max(f_x, 1.0)
        # Stop as relax_and_round does, on nonstationarity < tolerance; gap
        # <= 0 means the current point already minimizes the linearization.
        stop = t == config.max_iters or gap <= 0.0 or nonstationarity < config.gap_tolerance
        if stop or t == 0 or t in schedule:
            # infeasibility is identically 0: iterates stay in the polytope
            trace.append(TraceRecord(t=t, objective=f_x, coupling=gap, certificate=0.0,
                                     infeasibility=0.0, nonstationarity=nonstationarity))
        if stop:
            break
        direction = s - x
        eta = exact_line_step(inst, grad, direction)
        x = x + eta * direction

    return FwResult(**_report(inst, x, trace[-1]), iterate=x, trace=trace, iterations_run=t,
                    wall_time=time.perf_counter() - t_start)


def _check_feasible(x: np.ndarray, tol: float) -> None:
    row_err = float(np.max(np.abs(x.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(x.sum(axis=0) - 1.0)))
    neg = float(max(0.0, -x.min()))
    if max(row_err, col_err, neg) > tol:
        raise ValueError(
            f"start point is not doubly stochastic within {tol}: "
            f"row err {row_err:.2e}, col err {col_err:.2e}, min entry {x.min():.2e}"
        )
