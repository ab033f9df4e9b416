"""Frank-Wolfe baseline over the Birkhoff polytope.

Projection-free method for the relaxed assignment problem: each
iteration solves a linear assignment problem to get a vertex direction
and takes the exact minimizer of the (univariate quadratic) objective
restriction along the segment.  Serves as the comparison baseline for
the splitting solver.

f is quadratic, so an iteration takes one gradient, 4 matrix products (2 on
a symmetric instance): with d = S - X,
grad f(X + eta d) = grad f(X) + eta grad f(d) and
f(X + eta d) = f(X) + eta b + eta^2 a, where a = <grad f(d), d> / 2 and
b = <grad f(X), d>.  One inner product gives both the gap and the slope:
the loop forms d once per pass, takes gap = 0.0 - <grad f(X), d>, the bits
of <grad f(X), X - S> (``0.0 -`` keeps a zero gap +0.0, where bare
negation would write -0.0), and steps with b = -gap.
``exact_line_step(a, b)`` takes the step.  The
loop carries the gradient and the objective forward and refreshes both
exactly at t = 0, at each power of two and at the cap, so every trace row
holds its own point's exact numbers; a stop the carried values call
elsewhere is decided again from exact ones.  On chr12a from starts 0-4 at
the 4096 cap the iterate stays within 8.4e-15 of a loop that recomputes
both at every point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import numpy as np

from .lap import solve_lap_min
from .linalg import _inner, as_matrix, check_int, check_real
from .qap import QapInstance, QapReport, _report, qap_gradient, qap_objective
from .solver import DivergenceError, TraceRecord, _gap, power_of_two_schedule


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


def exact_line_step(a: float, b: float) -> float:
    """Minimizer over [0, 1] of the quadratic a eta^2 + b eta, the objective
    along x + eta * D less f(x), with a = trace(A D B^T D^T) and
    b = <grad f(x), D>.  For a <= 0 the quadratic is concave or linear so
    an endpoint is optimal; ties pick eta = 1.
    """
    if a > 0.0:
        return min(1.0, max(0.0, -b / (2.0 * a)))
    # endpoint comparison: q(1) - q(0) = a + b
    return 1.0 if a + b <= 0.0 else 0.0


#: How far the start point's marginals and entries may stray from doubly
#: stochastic.
FEAS_TOL = 1e-6


def run_fw(inst: QapInstance, y1: np.ndarray, config: FwConfig) -> FwResult:
    """Frank-Wolfe with exact line search, started from a doubly
    stochastic (to ``FEAS_TOL``) point.  A pass t whose gradient is not
    finite raises ``DivergenceError(t)``."""
    x = as_matrix(y1, "y1", (inst.n, inst.n)).copy()
    _check_feasible(x, FEAS_TOL)
    schedule = power_of_two_schedule(config.max_iters)
    trace: list[TraceRecord] = []
    t_start = time.perf_counter()
    # Each LAP is warm-started from the previous solution, whose column duals
    # consecutive gradients leave nearly optimal; the first solves cold.
    sol = None
    # Vertex S is the rows of one identity in the solve's column order: the
    # bytes of permutation_to_matrix, without its flat index arithmetic.
    eye = np.eye(inst.n)
    # Pass t evaluates x, the point after t steps.
    for t in range(config.max_iters + 1):
        # Trace rows hold exact values: refresh the carried gradient and
        # objective at t = 0, at the power-of-two points and at the cap.
        traced = t == 0 or t in schedule
        # A stop the carried values call elsewhere is decided from exact ones.
        for exact in (traced, True):
            if exact:
                grad, f_x = qap_gradient(inst, x), qap_objective(inst, x)
            try:
                sol = solve_lap_min(grad, sol)
            except ValueError:  # its scan of the cost found a non-finite gradient
                raise DivergenceError(t, "gradient") from None
            direction = eye.take(sol.permutation.mapping, axis=0) - x
            gap = _gap(grad, direction)  # stationarity_gap(grad, x, vertex) of loop-made arrays
            nonstationarity = abs(gap) / max(f_x, 1.0)
            # gap <= 0: x minimizes its linearization; tol: relax_and_round's strict test.
            stopped_by = ("gap" if gap <= 0.0 else "tol" if nonstationarity < config.gap_tolerance
                          else "cap" if t == config.max_iters else None)
            if exact or not stopped_by:
                break
        if stopped_by or traced:
            # infeasibility is identically 0: iterates stay in the polytope
            trace.append(TraceRecord(t=t, objective=f_x, coupling=gap, certificate=0.0,
                                     infeasibility=0.0, nonstationarity=nonstationarity))
        if stopped_by:
            break
        grad_d = qap_gradient(inst, direction)
        a, b = 0.5 * _inner(grad_d, direction), -gap  # b = <grad, d>, the gap's own product
        eta = exact_line_step(a, b)
        x = x + eta * direction
        grad = grad + eta * grad_d
        f_x = f_x + eta * b + eta * eta * a

    return FwResult(**_report(inst, x, trace[-1], stopped_by, t + 1), iterate=x, trace=trace,
                    iterations_run=t, wall_time=time.perf_counter() - t_start)


def _check_feasible(x: np.ndarray, tol: float) -> None:
    row_err = float(np.max(np.abs(x.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(x.sum(axis=0) - 1.0)))
    neg = float(max(0.0, -x.min()))
    if max(row_err, col_err, neg) > tol:
        raise ValueError(
            f"start point is not doubly stochastic within {tol}: "
            f"row err {row_err:.2e}, col err {col_err:.2e}, min entry {x.min():.2e}"
        )
