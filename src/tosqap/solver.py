"""Three-operator splitting solver.

Implements the splitting iteration

    z_t = prox_{gamma g}(y_t)
    x_t = prox_{gamma h}(2 z_t - y_t - gamma u_t)
    y_{t+1} = y_t - z_t + x_t

with u_t either the exact gradient at z_t or a minibatch estimator,
together with the fixed step-size rules that back the convergence
guarantees, per-iteration certificates, and a product-space variant for
an arbitrary number of nonsmooth terms, which runs the same iteration on
stacked copies of the variable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import as_matrix, check_int, check_real, draw_uniform_index
from .linalg import frobenius_inner, frobenius_norm, make_rng
from .oracles import GradientOracle, StochasticGradientOracle, minibatch_gradient
from .prox import ProxOperator


def step_size_lipschitz(d_g: float, g_f: float, l_g: float, l_h: float, t_total: int) -> float:
    """Fixed step D_g / (2 (G_f + L_g + L_h) T^(2/3)) of the paper's three
    cases: g and h Lipschitz; g an indicator (l_g = 0); both indicators
    (l_g = l_h = 0), with D_g the diameter of the set."""
    check_real(d_g, "d_g", above=0, finite=True)
    check_int(t_total, "t_total", 1)
    bound = check_real(g_f + l_g + l_h, "g_f + l_g + l_h", above=0)
    return d_g / (2.0 * bound * t_total ** (2.0 / 3.0))


@dataclass(frozen=True)
class StepRule:
    """Step-size policy for a solver run.

    kind is one of 'theory' (``step_size_lipschitz`` on the problem's
    d_g, g_f, l_g and l_h), 'fixed' (explicit gamma), or 'inv_smoothness'
    (gamma = 1 / L with L the smoothness constant of f).
    """

    kind: str
    gamma: float = 0.0
    l_smooth: float = 0.0

    def __post_init__(self):
        if self.kind == "fixed":
            check_real(self.gamma, "gamma", above=0, finite=True)
        elif self.kind == "inv_smoothness":
            check_real(self.l_smooth, "l_smooth", least=0, finite=True)  # 0: unset
        elif self.kind != "theory":
            raise ValueError(f"step rule kind must be 'theory', 'fixed' or "
                             f"'inv_smoothness', got {self.kind!r}")

    @staticmethod
    def fixed(gamma: float) -> "StepRule":
        return StepRule(kind="fixed", gamma=gamma)

    @staticmethod
    def inv_smoothness(l_smooth: float = 0.0) -> "StepRule":
        """Step 1/L. Leave ``l_smooth`` at 0 to have the pipeline estimate it."""
        return StepRule(kind="inv_smoothness", l_smooth=l_smooth)

    def resolve(self, problem: "CompositeProblem", t_total: int) -> float:
        if self.kind == "fixed":
            return self.gamma
        if self.kind == "inv_smoothness":
            if self.l_smooth == 0.0:
                raise ValueError("step 1/L needs the smoothness constant L, which is unset")
            return 1.0 / self.l_smooth
        return step_size_lipschitz(problem.d_g, problem.g_f, problem.l_g, problem.l_h, t_total)


@dataclass(frozen=True)
class CompositeProblem:
    """Problem data for minimizing f(x) + g(x) + h(x).

    The constants d_g (diameter of dom g), g_f (gradient bound on dom g)
    and the Lipschitz constants l_g, l_h feed the theory step sizes; they
    may be left at 0 when a fixed or 1/L step is used instead.
    """

    oracle: GradientOracle
    prox_g: ProxOperator
    prox_h: ProxOperator
    shape: tuple[int, ...]
    d_g: float = 0.0
    g_f: float = 0.0
    l_g: float = 0.0
    l_h: float = 0.0
    stochastic: Optional[StochasticGradientOracle] = None
    batch: int = 1

    def __post_init__(self):
        for name in ("d_g", "g_f", "l_g", "l_h"):
            check_real(getattr(self, name), name, least=0)
        check_int(self.batch, "batch", 1)


#: Most marks a random-iterate run keeps.  A mark is the pair (y_t, generator
#: state) at the start of iteration t; one is taken every
#: ceil(T / SNAPSHOT_CAP) iterations, and z_tau is recovered by replaying at
#: most that many iterations from the last mark at or before tau.
SNAPSHOT_CAP = 4096


@dataclass(frozen=True)
class SolverConfig:
    iters: int
    step: StepRule
    output: str = "last"  # 'last' or 'random'
    seed: int = 0

    def __post_init__(self):
        check_int(self.iters, "iters", 1)
        check_int(self.seed, "seed", 0)
        if self.output not in ("last", "random"):
            raise ValueError(f"output policy must be 'last' or 'random', got {self.output!r}")


def power_of_two_schedule(t_total: int) -> frozenset[int]:
    """Indices 1, 2, 4, 8, ... plus the final iteration."""
    s = set()
    t = 1
    while t <= t_total:
        s.add(t)
        t *= 2
    s.add(t_total)
    return frozenset(s)


@dataclass
class TraceRecord:
    t: int
    objective: float
    coupling: float
    certificate: float
    infeasibility: Optional[float] = None
    nonstationarity: Optional[float] = None


@dataclass
class RunResult:
    z_out: np.ndarray
    tau: Optional[int]
    trace: list[TraceRecord]
    wall_time: float
    iterations_run: int


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


def certificate_residual(
    gamma: float,
    u: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    y_next: np.ndarray,
    x_ref: np.ndarray,
    g_value: Callable[[np.ndarray], float],
    h_value: Callable[[np.ndarray], float],
) -> float:
    """One-iteration descent certificate; nonpositive for convex g, h.

    Returns LHS - RHS of

        <u, x - x_ref> + g(z) - g(x_ref) + h(x) - h(x_ref)
            <= (1/2 gamma) (||y - x_ref||^2 - ||y_next - x_ref||^2
                            - ||x - z||^2)

    which holds for every genuine iteration of the splitting whenever g
    and h are convex and x_ref lies in dom(f + g + h).
    """
    lhs = (
        frobenius_inner(u, x - x_ref)
        + g_value(z)
        - g_value(x_ref)
        + h_value(x)
        - h_value(x_ref)
    )
    rhs = (
        frobenius_norm(y - x_ref) ** 2
        - frobenius_norm(y_next - x_ref) ** 2
        - frobenius_norm(x - z) ** 2
    ) / (2.0 * gamma)
    return lhs - rhs


def stationarity_gap(
    grad: np.ndarray,
    z: np.ndarray,
    linear_minimizer: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Variational-inequality residual max_x <grad, z - x> for indicator g, h.

    ``linear_minimizer`` must return the exact minimizer of <grad, x>
    over the feasible set, so the gap is <grad, z> - min_x <grad, x>.
    """
    return frobenius_inner(grad, z - linear_minimizer(grad))


IterationHook = Callable[[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


def run_tos(
    problem: CompositeProblem,
    config: SolverConfig,
    y1: np.ndarray,
    metric_fn: Optional[Callable[[np.ndarray], tuple[float, float]]] = None,
    stop_when: Optional[Callable[[TraceRecord], bool]] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> RunResult:
    """Run the three-operator splitting iteration from ``y1``.

    At each point of the trace schedule ``metric_fn(z_t)`` returns the
    (infeasibility, nonstationarity) pair stored in that checkpoint's
    ``TraceRecord``; if ``stop_when(record)`` returns True the loop exits
    there.  ``iteration_hook`` receives the full tuple
    (t, gamma, u_t, z_t, x_t, y_t, y_{t+1}) of every iteration.

    ``y1``, of any shape equal to ``problem.shape``, is checked here, once;
    inside the loop only the finiteness of each y_{t+1} is, and a non-finite
    one raises ``DivergenceError(t)``.
    """
    if np.shape(y1) != problem.shape:
        raise ValueError(f"y1 shape {np.shape(y1)} != problem shape {problem.shape}")
    y1 = as_matrix(np.reshape(y1, (-1, problem.shape[-1])), "y1").reshape(problem.shape)

    t_total = config.iters
    gamma = config.step.resolve(problem, t_total)
    schedule = power_of_two_schedule(t_total)
    rng = make_rng(config.seed)

    stride = math.ceil(t_total / SNAPSHOT_CAP)
    marks: Optional[list[tuple[np.ndarray, dict]]] = [] if config.output == "random" else None

    t_start = time.perf_counter()
    z, trace, t_done = _iterate(
        problem, gamma, y1, t_total, rng, schedule,
        metric_fn, stop_when, iteration_hook, marks, stride,
    )

    tau: Optional[int] = None
    if config.output == "random":
        tau = draw_uniform_index(rng, t_done)
        # Replay from the last mark s <= tau, the generator restored to its
        # state there, so iterations s..tau repeat bit for bit.
        y_s, state = marks[(tau - 1) // stride]
        replay_rng = make_rng(config.seed)
        replay_rng.bit_generator.state = state
        z_out = _iterate(
            problem, gamma, y_s, (tau - 1) % stride + 1, replay_rng, frozenset(),
            None, None, None,
        )[0]
    else:
        z_out = z

    return RunResult(
        z_out=z_out,
        tau=tau,
        trace=trace,
        wall_time=time.perf_counter() - t_start,
        iterations_run=t_done,
    )


def _iterate(problem, gamma, y1, t_total, rng, schedule,
             metric_fn, stop_when, iteration_hook, marks=None, stride=1):
    """Run ``t_total`` iterations from ``y1``; return (z of the last, trace,
    iterations run).  If ``marks`` is a list, (y_t, generator state) is
    appended to it at the start of each iteration t = 1 (mod ``stride``)."""
    y = np.array(y1, dtype=np.float64, copy=True)
    z = y
    trace: list[TraceRecord] = []
    t_done = 0
    for t in range(1, t_total + 1):
        if marks is not None and (t - 1) % stride == 0:
            marks.append((y, rng.bit_generator.state))
        z = problem.prox_g(y, gamma)
        if problem.stochastic is not None:
            u = minibatch_gradient(problem.stochastic, z, problem.batch, rng)
        else:
            u = problem.oracle.gradient(z)
        x = problem.prox_h(2.0 * z - y - gamma * u, gamma)
        y_next = y - z + x
        if not np.all(np.isfinite(y_next)):
            raise DivergenceError(t)
        if iteration_hook is not None:
            iteration_hook(t, gamma, u, z, x, y, y_next)
        t_done = t
        if t in schedule:
            cert = certificate_residual(
                gamma, u, x, z, y, y_next, y1,
                problem.prox_g.value, problem.prox_h.value,
            )
            rec = TraceRecord(
                t=t,
                objective=problem.oracle.value(z),
                coupling=frobenius_norm(x - z),
                certificate=cert,
            )
            if metric_fn is not None:
                rec.infeasibility, rec.nonstationarity = metric_fn(z)
            trace.append(rec)
            if stop_when is not None and stop_when(rec):
                break
        y = y_next
    return z, trace, t_done


@dataclass
class ProductSpaceResult:
    x_out: np.ndarray
    tau: Optional[int]
    trace: list[TraceRecord]
    block_residuals: list[float]
    wall_time: float


def run_tos_product_space(
    oracle: GradientOracle,
    prox_list: Sequence[ProxOperator],
    config: SolverConfig,
    y1: np.ndarray,
) -> ProductSpaceResult:
    """Consensus splitting over m nonsmooth terms plus one smooth term: ``run_tos``
    on m + 1 stacked copies of the variable, all starting from ``y1``.

    g projects onto the consensus diagonal, so z_t and ``x_out`` are the
    consensus point, where the gradient is taken; h is the identity on block
    0 and ``prox_list[i - 1]`` on block i; f is ``oracle`` on block 0.
    ``block_residuals`` holds each checkpoint's stacked ||x_t - z_t||.
    """
    y1 = as_matrix(y1, "y1")
    if len(prox_list) == 0:
        raise ValueError("prox_list must contain at least one operator")
    if config.step.kind not in ("fixed", "inv_smoothness"):
        raise ValueError("product-space runs require a fixed or 1/L step rule")
    m = len(prox_list)
    zero = np.zeros_like(y1)

    def blockwise(p, scale):
        return np.array([p[0]] + [prox(p[i], scale) for i, prox in enumerate(prox_list, 1)])

    problem = CompositeProblem(
        oracle=GradientOracle(
            value=lambda z: oracle.value(z[0]),
            gradient=lambda z: np.array([oracle.gradient(z[0])] + [zero] * m)),
        # The block mean as one (1, n, n) block, which broadcasts against the stack.
        prox_g=ProxOperator(lambda p, scale: p.sum(axis=0, keepdims=True) / len(p)),
        prox_h=ProxOperator(blockwise, lambda x: sum(
            prox.value(x[i]) for i, prox in enumerate(prox_list, 1))),
        shape=(m + 1,) + y1.shape,
    )
    run = run_tos(problem, config, np.array([y1] * (m + 1)))
    return ProductSpaceResult(
        x_out=run.z_out[0],
        tau=run.tau,
        trace=run.trace,
        block_residuals=[rec.coupling for rec in run.trace],
        wall_time=run.wall_time,
    )
