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
from .linalg import _inner, _same_shape, frobenius_inner, frobenius_norm, make_rng
from .oracles import GradientOracle, StochasticGradientOracle, minibatch_gradient
from .prox import ProxOperator, product_space_prox


def step_size_lipschitz(d_g: float, g_f: float, l_g: float, l_h: float, t_total: int) -> float:
    """Fixed step D_g / (2 (G_f + L_g + L_h) T^(2/3)) of the paper's three
    cases: g and h Lipschitz; g an indicator (l_g = 0); both indicators
    (l_g = l_h = 0), with D_g the diameter of the set."""
    check_real(d_g, "d_g", above=0, finite=True)
    check_int(t_total, "t_total", 1)
    bound = check_real(g_f + l_g + l_h, "g_f + l_g + l_h", above=0, finite=True)
    return check_real(d_g / (2.0 * bound * t_total ** (2.0 / 3.0)), "theory step", above=0,
                      finite=True)


@dataclass(frozen=True)
class StepRule:
    """Step-size policy for a solver run.

    kind is one of 'theory' (``step_size_lipschitz`` on the problem's
    d_g, g_f, l_g and l_h), 'fixed' (explicit gamma), or 'inv_smoothness'
    (gamma = 1 / L with L the smoothness constant of f).  A field the kind
    ignores must stay 0.
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
        own = {"fixed": "gamma", "inv_smoothness": "l_smooth"}.get(self.kind)
        for name in ("gamma", "l_smooth"):
            if name != own and getattr(self, name) != 0.0:
                raise ValueError(f"{name}: a {self.kind!r} step rule takes no {name}, "
                                 f"got {getattr(self, name)!r}")

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
            return check_real(1.0 / self.l_smooth, "1/l_smooth", finite=True)
        return step_size_lipschitz(problem.d_g, problem.g_f, problem.l_g, problem.l_h, t_total)


@dataclass(frozen=True)
class CompositeProblem:
    """Problem data for minimizing f(x) + g(x) + h(x).

    The constants d_g (diameter of dom g), g_f (gradient bound on dom g)
    and the Lipschitz constants l_g, l_h feed the theory step sizes; they
    may be left at 0 when a fixed or 1/L step is used instead.  Each field
    is checked when the problem is made; a fault raises ``ValueError``
    naming it.
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
        for name, kind in (("oracle", GradientOracle), ("prox_g", ProxOperator),
                           ("prox_h", ProxOperator)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not (self.stochastic is None or isinstance(self.stochastic, StochasticGradientOracle)):
            raise ValueError(f"stochastic must be None or a StochasticGradientOracle, "
                             f"got {self.stochastic!r}")
        if not isinstance(self.shape, tuple):
            raise ValueError(f"shape must be a tuple of integers >= 1, got {self.shape!r}")
        for k, size in enumerate(self.shape):
            check_int(size, f"shape[{k}]", 1)
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


#: A run given ``stop_when`` also asks it every this many iterations, between
#: the trace points; the record is kept only when the run stops there.
STOP_CHECK_EVERY = 128


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
    stopped: bool  # stop_when ended the run
    checks: int  # checkpoint records built: trace rows plus stop checks
    gamma: float  # the step the step rule resolved to
    l_smooth: Optional[float]  # the L of a 1/L step; None for fixed and theory steps


class DivergenceError(RuntimeError):
    """Raised when ``what`` (a TOS iterate, FW's gradient) stops being finite."""

    def __init__(self, iteration: int, what: str = "iterate"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
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


def stationarity_gap(grad: np.ndarray, z: np.ndarray, vertex: np.ndarray) -> float:
    """Variational-inequality residual max_x <grad, z - x> for indicator g, h.

    ``vertex`` must be an exact minimizer of <grad, x> over the feasible
    set, so the gap is <grad, z - vertex>.  Over the Birkhoff polytope it is
    the permutation matrix of a linear assignment solve on ``grad``.
    """
    return _gap(*_same_shape(grad, vertex - z))


def _gap(grad: np.ndarray, d: np.ndarray) -> float:
    """``stationarity_gap`` from ``d = vertex - z``, for float64 arrays of
    one shape, unchecked: -<grad, d>, the bits of <grad, z - vertex>, as
    negation commutes with every rounding.  ``0.0 -`` keeps a zero gap
    +0.0, the sign of that sum, where bare negation would make it -0.0."""
    return 0.0 - _inner(grad, d)


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
    ``TraceRecord``.  ``stop_when(record)`` is asked at each trace point and,
    in between, every ``STOP_CHECK_EVERY`` iterations; if it returns True
    the loop exits there and that record is the last trace row, while a
    record between trace points that does not stop is dropped.
    ``iteration_hook`` receives the full tuple
    (t, gamma, u_t, z_t, x_t, y_t, y_{t+1}) of every iteration.

    ``y1``, of any shape equal to ``problem.shape``, is checked here, once;
    inside the loop only the finiteness of each y_{t+1} is, and a non-finite
    one raises ``DivergenceError(t)``.
    """
    y1 = as_matrix(y1, "y1", problem.shape)

    t_total = config.iters
    gamma = config.step.resolve(problem, t_total)
    schedule = power_of_two_schedule(t_total)
    rng = make_rng(config.seed)

    stride = math.ceil(t_total / SNAPSHOT_CAP)
    marks = [(y1, rng.bit_generator.state)] if config.output == "random" else None

    t_start = time.perf_counter()
    trace: list[TraceRecord] = []
    checks = 0
    stopped = False
    for t, u, z, x, y, y_next in _steps(problem, gamma, y1, rng, t_total):
        if iteration_hook is not None:
            iteration_hook(t, gamma, u, z, x, y, y_next)
        traced = t in schedule
        if traced or (stop_when is not None and t % STOP_CHECK_EVERY == 0):
            checks += 1
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
            stopped = stop_when is not None and stop_when(rec)
            if traced or stopped:
                trace.append(rec)
            if stopped:
                break
        if marks is not None and t % stride == 0 and t < t_total:
            marks.append((y_next, rng.bit_generator.state))

    tau: Optional[int] = None
    if marks is not None:
        tau = draw_uniform_index(rng, t)
        # Replay z = z_tau from the last mark s <= tau, the generator restored
        # to its state there, so iterations s..tau repeat bit for bit.
        y_s, rng.bit_generator.state = marks[(tau - 1) // stride]
        for _, _, z, *_ in _steps(problem, gamma, y_s, rng, (tau - 1) % stride + 1):
            pass

    return RunResult(
        z_out=z,
        tau=tau,
        trace=trace,
        wall_time=time.perf_counter() - t_start,
        iterations_run=t,
        stopped=stopped,
        checks=checks,
        gamma=gamma,
        l_smooth=config.step.l_smooth if config.step.kind == "inv_smoothness" else None,
    )


def _steps(problem, gamma, y, rng, count):
    """Run ``count`` iterations from y_1 = ``y``, yielding (t, u_t, z_t, x_t,
    y_t, y_{t+1}) after each; a non-finite y_{t+1} raises ``DivergenceError(t)``."""
    y = np.array(y, dtype=np.float64, copy=True)
    for t in range(1, count + 1):
        z = problem.prox_g(y, gamma)
        if problem.stochastic is not None:
            u = minibatch_gradient(problem.stochastic, z, problem.batch, rng)
        else:
            u = problem.oracle.gradient(z)
        x = problem.prox_h(2.0 * z - y - gamma * u, gamma)
        y_next = y - z + x
        if not np.isfinite(y_next).all():
            raise DivergenceError(t, "iterate")
        yield t, u, z, x, y, y_next
        y = y_next


@dataclass
class ProductSpaceResult(RunResult):
    x_out: np.ndarray
    block_residuals: list[float]


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
    0 and ``prox_list[i - 1]`` on block i, as ``product_space_prox`` builds
    it (it batches the blocks it can project together); f is ``oracle`` on
    block 0.  An entry of ``prox_list`` that is not a ``ProxOperator``
    raises ``ValueError`` before the first iteration.  The result is the
    stacked run's ``RunResult`` plus ``x_out`` = ``z_out[0]`` and
    ``block_residuals``, each checkpoint's stacked ||x_t - z_t||.
    """
    y1 = as_matrix(y1, "y1")
    prox_h = product_space_prox(prox_list)  # checks prox_list
    if config.step.kind not in ("fixed", "inv_smoothness"):
        raise ValueError("product-space runs require a fixed or 1/L step rule")
    m = len(prox_list)
    zero = np.zeros_like(y1)
    problem = CompositeProblem(
        oracle=GradientOracle(
            value=lambda z: oracle.value(z[0]),
            gradient=lambda z: np.array([oracle.gradient(z[0])] + [zero] * m)),
        # The block mean as one (1, n, n) block, which broadcasts against the stack.
        prox_g=ProxOperator(lambda p, scale: p.sum(axis=0, keepdims=True) / len(p)),
        prox_h=prox_h,
        shape=(m + 1,) + y1.shape,
    )
    run = run_tos(problem, config, np.array([y1] * (m + 1)))
    return ProductSpaceResult(**vars(run), x_out=run.z_out[0],
                              block_residuals=[rec.coupling for rec in run.trace])
