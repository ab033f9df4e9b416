"""Quadratic assignment layer: instances, objective, metrics, rounding.

A QAP instance asks for the permutation matrix X minimizing
trace(A X B^T X^T).  The continuous relaxation over the Birkhoff
polytope is handed to the splitting solver through one of two set
decompositions:

* split1: row-stochastic matrices intersected with column-stochastic
  matrices;
* split2: the [0, 1] box intersected with the doubly stochastic affine
  subspace.

The relax-and-round pipeline solves the relaxation, rounds the final
iterate to the nearest permutation through a linear assignment solve,
and reports the infeasibility / nonstationarity / assignment errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .lap import Permutation, permutation_to_matrix, solve_lap_max, solve_lap_min
from .linalg import as_matrix, as_square, check_int, check_real, frobenius_norm, make_rng
from .oracles import GradientOracle
from .prox import (
    prox_affine_doubly_stochastic,
    prox_box01,
    prox_col_stochastic,
    prox_row_stochastic,
    project_birkhoff_alternating,
)
from .solver import (CompositeProblem, RunResult, SolverConfig, StepRule, TraceRecord, run_tos,
                     stationarity_gap)

SPLIT1 = "split1"
SPLIT2 = "split2"
SPLITS = (SPLIT1, SPLIT2)


@dataclass(frozen=True)
class QapInstance:
    """A QAP instance.  ``symmetric`` is decided at construction: A = A^T and
    B = B^T exactly, as for chr12a and most QAPLIB instances."""
    name: str
    a: np.ndarray
    b: np.ndarray
    best_known: Optional[float] = None
    symmetric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_square(self.a, "A")
        b = as_matrix(self.b, "B", a.shape)
        if self.best_known is not None:
            check_real(self.best_known, "best_known", finite=True)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "symmetric", np.array_equal(a, a.T) and np.array_equal(b, b.T))

    @property
    def n(self) -> int:
        return self.a.shape[0]


class QaplibParseError(ValueError):
    pass


def parse_qaplib(text: str, name: str = "instance") -> QapInstance:
    """Parse the whitespace-token QAPLIB layout: n, then A, then B."""
    tokens = text.split()
    if not tokens:
        raise QaplibParseError("empty instance file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise QaplibParseError(f"token 1: expected integer dimension, got {tokens[0]!r}") from None
    if n <= 0:
        raise QaplibParseError(f"token 1: dimension must be positive, got {n}")
    expected = 1 + 2 * n * n
    if len(tokens) != expected:
        raise QaplibParseError(f"expected {expected} tokens for n={n}, found {len(tokens)}")
    values = np.empty(2 * n * n)
    for k, tok in enumerate(tokens[1:], start=2):
        try:
            values[k - 2] = float(tok)
        except ValueError:
            values[k - 2] = math.nan
        if not math.isfinite(values[k - 2]):
            raise QaplibParseError(f"token {k}: expected a finite number, got {tok!r}")
    a = values[: n * n].reshape(n, n)
    b = values[n * n:].reshape(n, n)
    return QapInstance(name=name, a=a, b=b)


def load_instance(path, best_known: Optional[float] = None) -> QapInstance:
    import os

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise QaplibParseError(f"{path}: not UTF-8: {exc}") from None
    try:
        inst = parse_qaplib(text, name=os.path.splitext(os.path.basename(path))[0])
    except QaplibParseError as exc:
        raise QaplibParseError(f"{path}: {exc}") from None
    return inst if best_known is None else replace(inst, best_known=best_known)


def load_best_known(path) -> dict[str, float]:
    """Sidecar table of UTF-8 lines "name value", each value a finite number
    and each name listed once."""
    table: dict[str, float] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.split()
            value = check_real(float(value), name, finite=True)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'name value', got {line!r}") from None
        if name in table:
            raise ValueError(f"{path}:{lineno}: {name!r} is listed twice")
        table[name] = value
    return table


def qap_objective(inst: QapInstance, x: np.ndarray) -> float:
    """trace(A X B^T X^T)."""
    x = _check_shape(inst, x)
    return float(np.trace(inst.a @ x @ inst.b.T @ x.T))


def qap_gradient(inst: QapInstance, x: np.ndarray) -> np.ndarray:
    """Gradient A X B^T + A^T X B of the quadratic objective: 4 matrix
    products, or 2 on a symmetric instance, where it equals 2 A X B."""
    x = _check_shape(inst, x)
    if inst.symmetric:
        h = inst.a @ x @ inst.b
        return h + h
    return inst.a @ x @ inst.b.T + inst.a.T @ x @ inst.b


def qap_oracle(inst: QapInstance) -> GradientOracle:
    return GradientOracle(
        value=lambda x: qap_objective(inst, x),
        gradient=lambda x: qap_gradient(inst, x),
    )


def permutation_objective(inst: QapInstance, perm: Permutation) -> float:
    """Combinatorial objective sum_ij A_ij B_{p(i) p(j)}."""
    if perm.n != inst.n:
        raise ValueError(f"perm has size {perm.n}, but instance {inst.name!r} has size {inst.n}")
    p = list(perm.mapping)
    return float(sum(inst.a[i, j] * inst.b[p[i], p[j]] for i in range(inst.n) for j in range(inst.n)))


#: Relative change of the power-iteration estimate at which
#: ``estimate_smoothness`` stops, and its iteration cap.
SMOOTHNESS_TOL = 1e-6
SMOOTHNESS_MAX_ITERS = 10000


def estimate_smoothness(inst: QapInstance) -> float:
    """Smoothness constant of the objective: spectral norm of its Hessian map.

    The Hessian is the symmetric linear map D -> A D B^T + A^T D B on
    n x n matrices, which ``qap_gradient`` applies (as 2 A D B on a symmetric
    instance); power iteration on that map converges to the largest
    absolute eigenvalue, which equals the Lipschitz constant of the
    gradient.  Emits a ``RuntimeWarning`` and returns the last estimate
    when ``SMOOTHNESS_MAX_ITERS`` iterations pass without converging.

    Raises ``ValueError`` when the map is all-zero (A or B all-zero, or A
    antisymmetric with B = I): a nonzero symmetric map sends neither its
    random first draw (almost surely) nor an iterate in its range to zero.
    Raises ``ValueError`` too when the image's norm overflows to inf or nan.
    """
    rng = make_rng(0)
    d = rng.standard_normal((inst.n, inst.n))
    d /= frobenius_norm(d)
    lam = 0.0
    change = math.inf
    for _ in range(SMOOTHNESS_MAX_ITERS):
        nxt = qap_gradient(inst, d)  # f is quadratic: its Hessian map is its gradient map
        lam_next = frobenius_norm(nxt)
        if lam_next == 0.0:
            raise ValueError("smoothness constant is zero: the Hessian map "
                             "D -> A D B^T + A^T D B is all-zero")
        if not math.isfinite(lam_next):
            raise ValueError(f"smoothness constant overflows: the norm of the Hessian "
                             f"map's image is {lam_next}")
        d = nxt / lam_next
        if abs(lam_next - lam) <= SMOOTHNESS_TOL * max(lam_next, 1e-300):
            return lam_next
        change = abs(lam_next - lam) / lam_next
        lam = lam_next
    warnings.warn(
        f"estimate_smoothness did not converge within SMOOTHNESS_MAX_ITERS = "
        f"{SMOOTHNESS_MAX_ITERS} power iterations: last relative change {change:.3g}, "
        f"SMOOTHNESS_TOL = {SMOOTHNESS_TOL:g}",
        RuntimeWarning, stacklevel=2)
    return lam


def split_diameter(n: int, split: str) -> float:
    """Euclidean diameter of the split's first set.

    Rows of the row-stochastic set move independently inside unit
    simplices of diameter sqrt(2), so split1 has diameter sqrt(2 n); the
    [0, 1] box of split2 has diameter n.
    """
    _check_split(split)
    if split == SPLIT1:
        return math.sqrt(2.0 * n)
    return float(n)


def gradient_bound(inst: QapInstance, split: str) -> float:
    """Upper bound on ||grad f|| over the split's first set.

    ||A X B^T + A^T X B||_F <= 2 ||A||_2 ||B||_2 ||X||_F, and ||X||_F is
    at most sqrt(n) on the row-stochastic set (rows in the simplex have
    norm <= 1) and at most n on the box.
    """
    _check_split(split)
    na = float(np.linalg.norm(inst.a, 2))
    nb = float(np.linalg.norm(inst.b, 2))
    x_norm = math.sqrt(inst.n) if split == SPLIT1 else float(inst.n)
    return 2.0 * na * nb * x_norm


def split_proxes(split: str):
    """(prox_g, prox_h) pair for the chosen decomposition."""
    _check_split(split)
    if split == SPLIT1:
        return prox_row_stochastic(), prox_col_stochastic()
    return prox_box01(), prox_affine_doubly_stochastic()


def infeasibility_error(x: np.ndarray, split: str) -> float:
    """dist(X, second set of the split, onto which its ``prox_h`` projects) / sqrt(n)."""
    prox_h = split_proxes(split)[1]
    x = as_square(x, "x")
    return frobenius_norm(x - prox_h(x)) / math.sqrt(x.shape[0])


def nonstationarity_error(inst: QapInstance, x: np.ndarray) -> float:
    """|stationarity_gap(grad, X, P)| / max{f(X), 1}, the gap max over the
    Birkhoff polytope of <grad, X - P>.  The maximum is attained at a
    permutation vertex P, which a linear assignment solve on grad finds.
    """
    x = as_matrix(x, "x", (inst.n, inst.n))
    grad = qap_gradient(inst, x)
    vertex = permutation_to_matrix(solve_lap_min(grad).permutation)
    return abs(stationarity_gap(grad, x, vertex)) / max(qap_objective(inst, x), 1.0)


def round_to_permutation(x: np.ndarray) -> Permutation:
    """Frobenius-nearest permutation matrix, via maximizing <X, P>."""
    return solve_lap_max(as_square(x, "x")).permutation


def assignment_error(rounded_value: float, best_known: Optional[float]) -> Optional[float]:
    """(rounded - best) / max{best, 1}; None when no reference value exists."""
    if best_known is None:
        return None
    return (rounded_value - best_known) / max(best_known, 1.0)


#: Alternating-projection rounds of ``initial_point``.  The result is exactly
#: that of this many rounds; the loop stops early once the iterate repeats.
INITIAL_POINT_ROUNDS = 1000


def initial_point(n: int, seed: int) -> np.ndarray:
    """Near-doubly-stochastic start: project a seeded Gaussian matrix onto
    the Birkhoff polytope with ``INITIAL_POINT_ROUNDS`` alternating-projection
    rounds.  The bytes are exactly those of all the rounds, although
    ``project_birkhoff_alternating`` stops once the iterate repeats (for
    chr12a's starts 0-5 within 34-56 rounds)."""
    check_int(n, "n", 1)
    check_int(seed, "seed", 0)
    rng = make_rng(seed)
    return project_birkhoff_alternating(rng.standard_normal((n, n)), INITIAL_POINT_ROUNDS)


def build_problem(inst: QapInstance, split: str) -> CompositeProblem:
    prox_g, prox_h = split_proxes(split)
    return CompositeProblem(
        oracle=qap_oracle(inst),
        prox_g=prox_g,
        prox_h=prox_h,
        shape=(inst.n, inst.n),
        d_g=split_diameter(inst.n, split),
        g_f=gradient_bound(inst, split),
    )


@dataclass
class QapReport:
    """What a QAP solve reports of the point it returns: its rounding, its
    trace row's objective and errors, why its loop stopped (``stopped_by``:
    "gap", "tol" or "cap") and the points it checked (``checks``)."""
    permutation: Permutation
    relaxed_value: float
    rounded_value: float
    infeasibility: float
    nonstationarity: float
    assignment_err: Optional[float]
    stopped_by: str
    checks: int


def _report(inst: QapInstance, x: np.ndarray, last: TraceRecord, stopped_by: str,
            checks: int) -> dict:
    """The ``QapReport`` fields of the returned ``x``, whose trace row is ``last``."""
    perm = round_to_permutation(x)
    rounded = qap_objective(inst, permutation_to_matrix(perm))
    return dict(permutation=perm, relaxed_value=last.objective, rounded_value=rounded,
                infeasibility=last.infeasibility, nonstationarity=last.nonstationarity,
                assignment_err=assignment_error(rounded, inst.best_known),
                stopped_by=stopped_by, checks=checks)


@dataclass
class QapResult(QapReport):
    relaxed_iterate: np.ndarray
    run: RunResult


def relax_and_round(
    inst: QapInstance,
    split: str,
    config: SolverConfig,
    tol: Optional[float] = None,
    y1: Optional[np.ndarray] = None,
) -> QapResult:
    """Full pipeline: solve the relaxation with the splitting method, then round.

    When ``tol`` is given the solver stops as soon as both the
    infeasibility and nonstationarity errors drop below it, checked at the
    power-of-two trace schedule and every ``STOP_CHECK_EVERY`` iterations;
    the stop row is the last trace row.  A step rule of kind
    'inv_smoothness' with an unset constant is completed with the
    instance's own smoothness constant.

    It returns the last iterate, always a checkpoint, and reports that
    checkpoint's objective and errors, so ``config.output`` must be 'last'.
    """
    if config.output != "last":
        raise ValueError(f"relax_and_round reports the last iterate: output must be "
                         f"'last', got {config.output!r}")
    if tol is not None:
        check_real(tol, "tol", least=0)
    problem = build_problem(inst, split)
    if config.step.kind == "inv_smoothness" and config.step.l_smooth == 0.0:
        config = replace(config, step=StepRule.inv_smoothness(estimate_smoothness(inst)))
    if y1 is None:
        y1 = initial_point(inst.n, config.seed)

    metrics = lambda z: (infeasibility_error(z, split), nonstationarity_error(inst, z))
    stop = None if tol is None else (
        lambda rec: rec.infeasibility < tol and rec.nonstationarity < tol)

    run = run_tos(problem, config, y1, metric_fn=metrics, stop_when=stop)
    return QapResult(**_report(inst, run.z_out, run.trace[-1], "tol" if run.stopped else "cap",
                               run.checks), relaxed_iterate=run.z_out, run=run)


def _check_shape(inst: QapInstance, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n, inst.n):
        raise ValueError(f"x must have shape {(inst.n, inst.n)}, got {x.shape}")
    return x


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
