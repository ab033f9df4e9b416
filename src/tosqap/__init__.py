"""Nonconvex three-operator splitting and relax-and-round QAP solvers."""

from .fw import FwConfig, FwResult, run_fw
from .lap import LapSolution, Permutation, permutation_to_matrix, solve_lap_min
from .linalg import frobenius_inner, frobenius_norm, make_rng
from .oracles import (
    GradientOracle,
    StochasticGradientOracle,
    batch_schedule_lipschitz,
    gaussian_noise_oracle,
    minibatch_gradient,
)
from .prox import (
    ProxOperator,
    project_affine_doubly_stochastic,
    project_birkhoff_alternating,
    project_box01,
    project_col_stochastic,
    project_row_stochastic,
    project_simplex,
)
from .qap import (
    QapInstance,
    QapReport,
    QapResult,
    QaplibParseError,
    assignment_error,
    build_problem,
    estimate_smoothness,
    infeasibility_error,
    initial_point,
    load_instance,
    nonstationarity_error,
    parse_qaplib,
    permutation_objective,
    qap_gradient,
    qap_objective,
    relax_and_round,
    round_to_permutation,
)
from .solver import (
    CompositeProblem,
    DivergenceError,
    RunResult,
    SolverConfig,
    StepRule,
    TraceRecord,
    certificate_residual,
    run_tos,
    run_tos_product_space,
    stationarity_gap,
    step_size_lipschitz,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
