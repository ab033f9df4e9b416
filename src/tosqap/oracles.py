"""First-order oracles for the smooth objective term.

Provides the exact-gradient interface used by the deterministic solver,
a synthetic noisy-gradient oracle for exercising the stochastic theory,
the minibatch averaging estimator, and the theory-prescribed batch
sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import check_int, check_real


@dataclass(frozen=True)
class GradientOracle:
    """Exact value/gradient pair for a differentiable function."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StochasticGradientOracle:
    """Exact gradient plus isotropic Gaussian noise with E||noise||^2 = sigma^2.

    Build one with ``gaussian_noise_oracle``; ``minibatch_gradient`` draws
    from it.
    """

    gradient: Callable[[np.ndarray], np.ndarray]
    sigma: float


def gaussian_noise_oracle(exact: GradientOracle, sigma: float) -> StochasticGradientOracle:
    """Exact gradient plus isotropic Gaussian noise with E||noise||^2 = sigma^2.

    With sigma = 0 the sampler returns the exact gradient without touching
    the generator, so a zero-variance stochastic run collapses bitwise onto
    the deterministic one.
    """
    check_real(sigma, "sigma", least=0, finite=True)
    return StochasticGradientOracle(gradient=exact.gradient, sigma=sigma)


def minibatch_gradient(
    oracle: StochasticGradientOracle,
    x: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of ``batch`` i.i.d. draws at ``x``.

    The exact gradient g is computed once per batch.  The noise of all
    draws is one ``standard_normal`` call of batch * g.size floats, which
    consumes ``rng`` exactly as ``batch`` single draws in a row would; draw
    k is g + (sigma / sqrt(g.size)) * noise_k, and the draws are summed in
    order 1, 2, ..., batch before the division.  Draws are i.i.d.
    conditioned on ``x`` and consume entropy only from ``rng``.
    """
    check_int(batch, "batch", 1)
    g = oracle.gradient(x)
    if oracle.sigma == 0.0:
        # All draws coincide; the exact gradient equals the batch mean exactly,
        # so zero-variance runs collapse bitwise onto deterministic ones.
        return np.array(g, dtype=np.float64, copy=True)
    draws = g + (oracle.sigma / math.sqrt(g.size)) * rng.standard_normal((batch,) + g.shape)
    # An explicit running sum: numpy's sum(axis=0) may add pairwise.
    acc = draws[0]
    for draw in draws[1:]:
        acc += draw
    return acc / batch


def batch_schedule_lipschitz(t_total: int, g_f: float, l_g: float, l_h: float) -> int:
    """Batch size ceil(T^(2/3) / (2 (G_f + L_g + L_h)^2)), floored at 1."""
    check_int(t_total, "t_total", 1)
    s = check_real(g_f + l_g + l_h, "g_f + l_g + l_h", above=0, finite=True)
    q = t_total ** (2.0 / 3.0) / (2.0 * s**2)
    return max(1, math.ceil(q - 1e-8))

