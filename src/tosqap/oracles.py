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


@dataclass(frozen=True)
class GradientOracle:
    """Exact value/gradient pair for a differentiable function."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StochasticGradientOracle:
    """Single-draw unbiased gradient estimator with declared variance.

    ``sample(x, rng)`` returns one noisy gradient; repeated draws must be
    i.i.d. conditioned on ``x`` and consume entropy only from ``rng``.
    """

    sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    sigma2: float


def gaussian_noise_oracle(exact: GradientOracle, sigma: float) -> StochasticGradientOracle:
    """Exact gradient plus isotropic Gaussian noise with E||noise||^2 = sigma^2.

    With sigma = 0 the sampler returns the exact gradient without touching
    the generator, so a zero-variance stochastic run collapses bitwise onto
    the deterministic one.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")

    def sample(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = exact.gradient(x)
        if sigma == 0.0:
            return g
        noise = rng.standard_normal(g.shape)
        return g + (sigma / math.sqrt(g.size)) * noise

    return StochasticGradientOracle(sample=sample, sigma2=sigma**2)


def minibatch_gradient(
    oracle: StochasticGradientOracle,
    x: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of ``batch`` i.i.d. draws at ``x``, consumed sequentially from ``rng``."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if oracle.sigma2 == 0.0:
        # All draws coincide; a single sample equals the batch mean exactly,
        # so zero-variance runs collapse bitwise onto deterministic ones.
        return np.array(oracle.sample(x, rng), dtype=np.float64, copy=True)
    acc = np.array(oracle.sample(x, rng), dtype=np.float64, copy=True)
    for _ in range(batch - 1):
        acc += oracle.sample(x, rng)
    return acc / batch


def batch_schedule_lipschitz(t_total: int, g_f: float, l_g: float, l_h: float) -> int:
    """Batch size ceil(T^(2/3) / (2 (G_f + L_g + L_h)^2)), floored at 1."""
    if t_total < 1:
        raise ValueError("t_total must be >= 1")
    s = g_f + l_g + l_h
    if s <= 0:
        raise ValueError("constants must sum to a positive value")
    q = t_total ** (2.0 / 3.0) / (2.0 * s**2)
    return max(1, math.ceil(q - 1e-8))

