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

    def __post_init__(self):
        check_real(self.sigma, "sigma", least=0, finite=True)


def gaussian_noise_oracle(exact: GradientOracle, sigma: float) -> StochasticGradientOracle:
    """Exact gradient plus isotropic Gaussian noise with E||noise||^2 = sigma^2.

    With sigma = 0 the sampler returns the exact gradient without touching
    the generator, so a zero-variance stochastic run collapses bitwise onto
    the deterministic one.
    """
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
    return _minibatch(oracle, x, check_int(batch, "batch", 1), rng)


def _minibatch(oracle: StochasticGradientOracle, x: np.ndarray, batch: int,
               rng: np.random.Generator) -> np.ndarray:
    """``minibatch_gradient`` with ``batch`` unchecked: a loop kernel."""
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


def batch_schedule_lipschitz(t_total: int, g_f: float) -> int:
    """Batch size ceil(T^(2/3) / (2 G^2)), G = ``g_f`` as in ``step_size_lipschitz``:
    the least b >= 1 with 8 G^6 b^3 >= T^2, found in exact arithmetic."""
    power, g_f = _theory_terms(t_total, g_f)
    try:
        b = 2 * math.ceil(power / (2.0 * g_f**2)) + 1  # twice the float batch: above it
    except (OverflowError, ZeroDivisionError):
        if g_f > 1.0:  # g_f**2 overflows, and the quotient is below 1
            return 1
        raise ValueError(f"g_f: expected a bound with a finite batch, got {g_f!r}") from None
    # With G = p / q exactly, an integer b has b^3 >= T^2 / (8 G^6) iff b^3 >= n,
    # its ceiling.  Newton's method from above stops at n's cube root rounded down.
    p, q = g_f.as_integer_ratio()
    n = -(-(int(t_total) ** 2 * q**6) // (8 * p**6))
    while (c := (2 * b + n // (b * b)) // 3) < b:
        b = c
    return b + (b**3 < n)


def _theory_terms(t_total: int, g_f: float) -> tuple[float, float]:
    """T^(2/3) and G of the theory step and batch rules as Python floats, each
    input checked (G finite and > 0); a fault raises ``ValueError`` naming it.
    T^(2/3) is the cube root of T^2: exact on cubes, within an ulp elsewhere."""
    g_f = float(check_real(g_f, "g_f", above=0, finite=True))
    try:
        t = float(check_int(t_total, "t_total", 1))
    except OverflowError:
        raise ValueError(f"t_total: expected an integer a float can hold, got a "
                         f"{t_total.bit_length()}-bit integer") from None
    k = 0 if t < 2.0**512 else 344  # past 2^512 T^2 overflows: scale it by 2^(-3k)
    return math.ldexp(float(np.cbrt(math.ldexp(t, -3 * k) * t)), k), g_f
