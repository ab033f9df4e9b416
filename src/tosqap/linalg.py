"""Dense matrix helpers, argument checks and deterministic pseudo-randomness.

All state in this package is carried by dense, row-major ``float64``
numpy arrays. Randomness always flows through an explicitly passed
``numpy.random.Generator`` backed by the PCG64 bit generator, so that a
seed fully determines every stream on every platform.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def as_matrix(x, name: str, shape=None) -> np.ndarray:
    """Validate and return ``x`` as a C-contiguous float64 array: of exactly
    ``shape`` when given (any ndim), else 2-D with positive dimensions, and
    finite.  Each fault raises a ``ValueError`` naming ``name``."""
    try:
        a = np.ascontiguousarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of real numbers ({exc})") from None
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if shape is None and (a.ndim != 2 or a.size == 0):
        raise ValueError(f"{name} must be 2-D with positive dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_square(x, name: str) -> np.ndarray:
    """``as_matrix(x, name)``, which must also be square."""
    a = as_matrix(x, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def check_int(value, name: str, least: int):
    """Return ``value`` if it is an integer (a ``numbers.Integral``, not a
    bool) >= ``least``; otherwise raise a ``ValueError`` naming ``name``."""
    # A plain int skips the slower ABC test: minibatch_gradient checks its
    # batch on every iteration.
    if (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and value >= least:
        return value
    raise ValueError(f"{name}: expected an integer >= {least}, got {value!r}")


def check_real(value, name: str, *, least=-math.inf, above=None, finite: bool = False):
    """Return ``value`` if it is a real number (a ``numbers.Real``, not a bool,
    not NaN) >= ``least``, > ``above`` if given, and finite if ``finite``;
    otherwise raise a ``ValueError`` naming ``name``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool) and value >= least
            and (above is None or value > above) and (not finite or math.isfinite(value))):
        return value  # NaN fails value >= least
    bound = f" > {above}" if above is not None else f" >= {least}" if least > -math.inf else ""
    kind = "a finite number" if finite else "a number"
    raise ValueError(f"{name}: expected {kind}{bound}, got {value!r}")


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Standard trace inner product sum_ij X_ij * Y_ij."""
    return _inner(*_same_shape(x, y))


def _same_shape(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float64 arrays, which must have one shape."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return x, y


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """``frobenius_inner`` of two float64 arrays of one shape, unchecked."""
    return float(np.dot(x.ravel(), y.ravel()))


def frobenius_norm(x: np.ndarray) -> float:
    """Euclidean norm of the flattened array."""
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel()))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single entropy source of the package."""
    return np.random.Generator(np.random.PCG64(seed))


def draw_uniform_index(rng: np.random.Generator, t_max: int) -> int:
    """Draw an index uniformly from {1, ..., t_max}, advancing ``rng``."""
    check_int(t_max, "t_max", 1)
    return int(rng.integers(1, t_max + 1))
