"""Dense matrix helpers, argument checks and deterministic pseudo-randomness.

All state in this package is carried by dense, row-major ``float64``
numpy arrays. Randomness always flows through an explicitly passed
``numpy.random.Generator`` backed by the PCG64 bit generator, so that a
seed fully determines every stream on every platform.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np


def as_matrix(x, name: str, shape=None) -> np.ndarray:
    """Validate and return ``x`` as a C-contiguous float64 array: of exactly
    ``shape`` when given (any ndim), else 2-D with positive dimensions, real
    and finite.  Each fault raises a ``ValueError`` naming ``name``."""
    try:
        if isinstance(x, np.ndarray) and x.dtype.kind in "biuf":  # bool, int or float
            a = np.ascontiguousarray(x, dtype=np.float64)
        else:  # numpy only warns casting complex, a list's numpy scalars too; None is NaN
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                a = np.ascontiguousarray(x, dtype=np.float64)
            if np.isnan(a).any() and any(v is None for v in np.asarray(x, dtype=object).flat):
                raise TypeError("None is not a number")
    except (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning) as exc:
        raise ValueError(f"{name} must be an array of real numbers ({exc})") from None
    if shape is not None:
        _shaped(a, name, shape)
    elif a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be 2-D with positive dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _shaped(x, name: str, shape) -> np.ndarray:
    """``x`` as a float64 array of exactly ``shape``, else a ``ValueError``
    naming ``name``; its entries are not scanned."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {x.shape}")
    return x


def as_square(x, name: str) -> np.ndarray:
    """``as_matrix(x, name)``, which must also be square."""
    a = as_matrix(x, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def check_int(value, name: str, least: int):
    """Return ``value`` if it is an integer (a ``numbers.Integral``, not a
    bool) >= ``least``; otherwise raise a ``ValueError`` naming ``name``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return value
    raise ValueError(f"{name}: expected an integer >= {least}, got {value!r}")


def check_real(value, name: str, *, least=-math.inf, above=None, finite: bool = False):
    """Return ``value`` if it is a real number (a ``numbers.Real``, not a bool,
    not NaN) >= ``least``, > ``above`` if given, and finite if ``finite``;
    otherwise raise a ``ValueError`` naming ``name``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool) and value >= least
            and (above is None or value > above)):
        try:
            if not finite or math.isfinite(value):
                return value  # NaN fails value >= least
        except OverflowError:  # an int too large for a float is not finite
            pass
    bound = f" > {above}" if above is not None else f" >= {least}" if least > -math.inf else ""
    kind = "a finite number" if finite else "a number"
    raise ValueError(f"{name}: expected {kind}{bound}, got {value!r}")


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Trace inner product sum_ij X_ij * Y_ij; ``y`` must have ``x``'s shape."""
    x = np.asarray(x, dtype=np.float64)
    return _inner(x, _shaped(y, "y", x.shape))


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """``frobenius_inner`` of two float64 arrays of one shape, unchecked."""
    return float(np.dot(x.ravel(), y.ravel()))


def frobenius_norm(x: np.ndarray) -> float:
    """Euclidean norm of the flattened array."""
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel()))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single entropy source of the package."""
    return np.random.Generator(np.random.PCG64(seed))
