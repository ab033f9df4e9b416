"""Proximal operators and Euclidean projections.

The projections here are the building blocks of the two Birkhoff-polytope
splittings used by the assignment solvers: row/column simplex projections
on one hand, and box truncation plus the closed-form projection onto the
doubly stochastic affine subspace on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_matrix, as_square, check_int


@dataclass(frozen=True)
class ProxOperator:
    """Proximal map of a convex function.

    ``apply(point, scale)`` evaluates prox_{scale * fn}(point).  For
    indicator functions the scale is irrelevant and the map is the
    Euclidean projection onto the underlying set.  ``value`` evaluates
    the function itself (0 on the set for indicators; callers are
    expected to query it only at feasible points).  The operators below
    do not check their input: the solvers check the start point once and
    every iterate for finiteness.
    """

    apply: Callable[[np.ndarray, float], np.ndarray]
    value: Callable[[np.ndarray], float] = field(default=lambda x: 0.0)

    def __call__(self, point: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.apply(point, scale)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex along the last axis.

    A vector is projected as a whole and each row of a matrix on its own,
    all with one sort and one cumsum.  Sort-and-threshold recipe (Duchi et
    al. 2008; Condat 2016): O(n log n) per row, deterministic tie handling
    via the descending sort order.  The result is C-contiguous.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    # rho is the last index with u_k * k > css_k; the test holds at k = 1.
    rho = (n - 1) - np.argmax((u * np.arange(1, n + 1) > css)[:, ::-1], axis=1)
    theta = css[np.arange(rows.shape[0]), rho] / (rho + 1.0)
    return np.maximum(rows - theta[:, None], 0.0).reshape(v.shape)


def project_box01(x: np.ndarray) -> np.ndarray:
    """Entrywise clamp to [0, 1]."""
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)


def project_row_stochastic(x: np.ndarray) -> np.ndarray:
    """Project each row onto the unit simplex."""
    return project_simplex(as_matrix(x))


def project_col_stochastic(x: np.ndarray) -> np.ndarray:
    """Project each column onto the unit simplex."""
    return project_simplex(as_matrix(x).T).T


def project_affine_doubly_stochastic(x: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {Y : Y 1 = 1, Y^T 1 = 1}.

    Y = X + (1/n + s/n^2) 11^T - (1/n) X 11^T - (1/n) 11^T X with
    s = 1^T X 1.  Derived from the KKT system of the constrained
    least-squares problem; verified against a dense solve in the tests.
    """
    return _affine_closed_form(as_square(x))


def _affine_closed_form(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    row_sums = x.sum(axis=1)
    col_sums = x.sum(axis=0)
    total = float(row_sums.sum())
    out = x + (1.0 / n + total / n**2)
    out -= row_sums[:, None] / n
    out -= col_sums[None, :] / n
    return out


def project_birkhoff_alternating(x: np.ndarray, iters: int = 1000) -> np.ndarray:
    """Alternating projections between column- and row-stochastic sets.

    Runs ``iters`` rounds, each projecting onto the column-stochastic set
    and then the row-stochastic set, so the output is exactly
    row-stochastic and approximately column-stochastic.
    """
    x = as_square(x)
    check_int(iters, "iters", 1)
    for _ in range(iters):
        x = project_simplex(project_simplex(x.T).T)
    return x


def prox_row_stochastic() -> ProxOperator:
    return ProxOperator(lambda p, scale: project_simplex(p))


def prox_col_stochastic() -> ProxOperator:
    return ProxOperator(lambda p, scale: project_simplex(p.T).T)


def prox_box01() -> ProxOperator:
    return ProxOperator(lambda p, scale: project_box01(p))


def prox_affine_doubly_stochastic() -> ProxOperator:
    return ProxOperator(lambda p, scale: _affine_closed_form(p))
