"""Proximal operators and Euclidean projections.

The projections here are the building blocks of the two Birkhoff-polytope
splittings used by the assignment solvers: row/column simplex projections
on one hand, and box truncation plus the closed-form projection onto the
doubly stochastic affine subspace on the other.

``product_space_prox`` builds the blockwise prox of the consensus
splitting.  The row and column operators are one class keyed by the axis
they project along, so it turns every simplex block so that axis is last
and projects all blocks whose rows then have equal length (at n x n, the
row and the column block alike) in one ``project_simplex`` call.  At
n = 12 the fixed cost of a numpy call dominates: on a shared 2-core x86
VM with one BLAS thread, one 12 x 12 call takes 12-13 us and one call on
the row and column blocks stacked 14-15 us.  Each row is projected on its
own, so the bytes are those of one call per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    k = np.arange(1.0, rows.shape[1] + 1.0)
    u = rows.copy()
    u.sort()
    u = u[:, ::-1]
    css = u.cumsum(axis=1)
    css -= 1.0
    # rho is the last k with u_k * k > css_k (true at k = 1), as a negative index.
    rho = -1 - (u * k > css)[:, ::-1].argmax(axis=1)
    theta = css[np.arange(rows.shape[0]), rho] / k[rho]
    out = rows - theta[:, None]
    return np.maximum(out, 0.0, out=out).reshape(v.shape)


def project_box01(x: np.ndarray) -> np.ndarray:
    """Entrywise clamp to [0, 1]."""
    return np.asarray(x, dtype=np.float64).clip(0.0, 1.0)


class _SimplexProjection(ProxOperator):
    """Projection of each line along ``axis`` onto the unit simplex, which
    ``product_space_prox`` batches with others.  ``axis`` is a plain
    attribute; a dataclass field would add about 0.5 ms to the package's
    import."""

    def __init__(self, axis: int):
        super().__init__(lambda p, scale: project_simplex(p.swapaxes(axis, -1)).swapaxes(axis, -1))
        object.__setattr__(self, "axis", axis)


def project_row_stochastic(x: np.ndarray) -> np.ndarray:
    """Project each row onto the unit simplex."""
    return _SimplexProjection(-1)(as_matrix(x, "x"))


def project_col_stochastic(x: np.ndarray) -> np.ndarray:
    """Project each column onto the unit simplex."""
    return _SimplexProjection(-2)(as_matrix(x, "x"))


def project_affine_doubly_stochastic(x: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {Y : Y 1 = 1, Y^T 1 = 1}.

    Y = X + (1/n + s/n^2) 11^T - (1/n) X 11^T - (1/n) 11^T X with
    s = 1^T X 1.  Derived from the KKT system of the constrained
    least-squares problem; verified against a dense solve in the tests.
    """
    return _affine_closed_form(as_square(x, "x"))


def _affine_closed_form(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[-1]
    # np.add.reduce is the reduction of ndarray.sum without its Python wrapper.
    row_sums = np.add.reduce(x, -1)
    out = x + (1.0 / n + np.add.reduce(row_sums, -1) / n**2)[..., None, None]
    out -= row_sums[..., None] / n
    out -= np.add.reduce(x, -2, keepdims=True) / n
    return out


def project_birkhoff_alternating(x: np.ndarray, iters: int) -> np.ndarray:
    """Alternating projections between column- and row-stochastic sets.

    Returns exactly the iterate of ``iters`` rounds, each projecting onto
    the column-stochastic set and then the row-stochastic set, so the
    output is exactly row-stochastic and approximately column-stochastic.

    In floating point the rounds soon cycle, so the loop stops early once
    the iterate repeats: as in Brent's cycle detection (BIT 20, 1980) it
    keeps the bytes of the iterate of the last power-of-two round, and a
    later round with the same bytes fixes a period λ of the orbit, after
    which only (rounds left) mod λ more rounds are run.  A second saved
    iterate, refreshed every (last power of two) / 16 rounds, is compared
    as well, so an orbit that enters its cycle just after a power of two
    is caught within about 1/16 of that round count rather than at the
    next power of two.  Bytes, not values, are compared, because
    -0.0 == 0.0.
    """
    x = as_square(x, "x")
    check_int(iters, "iters", 1)
    far = near = (x.tobytes(), 0)  # (bytes, round): last power of two; a recent round
    for done in range(1, iters + 1):
        x = project_simplex(project_simplex(x.T).T)
        seen = x.tobytes()
        for saved, mark in (far, near):
            if seen == saved:
                for _ in range((iters - done) % (done - mark)):
                    x = project_simplex(project_simplex(x.T).T)
                return x
        if done & (done - 1) == 0:  # a power of two
            far = (seen, done)
        if done % (far[1] // 16 or 1) == 0:
            near = (seen, done)
    return x


def prox_row_stochastic() -> ProxOperator:
    return _SimplexProjection(-1)


def prox_col_stochastic() -> ProxOperator:
    """Columns of a matrix, or of each matrix of a (k, n, n) stack."""
    return _SimplexProjection(-2)


def prox_box01() -> ProxOperator:
    return ProxOperator(lambda p, scale: project_box01(p))


def prox_affine_doubly_stochastic() -> ProxOperator:
    """A matrix, or each matrix of a (k, n, n) stack."""
    return ProxOperator(lambda p, scale: _affine_closed_form(p))


def product_space_prox(prox_list: Sequence[ProxOperator]) -> ProxOperator:
    """Prox of h(x_0, ..., x_m) = sum_i h_i(x_i) on a stack of m + 1 blocks:
    the identity on block 0 and ``prox_list[i - 1]`` on block i.

    Each simplex block is swapped so that its projected axis is last; the
    blocks whose rows then have equal length are projected in one
    ``project_simplex`` call on their stack and swapped back.  Every other
    block calls its own operator.
    """
    if len(prox_list) == 0:
        raise ValueError("prox_list must contain at least one operator")
    simplex, others = [], []  # (block, axis) and (block, operator)
    for i, prox in enumerate(prox_list, 1):
        if isinstance(prox, _SimplexProjection):
            simplex.append((i, prox.axis))
        elif isinstance(prox, ProxOperator):
            others.append((i, prox))
        else:
            raise ValueError(f"prox_list[{i - 1}] must be a ProxOperator, got {prox!r}")

    def apply(p, scale):
        out = [p[0]] + [None] * len(prox_list)
        for i, prox in others:
            out[i] = prox(p[i], scale)
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, axis in simplex:
            groups.setdefault(p.shape[axis], []).append((i, axis))
        for group in groups.values():
            done = project_simplex(np.array([p[i].swapaxes(axis, -1) for i, axis in group]))
            for (i, axis), block in zip(group, done):
                out[i] = block.swapaxes(axis, -1)
        return np.array(out)

    return ProxOperator(apply, lambda x: sum(
        prox.value(x[i]) for i, prox in enumerate(prox_list, 1)))
