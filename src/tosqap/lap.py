"""Exact linear assignment via the Hungarian method.

O(n^3) shortest-augmenting-path variant with dual potentials.  Costs are
arbitrary finite reals; the final potentials certify optimality through
nonnegative reduced costs, which the test suite checks explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_square


@dataclass(frozen=True)
class Permutation:
    """Assignment row -> column as a 0-based bijection."""

    n: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.n or sorted(self.mapping) != list(range(self.n)):
            raise ValueError(f"mapping is not a bijection on 0..{self.n - 1}: {self.mapping}")


@dataclass(frozen=True)
class LapSolution:
    permutation: Permutation
    value: float
    dual_row: np.ndarray
    dual_col: np.ndarray


def solve_lap_min(cost: np.ndarray, dual_col: np.ndarray | None = None) -> LapSolution:
    """Minimize sum_i cost[i, pi(i)] over permutations pi.

    Rows are assigned in index order, which fixes the tie-breaking among
    equally optimal assignments deterministically.

    ``dual_col``, the column duals of an earlier solve (``sol.dual_col``),
    warm-starts the solve: each row takes its cheapest column under those
    duals when that column is free, and only the rows left over run the
    augmenting search.  When the optimum is unique, the warm and cold
    solves return the same permutation.  On a tie, the warm solve may
    return another optimal permutation of the same value.  Either solve
    is deterministic for a given sequence of costs and duals.
    """
    c = as_square(cost, "cost")
    if dual_col is not None:
        try:
            v = np.asarray(dual_col, dtype=float)
        except (TypeError, ValueError):
            v = None
        if v is None or v.shape != (c.shape[0],) or not np.isfinite(v).all():
            raise ValueError(f"dual_col must be a finite vector of length {c.shape[0]}, "
                             f"got {dual_col!r}")
        dual_col = v
    return _hungarian(c, dual_col)


def solve_lap_max(profit: np.ndarray) -> LapSolution:
    """Maximize sum_i profit[i, pi(i)]; solved as minimization on -profit."""
    sol = _hungarian(-as_square(profit, "profit"))
    return LapSolution(
        permutation=sol.permutation,
        value=-sol.value,
        dual_row=-sol.dual_row,
        dual_col=-sol.dual_col,
    )


def _hungarian(c: np.ndarray, dual_col: np.ndarray | None = None) -> LapSolution:
    """Minimum-cost assignment of a checked square cost matrix, warm-started
    from checked column duals ``dual_col`` when given."""
    n = c.shape[0]
    # Python floats and lists, not numpy arrays: indexing an array boxes a
    # scalar on every access.  Each step is one IEEE double operation in a
    # fixed order, so the result matches a numpy-scalar loop bit for bit.
    inf = math.inf
    # 1-based lists; index 0 is the virtual unmatched column.  Each row of
    # costs gets a leading pad so that column j sits at index j.
    rows = [[0.0] + r for r in c.tolist()]
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row matched to column j
    way = [0] * (n + 1)
    pending = range(1, n + 1)
    if dual_col is not None:
        # u_i = min_j (c_ij - v_j) keeps every reduced cost >= 0 and makes
        # each row's argmin edge tight; argmin keeps the lowest index on a
        # tie.  A row whose argmin column is still free takes it.
        reduced = c - dual_col
        best = reduced.argmin(axis=1)
        v = [0.0] + dual_col.tolist()
        u = [0.0] + reduced[np.arange(n), best].tolist()
        pending = []
        for i, j in enumerate(best.tolist(), 1):
            if p[j + 1] == 0:
                p[j + 1] = i
            else:
                pending.append(i)

    for i in pending:
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        # Columns off the alternating tree, kept in ascending order so the
        # strict < below keeps the lowest index on a tie; columns on it, in
        # the order they joined (each is updated once per step, so the
        # order changes no bit).
        free = list(range(1, n + 1))
        used = [0]
        while True:
            i0 = p[j0]
            row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j] - u_i0 - v[j]
                low = minv[j]
                if cur < low:
                    minv[j] = low = cur
                    way[j] = j0
                if low < delta:
                    delta = low
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    mapping = [0] * n
    for j in range(1, n + 1):
        mapping[p[j] - 1] = j - 1
    perm = Permutation(n, tuple(mapping))
    value = float(sum(rows[i][mapping[i] + 1] for i in range(n)))
    return LapSolution(
        permutation=perm,
        value=value,
        dual_row=np.array(u[1:]),
        dual_col=np.array(v[1:]),
    )


def permutation_to_matrix(perm: Permutation) -> np.ndarray:
    """0/1 matrix with a one at (i, mapping[i]) for each row i."""
    out = np.zeros((perm.n, perm.n))
    out[np.arange(perm.n), list(perm.mapping)] = 1.0
    return out

