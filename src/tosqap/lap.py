"""Exact linear assignment via the Hungarian method.

O(n^3) shortest-augmenting-path variant with dual potentials.  Costs are
arbitrary finite reals; the final potentials certify optimality through
nonnegative reduced costs, which the test suite checks explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_square, check_int


@dataclass(frozen=True)
class Permutation:
    """Assignment row -> column as a 0-based bijection."""

    n: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        n = int(check_int(self.n, "n", 1))
        try:  # sorted takes 1.0 and True for 1, so each entry is checked first
            mapping = tuple(check_int(k, "mapping", 0) for k in self.mapping)
            ok = sorted(mapping) == list(range(n))
        except (TypeError, ValueError):  # not iterable, or an entry is not an integer >= 0
            ok = False
        if not ok:
            raise ValueError(f"mapping is not a bijection of integers on 0..{n - 1}: "
                             f"{self.mapping}")
        # A list, range or array mapping, or numpy integers, compare and hash
        # as the tuple of Python ints.
        self.__dict__.update(n=n, mapping=tuple(map(int, mapping)))


@dataclass(frozen=True, eq=False)
class LapSolution:
    """An optimal assignment and its dual potentials.  Equality is
    identity, and the hash is the object's: comparing the dual arrays by
    value would raise numpy's ambiguous-truth error."""

    permutation: Permutation
    value: float
    dual_row: np.ndarray
    dual_col: np.ndarray


def solve_lap_min(cost: np.ndarray, warm: LapSolution | None = None) -> LapSolution:
    """Minimize sum_i cost[i, pi(i)] over permutations pi.

    Rows are assigned in index order, which fixes the tie-breaking among
    equally optimal assignments deterministically.

    ``warm``, the ``LapSolution`` of an earlier solve of the same size,
    warm-starts the solve from its column duals: each row takes its
    cheapest column under those duals when that column is free, and only
    the rows left over run the augmenting search.  When the optimum is
    unique, the warm and cold solves return the same permutation.  On a
    tie, the warm solve may return another optimal permutation of the same
    value.  Either solve is deterministic for a given sequence of costs
    and warm starts.
    """
    c = as_square(cost, "cost")
    if warm is not None and not (isinstance(warm, LapSolution) and warm.permutation.n == len(c)):
        raise ValueError(f"warm must be a LapSolution of size {len(c)}, got {warm!r:.60}")
    mapping, dual_row, dual_col = _hungarian(c, None if warm is None else warm.dual_col)
    # Every row is matched to exactly one column, so the mapping is a
    # bijection of Python ints by construction and skips the check.
    n = len(mapping)
    value = float(sum(c[range(n), mapping].tolist()))
    return _unchecked(LapSolution, permutation=_unchecked(Permutation, n=n, mapping=tuple(mapping)),
                      value=value, dual_row=np.array(dual_row), dual_col=dual_col)


def _hungarian(c: np.ndarray, dual_col: np.ndarray | None = None):
    """The loop kernel of ``solve_lap_min``: a minimum-cost assignment of a
    square float64 cost matrix of finite entries, unchecked, warm-started
    from the column duals ``dual_col`` of an earlier solve when given.
    Returns the mapping row -> column (a list of Python ints), the row duals
    (a list) and the column duals (an array, which a next warm start reads)."""
    n = c.shape[0]
    # Python floats and lists, not numpy arrays: indexing an array boxes a
    # scalar on every access.  Each step is one IEEE double operation in a
    # fixed order, so the result matches a numpy-scalar loop bit for bit.
    inf = math.inf
    # 0-based lists, so that column j of a cost row sits at index j; index n
    # is the virtual unmatched column, and -1 in p marks a free column.
    rows = c.tolist()
    u = [0.0] * n
    v = [0.0] * (n + 1)
    p = [-1] * (n + 1)  # p[j]: row matched to column j
    way = [0] * (n + 1)
    pending = range(n)
    if dual_col is not None:
        # u_i = min_j (c_ij - v_j) keeps every reduced cost >= 0 and makes
        # each row's argmin edge tight; argmin keeps the lowest index on a
        # tie.  A row whose argmin column is still free takes it.  u_i is
        # the same IEEE subtraction as numpy's c - dual_col at that entry.
        v = dual_col.tolist() + [0.0]
        pending = []
        for i, j in enumerate((c - dual_col).argmin(axis=1).tolist()):
            u[i] = rows[i][j] - v[j]
            if p[j] < 0:
                p[j] = i
            else:
                pending.append(i)

    for i in pending:
        p[n] = i
        j0 = n
        minv = [inf] * n
        # Columns off the alternating tree, kept in ascending order so the
        # strict < below keeps the lowest index on a tie; columns on it, in
        # the order they joined (each is updated once per step, so the
        # order changes no bit).
        free = list(range(n))
        used = [n]
        while True:
            i0 = p[j0]
            row = rows[i0]
            u_i0 = u[i0]
            delta = inf
            j1 = n
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
            if p[j0] < 0:
                break
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    mapping = [0] * n
    for j in range(n):
        mapping[p[j]] = j
    return mapping, u, np.array(v[:n])


def _unchecked(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass without its ``__init__``,
    which sets each field through ``object.__setattr__`` and runs
    ``__post_init__``'s checks: only for fields that meet them by
    construction, as the solver's do."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def permutation_to_matrix(perm: Permutation) -> np.ndarray:
    """0/1 matrix with a one at (i, mapping[i]) for each row i."""
    n = perm.n
    out = np.zeros(n * n)
    out[np.arange(0, n * n, n) + perm.mapping] = 1.0  # flat index i n + mapping[i]
    return out.reshape(n, n)

