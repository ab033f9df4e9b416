import dataclasses
import importlib.resources
import itertools
import time

import numpy as np
import pytest

import tosqap.fw
from tosqap import (
    FwConfig,
    initial_point,
    load_instance,
    make_rng,
    permutation_to_matrix,
    qap_gradient,
    run_fw,
    solve_lap_max,
    solve_lap_min,
)
from tosqap.lap import LapSolution, Permutation


def brute_force_min(cost):
    n = cost.shape[0]
    best_val = np.inf
    best_perm = None
    for p in itertools.permutations(range(n)):
        v = sum(cost[i, p[i]] for i in range(n))
        if v < best_val:
            best_val = v
            best_perm = p
    return best_perm, best_val


def reference_lap_min(c, dual_col=None):
    """The Hungarian loop on numpy arrays and scalars, warm-started from the
    column duals ``dual_col`` when given, which solve_lap_min must match byte
    for byte: (mapping, value, dual_row, dual_col)."""
    n = c.shape[0]
    inf = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    pending = range(1, n + 1)
    if dual_col is not None:
        reduced = c - dual_col
        best = reduced.argmin(axis=1)
        v[1:] = dual_col
        u[1:] = reduced[np.arange(n), best]
        pending = []
        for i, j in enumerate(best, 1):
            if p[j + 1] == 0:
                p[j + 1] = i
            else:
                pending.append(i)
    for i in pending:
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            cur_row = c[i0 - 1] - u[i0] - v[1:]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cur_row[j - 1]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
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
    value = float(sum(c[i, mapping[i]] for i in range(n)))
    return tuple(mapping), value, u[1:].copy(), v[1:].copy()


def identity_costs():
    """Costs with ties, tiny and large n, large and negative entries, and
    FW gradients of chr12a."""
    rng = make_rng(11)
    costs = [np.ones((n, n)) for n in (1, 2, 5, 12)]
    costs += [np.zeros((4, 4)), np.array([[-0.0, 0.0], [0.0, -0.0]])]
    for n in (1, 2, 3, 5, 12, 30):
        for _ in range(3):
            costs.append(rng.integers(0, 3, (n, n)).astype(float))
            costs.append(rng.standard_normal((n, n)))
            costs.append(rng.uniform(0, 1e4, (n, n)))
            costs.append(-rng.uniform(0, 1, (n, n)))
    inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
    costs += [qap_gradient(inst, initial_point(12, seed)) for seed in range(5)]
    return costs


def assert_same_bytes(sol, reference):
    mapping, value, dual_row, dual_col = reference
    assert sol.permutation.mapping == mapping
    assert np.float64(sol.value).tobytes() == np.float64(value).tobytes()
    for got, want in ((sol.dual_row, dual_row), (sol.dual_col, dual_col)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestReferenceIdentity:
    @pytest.mark.parametrize("cost", identity_costs())
    def test_same_bytes_as_numpy_scalar_loop(self, cost):
        assert_same_bytes(solve_lap_min(cost), reference_lap_min(cost))


def warm_cases():
    """(kind, cost, dual_col): Gaussian costs with the column duals of a
    perturbed copy, and integer costs in -2..2 and all-ones costs with the
    duals of an integer-perturbed copy, whose ties let a warm solve pick
    another optimum."""
    rng = make_rng(21)
    cases = []
    for n in (1, 2, 3, 5, 12, 30):
        for _ in range(4):
            c = rng.standard_normal((n, n))
            cases.append(("gauss", c, solve_lap_min(c + 0.1 * rng.standard_normal((n, n))).dual_col))
            for c in (rng.integers(-2, 3, (n, n)).astype(float), np.ones((n, n))):
                cases.append(("tied", c, solve_lap_min(c + rng.integers(-1, 2, (n, n))).dual_col))
    return cases


def carrying(dual_col):
    """A ``LapSolution`` of size len(dual_col) whose column duals, the only
    part of it a warm start reads, are ``dual_col``."""
    n = len(dual_col)
    return LapSolution(Permutation(n, tuple(range(n))), 0.0, np.zeros(n), dual_col)


class TestWarmStart:
    @pytest.mark.parametrize("kind, cost, dual_col", warm_cases())
    def test_warm_matches_cold(self, kind, cost, dual_col):
        n = cost.shape[0]
        warm, cold = solve_lap_min(cost, carrying(dual_col)), solve_lap_min(cost)
        if kind == "gauss":  # the optimum is unique w.p. 1
            assert warm.permutation == cold.permutation
        assert warm.value == cold.value
        assert sorted(warm.permutation.mapping) == list(range(n))
        # Reduced-cost certificate.  The prelude's rounded c - v costs one
        # rounding; u_i and v_j then take at most n^2 each (at most n
        # searches of at most n steps, one update per step); the minv entry
        # a step's delta comes from carries at most n + 2 within a search;
        # evaluating c - u - v takes two more.  Each errs by at most
        # eps * S, where S bounds every value involved.
        eps = np.finfo(float).eps / 2
        size = (np.abs(cost).max() + np.abs(dual_col).max()
                + np.abs(warm.dual_row).max() + np.abs(warm.dual_col).max())
        reduced = cost - warm.dual_row[:, None] - warm.dual_col[None, :]
        assert reduced.min() >= -(2 * n * n + n + 5) * eps * size

    @pytest.mark.parametrize("kind, cost, dual_col", warm_cases())
    def test_same_bytes_as_numpy_scalar_loop(self, kind, cost, dual_col):
        assert_same_bytes(solve_lap_min(cost, carrying(dual_col)),
                          reference_lap_min(cost, dual_col))

    def test_signed_zeros_same_bytes(self):
        # Every sign pattern of a 2 x 2 zero cost under every sign pattern of
        # zero duals: the prelude's u_i = c_ij - v_j keeps numpy's signs.
        for signs in itertools.product((0.0, -0.0), repeat=6):
            cost, dual_col = np.array(signs[:4]).reshape(2, 2), np.array(signs[4:])
            assert_same_bytes(solve_lap_min(cost, carrying(dual_col)),
                              reference_lap_min(cost, dual_col))

    def test_fw_chain_same_bytes(self, monkeypatch):
        # The warm solves of a chr12a Frank-Wolfe run, each from the previous
        # solve's duals, as run_fw makes them.
        calls = []

        def recording(cost, warm=None):
            sol = solve_lap_min(cost, warm)
            calls.append((cost.copy(), warm, sol))
            return sol

        monkeypatch.setattr(tosqap.fw, "solve_lap_min", recording)
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        run_fw(inst, initial_point(12, 0), FwConfig(max_iters=64))
        assert len(calls) > 64 and calls[0][1] is None
        assert all(warm is earlier[2] for earlier, (_, warm, _) in zip(calls, calls[1:]))
        for cost, warm, sol in calls:
            assert_same_bytes(sol, reference_lap_min(cost, warm and warm.dual_col))

    @pytest.mark.parametrize("warm", [
        np.zeros((3, 1)), np.zeros(2), np.array([0.0, np.nan, 0.0]),
        np.array([0.0, np.inf, 0.0]), "abc", solve_lap_min(np.ones((2, 2)))],
        ids=["2d", "short", "nan", "inf", "str", "size2"])
    def test_bad_dual_col_named(self, warm):
        # A bare dual vector is rejected whatever its values, as is the
        # solution of another size.
        with pytest.raises(ValueError, match="^warm must be a LapSolution of size 3, got "):
            solve_lap_min(np.ones((3, 3)), warm)


class TestScipy:
    @pytest.mark.parametrize("n", [30, 100, 300])
    def test_value_matches_linear_sum_assignment(self, n):
        from scipy.optimize import linear_sum_assignment  # test extra only

        rng = make_rng(100 + n)
        cost = rng.standard_normal((n, n)) * 10
        rows, cols = linear_sum_assignment(cost)
        want = float(cost[rows, cols].sum())
        assert solve_lap_min(cost).value == pytest.approx(want, rel=1e-9)
        earlier = solve_lap_min(cost + rng.standard_normal((n, n)))
        assert solve_lap_min(cost, earlier).value == pytest.approx(want, rel=1e-9)


class TestMin:
    def test_dominant_diagonal(self):
        sol = solve_lap_min(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert sol.permutation.mapping == (0, 1)
        assert sol.value == 0.0

    def test_swap(self):
        sol = solve_lap_min(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert sol.permutation.mapping == (1, 0)
        assert sol.value == 3.0

    def test_all_ones_ties(self):
        sol = solve_lap_min(np.ones((3, 3)))
        assert sorted(sol.permutation.mapping) == [0, 1, 2]
        assert sol.value == 3.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_lap_min(np.ones((2, 3)))

    def test_matches_enumeration(self):
        rng = make_rng(0)
        for trial in range(60):
            n = 2 + trial % 6  # n in 2..7
            cost = rng.standard_normal((n, n)) * 10
            perm, val = brute_force_min(cost)
            sol = solve_lap_min(cost)
            assert sol.value == pytest.approx(val, abs=1e-9)
            # generic real costs: the optimum is unique w.p. 1
            assert sol.permutation.mapping == perm

    def test_dual_certificate(self):
        rng = make_rng(5)
        for n in (4, 8, 16):
            cost = rng.standard_normal((n, n)) * 7
            sol = solve_lap_min(cost)
            reduced = cost - sol.dual_row[:, None] - sol.dual_col[None, :]
            assert reduced.min() >= -1e-9 * max(1.0, np.abs(cost).max())
            # complementary slackness at the assignment
            chosen = reduced[np.arange(n), list(sol.permutation.mapping)]
            assert np.max(np.abs(chosen)) <= 1e-9 * max(1.0, np.abs(cost).max())

    def test_large_instance_fast(self):
        rng = make_rng(9)
        cost = rng.standard_normal((256, 256))
        start = time.perf_counter()
        solve_lap_min(cost)
        assert time.perf_counter() - start < 1.0


class TestMax:
    def test_identity_profit(self):
        sol = solve_lap_max(np.eye(3))
        assert sol.permutation.mapping == (0, 1, 2)
        assert sol.value == 3.0

    def test_negation_duality(self):
        cost = np.array([[4.0, 1.0], [2.0, 3.0]])
        assert solve_lap_max(-cost).permutation.mapping == solve_lap_min(cost).permutation.mapping

    def test_matches_enumeration_n6(self):
        rng = make_rng(8)
        profit = rng.standard_normal((6, 6))
        _, val = brute_force_min(-profit)
        assert solve_lap_max(profit).value == pytest.approx(-val, abs=1e-9)


class TestPermutation:
    def test_identity_matrix(self):
        assert np.array_equal(permutation_to_matrix(Permutation(2, (0, 1))), np.eye(2))

    def test_swap_matrix(self):
        np.testing.assert_array_equal(
            permutation_to_matrix(Permutation(2, (1, 0))), [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(3, (0, 0, 2))

    @pytest.mark.parametrize("n, mapping, named", [
        (2, (True, False), "mapping"), (2, (1.0, 0.0), "mapping"),
        (2, (np.True_, np.False_), "mapping"), (2, None, "mapping"),
        (2.0, (0, 1), "n"), (True, (0,), "n"), (0, (), "n"), (3, range(4), "mapping")],
        ids=["bools", "floats", "numpy-bools", "none", "float-n", "bool-n", "empty", "range-of-4"])
    def test_rejects_non_integers_named(self, n, mapping, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            Permutation(n, mapping)

    def test_numpy_integers_accepted(self):
        perm = Permutation(np.int64(3), (np.int64(2), np.int32(0), 1))
        assert np.array_equal(permutation_to_matrix(perm), np.eye(3)[[2, 0, 1]])

    @pytest.mark.parametrize("mapping", [
        [2, 0, 1], range(3), np.array([2, 0, 1]), np.array([0, 1, 2], dtype=np.int32),
        (np.int64(2), 0, np.int32(1))], ids=["list", "range", "ndarray", "int32-ndarray", "mixed"])
    def test_any_container_stored_as_tuple_of_ints(self, mapping):
        perm = Permutation(np.int64(3), mapping)
        assert type(perm.n) is int and type(perm.mapping) is tuple
        assert all(type(j) is int for j in perm.mapping)
        same = Permutation(3, tuple(int(j) for j in mapping))
        assert perm == same and hash(perm) == hash(same)

    @pytest.mark.parametrize("n", [1, 2, 12, 100])
    def test_matrix_same_bytes_as_eye_rows(self, n):
        mapping = tuple(make_rng(n).permutation(n).tolist())
        got, want = permutation_to_matrix(Permutation(n, mapping)), np.eye(n)[list(mapping)]
        assert got.dtype == np.float64 and got.shape == (n, n) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def tie_heavy_costs():
    """Random and tied costs at n = 1-8: Gaussian, small integers, all ones,
    and zeros of mixed sign."""
    rng = make_rng(28)
    costs = []
    for n in range(1, 9):
        costs += [rng.standard_normal((n, n)), rng.integers(-1, 2, (n, n)).astype(float),
                  np.ones((n, n)), np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)]
    return costs


class TestSolverPermutations:
    """The solver builds its solutions and their permutations without the
    constructors; each must still pass the permutation's check, hold
    Python ints, and carry the field types of a constructed solution."""

    @staticmethod
    def assert_checked(sol, n):
        assert type(sol) is LapSolution and type(sol.value) is float
        assert list(vars(sol)) == [f.name for f in dataclasses.fields(LapSolution)]
        for dual in (sol.dual_row, sol.dual_col):
            assert type(dual) is np.ndarray and dual.dtype == np.float64 and dual.shape == (n,)
        perm = sol.permutation
        assert type(perm.n) is int and perm.n == n and type(perm.mapping) is tuple
        assert all(type(j) is int for j in perm.mapping)
        checked = Permutation(n, perm.mapping)
        assert checked == perm and hash(checked) == hash(perm)

    @pytest.mark.parametrize("cost", tie_heavy_costs())
    def test_cold_and_max(self, cost):
        n = cost.shape[0]
        self.assert_checked(solve_lap_min(cost), n)
        self.assert_checked(solve_lap_max(cost), n)

    @pytest.mark.parametrize("cost", tie_heavy_costs())
    def test_warm(self, cost):
        # Warm starts from tied and random duals, so that rows collide on
        # their argmin columns and the augmenting search runs.
        n = cost.shape[0]
        rng = make_rng(n)
        for dual_col in (np.zeros(n), np.ones(n), rng.integers(-2, 3, n).astype(float),
                         rng.standard_normal(n)):
            self.assert_checked(solve_lap_min(cost, carrying(dual_col)), n)
        self.assert_checked(solve_lap_min(cost, solve_lap_min(cost.T.copy())), n)


class TestLapSolutionEquality:
    """A ``LapSolution`` is equal only to itself and hashes by identity:
    comparing its dual arrays by value would raise numpy's ambiguous-truth
    error for n >= 2."""

    @pytest.mark.parametrize("n", [1, 4])
    def test_compares_and_hashes_by_identity(self, n):
        cost = make_rng(n).standard_normal((n, n))
        cold = solve_lap_min(cost)
        sols = [cold, solve_lap_min(cost), solve_lap_min(cost, cold), solve_lap_max(cost)]
        for sol in sols:
            TestSolverPermutations.assert_checked(sol, n)
            assert sol == sol and hash(sol) == hash(sol)
            assert [other == sol for other in sols] == [other is sol for other in sols]
        assert len(set(sols)) == len(sols)
