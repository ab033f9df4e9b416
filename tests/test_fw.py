import itertools
import importlib.resources
import math

import numpy as np
import pytest

from tosqap import (
    QapInstance,
    frobenius_inner,
    frobenius_norm,
    initial_point,
    load_instance,
    make_rng,
    nonstationarity_error,
    permutation_to_matrix,
    qap_gradient,
    qap_objective,
    solve_lap_min,
)
from tosqap import fw
from tosqap.fw import FwConfig, exact_line_step, run_fw
from tosqap.lap import Permutation


def random_instance(n, seed, best_known=None):
    rng = make_rng(seed)
    return QapInstance(
        name=f"rand{n}s{seed}",
        a=rng.uniform(0, 10, (n, n)),
        b=rng.uniform(0, 10, (n, n)),
        best_known=best_known,
    )


def uniform_start(n):
    return np.full((n, n), 1.0 / n)


def start_gap(inst, x):
    """The FW gap max_S <grad f(x), x - S> that run_fw records at its
    start point, the trace row of t = 0."""
    row = run_fw(inst, x, FwConfig(max_iters=1)).trace[0]
    assert row.t == 0
    return row.coupling


class TestGap:
    def test_zero_at_linear_minimizer(self):
        inst = QapInstance("eye", np.eye(3), np.eye(3))
        # f(X) = ||X||^2; at the uniform matrix the gradient is constant,
        # so every vertex ties and the gap vanishes.
        assert start_gap(inst, uniform_start(3)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration(self):
        inst = random_instance(5, 3)
        rng = make_rng(4)
        # run_fw takes only doubly stochastic starts: a convex combination
        # of permutations.
        w = rng.dirichlet(np.ones(5))
        x = sum(w[k] * np.eye(5)[rng.permutation(5)] for k in range(5))
        grad = qap_gradient(inst, x)
        want = max(
            float(np.sum(grad * (x - permutation_to_matrix(Permutation(5, p)))))
            for p in itertools.permutations(range(5)))
        assert start_gap(inst, x) == pytest.approx(want, rel=1e-12)


class TestLineSearch:
    def test_interior_minimum(self):
        # f(X) = ||X||^2 via A = I/2, B = I; from a vertex toward the
        # uniform matrix the restriction is minimized at eta = 1.
        inst = QapInstance("q", 0.5 * np.eye(3), np.eye(3))
        x = np.eye(3)
        d = uniform_start(3) - x
        # analytic: q(eta) = ||x + eta d||^2, minimized where <x + eta d, d> = 0
        eta_analytic = -float(np.sum(x * d)) / float(np.sum(d * d))
        eta = exact_line_step(inst, qap_gradient(inst, x), d)
        assert eta == pytest.approx(min(1.0, eta_analytic))

    def test_clamped_to_unit(self):
        inst = QapInstance("q", 0.5 * np.eye(2), np.eye(2))
        x = np.eye(2)
        d = 0.1 * (uniform_start(2) - x)  # unconstrained minimizer beyond 1
        assert exact_line_step(inst, qap_gradient(inst, x), d) == 1.0

    def test_concave_picks_better_endpoint(self):
        inst = QapInstance("c", -0.5 * np.eye(2), np.eye(2))  # f = -||X||^2
        x = uniform_start(2)
        d = np.eye(2) - x
        assert exact_line_step(inst, qap_gradient(inst, x), d) == 1.0  # vertex has larger norm

    def test_grid_search_oracle(self):
        inst = random_instance(4, 5)
        rng = make_rng(6)
        x = rng.dirichlet(np.ones(4), size=4)
        s = permutation_to_matrix(Permutation(4, tuple(int(i) for i in rng.permutation(4))))
        d = s - x
        eta = exact_line_step(inst, qap_gradient(inst, x), d)
        grid = np.linspace(0, 1, 20001)
        vals = [qap_objective(inst, x + e * d) for e in grid]
        assert qap_objective(inst, x + eta * d) <= min(vals) + 1e-9


class TestRun:
    def test_stationary_start_stops_immediately(self):
        inst = QapInstance("eye", np.eye(3), np.eye(3))
        res = run_fw(inst, uniform_start(3), FwConfig(max_iters=100))
        assert res.iterations_run == 0
        assert res.nonstationarity <= 1e-12

    def test_convex_surrogate_converges_to_uniform(self):
        # A = I/2, B = I gives the convex objective f(X) = ||X||_F^2 whose
        # minimizer over the polytope is the uniform matrix.
        n = 5
        inst = QapInstance("sq", 0.5 * np.eye(n), np.eye(n))
        start = permutation_to_matrix(Permutation(n, tuple(range(n))))
        res = run_fw(inst, start, FwConfig(max_iters=5000, gap_tolerance=1e-10))
        assert frobenius_norm(res.iterate - uniform_start(n)) <= 1e-4

    def test_descent_and_feasibility(self):
        inst = random_instance(6, 7)
        objs = []
        # reuse the trace at every iteration by making the horizon small
        res = run_fw(inst, uniform_start(6), FwConfig(max_iters=64))
        x = uniform_start(6)
        prev = qap_objective(inst, x)
        for _ in range(64):
            grad = qap_gradient(inst, x)
            from tosqap import solve_lap_min
            s = permutation_to_matrix(solve_lap_min(grad).permutation)
            gap = float(np.sum(grad * (x - s)))
            if gap <= 0:
                break
            eta = exact_line_step(inst, grad, s - x)
            x = x + eta * (s - x)
            cur = qap_objective(inst, x)
            assert cur <= prev + 1e-9
            prev = cur
            np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-10)
            assert x.min() >= -1e-12
        objs = [r.objective for r in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_infeasible_start_rejected(self):
        inst = random_instance(3, 8)
        with pytest.raises(ValueError, match="doubly stochastic"):
            run_fw(inst, np.ones((3, 3)), FwConfig(max_iters=10))

    def test_non_finite_start_named(self):
        y1 = uniform_start(3)
        y1[2, 2] = np.nan
        with pytest.raises(ValueError, match="y1 contains non-finite entries"):
            run_fw(random_instance(3, 8), y1, FwConfig(max_iters=10))

    def test_wrong_shape_start_named(self):
        with pytest.raises(ValueError, match=r"^y1 must have shape \(4, 4\), got \(3, 3\)"):
            run_fw(random_instance(4, 8), uniform_start(3), FwConfig(max_iters=10))
        with pytest.raises(ValueError, match="^y1 must be an array of real numbers"):
            run_fw(random_instance(4, 8), "abc", FwConfig(max_iters=10))

    def test_chr12a_desk_run(self):
        path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
        inst = load_instance(path, best_known=9552.0)
        res = run_fw(inst, uniform_start(12), FwConfig(max_iters=2000, gap_tolerance=1e-8))
        assert sorted(res.permutation.mapping) == list(range(12))
        assert res.rounded_value >= 9552.0
        assert res.assignment_err is not None and res.assignment_err >= 0.0
        # the traced normalized gap running-minimum never increases
        run_min = np.minimum.accumulate([r.nonstationarity for r in res.trace])
        assert all(m <= v + 1e-15 for m, v in
                   zip(run_min, [r.nonstationarity for r in res.trace]))

    # From the uniform start this instance reaches a vertex, gap <= 0, after
    # 3 steps; a cap of 3 stops it there too.
    @pytest.mark.parametrize("max_iters, stop", [(40, 3), (3, 3)], ids=["gap", "cap"])
    def test_one_gradient_per_iteration(self, monkeypatch, max_iters, stop):
        calls = []

        def counting_gradient(inst, x):
            calls.append(1)
            return qap_gradient(inst, x)

        monkeypatch.setattr(fw, "qap_gradient", counting_gradient)
        res = run_fw(random_instance(6, 11), uniform_start(6), FwConfig(max_iters=max_iters))
        assert res.iterations_run == stop
        # One gradient at the start and one after each step.
        assert len(calls) == res.iterations_run + 1

    # chr12a from initial_point(12, 0): the 64-iteration cap and the 1e-3
    # gap exit after 462 steps, between powers of two.
    @pytest.mark.parametrize("max_iters, tol, stop", [(64, 0.0, 64), (4096, 1e-3, 462)],
                             ids=["cap", "gap"])
    def test_reported_numbers_are_the_iterates(self, max_iters, tol, stop):
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        res = run_fw(inst, initial_point(12, 0), FwConfig(max_iters=max_iters, gap_tolerance=tol))
        assert res.iterations_run == stop
        x = res.iterate
        grad = qap_gradient(inst, x)
        s = permutation_to_matrix(solve_lap_min(grad).permutation)
        f_x = qap_objective(inst, x)
        gap_error = abs(frobenius_inner(grad, x - s)) / max(f_x, 1.0)
        assert res.relaxed_value.hex() == f_x.hex()
        assert res.nonstationarity.hex() == gap_error.hex()
        # both solvers report one nonstationarity: |stationarity_gap| / max{f, 1}
        assert res.nonstationarity.hex() == nonstationarity_error(inst, x).hex()

    # chr12a from initial_point(12, 0) stops at the 64 cap; from
    # initial_point(12, 3) it meets 1e-5 after 14 steps; an infinite
    # tolerance stops at the start.
    @pytest.mark.parametrize("start, config, stop", [
        (0, FwConfig(max_iters=64), 64),
        (3, FwConfig(max_iters=1024, gap_tolerance=1e-5), 14),
        (3, FwConfig(max_iters=64, gap_tolerance=math.inf), 0)], ids=["cap", "gap", "inf"])
    def test_last_trace_row_is_the_reported_point(self, monkeypatch, start, config, stop):
        steps = []

        def counting_step(inst, grad, direction):
            steps.append(1)
            return exact_line_step(inst, grad, direction)

        monkeypatch.setattr(fw, "exact_line_step", counting_step)
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        res = run_fw(inst, initial_point(12, start), config)
        assert res.trace[0].t == 0
        assert res.trace[-1].t == res.iterations_run == len(steps) == stop
        assert res.trace[-1].objective.hex() == res.relaxed_value.hex()
        assert res.trace[-1].nonstationarity.hex() == res.nonstationarity.hex()

    def test_gap_nonnegative_on_trace(self):
        # Every start is a convex combination of permutations, so each
        # iterate stays in the polytope, where max_S <grad, X - S> >= 0.
        inst = random_instance(4, 1)
        rng = make_rng(2)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            x = sum(w[k] * np.eye(4)[rng.permutation(4)] for k in range(4))
            res = run_fw(inst, x, FwConfig(max_iters=16))
            assert all(r.coupling >= -1e-10 for r in res.trace)

    def test_iterate_matches_recomputed_gradient_loop(self):
        # Reference loop that computes grad f(x) afresh for the line step:
        # passing run_fw's gradient must not change a bit.
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        x = uniform_start(12)
        res = run_fw(inst, x, FwConfig(max_iters=200))
        for _ in range(res.iterations_run):
            grad = qap_gradient(inst, x)
            s = permutation_to_matrix(solve_lap_min(grad).permutation)
            d = s - x
            if frobenius_inner(grad, -d) <= 0.0:
                break
            a = float(np.trace(inst.a @ d @ inst.b.T @ d.T))
            b = frobenius_inner(qap_gradient(inst, x), d)
            eta = min(1.0, max(0.0, -b / (2.0 * a))) if a > 0.0 else float(a + b <= 0.0)
            x = x + eta * d
        assert res.iterate.tobytes() == x.tobytes()

    @pytest.mark.parametrize("start", range(5))
    def test_warm_lap_iterates_match_cold_loop(self, monkeypatch, start):
        # chr12a's gradients have a unique optimal assignment, so solving
        # each LAP cold walks through the same iterates bit for bit.
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        config = FwConfig(max_iters=1024, gap_tolerance=1e-5)
        warm = run_fw(inst, initial_point(12, start), config)
        monkeypatch.setattr(fw, "solve_lap_min", lambda cost, warm=None: solve_lap_min(cost))
        cold = run_fw(inst, initial_point(12, start), config)
        assert warm.iterations_run == cold.iterations_run
        assert warm.iterate.tobytes() == cold.iterate.tobytes()
        assert warm.trace == cold.trace

    def test_each_lap_starts_from_the_previous_duals(self, monkeypatch):
        passed, returned = [], []

        def spy(cost, warm=None):
            sol = solve_lap_min(cost, warm)
            passed.append(warm)
            returned.append(sol)
            return sol

        monkeypatch.setattr(fw, "solve_lap_min", spy)
        run_fw(random_instance(6, 7), uniform_start(6), FwConfig(max_iters=20))
        assert passed[0] is None and len(passed) > 2
        assert all(p is r for p, r in zip(passed[1:], returned))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FwConfig(max_iters=0)
        with pytest.raises(ValueError):
            FwConfig(max_iters=5, gap_tolerance=-1.0)

    @pytest.mark.parametrize("fields, name", [
        ({"max_iters": 2.5}, "max_iters"), ({"max_iters": True}, "max_iters"),
        ({"max_iters": 5, "gap_tolerance": math.nan}, "gap_tolerance"),
        ({"max_iters": 5, "gap_tolerance": True}, "gap_tolerance")])
    def test_bad_config_field_named(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name}: expected"):
            FwConfig(**fields)

    def test_numpy_and_infinite_config_accepted(self):
        config = FwConfig(max_iters=np.int64(5), gap_tolerance=math.inf)
        assert run_fw(random_instance(4, 9), uniform_start(4), config).iterations_run == 0
        assert FwConfig(max_iters=5, gap_tolerance=np.float64(1e-3)).gap_tolerance == 1e-3

    def test_trace_iterations_increasing(self):
        inst = random_instance(4, 9)
        res = run_fw(inst, uniform_start(4), FwConfig(max_iters=50))
        ts = [r.t for r in res.trace]
        assert ts == sorted(set(ts))
