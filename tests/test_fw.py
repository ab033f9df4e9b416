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
    permutation_objective,
    permutation_to_matrix,
    qap_gradient,
    qap_objective,
    round_to_permutation,
    solve_lap_min,
)
from tosqap import fw, solver
from tosqap.fw import FwConfig, exact_line_step, run_fw
from tosqap.lap import Permutation

from pins import on_core


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


def exact_recompute_fw(inst, x, config):
    """Frank-Wolfe as run_fw runs it, with grad f(x) and f(x) computed afresh
    at every point: the steps run, the stop reason, the last point and the
    nonstationarity of each point."""
    nonstationarity = []
    for t in range(config.max_iters + 1):
        grad, f_x = qap_gradient(inst, x), qap_objective(inst, x)
        s = permutation_to_matrix(solve_lap_min(grad).permutation)
        gap = frobenius_inner(grad, x - s)
        nonstationarity.append(abs(gap) / max(f_x, 1.0))
        stopped_by = ("gap" if gap <= 0.0 else "tol" if nonstationarity[-1] < config.gap_tolerance
                      else "cap" if t == config.max_iters else None)
        if stopped_by:
            return t, stopped_by, x, nonstationarity
        d = s - x
        a, b = qap_objective(inst, d), frobenius_inner(grad, d)
        eta = min(1.0, max(0.0, -b / (2.0 * a))) if a > 0.0 else float(a + b <= 0.0)
        x = x + eta * d


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


def line_step(inst, x, d):
    """exact_line_step on f(x + eta d) - f(x) = a eta^2 + b eta, with
    a = f(d) and b = <grad f(x), d>."""
    return exact_line_step(qap_objective(inst, d), frobenius_inner(qap_gradient(inst, x), d))


class TestLineSearch:
    def test_interior_minimum(self):
        # f(X) = ||X||^2 via A = I/2, B = I; from a vertex toward the
        # uniform matrix the restriction is minimized at eta = 1.
        inst = QapInstance("q", 0.5 * np.eye(3), np.eye(3))
        x = np.eye(3)
        d = uniform_start(3) - x
        # analytic: q(eta) = ||x + eta d||^2, minimized where <x + eta d, d> = 0
        eta_analytic = -float(np.sum(x * d)) / float(np.sum(d * d))
        eta = line_step(inst, x, d)
        assert eta == pytest.approx(min(1.0, eta_analytic))

    def test_clamped_to_unit(self):
        inst = QapInstance("q", 0.5 * np.eye(2), np.eye(2))
        x = np.eye(2)
        d = 0.1 * (uniform_start(2) - x)  # unconstrained minimizer beyond 1
        assert line_step(inst, x, d) == 1.0

    def test_concave_picks_better_endpoint(self):
        inst = QapInstance("c", -0.5 * np.eye(2), np.eye(2))  # f = -||X||^2
        x = uniform_start(2)
        d = np.eye(2) - x
        assert line_step(inst, x, d) == 1.0  # vertex has larger norm

    def test_grid_search_oracle(self):
        inst = random_instance(4, 5)
        rng = make_rng(6)
        x = rng.dirichlet(np.ones(4), size=4)
        s = permutation_to_matrix(Permutation(4, tuple(int(i) for i in rng.permutation(4))))
        d = s - x
        eta = line_step(inst, x, d)
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
            eta = line_step(inst, x, s - x)
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

    def test_overflowing_start_gradient_is_divergence_at_pass_0(self):
        # The gradient 2e400 J/4 overflows at the finite start point; the
        # LAP's check of it is reported as a divergence that names the gradient.
        big = 1e200 * np.ones((4, 4))
        with np.errstate(all="ignore"), pytest.raises(solver.DivergenceError) as err:
            run_fw(QapInstance("big", big, big), uniform_start(4), FwConfig(max_iters=8))
        assert err.value.iteration == 0
        assert str(err.value) == "non-finite gradient at iteration 0"

    def test_overflow_after_a_step_is_divergence_at_its_pass(self):
        # f = -1e308 X_11^2 is finite at J/2 with gradient -1e308 e_11; the
        # concave step goes to eta = 1, X = I, where the gradient is -inf.
        inst = QapInstance("concave", np.diag([-1e154, 0.0]), np.diag([1e154, 0.0]))
        for max_iters in (1, 8):
            with np.errstate(all="ignore"), pytest.raises(solver.DivergenceError) as err:
                run_fw(inst, uniform_start(2), FwConfig(max_iters=max_iters))
            assert err.value.iteration == 1
            assert str(err.value) == "non-finite gradient at iteration 1"

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

    # A step takes one gradient, of its direction.  Each trace row, and a
    # stop the carried values call between rows, first refreshes the
    # gradient and the objective exactly; a stop between rows solves its LAP
    # twice.  The rounding's objective, in qap, is not counted.
    # random_instance(6, 11) from the uniform start: gap <= 0 after 3 steps,
    # at the trace point of a cap of 3 too (rows 0, 1, 2, 3).  chr12a from
    # initial_point(12, 0): the 64 cap (rows 0, 1, ..., 64) and the 1e-3 gap
    # exit after 462 steps (rows 0, 1, ..., 256, 462).
    @pytest.mark.parametrize("chr12a, max_iters, tol, steps, rows, laps", [
        (False, 40, 0.0, 3, 4, 5), (False, 3, 0.0, 3, 4, 4),
        (True, 64, 0.0, 64, 8, 65), (True, 4096, 1e-3, 462, 11, 464)],
        ids=["gap", "cap", "chr12a-cap", "chr12a-tol"])
    def test_one_gradient_per_iteration(self, monkeypatch, chr12a, max_iters, tol, steps, rows,
                                        laps):
        calls = {"qap_gradient": 0, "qap_objective": 0, "solve_lap_min": 0}

        def counting(name):
            original = getattr(fw, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(fw, name, counting(name))
        if chr12a:
            inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
            y1 = initial_point(12, 0)
        else:
            inst, y1 = random_instance(6, 11), uniform_start(6)
        res = run_fw(inst, y1, FwConfig(max_iters=max_iters, gap_tolerance=tol))
        assert (res.iterations_run, len(res.trace)) == (steps, rows)
        assert calls == {"qap_gradient": steps + rows, "qap_objective": rows,
                         "solve_lap_min": laps}

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

        def counting_step(a, b):
            steps.append(1)
            return exact_line_step(a, b)

        monkeypatch.setattr(fw, "exact_line_step", counting_step)
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        res = run_fw(inst, initial_point(12, start), config)
        assert res.trace[0].t == 0
        assert res.trace[-1].t == res.iterations_run == len(steps) == stop
        assert res.trace[-1].objective.hex() == res.relaxed_value.hex()
        assert res.trace[-1].nonstationarity.hex() == res.nonstationarity.hex()

    # chr12a: from initial_point(12, 3) FW meets 1e-5 after 14 steps, which
    # wins over a cap there too; from initial_point(12, 0) it runs to the 4096
    # cap, and an infinite tolerance stops at the start.  It checks each point
    # it reaches once.
    @pytest.mark.parametrize("start, config, stop, rows, stopped_by", [
        (3, FwConfig(max_iters=100000, gap_tolerance=1e-5), 14, 6, "tol"),
        (3, FwConfig(max_iters=14, gap_tolerance=1e-5), 14, 6, "tol"),
        (0, FwConfig(max_iters=4096, gap_tolerance=1e-5), 4096, 14, "cap"),
        (0, FwConfig(max_iters=64, gap_tolerance=math.inf), 0, 1, "tol")],
        ids=["tol", "tol-at-cap", "cap", "inf"])
    def test_stopped_by_and_checks(self, start, config, stop, rows, stopped_by):
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        res = run_fw(inst, initial_point(12, start), config)
        assert (res.iterations_run, len(res.trace), res.checks, res.stopped_by) == (
            stop, rows, stop + 1, stopped_by)

    def test_gap_exit(self):
        # The n = 4 instance of the CLI tests' bench manifest, from
        # initial_point(4, 0): the exact gap, at rounding level (about 1e-14
        # on f = 381) from step 34 on, first rounds to <= 0 after 37 steps on
        # SkylakeX kernels, after 66 on Haswell's.
        rng = make_rng(10)
        a = rng.integers(0, 10, (4, 4)).astype(float)
        inst = QapInstance("inst0", a, rng.integers(0, 10, (4, 4)).astype(float))
        res = run_fw(inst, initial_point(4, 0), FwConfig(max_iters=150))
        assert (res.stopped_by, res.iterations_run, res.checks) == on_core(
            SkylakeX=("gap", 37, 38), Haswell=("gap", 66, 67))
        assert res.trace[-1].coupling <= 0.0

    def test_zero_gap_is_positive_zero(self):
        # f(X) = -<X, X> is concave, and from a permutation P the assignment
        # solve on grad f(P) = -2P returns P itself: the gap is exactly zero
        # and stops the run at t = 0.  It is written +0.0, the sign of
        # <grad, X - S>; -<grad, S - X> alone would write -0.0.
        res = run_fw(QapInstance("neg", -np.eye(4), np.eye(4)), np.eye(4)[[2, 0, 3, 1]],
                     FwConfig(max_iters=8))
        assert (res.stopped_by, res.iterations_run, len(res.trace)) == ("gap", 0, 1)
        assert res.trace[0].coupling == 0.0 and math.copysign(1, res.trace[0].coupling) == 1

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
        # run_fw carries grad f and f from step to step.  The reference loop
        # recomputes both at every point, takes a = f(d) in trace form and
        # solves each LAP cold.  Both must stop alike, at the same point
        # within a bound fixed beforehand: a difference in the iterate never
        # grows through x + eta (s - x), as 0 <= 1 - eta <= 1, so each step
        # adds at most its own rounding, 2 eps for entries in [0, 1], and its
        # step lengths' difference, taken as a length-n^2 dot product's
        # n^2 eps; (n^2 + 2) T eps over T steps.
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        config = FwConfig(max_iters=4096, gap_tolerance=1e-5)
        for start in range(5):
            res = run_fw(inst, initial_point(12, start), config)
            t, stopped_by, x, _ = exact_recompute_fw(inst, initial_point(12, start), config)
            perm = round_to_permutation(x)
            assert (res.iterations_run, res.stopped_by, res.permutation, res.rounded_value) == (
                t, stopped_by, perm, permutation_objective(inst, perm))
            bound = (12 ** 2 + 2) * t * np.finfo(np.float64).eps
            assert np.max(np.abs(res.iterate - x)) <= bound

    def test_carried_values_stop_where_exact_ones_do(self, monkeypatch):
        # Between trace rows the tol test reads the carried gradient and
        # objective.  At steps k where the exact loop's nonstationarity sets a
        # new running minimum, tols a relative 1e-6 above and below it must
        # stop run_fw where they stop the exact loop, and the carried values
        # must call no stop the exact ones refuse: each LAP is one point's,
        # plus the second solve of a stop between trace rows.
        inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
        *_, exact = exact_recompute_fw(inst, initial_point(12, 0), FwConfig(max_iters=1024))
        schedule = solver.power_of_two_schedule(1024)
        ks = [k for k in range(1, 1024) if k not in schedule
              and exact[k] < (1 - 1e-5) * min(exact[:k])]
        laps = []
        monkeypatch.setattr(fw, "solve_lap_min", lambda cost, warm: laps.append(1) or
                            solve_lap_min(cost, warm))
        for k in ks[::len(ks) // 6]:
            for tol in (exact[k] * (1 + 1e-6), exact[k] * (1 - 1e-6)):
                stop = next((j for j, v in enumerate(exact) if v < tol), 1024)
                laps.clear()
                res = run_fw(inst, initial_point(12, 0), FwConfig(max_iters=1024, gap_tolerance=tol))
                assert (res.iterations_run, res.stopped_by, len(laps)) == (
                    stop, "tol" if exact[stop] < tol else "cap", stop + 1 + (stop not in schedule))

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
