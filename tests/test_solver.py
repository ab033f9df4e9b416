import dataclasses
import importlib.resources
import itertools
import math

import numpy as np
import pytest

from tosqap import (
    CompositeProblem,
    DivergenceError,
    GradientOracle,
    SolverConfig,
    StepRule,
    build_problem,
    certificate_residual,
    frobenius_inner,
    frobenius_norm,
    gaussian_noise_oracle,
    initial_point,
    load_instance,
    make_rng,
    permutation_to_matrix,
    run_tos,
    run_tos_product_space,
    solve_lap_min,
    stationarity_gap,
    step_size_lipschitz,
)
from tosqap import prox as prox_module
from tosqap.prox import (ProxOperator, prox_affine_doubly_stochastic, prox_box01,
                         prox_col_stochastic, prox_row_stochastic)
from tosqap.qap import QapInstance, estimate_smoothness, qap_oracle
from tosqap.solver import SNAPSHOT_CAP, STOP_CHECK_EVERY, power_of_two_schedule


def zero_oracle():
    return GradientOracle(value=lambda x: 0.0, gradient=lambda x: np.zeros_like(x))


def scalar_problem(value, gradient, prox_g=None, prox_h=None, **kw):
    return CompositeProblem(
        oracle=GradientOracle(
            value=lambda x: value(float(x[0, 0])),
            gradient=lambda x: np.array([[gradient(float(x[0, 0]))]]),
        ),
        prox_g=prox_g or prox_box01(),
        prox_h=prox_h or prox_box01(),
        shape=(1, 1),
        **kw,
    )


class TestStepSizes:
    def test_lipschitz_examples(self):
        assert step_size_lipschitz(2.0, 1.0, 0.0, 0.0, 1) == 1.0
        assert step_size_lipschitz(2.0, 0.5, 0.25, 0.25, 8) == pytest.approx(0.25)

    def test_lipschitz_homogeneous_in_diameter(self):
        g1 = step_size_lipschitz(1.0, 2.0, 1.0, 1.0, 100)
        g2 = step_size_lipschitz(2.0, 2.0, 1.0, 1.0, 100)
        assert g2 == pytest.approx(2 * g1)

    def test_indicators_examples(self):
        assert step_size_lipschitz(2.0, 1.0, 0.0, 0.0, 8) == pytest.approx(0.25)
        assert step_size_lipschitz(1.0, 1.0, 0.0, 0.0, 1) == pytest.approx(0.5)

    def test_indicators_decreasing_in_horizon(self):
        gammas = [step_size_lipschitz(1.0, 1.0, 0.0, 0.0, t) for t in (1, 10, 100, 1000)]
        assert gammas == sorted(gammas, reverse=True)
        assert len(set(gammas)) == len(gammas)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            step_size_lipschitz(0.0, 1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            step_size_lipschitz(1.0, -1.0, 0.0, 0.0, 10)

    @pytest.mark.parametrize("args, name", [
        ((1.0, 1.0, 0.0, 0.0, 2.5), "t_total"), ((1.0, 1.0, 0.0, 0.0, True), "t_total"),
        ((1.0, math.nan, 0.0, 0.0, 10), r"g_f \+ l_g \+ l_h"),
        # An infinite sum, and a step that underflows to 0 or overflows.
        ((1.0, math.inf, 0.0, 0.0, 8), r"g_f \+ l_g \+ l_h"),
        ((1e-300, 1e300, 0.0, 0.0, 8), "theory step"),
        ((1e300, 1e-300, 0.0, 0.0, 1), "theory step")])
    def test_bad_argument_named(self, args, name):
        with pytest.raises(ValueError, match=f"^{name}: expected"):
            step_size_lipschitz(*args)

    def test_theory_run_on_infinite_gradient_bound_named(self):
        # gradient_bound overflows to +inf on huge entries, which a problem
        # accepts; a theory step from it would be 0.
        rng = make_rng(3)
        inst = QapInstance("r4", rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4)))
        problem = dataclasses.replace(build_problem(inst, "split2"), g_f=math.inf)
        with pytest.raises(ValueError, match=r"^g_f \+ l_g \+ l_h: expected a finite number"):
            run_tos(problem, SolverConfig(iters=8, step=StepRule(kind="theory")),
                    np.full((4, 4), 0.25))

    def test_overflowing_inverse_smoothness_named(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        config = SolverConfig(iters=5, step=StepRule.inv_smoothness(1e-320))
        with pytest.raises(ValueError, match="^1/l_smooth: expected a finite number, got inf$"):
            run_tos(problem, config, np.full((2, 2), 0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be .* got 'bogus'"):
            StepRule(kind="bogus")

    @pytest.mark.parametrize("fields, name", [
        ({"kind": "fixed"}, "gamma"), ({"kind": "fixed", "gamma": -1.0}, "gamma"),
        ({"kind": "fixed", "gamma": math.nan}, "gamma"),
        ({"kind": "fixed", "gamma": math.inf}, "gamma"),
        ({"kind": "inv_smoothness", "l_smooth": -1.0}, "l_smooth"),
        ({"kind": "inv_smoothness", "l_smooth": math.nan}, "l_smooth"),
        ({"kind": "theory", "gamma": 0.1}, "gamma"),
        ({"kind": "theory", "l_smooth": 5.0}, "l_smooth"),
        ({"kind": "fixed", "gamma": 0.1, "l_smooth": 5.0}, "l_smooth"),
        ({"kind": "inv_smoothness", "gamma": 0.1}, "gamma")])
    def test_rule_built_directly_checks_its_field(self, fields, name):
        # A rule checks its own kind's field and rejects a value its kind ignores.
        own = {"fixed": "gamma", "inv_smoothness": "l_smooth"}.get(fields["kind"])
        pattern = ("expected a finite number" if name == own
                   else f"a '{fields['kind']}' step rule takes no {name}, got {fields[name]!r}$")
        with pytest.raises(ValueError, match=f"^{name}: {pattern}"):
            StepRule(**fields)

    def test_numpy_step_values_accepted(self):
        assert StepRule.fixed(np.float32(0.5)).gamma == 0.5
        assert StepRule.inv_smoothness(np.float64(2.0)).l_smooth == 2.0

    def test_unset_smoothness_constant_named(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        config = SolverConfig(iters=5, step=StepRule.inv_smoothness())
        y1 = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="smoothness constant L, which is unset"):
            run_tos(problem, config, y1)
        with pytest.raises(ValueError, match="smoothness constant L, which is unset"):
            run_tos_product_space(zero_oracle(), [prox_box01()], config, y1)


class TestRunTos:
    def test_feasible_fixed_point(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        y1 = np.full((2, 2), 0.5)
        ys = []
        res = run_tos(problem, SolverConfig(iters=20, step=StepRule.fixed(0.5)), y1,
                      iteration_hook=lambda t, gamma, u, z, x, y, y_next: ys.append(y_next))
        np.testing.assert_array_equal(res.z_out, y1)
        np.testing.assert_array_equal(ys[-1], y1)

    def test_stop_when_sees_the_checkpoint_record(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        seen = []

        def stop(rec):
            seen.append(rec)
            return rec.t == 8

        res = run_tos(problem, SolverConfig(iters=37, step=StepRule.fixed(1.0)),
                      np.full((2, 2), 0.5), metric_fn=lambda z: (0.25, 0.5), stop_when=stop)
        assert res.iterations_run == 8
        assert [id(r) for r in seen] == [id(r) for r in res.trace]
        assert [(r.t, r.infeasibility, r.nonstationarity) for r in res.trace] == [
            (1, 0.25, 0.5), (2, 0.25, 0.5), (4, 0.25, 0.5), (8, 0.25, 0.5)]

    @staticmethod
    def counted_run(iters, stop_when=None):
        """A 2 x 2 run with a constant metric_fn: (result, times metric_fn ran)."""
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        calls = []
        res = run_tos(problem, SolverConfig(iters=iters, step=StepRule.fixed(1.0)),
                      np.full((2, 2), 0.5), stop_when=stop_when,
                      metric_fn=lambda z: calls.append(1) or (0.25, 0.5))
        return res, len(calls)

    def test_no_stop_when_measures_only_trace_rows(self):
        res, calls = self.counted_run(1000)
        assert [r.t for r in res.trace] == sorted(power_of_two_schedule(1000))
        assert calls == len(res.trace)

    def test_stop_when_also_asked_every_stop_check(self):
        seen = []

        def stop(rec):
            seen.append(rec.t)
            return rec.t == 5 * STOP_CHECK_EVERY

        res, calls = self.counted_run(4000, stop)
        stop_t = 5 * STOP_CHECK_EVERY
        checks = set(range(STOP_CHECK_EVERY, stop_t + 1, STOP_CHECK_EVERY))
        assert seen == sorted({t for t in power_of_two_schedule(4000) if t <= stop_t} | checks)
        assert calls == len(seen)
        # The stop row closes the trace; the check at 384 before it did not
        # stop and left no row.
        assert res.iterations_run == res.trace[-1].t == stop_t
        assert [r.t for r in res.trace] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, stop_t]

    # A cap-only run checks its trace rows; a run given stop_when also checks
    # every STOP_CHECK_EVERY iterations (384, 640, 768 and 896 of 1000 are not
    # trace points), and says whether stop_when ended it.
    @pytest.mark.parametrize("iters, stop_when, checks, stopped", [
        (1000, None, 11, False),
        (1000, lambda rec: False, 15, False),
        (4000, lambda rec: rec.t == 5 * STOP_CHECK_EVERY, 12, True)],
        ids=["cap", "never", "stop"])
    def test_checks_count_the_metric_calls(self, iters, stop_when, checks, stopped):
        res, calls = self.counted_run(iters, stop_when)
        assert (res.checks, res.stopped) == (calls, stopped)
        assert calls == checks
        if stop_when is None:
            assert res.checks == len(res.trace)

    def test_scalar_constrained_minimum(self):
        # f(x) = (x - 2)^2 on [0, 1]; grid search pins the boundary optimum.
        grid = np.linspace(0.0, 1.0, 100001)
        expected = grid[np.argmin((grid - 2.0) ** 2)]
        assert expected == 1.0
        problem = scalar_problem(lambda v: (v - 2) ** 2, lambda v: 2 * (v - 2))
        res = run_tos(problem, SolverConfig(iters=500, step=StepRule.fixed(0.1)),
                      np.array([[0.5]]))
        assert abs(float(res.z_out[0, 0]) - expected) <= 1e-3

    def test_exact_iteration_count_and_power_of_two_trace(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        res = run_tos(problem, SolverConfig(iters=37, step=StepRule.fixed(1.0)),
                      np.full((2, 2), 0.5))
        assert res.iterations_run == 37
        ts = [r.t for r in res.trace]
        assert ts == sorted(set(ts))
        assert ts == sorted(power_of_two_schedule(37))
        assert ts[-1] == 37

    def test_step_order_per_iteration(self):
        calls = []
        base = prox_box01()
        prox_g = ProxOperator(lambda p, s: calls.append("g") or base(p, s))
        prox_h = ProxOperator(lambda p, s: calls.append("h") or base(p, s))
        seen_grad_args = []

        def gradient(x):
            calls.append("f")
            seen_grad_args.append(np.array(x))
            return np.zeros_like(x)

        problem = CompositeProblem(
            oracle=GradientOracle(value=lambda x: 0.0, gradient=gradient),
            prox_g=prox_g, prox_h=prox_h, shape=(2, 2))
        zs = []
        run_tos(problem, SolverConfig(iters=5, step=StepRule.fixed(0.3)),
                np.full((2, 2), 0.4),
                iteration_hook=lambda t, g, u, z, x, y, yn: zs.append(np.array(z)))
        assert calls == ["g", "f", "h"] * 5
        for z, arg in zip(zs, seen_grad_args):
            np.testing.assert_array_equal(z, arg)  # gradient evaluated at z_t

    def test_iterate_feasibility(self):
        rng = make_rng(4)
        m = rng.standard_normal((3, 3))
        oracle = GradientOracle(
            value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
            gradient=lambda x: x - m)
        problem = CompositeProblem(
            oracle=oracle, prox_g=prox_box01(), prox_h=prox_box01(), shape=(3, 3))
        feas = []
        run_tos(problem, SolverConfig(iters=100, step=StepRule.fixed(0.5)),
                np.full((3, 3), 0.2),
                iteration_hook=lambda t, g, u, z, x, y, yn: feas.append(
                    float(np.max(np.maximum(z - 1, 0) + np.maximum(-z, 0)))))
        assert max(feas) <= 1e-12

    def test_reproducibility(self):
        rng = make_rng(6)
        m = rng.standard_normal((3, 3))
        oracle = GradientOracle(
            value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
            gradient=lambda x: x - m)
        noisy = gaussian_noise_oracle(oracle, 0.5)
        problem = CompositeProblem(
            oracle=oracle, prox_g=prox_box01(), prox_h=prox_box01(),
            shape=(3, 3), stochastic=noisy, batch=4)
        cfg = SolverConfig(iters=50, step=StepRule.fixed(0.3), seed=123, output="random")
        y1 = np.full((3, 3), 0.5)
        a = run_tos(problem, cfg, y1)
        b = run_tos(problem, cfg, y1)
        assert a.tau == b.tau
        np.testing.assert_array_equal(a.z_out, b.z_out)
        assert [r.objective for r in a.trace] == [r.objective for r in b.trace]

    def test_zero_variance_matches_deterministic(self):
        rng = make_rng(8)
        m = rng.standard_normal((2, 2))
        oracle = GradientOracle(
            value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
            gradient=lambda x: x - m)
        det = CompositeProblem(
            oracle=oracle, prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        sto = CompositeProblem(
            oracle=oracle, prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2),
            stochastic=gaussian_noise_oracle(oracle, 0.0), batch=7)
        cfg = SolverConfig(iters=64, step=StepRule.fixed(0.4), seed=3)
        y1 = np.full((2, 2), 0.1)
        za, zb = [], []
        run_tos(det, cfg, y1, iteration_hook=lambda t, g, u, z, x, y, yn: za.append(z.tobytes()))
        run_tos(sto, cfg, y1, iteration_hook=lambda t, g, u, z, x, y, yn: zb.append(z.tobytes()))
        assert za == zb

    def test_random_iterate_policy_snapshot(self):
        problem = scalar_problem(lambda v: (v - 2) ** 2, lambda v: 2 * (v - 2))
        cfg = SolverConfig(iters=30, step=StepRule.fixed(0.1), output="random", seed=9)
        zs = {}
        res = run_tos(problem, cfg, np.array([[0.5]]),
                      iteration_hook=lambda t, g, u, z, x, y, yn: zs.__setitem__(t, np.array(z)))
        assert 1 <= res.tau <= 30
        np.testing.assert_array_equal(res.z_out, zs[res.tau])

    def test_random_iterate_policy_replay(self):
        problem = scalar_problem(lambda v: (v - 2) ** 2, lambda v: 2 * (v - 2))
        cfg = SolverConfig(iters=SNAPSHOT_CAP + 30, step=StepRule.fixed(0.1),
                           output="random", seed=9)
        zs = {}
        res = run_tos(problem, cfg, np.array([[0.5]]),
                      iteration_hook=lambda t, g, u, z, x, y, yn: zs.__setitem__(t, np.array(z)))
        np.testing.assert_array_equal(res.z_out, zs[res.tau])

    @staticmethod
    def noisy_random_run(iters, seed, stop_when=None):
        """A noisy 2 x 2 run under output="random": (result, {t: z_t bytes},
        exact gradient calls)."""
        m = np.array([[0.3, 0.6], [0.8, 0.2]])
        calls = []
        oracle = GradientOracle(
            value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
            gradient=lambda x: calls.append(1) or x - m)
        identity = ProxOperator(lambda p, s: p)
        problem = CompositeProblem(
            oracle=oracle, prox_g=prox_box01(), prox_h=identity, shape=(2, 2),
            stochastic=gaussian_noise_oracle(oracle, 0.5), batch=2)
        cfg = SolverConfig(iters=iters, step=StepRule.fixed(0.2), output="random", seed=seed)
        zs = {}
        res = run_tos(problem, cfg, np.full((2, 2), 0.5), stop_when=stop_when,
                      iteration_hook=lambda t, g, u, z, x, y, yn: zs.__setitem__(t, z.tobytes()))
        return res, zs, len(calls)

    @pytest.mark.parametrize("iters, seed", [
        (SNAPSHOT_CAP - 1, 1), (SNAPSHOT_CAP, 1), (SNAPSHOT_CAP + 1, 3), (2 * SNAPSHOT_CAP + 3, 1)])
    def test_noisy_random_iterate_is_z_tau(self, iters, seed):
        res, zs, calls = self.noisy_random_run(iters, seed)
        stride = math.ceil(iters / SNAPSHOT_CAP)
        assert res.iterations_run == iters and 1 <= res.tau <= iters
        assert res.z_out.tobytes() == zs[res.tau]
        # The replay starts from the last mark s <= tau, where s = 1 (mod stride),
        # and takes one exact gradient per iteration.
        replayed = (res.tau - 1) % stride + 1
        assert calls == iters + replayed
        if stride > 1:
            # tau falls between marks, so the replay draws noise from a
            # restored generator before it reaches z_tau.
            assert replayed > 1

    @pytest.mark.parametrize("iters, seed", [
        (SNAPSHOT_CAP - 1, 1), (SNAPSHOT_CAP + 1, 3), (2 * SNAPSHOT_CAP + 3, 1)])
    def test_noisy_random_iterate_after_early_stop(self, iters, seed):
        # Strides 1, 2 and 3; at stride 2 the stop at t = 2048 falls where
        # the next mark would be taken.  At strides 2 and 3 the seed puts tau
        # between marks.
        stride = math.ceil(iters / SNAPSHOT_CAP)
        res, zs, _ = self.noisy_random_run(iters, seed, stop_when=lambda rec: rec.t == 2048)
        assert res.iterations_run == 2048 and len(zs) == 2048
        assert 1 <= res.tau <= res.iterations_run
        if stride > 1:
            assert (res.tau - 1) % stride > 0
        assert res.z_out.tobytes() == zs[res.tau]

    def test_divergence_reported_with_iteration(self):
        def cubic_gradient(x):
            x = np.asarray(x)
            if np.max(np.abs(x)) > 1e100:  # quartic growth escapes float range
                return np.sign(x) * np.inf
            return 4.0 * x**3

        identity = ProxOperator(lambda p, s: p)  # prox of the zero function

        problem = CompositeProblem(
            oracle=GradientOracle(value=lambda x: float(np.sum(x**2)),
                                  gradient=cubic_gradient),
            prox_g=identity, prox_h=identity, shape=(1, 1))
        with pytest.raises(DivergenceError) as err:
            run_tos(problem, SolverConfig(iters=100, step=StepRule.fixed(10.0)),
                    np.array([[2.0]]))
        assert err.value.iteration >= 1
        assert str(err.value) == f"non-finite iterate at iteration {err.value.iteration}"

    def test_shape_mismatch_rejected(self):
        problem = scalar_problem(lambda v: 0.0, lambda v: 0.0)
        with pytest.raises(ValueError):
            run_tos(problem, SolverConfig(iters=1, step=StepRule.fixed(1.0)), np.ones((2, 2)))

    def test_non_finite_start_named(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        y1 = np.full((2, 2), 0.5)
        y1[1, 0] = np.nan
        with pytest.raises(ValueError, match="y1 contains non-finite entries"):
            run_tos(problem, SolverConfig(iters=5, step=StepRule.fixed(0.5)), y1)


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("iters", 2.5), ("iters", True), ("iters", math.nan), ("seed", -1), ("seed", 1.5)])
    def test_bad_field_named(self, field, value):
        fields = {"iters": 5, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field}: expected an integer >= "):
            SolverConfig(step=StepRule.fixed(1.0), **fields)

    def test_unknown_output_policy_named(self):
        with pytest.raises(ValueError, match="^output policy must be 'last' or 'random', got 'best'$"):
            SolverConfig(iters=5, step=StepRule.fixed(1.0), output="best")

    def test_numpy_integers_accepted(self):
        config = SolverConfig(iters=np.int64(5), step=StepRule.fixed(1.0), seed=np.uint32(3))
        assert (config.iters, config.seed) == (5, 3)


class TestCompositeProblem:
    @pytest.mark.parametrize("batch", [2.0, 2.5, "2", True, 0, -1])
    def test_batch_must_be_a_positive_integer(self, batch):
        with pytest.raises(ValueError, match="batch"):
            CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                             shape=(2, 2), batch=batch)

    @pytest.mark.parametrize("name", ["d_g", "g_f", "l_g", "l_h"])
    @pytest.mark.parametrize("value", [math.nan, True])
    def test_constants_must_be_nonnegative_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: expected a number >= 0"):
            CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                             shape=(2, 2), **{name: value})

    def test_infinite_and_numpy_constants_accepted(self):
        # gradient_bound overflows to +inf on huge entries; the run then
        # reports the divergence itself.
        for value in (math.inf, np.float64(2.0), np.float32(0.5)):
            CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                             shape=(2, 2), d_g=value, g_f=value, l_g=value, l_h=value)

    @pytest.mark.parametrize("name, kind", [("oracle", "GradientOracle"),
                                            ("prox_g", "ProxOperator"),
                                            ("prox_h", "ProxOperator")])
    def test_callable_in_place_of_an_operator_names_the_field(self, name, kind):
        fields = dict(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                      shape=(2, 2))
        fields[name] = lambda *args: args[0]
        with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got <function"):
            CompositeProblem(**fields)

    def test_stochastic_must_be_a_stochastic_oracle(self):
        with pytest.raises(ValueError, match="^stochastic must be None or a "
                                             "StochasticGradientOracle, got GradientOracle"):
            CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                             shape=(2, 2), stochastic=zero_oracle())

    @pytest.mark.parametrize("shape, message", [
        ([3, 3], r"^shape must be a tuple of integers >= 1, got \[3, 3\]$"),
        ((3, 3.0), r"^shape\[1\]: expected an integer >= 1, got 3.0$"),
        ((0, 3), r"^shape\[0\]: expected an integer >= 1, got 0$"),
        ((True, 3), r"^shape\[0\]: expected an integer >= 1, got True$"),
    ], ids=["list", "float", "zero", "bool"])
    def test_shape_must_be_a_tuple_of_positive_integers(self, shape, message):
        with pytest.raises(ValueError, match=message):
            CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(),
                             shape=shape)

    def test_numpy_integer_batch_accepted(self):
        problem = CompositeProblem(oracle=zero_oracle(), prox_g=prox_box01(),
                                   prox_h=prox_box01(), shape=(2, 2), batch=np.int64(3))
        assert problem.batch == 3


class TestCertificate:
    def test_hand_worked_scalar_case(self):
        # f(x) = x, g = h = 0, gamma = 1, y1 = 0: z1 = 0, x1 = -1, y2 = -1;
        # with x_ref = 0 both sides equal -1, so the residual is 0.
        one = np.array([[1.0]])
        zero = np.array([[0.0]])
        r = certificate_residual(
            1.0, one, -one, zero, zero, -one, zero,
            lambda v: 0.0, lambda v: 0.0)
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_stationary_trajectory_residual(self):
        problem = CompositeProblem(
            oracle=zero_oracle(), prox_g=prox_box01(), prox_h=prox_box01(), shape=(2, 2))
        y1 = np.full((2, 2), 0.5)
        recs = []
        run_tos(problem, SolverConfig(iters=10, step=StepRule.fixed(1.0)), y1,
                iteration_hook=lambda t, g, u, z, x, y, yn: recs.append(
                    certificate_residual(g, u, x, z, y, yn, y1,
                                         problem.prox_g.value, problem.prox_h.value)))
        assert all(abs(r) <= 1e-15 for r in recs)

    def test_property_sweep_random_references(self):
        rng = make_rng(21)
        box = prox_box01()
        for trial in range(10):
            m = rng.standard_normal((3, 3)) * 2
            oracle = GradientOracle(
                value=lambda x, m=m: 0.5 * frobenius_norm(x - m) ** 2,
                gradient=lambda x, m=m: x - m)
            problem = CompositeProblem(
                oracle=oracle, prox_g=box, prox_h=box, shape=(3, 3))
            refs = [rng.uniform(0, 1, (3, 3)) for _ in range(5)]
            worst = [-np.inf]

            def hook(t, g, u, z, x, y, yn):
                for ref in refs:
                    worst[0] = max(worst[0], certificate_residual(
                        g, u, x, z, y, yn, ref, box.value, box.value))

            run_tos(problem, SolverConfig(iters=40, step=StepRule.fixed(0.37)),
                    rng.uniform(0, 1, (3, 3)), iteration_hook=hook)
            assert worst[0] <= 1e-9


class TestStationarityGap:
    @staticmethod
    def birkhoff_lmo(grad):
        return permutation_to_matrix(solve_lap_min(grad).permutation)

    def test_zero_gradient(self):
        grad = np.zeros((3, 3))
        assert stationarity_gap(grad, np.eye(3), self.birkhoff_lmo(grad)) == 0.0

    def test_lmo_fixed_point(self):
        rng = make_rng(1)
        grad = rng.standard_normal((4, 4))
        z = self.birkhoff_lmo(grad)
        assert stationarity_gap(grad, z, self.birkhoff_lmo(grad)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_permutation_enumeration(self, n):
        rng = make_rng(n)
        grad = rng.standard_normal((n, n))
        z = permutation_to_matrix(solve_lap_min(rng.standard_normal((n, n))).permutation)
        got = stationarity_gap(grad, z, self.birkhoff_lmo(grad))
        want = max(
            frobenius_inner(grad, z - permutation_to_matrix(
                __import__("tosqap").lap.Permutation(n, p)))
            for p in itertools.permutations(range(n)))
        assert got == pytest.approx(want, abs=1e-9)


class TestProductSpace:
    def test_theory_step_refused(self):
        with pytest.raises(ValueError, match="^product-space runs require a fixed or 1/L step rule$"):
            run_tos_product_space(zero_oracle(), [prox_box01()],
                                  SolverConfig(iters=5, step=StepRule(kind="theory")),
                                  np.full((2, 2), 0.5))

    def test_empty_start_named(self):
        with pytest.raises(ValueError, match=r"^y1 must be 2-D with positive dimensions, "
                                             r"got shape \(0, 2\)$"):
            run_tos_product_space(zero_oracle(), [prox_box01()],
                                  SolverConfig(iters=5, step=StepRule.fixed(0.5)), np.ones((0, 2)))

    def test_identical_indicators_fixed_point(self):
        y1 = np.full((2, 2), 0.5)
        res = run_tos_product_space(
            zero_oracle(), [prox_box01(), prox_box01(), prox_box01()],
            SolverConfig(iters=15, step=StepRule.fixed(0.5)), y1)
        np.testing.assert_allclose(res.x_out, y1, atol=1e-14)

    def test_single_block_matches_two_operator_run(self):
        oracle = GradientOracle(
            value=lambda x: (float(x[0, 0]) - 2) ** 2,
            gradient=lambda x: np.array([[2 * (float(x[0, 0]) - 2)]]))
        grid = np.linspace(0.0, 1.0, 100001)
        expected = grid[np.argmin((grid - 2.0) ** 2)]
        res = run_tos_product_space(
            oracle, [prox_box01()],
            SolverConfig(iters=2000, step=StepRule.fixed(0.1)), np.array([[0.5]]))
        assert abs(float(res.x_out[0, 0]) - expected) <= 1e-3

    def test_block_residuals_trend_down(self):
        rng = make_rng(30)
        y1 = rng.standard_normal((3, 3))
        res = run_tos_product_space(
            zero_oracle(), [prox_box01(), ProxOperator(
                lambda p, s: __import__("tosqap").project_affine_doubly_stochastic(p))],
            SolverConfig(iters=512, step=StepRule.fixed(0.5)), y1)
        assert res.block_residuals[-1] < res.block_residuals[0]

    def test_random_output_returns_x_tau(self):
        y1 = make_rng(31).standard_normal((3, 3))
        proxes = [prox_box01(), ProxOperator(
            lambda p, s: __import__("tosqap").project_affine_doubly_stochastic(p))]

        def run(iters, **kw):
            cfg = SolverConfig(iters=iters, step=StepRule.fixed(0.5), **kw)
            return run_tos_product_space(zero_oracle(), proxes, cfg, y1)

        res = run(40, output="random", seed=5)
        assert res.tau == 27  # the draw of make_rng(5) over 1..40
        # The iteration is deterministic, so x_tau is the last iterate of a
        # tau-iteration run.
        np.testing.assert_array_equal(res.x_out, run(res.tau).x_out)
        assert not np.array_equal(res.x_out, run(40).x_out)

    def test_certificate_nonpositive_from_feasible_start(self):
        # ones/n lies in the row, column and box sets, so the stacked start
        # is in dom(g + h) and every certificate is <= 0 up to rounding.
        n = 4
        proxes = [prox_row_stochastic(), prox_col_stochastic(), prox_box01()]
        for seed in range(5):
            rng = make_rng(300 + seed)
            inst = QapInstance("r", rng.uniform(0, 1, (n, n)), rng.uniform(0, 1, (n, n)))
            step = StepRule.inv_smoothness(estimate_smoothness(inst))
            res = run_tos_product_space(qap_oracle(inst), proxes,
                                        SolverConfig(iters=64, step=step), np.ones((n, n)) / n)
            certs = [r.certificate for r in res.trace]
            assert len(certs) == 7
            assert all(np.isfinite(c) and c <= 1e-9 for c in certs), certs

    def test_non_finite_start_named(self):
        y1 = np.full((2, 2), 0.5)
        y1[0, 1] = np.nan
        with pytest.raises(ValueError, match="y1 contains non-finite entries"):
            run_tos_product_space(zero_oracle(), [prox_box01(), prox_box01()],
                                  SolverConfig(iters=5, step=StepRule.fixed(0.5)), y1)

    def test_empty_prox_list_rejected(self):
        with pytest.raises(ValueError):
            run_tos_product_space(zero_oracle(), [],
                                  SolverConfig(iters=1, step=StepRule.fixed(1.0)),
                                  np.ones((1, 1)))

    def test_non_operator_entry_named(self):
        # Rejected before the first iteration, not at the first trace row.
        with pytest.raises(ValueError, match=r"^prox_list\[1\] must be a ProxOperator"):
            run_tos_product_space(zero_oracle(), [prox_box01(), lambda p, s: p],
                                  SolverConfig(iters=1, step=StepRule.fixed(1.0)),
                                  np.ones((2, 2)))


def per_block_product_space(oracle, prox_list, config, y1):
    """The consensus run with h applied one block at a time: block 0 as is,
    block i through ``prox_list[i - 1]`` on its own."""
    m = len(prox_list)
    zero = np.zeros_like(y1)
    problem = CompositeProblem(
        oracle=GradientOracle(
            value=lambda z: oracle.value(z[0]),
            gradient=lambda z: np.array([oracle.gradient(z[0])] + [zero] * m)),
        prox_g=ProxOperator(lambda p, scale: p.sum(axis=0, keepdims=True) / len(p)),
        prox_h=ProxOperator(
            lambda p, scale: np.array(
                [p[0]] + [prox(p[i], scale) for i, prox in enumerate(prox_list, 1)]),
            lambda x: sum(prox.value(x[i]) for i, prox in enumerate(prox_list, 1))),
        shape=(m + 1,) + y1.shape)
    return run_tos(problem, config, np.array([y1] * (m + 1)))


def chr12a_case():
    inst = load_instance(importlib.resources.files("tosqap") / "data" / "chr12a.dat")
    step = StepRule.inv_smoothness(estimate_smoothness(inst))
    return qap_oracle(inst), SolverConfig(iters=64, step=step), initial_point(12, 0)


def quadratic_case(shape, seed):
    # f(x) = ||x - c||^2 / 2 on a matrix of any shape.
    c = make_rng(seed).standard_normal(shape)
    oracle = GradientOracle(value=lambda x: 0.5 * frobenius_norm(x - c) ** 2,
                            gradient=lambda x: x - c)
    return (oracle, SolverConfig(iters=64, step=StepRule.fixed(0.5)),
            make_rng(seed + 1).standard_normal(shape))


ROW, COL, BOX = prox_row_stochastic(), prox_col_stochastic(), prox_box01()
#: The prox of s ||x||^2 / 2: an operator the product-space prox cannot batch.
SHRINK = ProxOperator(lambda p, scale: p / (1.0 + scale),
                      lambda x: 0.5 * frobenius_norm(x) ** 2)


def trace_bytes(trace):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in vars(r).items()}
            for r in trace]


class TestProductSpaceProx:
    """The consensus h-prox projects its simplex blocks of equal row length
    in one call; every output byte is that of one call per block."""

    @pytest.mark.parametrize("case, prox_list", [
        (chr12a_case, [ROW, COL, BOX]),
        (chr12a_case, [COL, ROW]),
        (chr12a_case, [ROW, ROW, COL]),
        (chr12a_case, [BOX]),
        (chr12a_case, [prox_affine_doubly_stochastic(), COL]),
        (chr12a_case, [SHRINK, COL, ROW]),
        (lambda: quadratic_case((3, 5), 40), [ROW, COL]),
        (lambda: quadratic_case((3, 5), 41), [COL, BOX, ROW, COL]),
        (lambda: quadratic_case((1, 1), 42), [ROW, COL, BOX]),
    ], ids=["row-col-box", "col-row", "row-row-col", "box", "affine-col", "custom-col-row",
            "3x5-row-col", "3x5-col-box-row-col", "n1"])
    def test_matches_per_block_loop(self, case, prox_list):
        oracle, config, y1 = case()
        got = run_tos_product_space(oracle, prox_list, config, y1)
        want = per_block_product_space(oracle, prox_list, config, y1)
        assert got.x_out.tobytes() == want.z_out[0].tobytes()
        assert got.z_out.tobytes() == want.z_out.tobytes()
        assert trace_bytes(got.trace) == trace_bytes(want.trace)
        assert got.iterations_run == want.iterations_run == config.iters

    @pytest.mark.parametrize("case, prox_list, calls", [
        (chr12a_case, [ROW, COL, BOX], 1),
        (lambda: quadratic_case((3, 5), 43), [ROW, COL, ROW], 2),  # rows of 5 and of 3
    ], ids=["chr12a-row-col-box", "3x5-row-col-row"])
    def test_one_simplex_call_per_row_length(self, monkeypatch, case, prox_list, calls):
        oracle, config, y1 = case()
        count = [0]
        project = prox_module.project_simplex

        def counted(v):
            count[0] += 1
            return project(v)

        monkeypatch.setattr(prox_module, "project_simplex", counted)
        run_tos_product_space(oracle, prox_list, config, y1)
        assert count[0] == calls * config.iters
