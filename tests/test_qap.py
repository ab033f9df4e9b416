import hashlib
import itertools
import importlib.resources
import math
import warnings

import numpy as np
import pytest

from tosqap import (
    DivergenceError,
    QapInstance,
    QaplibParseError,
    SolverConfig,
    StepRule,
    assignment_error,
    estimate_smoothness,
    frobenius_norm,
    gradient_bound,
    infeasibility_error,
    initial_point,
    load_best_known,
    load_instance,
    make_rng,
    nonstationarity_error,
    parse_qaplib,
    permutation_objective,
    permutation_to_matrix,
    qap_gradient,
    qap_objective,
    relax_and_round,
    round_to_permutation,
    split_diameter,
)
from tosqap import fw, lap, linalg, prox, qap, solver
from tosqap.lap import Permutation
from tosqap.qap import SPLIT1, SPLIT2, SPLITS, build_problem, qap_oracle, split_proxes


def random_instance(n, seed, best_known=None):
    rng = make_rng(seed)
    return QapInstance(
        name=f"rand{n}s{seed}",
        a=rng.uniform(0, 10, (n, n)),
        b=rng.uniform(0, 10, (n, n)),
        best_known=best_known,
    )


def chr12a_path():
    return importlib.resources.files("tosqap") / "data" / "chr12a.dat"


class TestParsing:
    def test_small_round_trip(self):
        inst = parse_qaplib("2  0 1 1 0  0 2 2 0", name="tiny")
        assert inst.n == 2
        np.testing.assert_array_equal(inst.a, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(inst.b, [[0, 2], [2, 0]])
        assert inst.name == "tiny"

    def test_newline_and_space_insensitive(self):
        a = parse_qaplib("2\n0 1\n1 0\n\n0 2\n2 0\n")
        b = parse_qaplib("2 0 1 1 0 0 2 2 0")
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.b, b.b)

    def test_empty_file(self):
        with pytest.raises(QaplibParseError, match="empty"):
            parse_qaplib("   \n  ")

    def test_bad_dimension_token(self):
        with pytest.raises(QaplibParseError, match="token 1"):
            parse_qaplib("abc 1 2 3")

    def test_nonpositive_dimension(self):
        with pytest.raises(QaplibParseError, match="positive"):
            parse_qaplib("0")

    def test_wrong_token_count(self):
        with pytest.raises(QaplibParseError, match="expected 9 tokens"):
            parse_qaplib("2 0 1 1 0 0 2 2")

    def test_bad_entry_names_position(self):
        # 1 + (k-2) matrix entries precede token k
        with pytest.raises(QaplibParseError, match="token 5"):
            parse_qaplib("2 0 1 1 x 0 2 2 0")

    @pytest.mark.parametrize("tok", ["nan", "inf", "-Infinity"])
    def test_non_finite_entry_names_position(self, tok):
        with pytest.raises(QaplibParseError, match=f"token 7: expected a finite number, got '{tok}'"):
            parse_qaplib(f"2 0 1 1 0 0 {tok} 2 0")

    def test_load_instance_and_best_known(self, tmp_path):
        p = tmp_path / "tiny.dat"
        p.write_text("2 0 1 1 0 0 2 2 0")
        inst = load_instance(p, best_known=4.0)
        assert inst.name == "tiny"
        assert inst.best_known == 4.0
        side = tmp_path / "best.txt"
        side.write_text("# comment\ntiny 4\nother 12.5\n\n")
        assert load_best_known(side) == {"tiny": 4.0, "other": 12.5}

    def test_load_instance_names_the_file(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("2 0 x 1 0 0 2 2 0")
        with pytest.raises(QaplibParseError) as err:
            load_instance(p)
        assert str(err.value) == f"{p}: token 3: expected a finite number, got 'x'"

    @pytest.mark.parametrize("bad", ["tiny", "tiny 4 extra", "tiny four",
                                     "tiny nan", "tiny inf", "tiny -Infinity"])
    def test_best_known_malformed_line_names_file_and_line(self, tmp_path, bad):
        side = tmp_path / "best.txt"
        side.write_text(f"# comment\nother 12.5\n\n{bad}\n")
        with pytest.raises(ValueError, match=f"best.txt:4: expected 'name value', got '{bad}'"):
            load_best_known(side)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"^B must have shape \(2, 2\), got \(3, 3\)"):
            QapInstance("bad", np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="^A must be an array of real numbers"):
            QapInstance("x", [["a"]], [[1.0]])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "9552"])
    def test_best_known_must_be_a_finite_number(self, tmp_path, value):
        with pytest.raises(ValueError, match="best_known: expected a finite number"):
            QapInstance("bad", np.ones((2, 2)), np.ones((2, 2)), best_known=value)
        p = tmp_path / "tiny.dat"
        p.write_text("2 0 1 1 0 0 2 2 0")
        with pytest.raises(ValueError, match="best_known: expected a finite number"):
            load_instance(p, best_known=value)


class TestObjectiveGradient:
    def test_identity_assignment_value(self):
        inst = parse_qaplib("2 0 1 1 0 0 2 2 0")
        # X = I: trace(A B^T) = sum_ij A_ij B_ij = 1*2 + 1*2 = 4
        assert qap_objective(inst, np.eye(2)) == 4.0
        assert permutation_objective(inst, Permutation(2, (0, 1))) == 4.0

    def test_swap_assignment_value(self):
        inst = parse_qaplib("2 0 1 1 0 0 2 2 0")
        swap = permutation_to_matrix(Permutation(2, (1, 0)))
        assert qap_objective(inst, swap) == permutation_objective(inst, Permutation(2, (1, 0)))

    def test_matrix_and_permutation_forms_agree(self):
        inst = random_instance(5, 1)
        for p in itertools.permutations(range(5)):
            perm = Permutation(5, p)
            assert qap_objective(inst, permutation_to_matrix(perm)) == pytest.approx(
                permutation_objective(inst, perm), rel=1e-12)

    def test_integer_data_values_exact(self):
        rng = make_rng(2)
        inst = QapInstance("int", rng.integers(0, 9, (4, 4)).astype(float),
                           rng.integers(0, 9, (4, 4)).astype(float))
        for _ in range(5):
            p = Permutation(4, tuple(int(i) for i in rng.permutation(4)))
            v = permutation_objective(inst, p)
            assert v == int(v)
            assert qap_objective(inst, permutation_to_matrix(p)) == v

    def test_gradient_finite_differences(self):
        inst = random_instance(4, 3)
        rng = make_rng(4)
        eps = 1e-6
        for _ in range(20):
            x = rng.standard_normal((4, 4))
            d = rng.standard_normal((4, 4))
            d /= frobenius_norm(d)
            fd = (qap_objective(inst, x + eps * d) - qap_objective(inst, x - eps * d)) / (2 * eps)
            an = float(np.sum(qap_gradient(inst, x) * d))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_oracle_wraps_instance(self):
        inst = random_instance(3, 5)
        oracle = qap_oracle(inst)
        x = make_rng(6).standard_normal((3, 3))
        assert oracle.value(x) == qap_objective(inst, x)
        np.testing.assert_array_equal(oracle.gradient(x), qap_gradient(inst, x))

    def test_shape_check(self):
        inst = random_instance(3, 7)
        with pytest.raises(ValueError):
            qap_objective(inst, np.ones((2, 2)))


class TestSmoothness:
    def test_identity_pair(self):
        # Hessian map D -> D + D is 2 * identity
        inst = QapInstance("eye", np.eye(2), np.eye(2))
        assert estimate_smoothness(inst) == pytest.approx(2.0, rel=1e-6)

    def test_scaling_linearity(self):
        inst = random_instance(4, 8)
        scaled = QapInstance("s", 3.0 * inst.a, inst.b)
        assert estimate_smoothness(scaled) == pytest.approx(
            3.0 * estimate_smoothness(inst), rel=1e-5)

    def test_matches_dense_operator_norm(self):
        # Independent oracle: materialize the n^2 x n^2 Hessian matrix and
        # take its spectral norm.
        inst = random_instance(4, 9)
        n = inst.n
        dense = np.zeros((n * n, n * n))
        for k in range(n * n):
            e = np.zeros((n, n))
            e.flat[k] = 1.0
            dense[:, k] = (inst.a @ e @ inst.b.T + inst.a.T @ e @ inst.b).ravel()
        want = np.linalg.norm(dense, 2)
        assert estimate_smoothness(inst) == pytest.approx(want, rel=1e-5)

    def test_zero_instance_rejected(self):
        with pytest.raises(ValueError):
            estimate_smoothness(QapInstance("z", np.zeros((2, 2)), np.zeros((2, 2))))

    def test_all_zero_hessian_map_rejected(self):
        # A antisymmetric, B = I: A D + A^T D = 0 for every D, though A != 0.
        a = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
        with pytest.raises(ValueError, match="D -> A D B\\^T \\+ A\\^T D B is all-zero"):
            estimate_smoothness(QapInstance("antisym", a, np.eye(3)))

    def test_cap_reached_warns(self, monkeypatch):
        monkeypatch.setattr(qap, "SMOOTHNESS_MAX_ITERS", 2)
        with pytest.warns(RuntimeWarning,
                          match=r"SMOOTHNESS_MAX_ITERS = 2 .*last relative change \d"):
            lam = estimate_smoothness(random_instance(6, 10))
        assert np.isfinite(lam) and lam > 0

    def test_chr12a_converges_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_smoothness(load_instance(chr12a_path()))


class TestSplitGeometry:
    def test_diameters(self):
        assert split_diameter(2, SPLIT1) == pytest.approx(2.0)
        assert split_diameter(8, SPLIT1) == pytest.approx(4.0)
        assert split_diameter(3, SPLIT2) == 3.0

    def test_diameter_is_achieved_split1(self):
        # Two row-stochastic matrices at distance sqrt(2 n): opposite
        # vertices in every row simplex.
        n = 5
        x = np.zeros((n, n))
        y = np.zeros((n, n))
        x[:, 0] = 1.0
        y[:, 1] = 1.0
        assert frobenius_norm(x - y) == pytest.approx(split_diameter(n, SPLIT1))

    def test_diameter_is_achieved_split2(self):
        n = 4
        assert frobenius_norm(np.ones((n, n)) - np.zeros((n, n))) == split_diameter(n, SPLIT2)

    def test_gradient_bound_dominates_samples(self):
        inst = random_instance(4, 10)
        rng = make_rng(11)
        for split, feas in ((SPLIT1, lambda: rng.dirichlet(np.ones(4), size=4)),
                            (SPLIT2, lambda: rng.uniform(0, 1, (4, 4)))):
            bound = gradient_bound(inst, split)
            for _ in range(50):
                assert frobenius_norm(qap_gradient(inst, feas())) <= bound + 1e-9

    def test_split_proxes_tags(self):
        # The two splittings project onto different sets: a fixed matrix
        # goes to the row- and column-stochastic sets under split1, to the
        # box and the affine subspace under split2.
        x = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0], [-2.0, 0.5, 0.25]])
        g1, h1 = split_proxes(SPLIT1)
        g2, h2 = split_proxes(SPLIT2)
        np.testing.assert_allclose(g1(x).sum(axis=1), 1.0)
        np.testing.assert_allclose(h1(x).sum(axis=0), 1.0)
        np.testing.assert_array_equal(g2(x), np.clip(x, 0.0, 1.0))
        np.testing.assert_allclose(h2(x).sum(axis=0), 1.0)
        assert not np.allclose(g1(x), g2(x))
        assert not np.allclose(h1(x), h2(x))
        with pytest.raises(ValueError):
            split_proxes("split3")


class TestErrors:
    def test_infeasibility_zero_on_feasible(self):
        assert infeasibility_error(np.eye(3), SPLIT1) == 0.0
        assert infeasibility_error(np.eye(3), SPLIT2) == pytest.approx(0.0, abs=1e-15)

    def test_infeasibility_zero_matrix_split2(self):
        # dist(0, affine set) = ||(1/n) 1 1^T|| = 1, normalized by sqrt(n)
        n = 2
        got = infeasibility_error(np.zeros((n, n)), SPLIT2)
        assert got == pytest.approx(1.0 / np.sqrt(n))

    def test_infeasibility_row_stochastic_not_col(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert infeasibility_error(x, SPLIT1) > 0.1

    @pytest.mark.parametrize("split, project", [
        (SPLIT1, prox.project_col_stochastic), (SPLIT2, prox.project_affine_doubly_stochastic)])
    def test_infeasibility_is_the_checked_projection_distance(self, split, project):
        # Reference: the distance to the split's second set through the
        # public, checked projection onto it.
        rng = make_rng(22)
        for n in (1, 2, 3, 7, 12):
            for _ in range(40):
                x = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
                want = frobenius_norm(x - project(x)) / math.sqrt(n)
                assert infeasibility_error(x, split).hex() == want.hex()
                assert infeasibility_error(x.tolist(), split).hex() == want.hex()

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("x", [np.ones((2, 3)), np.array([[0.5, np.nan], [0.5, 0.5]])],
                             ids=["non-square", "nan"])
    def test_infeasibility_checks_x(self, split, x):
        with pytest.raises(ValueError, match="^x "):
            infeasibility_error(x, split)

    @pytest.mark.parametrize("fn", [
        lambda x: nonstationarity_error(QapInstance("eye", np.eye(2), np.eye(2)), x),
        round_to_permutation], ids=["nonstationarity", "rounding"])
    @pytest.mark.parametrize("x", [np.ones((2, 3)), np.array([[0.5, np.nan], [0.5, 0.5]])],
                             ids=["non-square", "nan"])
    def test_x_is_named(self, fn, x):
        with pytest.raises(ValueError, match="^x "):
            fn(x)

    def test_nonstationarity_zero_at_strict_minimizer(self):
        # A = B = I: f(X) = ||X||_F^2 over the polytope; gradient at the
        # uniform matrix is constant, every vertex ties, numerator is 0.
        n = 3
        inst = QapInstance("eye", np.eye(n), np.eye(n))
        assert nonstationarity_error(inst, np.full((n, n), 1.0 / n)) == pytest.approx(0.0, abs=1e-12)

    def test_nonstationarity_numerator_matches_enumeration(self):
        inst = random_instance(5, 12)
        rng = make_rng(13)
        for _ in range(10):
            x = rng.dirichlet(np.ones(5), size=5)
            grad = qap_gradient(inst, x)
            best = min(sum(grad[i, p[i]] for i in range(5))
                       for p in itertools.permutations(range(5)))
            want = abs(float(np.sum(grad * x)) - best) / max(qap_objective(inst, x), 1.0)
            assert nonstationarity_error(inst, x) == pytest.approx(want, rel=1e-12)

    def test_rounding_matches_enumeration(self):
        rng = make_rng(14)
        for n in (2, 3, 5, 7):
            x = rng.standard_normal((n, n))
            got = round_to_permutation(x)
            want = max(itertools.permutations(range(n)),
                       key=lambda p: sum(x[i, p[i]] for i in range(n)))
            assert got.mapping == want

    def test_rounding_recovers_permutation(self):
        p = Permutation(6, (3, 1, 5, 0, 2, 4))
        noisy = permutation_to_matrix(p) + 0.2 * make_rng(15).standard_normal((6, 6))
        assert round_to_permutation(noisy) == p

    def test_assignment_error_cases(self):
        assert assignment_error(12.0, 10.0) == pytest.approx(0.2)
        assert assignment_error(10.0, 10.0) == 0.0
        assert assignment_error(5.0, 0.5) == pytest.approx(4.5)  # denominator floor at 1
        assert assignment_error(7.0, None) is None


class TestInitialPoint:
    def test_deterministic(self):
        np.testing.assert_array_equal(initial_point(5, 3), initial_point(5, 3))

    def test_seed_changes_point(self):
        assert not np.array_equal(initial_point(5, 3), initial_point(5, 4))

    def test_golden_digest(self):
        # Pins the bytes of the shared start: sort, cumsum and elementwise
        # arithmetic only, so the digest does not depend on BLAS threads.
        x = initial_point(12, 0)
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "6b4e6c01763c5adcbe6a4eb3e1b8583f2fc0b670689c4b7661c28e1bc6f17e35")

    @pytest.mark.parametrize("n, seed, message", [
        (1.5, 0, "n: expected an integer >= 1, got 1.5"),
        (3, -1, "seed: expected an integer >= 0, got -1"),
        (0, 0, "n: expected an integer >= 1, got 0")], ids=["float-n", "negative-seed", "zero-n"])
    def test_bad_arguments_named(self, n, seed, message):
        with pytest.raises(ValueError) as err:
            initial_point(n, seed)
        assert str(err.value) == message

    def test_near_doubly_stochastic(self):
        x = initial_point(8, 0)
        assert np.all(x >= 0)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(x.sum(axis=0) - 1.0)) <= 1e-4


class TestPipeline:
    def test_build_problem_constants(self):
        inst = random_instance(4, 16)
        prob = build_problem(inst, SPLIT1)
        assert prob.shape == (4, 4)
        assert prob.d_g == pytest.approx(split_diameter(4, SPLIT1))
        assert prob.g_f == pytest.approx(gradient_bound(inst, SPLIT1))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, True])
    def test_bad_tol_named(self, tol):
        inst = random_instance(3, 2)
        with pytest.raises(ValueError, match="^tol: expected a number >= 0"):
            relax_and_round(inst, SPLIT2, SolverConfig(iters=2, step=StepRule.fixed(0.1)), tol=tol)

    def test_infinite_tol_stops_at_first_checkpoint(self):
        res = relax_and_round(random_instance(3, 2), SPLIT2,
                              SolverConfig(iters=8, step=StepRule.fixed(0.1)), tol=np.float64(np.inf))
        assert res.run.iterations_run == 1

    def test_single_site(self):
        inst = QapInstance("one", np.array([[2.0]]), np.array([[3.0]]), best_known=6.0)
        res = relax_and_round(inst, SPLIT2, SolverConfig(iters=10, step=StepRule.fixed(0.01)))
        assert res.permutation.mapping == (0,)
        assert res.rounded_value == 6.0
        assert res.assignment_err == 0.0

    def test_two_sites_finds_better_assignment(self):
        # A couples the two sites; B makes one pairing strictly cheaper.
        inst = QapInstance("pair",
                           np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([[0.0, 5.0], [1.0, 0.0]]))
        best = min(permutation_objective(inst, Permutation(2, p))
                   for p in itertools.permutations(range(2)))
        res = relax_and_round(inst, SPLIT2,
                              SolverConfig(iters=200, step=StepRule.inv_smoothness()))
        assert res.rounded_value == pytest.approx(best)

    @pytest.mark.parametrize("split", [SPLIT1, SPLIT2])
    def test_random_instance_metrics_reported(self, split):
        inst = random_instance(6, 17, best_known=None)
        res = relax_and_round(inst, split,
                              SolverConfig(iters=300, step=StepRule.inv_smoothness()),
                              tol=1e-4)
        assert res.infeasibility < 1e-3
        assert res.nonstationarity >= 0.0
        assert res.assignment_err is None
        assert sorted(res.permutation.mapping) == list(range(6))
        assert res.rounded_value == pytest.approx(
            permutation_objective(inst, res.permutation), rel=1e-12)

    def test_chr12a_bundled_instance(self):
        inst = load_instance(chr12a_path(), best_known=9552.0)
        assert inst.n == 12
        # Published optimal assignment, given site -> facility one-based.
        one_based = (7, 5, 12, 2, 1, 3, 9, 11, 10, 6, 8, 4)
        perm = Permutation(12, tuple(v - 1 for v in one_based))
        assert permutation_objective(inst, perm) == 9552.0

    def test_chr12a_short_run_converges(self):
        inst = load_instance(chr12a_path(), best_known=9552.0)
        res = relax_and_round(inst, SPLIT2,
                              SolverConfig(iters=4096, step=StepRule.inv_smoothness()),
                              tol=1e-5)
        assert res.infeasibility < 1e-5
        assert res.nonstationarity < 1e-5
        assert res.assignment_err is not None and res.assignment_err < 1.0

    # random_instance(6, 17) meets tol 1e-3 at checkpoint 512 on both splits;
    # a 300 cap ends on a checkpoint that is not a power of two.
    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("iters, tol, stop", [(1000, 1e-3, 512), (300, None, 300)],
                             ids=["tol", "cap"])
    def test_reported_numbers_are_the_iterates(self, split, iters, tol, stop):
        inst = random_instance(6, 17)
        res = relax_and_round(inst, split,
                              SolverConfig(iters=iters, step=StepRule.inv_smoothness()), tol=tol)
        assert res.run.iterations_run == stop
        x = res.relaxed_iterate
        got = (res.relaxed_value, res.infeasibility, res.nonstationarity)
        want = (qap_objective(inst, x), infeasibility_error(x, split),
                nonstationarity_error(inst, x))
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_random_output_rejected(self):
        config = SolverConfig(iters=10, step=StepRule.fixed(0.1), output="random")
        with pytest.raises(ValueError, match="output must be 'last'"):
            relax_and_round(random_instance(4, 18), SPLIT1, config)

    def test_theory_step_rule_runs(self):
        inst = random_instance(4, 18)
        res = relax_and_round(inst, SPLIT1,
                              SolverConfig(iters=64, step=StepRule(kind="theory")))
        assert res.run.iterations_run == 64


TRACE_FIELDS = ("t", "objective", "coupling", "certificate", "infeasibility", "nonstationarity")


def trace_digest(trace, fields=TRACE_FIELDS):
    rows = [[getattr(r, name) for name in fields] for r in trace]
    return hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()


class TestIterationPath:
    """Inputs are checked once where they enter; the loop only checks that
    each iterate is finite.  Neither changes a bit of the iteration."""

    # chr12a, start initial_point(12, 0), step 1/L, 512 iterations, no
    # early stop: sha256 of the relaxed iterate, of the trace rows, and of
    # the trace rows without the nonstationarity column.  At n = 12 they
    # hold at one and two OpenBLAS threads.  The nonstationarity column is
    # |stationarity_gap| / max{f, 1}; the other five columns are pinned on
    # their own so that a change to that one formula shows nowhere else.
    GOLDEN = {
        SPLIT1: ("007b4e8e72255dbc095457607019db5176435f0a9a96b8705acfa8ddec0c57e9",
                 "8c77fd11b881477c5f4b9f95371cacad09fbcccc8ecdfb7f5d956e645a602494",
                 "0fc9f2ba520633cf61d3ac8247b29029fa38878692ea3f7a97faee504b030749"),
        SPLIT2: ("a140d40f4b2ab7750f7b320a7353521e23b5eae290f5ffc791efba5c16af5963",
                 "6c32ebc6fcb828d4d8a7e27c4e919f42058c0117b21745b2ed3323038281a327",
                 "c669b3ff1feafeab0965ad95ccf64b7ec2f8035d9353b14cdd08dbee090cd794"),
    }
    # run_tos_product_space over the row, column and box proxes, same start,
    # step and cap: sha256 of x_out, at one and two OpenBLAS threads.
    GOLDEN_CONSENSUS = "058be8445ea0bb30e5e8de63bc0228ddc0a8a0f9d0cc2972c2bd26d9e43583ab"
    # run_fw, same start and cap: iterate, trace rows, and float.hex of the
    # relaxed value and nonstationarity.
    GOLDEN_FW = ("7b733a0047f22d938abffe31733c35df9a177a14ef8b529b88b68521327810eb",
                 "cfb9265df2e74a33c55fff7666fbcede74db08a85a560b2b3fd2f13e59f34a44",
                 "0x1.4e1f729a114b3p+13", "0x1.4c6ae982d7391p-10")

    @pytest.mark.parametrize("split", SPLITS)
    def test_golden_relax_and_round(self, split):
        res = relax_and_round(load_instance(chr12a_path()), split,
                              SolverConfig(iters=512, step=StepRule.inv_smoothness()))
        assert res.run.iterations_run == 512
        digest = hashlib.sha256(res.relaxed_iterate.tobytes()).hexdigest()
        assert (digest, trace_digest(res.run.trace),
                trace_digest(res.run.trace, TRACE_FIELDS[:5])) == self.GOLDEN[split]

    def test_golden_product_space(self):
        inst = load_instance(chr12a_path())
        step = StepRule.inv_smoothness(estimate_smoothness(inst))
        res = solver.run_tos_product_space(
            qap_oracle(inst),
            [prox.prox_row_stochastic(), prox.prox_col_stochastic(), prox.prox_box01()],
            SolverConfig(iters=512, step=step), initial_point(inst.n, 0))
        assert hashlib.sha256(res.x_out.tobytes()).hexdigest() == self.GOLDEN_CONSENSUS

    def test_golden_run_fw(self):
        res = fw.run_fw(load_instance(chr12a_path()), initial_point(12, 0),
                        fw.FwConfig(max_iters=512))
        assert res.iterations_run == 512
        digest = hashlib.sha256(res.iterate.tobytes()).hexdigest()
        assert (digest, trace_digest(res.trace), res.relaxed_value.hex(),
                res.nonstationarity.hex()) == self.GOLDEN_FW

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("iters", [64, 128])
    def test_run_tos_checks_only_y1(self, monkeypatch, split, iters):
        inst = load_instance(chr12a_path())
        problem = build_problem(inst, split)
        config = SolverConfig(iters=iters, step=StepRule.inv_smoothness(estimate_smoothness(inst)))
        y1 = initial_point(inst.n, 0)
        names = []
        original = linalg.as_matrix

        def counting(x, name="matrix", shape=None):
            names.append(name)
            return original(x, name, shape)

        for mod in (linalg, prox, solver, lap, qap, fw):
            monkeypatch.setattr(mod, "as_matrix", counting, raising=False)
        res = solver.run_tos(problem, config, y1)
        assert res.iterations_run == iters
        assert names == ["y1"]

    @pytest.mark.parametrize("split", SPLITS)
    def test_overflow_is_divergence_at_its_iteration(self, split):
        # The gradient 2e400 X overflows at once; the first iterate is not
        # finite, and the loop says so, not a projection.
        big = 1e200 * np.ones((4, 4))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            relax_and_round(QapInstance("big", big, big), split,
                            SolverConfig(iters=10, step=StepRule.fixed(1.0)))
        assert err.value.iteration == 1
