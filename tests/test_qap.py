import dataclasses
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
from tosqap import fw, lap, linalg, oracles, prox, qap, solver
from tosqap.lap import Permutation
from tosqap.qap import SPLIT1, SPLIT2, SPLITS, build_problem, qap_oracle, split_proxes

from pins import on_core


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

    def test_load_instance_names_a_file_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.dat"
        p.write_bytes(b"2 0 1 1 0 \xff 2 2 0")
        with pytest.raises(QaplibParseError) as err:
            load_instance(p)
        assert str(err.value) == (f"{p}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                  "in position 10: invalid start byte")

    def test_best_known_not_utf8_names_the_file(self, tmp_path):
        side = tmp_path / "best.txt"
        side.write_bytes(b"chr12a \xff9552\n")
        with pytest.raises(ValueError) as err:
            load_best_known(side)
        assert str(err.value) == (f"{side}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                  "in position 7: invalid start byte")

    def test_best_known_name_listed_twice_names_the_line(self, tmp_path):
        side = tmp_path / "best.txt"
        side.write_text("chr12a 1\nchr12a 2\n")
        with pytest.raises(ValueError) as err:
            load_best_known(side)
        assert str(err.value) == f"{side}:2: 'chr12a' is listed twice"

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

    @pytest.mark.parametrize("perm", [Permutation(3, (0, 1, 2)), Permutation(1, (0,))])
    def test_permutation_of_another_size_names_perm(self, perm):
        # A 3-permutation of an n = 2 instance read 4.0 before this check.
        with pytest.raises(ValueError, match=rf"^perm has size {perm.n}, but instance "
                                             r"'instance' has size 2$"):
            permutation_objective(parse_qaplib("2 0 1 1 0 0 2 2 0"), perm)
        with pytest.raises(ValueError, match=rf"^perm has size {perm.n}, but instance "
                                             r"'chr12a' has size 12$"):
            permutation_objective(load_instance(chr12a_path()), perm)

    @pytest.mark.parametrize("fn", [qap_objective, qap_gradient])
    def test_wrong_shape_names_x(self, fn):
        with pytest.raises(ValueError, match=r"^x must have shape \(12, 12\), got \(3, 3\)$"):
            fn(load_instance(chr12a_path()), np.eye(3))

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


def four_products(inst, x):
    """The general gradient A X B^T + A^T X B, as the asymmetric branch computes it."""
    return inst.a @ x @ inst.b.T + inst.a.T @ x @ inst.b


def symmetric_integer_instance(n, seed):
    rng = make_rng(seed)
    a, b = (np.triu(m) + np.triu(m, 1).T for m in rng.integers(0, 100, (2, n, n)).astype(float))
    return QapInstance(f"sym{n}s{seed}", a, b)


def asymmetric_instances():
    inst = load_instance(chr12a_path())
    b = inst.b.copy()
    b[0, 1] = np.nextafter(b[0, 1], np.inf)  # one ulp off B^T
    only_a = symmetric_integer_instance(6, 1)
    yield QapInstance("chr12a_ulp", inst.a, b)
    yield QapInstance("only_a", only_a.a, random_instance(6, 2).b)
    yield random_instance(7, 3)


class TestSymmetricGradient:
    def test_chr12a_is_symmetric(self):
        assert load_instance(chr12a_path()).symmetric

    @pytest.mark.parametrize("inst", list(asymmetric_instances()), ids=lambda i: i.name)
    def test_asymmetric_instance_takes_four_products(self, inst):
        assert not inst.symmetric
        for seed in range(5):
            x = make_rng(seed).standard_normal((inst.n, inst.n))
            assert qap_gradient(inst, x).tobytes() == four_products(inst, x).tobytes()

    def test_replace_recomputes_the_flag(self):
        inst = load_instance(chr12a_path())
        changed = dataclasses.replace(inst, b=random_instance(12, 4).b)
        assert not changed.symmetric
        assert dataclasses.replace(changed, b=inst.b).symmetric
        assert "symmetric" not in repr(inst)

    @pytest.mark.parametrize("n", [*range(1, 17), "chr12a"])
    def test_two_products_give_the_four_product_bytes(self, n):
        """2 A X B has the bytes of A X B^T + A^T X B on chr12a and at n <= 16.

        This is observed on numpy's OpenBLAS at 1 and 2 threads, not proven:
        at these sizes A^T X sums in the order of A X, and X B^T in that of
        X B.  At n = 17-20, 25-28, 60 and 100 the transposed operands sum in
        another order and the last bits differ; the forward-error test below
        covers those sizes."""
        insts = ([load_instance(chr12a_path())] if n == "chr12a"
                 else [symmetric_integer_instance(n, seed) for seed in range(3)])
        for inst in insts:
            assert inst.symmetric
            for seed in range(5):
                rng = make_rng(seed)
                for x in (rng.standard_normal((inst.n, inst.n)), initial_point(inst.n, seed)):
                    assert qap_gradient(inst, x).tobytes() == four_products(inst, x).tobytes()

    @pytest.mark.parametrize("n", [20, 28, 100])
    def test_two_products_within_the_forward_error_bound(self, n):
        # Each form is within 2 gamma_{2n+1} M of 2 A X B, M = |A| |X| |B|
        # (Higham's gamma_k = k u / (1 - k u) for two chained products plus
        # the final sum; derivation in CHANGES.md), so they differ by at most
        # 4 gamma_{2n+1} M.  The factor 5 covers the rounding of M, of the
        # difference and of the product below.
        u = np.finfo(np.float64).eps / 2
        gamma = (2 * n + 1) * u / (1 - (2 * n + 1) * u)
        for seed in range(3):
            inst = symmetric_integer_instance(n, seed)
            x = make_rng(seed).standard_normal((n, n))
            m = np.abs(inst.a) @ np.abs(x) @ np.abs(inst.b)
            diff = np.abs(qap_gradient(inst, x) - four_products(inst, x))
            assert np.all(diff <= 5 * gamma * m)


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

    def test_overflow_rejected(self):
        # ||A D B^T + A^T D B|| overflows to inf for A = B = 1e200 J; an inf
        # L would only fail later, as a step rule's l_smooth.
        big = np.full((3, 3), 1e200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^smoothness constant overflows: .* is (inf|nan)$"):
            estimate_smoothness(QapInstance("big", big, big))

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

    def test_chr12a_value_pinned(self):
        # Observed output, equal at 1 and 2 BLAS threads and under the
        # four-product gradient.  L sets the step 1/L of every TOS run, so a
        # change here moves every chr12a digest.
        assert estimate_smoothness(load_instance(chr12a_path())).hex() == on_core(
            SkylakeX="0x1.180c7c66fd04dp+17", Haswell="0x1.180c7c66fd04ep+17")


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

    # Computed with all INITIAL_POINT_ROUNDS rounds run, before the
    # alternating projections could stop early.
    @pytest.mark.parametrize("n, seed, digest", [
        (12, 0, "6b4e6c01763c5adcbe6a4eb3e1b8583f2fc0b670689c4b7661c28e1bc6f17e35"),
        (12, 1, "f76a8ad84df8b843711179bd1191ef37f4c2ee9beba79b6b434a1237deb57379"),
        (12, 2, "7961ed8a50103f2372392521a3bb6cbb7ab6ed279ddb99bf4c1a565ef577a061"),
        (12, 3, "57bc1db8bf9f2ab8daa891e1542588b34c463538dacf930133fe3fb930fa49bb"),
        (12, 4, "b5a235c7b7885965712c7755d07cb9ed0977f24cba4f8d2c2c013774ad316f93"),
        (12, 5, "567fb439238bd95ee73d9d757da5aa63ea14a2d6472fa2d55e32630ee60eb332"),
        (30, 0, "2170164a7dfb3e3c69c803600b59beb30edb849140072ca351916f953f613f37"),
        (30, 1, "1bda9eead400bfd60a7cdf413a4f2b1a6ceabb01afd98c47ad29a53068ab13d2"),
        (30, 2, "7fb82b4badca8c409888386966c0d5fa88cf43712c3c694f3a2cc3cf62dfdc8a"),
        (30, 3, "be681cb16fe8e3b5d7c438a1c1661555d2f15513b7349248fc3b326195b4a1b8"),
        (30, 4, "886183ffbf09afa32a9ac2d4a546b5643aa4a4d206a2d90e5fc36cc7b2d9a61e"),
        (30, 5, "69514ecfa6e353b6f0a0dca592c202fd17d2ca3e58d6077f1e936ae5946cbb8f"),
    ])
    def test_digest_of_all_rounds(self, n, seed, digest):
        assert hashlib.sha256(initial_point(n, seed).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(6))
    def test_stops_once_the_iterate_repeats(self, seed, monkeypatch):
        # chr12a's starts repeat within 65 rounds, so the loop must not run
        # on to INITIAL_POINT_ROUNDS = 1000.
        calls = []
        simplex = prox.project_simplex
        monkeypatch.setattr(prox, "project_simplex", lambda v: calls.append(1) or simplex(v))
        initial_point(12, seed)
        assert 0 < len(calls) <= 2 * 130

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

    def test_infinite_tol_stops_on_tol_after_one_check(self):
        res = relax_and_round(load_instance(chr12a_path()), SPLIT1,
                              SolverConfig(iters=100, step=StepRule.inv_smoothness()), tol=math.inf)
        assert (res.run.iterations_run, res.checks, res.stopped_by) == (1, 1, "tol")

    def test_cap_run_checks_its_trace_rows(self):
        res = relax_and_round(random_instance(6, 17), SPLIT1,
                              SolverConfig(iters=300, step=StepRule.inv_smoothness()))
        assert (res.stopped_by, res.run.stopped) == ("cap", False)
        assert res.checks == res.run.checks == len(res.run.trace) == 10

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

    # Unrelabeled chr12a, step 1/L, tol 1e-5: the stop test, asked every
    # STOP_CHECK_EVERY iterations, ends these runs between powers of two
    # (before at 2048 or 4096), with the same rounded values.
    @pytest.mark.parametrize("split, seed, stop, rounded", [
        (SPLIT1, 1, 2560, 13384.0), (SPLIT1, 3, 1664, 13784.0),
        (SPLIT2, 1, 1408, 14834.0), (SPLIT2, 3, 1536, 13784.0)])
    def test_chr12a_tol_stop_points(self, split, seed, stop, rounded):
        res = relax_and_round(load_instance(chr12a_path()), split,
                              SolverConfig(iters=100000, step=StepRule.inv_smoothness()),
                              tol=1e-5, y1=initial_point(12, seed))
        assert res.run.iterations_run == res.run.trace[-1].t == stop
        assert res.rounded_value == rounded
        assert res.infeasibility < 1e-5 and res.nonstationarity < 1e-5

    # The same runs, and split1 from seed 3 capped at its stop check: each
    # reports the stop its loop decided and the points it checked, its trace
    # rows plus the stop checks between them.
    @pytest.mark.parametrize("split, seed, iters, stop, rows, checks", [
        (SPLIT1, 0, 100000, 2560, 13, 27), (SPLIT1, 3, 1664, 1664, 12, 20),
        (SPLIT2, 1, 100000, 1408, 12, 18), (SPLIT2, 4, 100000, 3840, 13, 37)])
    def test_chr12a_stopped_by_and_checks(self, split, seed, iters, stop, rows, checks):
        res = relax_and_round(load_instance(chr12a_path()), split,
                              SolverConfig(iters=iters, step=StepRule.inv_smoothness(), seed=seed),
                              tol=1e-5)
        assert (res.run.iterations_run, len(res.run.trace), res.checks, res.stopped_by) == (
            stop, rows, checks, "tol")
        assert res.run.stopped and res.run.checks == checks

    # random_instance(6, 17) meets tol 1e-3 at the stop check t = 384 on both
    # splits, between trace points; a 300 cap ends on a checkpoint that is not
    # a power of two.
    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("iters, tol, stop", [(1000, 1e-3, 384), (300, None, 300)],
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

    # Each pin holds one value per OpenBLAS core type (tests/pins.py); at
    # n = 12 each holds at one and two OpenBLAS threads.
    #
    # chr12a, start initial_point(12, 0), step 1/L, 512 iterations, no
    # early stop: sha256 of the relaxed iterate, of the trace rows, and of
    # the trace rows without the nonstationarity column.  The nonstationarity
    # column is |stationarity_gap| / max{f, 1}; the other five columns are
    # pinned on their own so that a change to that one formula shows nowhere
    # else.
    GOLDEN = {
        "SkylakeX": {
            SPLIT1: ("007b4e8e72255dbc095457607019db5176435f0a9a96b8705acfa8ddec0c57e9",
                     "8c77fd11b881477c5f4b9f95371cacad09fbcccc8ecdfb7f5d956e645a602494",
                     "0fc9f2ba520633cf61d3ac8247b29029fa38878692ea3f7a97faee504b030749"),
            SPLIT2: ("a140d40f4b2ab7750f7b320a7353521e23b5eae290f5ffc791efba5c16af5963",
                     "6c32ebc6fcb828d4d8a7e27c4e919f42058c0117b21745b2ed3323038281a327",
                     "c669b3ff1feafeab0965ad95ccf64b7ec2f8035d9353b14cdd08dbee090cd794"),
        },
        "Haswell": {
            SPLIT1: ("d250f31768520264fbe38b1b505aa2650c7095805bacdda1fa1c76eecbaa2ae9",
                     "d0b3ee29a151c50df5be6cf4ce57e2073650bfb6b8d0a290a0cec7998e605592",
                     "abb09039b515f1c944d843bf0f86aabd6f294305240652a67ca39cc4245827a3"),
            SPLIT2: ("88efc921b5c6890cf8d5cb256c9c7a49ad82f279e4891f7d07f68db1f451b5e1",
                     "29fa5d061793e375fbc864c56cf66bb8b583f789e8941616d22de3a5e81a51f1",
                     "cd980c3982d6b40096a84b87c59db275d9e1b52af6cc71d985e5d14e94791af2"),
        },
    }
    # run_tos_product_space over the row, column and box proxes, same start,
    # step and cap: sha256 of x_out.
    GOLDEN_CONSENSUS = {
        "SkylakeX": "058be8445ea0bb30e5e8de63bc0228ddc0a8a0f9d0cc2972c2bd26d9e43583ab",
        "Haswell": "5c803b4ab807a267460ee3c7a12a8453360129e6f100caefa977c19d0f245763",
    }
    # run_fw, same start and cap: iterate, trace rows, and float.hex of the
    # relaxed value and nonstationarity.  The gradient and objective that
    # run_fw carries between trace rows sum in another order than a
    # recompute, so these differ in the last bits from those of a loop that
    # recomputes them at every point.
    GOLDEN_FW = {
        "SkylakeX": ("2145aa9cd6719fab663c13700fcac7b5ebe391d99b6255fef3a31f39737043fc",
                     "0320cc2bae035f49c4aa2195fed24fd05e6f07d8b9ccaa2600a5bdc8a587a936",
                     "0x1.4e1f729a114b2p+13", "0x1.4c6ae982d6a17p-10"),
        "Haswell": ("c5b8a4d6ea4c4d423fde7f3cdf9a642f425f4bb2957529f909b92cf7a026ab35",
                    "bc7482376e32dbc623704a5e60019aec6130c8f23f16d3d834acf892c0f3a3b2",
                    "0x1.4e1f729a114b2p+13", "0x1.4c6ae982d79fdp-10"),
    }
    # run_fw as the chr12a FW cell runs it, FwConfig(max_iters=4096,
    # gap_tolerance=1e-5), from initial_point(12, start) for starts 0-4:
    # iterations, stop reason, sha256 of the iterate and of the trace rows,
    # and the rounded value.
    GOLDEN_FW_CELL = {
        "SkylakeX": {
            0: (4096, "cap", "2d4a86fcf3a38a5380cc4b3a339ac63bddaf4a4c104a87c42d32979dc5ccea82",
                "c41fa4e885c9cc00b977ac9bb6fbae1c6e7213142fae67cbb1dc4d2f66ab369c", 12746.0),
            1: (4096, "cap", "c3645986d1cee9e5c3d2c0127e587f5cc3b2d3167c5adc8272e254d3f9178eb5",
                "5d0a84f7abe55a296e7fde707a0d7ee4b7d08f0c4d98190b12d77c89aef0bd58", 14828.0),
            2: (4096, "cap", "f04de4045c0a782621d7508cfcc131d2b97316af42424f66ee18945ca31d6aa7",
                "b0cda9e0865a5d77722484d879fe9f38bb08ac28039d585e38e61502a67dcee9", 21390.0),
            3: (14, "tol", "fd0e8212e82760a6b8af0d662dbb6a45c5a428dada968418c44076221165af10",
                "3f761ec0a291ee3fc6eb4f036a79c9b84bd6b415537ed4adb1ecc90dec62b96c", 11864.0),
            4: (4096, "cap", "e96d595a270d33b950bb4a244cf6df18579c074000717e9c9488ff0bd4fa7f9e",
                "9a8cd87e0aa08838dd99e575c508fd94f8efcd73fb13426a4fc76284f092af28", 14346.0),
        },
        "Haswell": {
            0: (4096, "cap", "0da35400c389eed37424ce60f3d15416de3875db27a8c3a75884937a6b76fbfb",
                "a88f15acf60fa719f8732932a59fcba0253a613b84947fe45eed7e8b6f60749a", 12746.0),
            1: (4096, "cap", "c961ea40715a533433301e8fce1e87a8a0db7376b20ede03202bebe6645bc10b",
                "568350d6b593a8e9356a3930243c34e457ebea38f5a7cee3ab4a4d0c2c6444b8", 14828.0),
            2: (4096, "cap", "c248c67c77e4062722e1907899e0cc3e20c27a18461c042db97e44fe1456490a",
                "789a89869a5332a458a544c739741107a7c9bd1f6435dbe1ef1a647004acfd5d", 21390.0),
            3: (14, "tol", "94702ac14dcfbe34fa1b2c7723cf7d3a76c977786ea34dcb03cdc733aca1506a",
                "237594aeaaca339c99d0d6bc242e5e134a580820a6e437115077ce7fff65fd41", 11864.0),
            4: (4096, "cap", "a89f43c872889c7657cc2015b70c52f3a7b8e28ab68fb72215b1b76bdd21ce15",
                "4df2dc78d53d23dc9ea79e69ffb44dbf610bbb6bc3d654022ad9825c95e01da5", 14346.0),
        },
    }
    # The same for the composite workload's FW cell, as `tosqap bench` runs
    # it at its 1000 cap, from starts 0-5.  The cap refreshes the carried
    # gradient and objective at t = 1000, where the 4096-cap cell carries
    # them on to t = 1024, so this pins another trace and iterate.
    GOLDEN_FW_COMPOSITE = {
        "SkylakeX": {
            0: (1000, "cap", "c505c544878df13d942557dc5fd31dfd69b28bfc8b29ea05375f06da3292eb3a",
                "c2312149567ec9d42cbde9d27138ff8d220527e8bfd9e89dc3a2cb9169711cce", 12746.0),
            1: (1000, "cap", "b1b913cfc2b503fbbb08c66e9ac6f1e0d6d67d807dfa83e008413d8b98f504fe",
                "f8495940c7080180a55a4d2e9f0c897e241f1d6ed577e0d403a935636844aff4", 14828.0),
            2: (1000, "cap", "54ca738e3ea588c8427fd9d207b6ee1b5b105af595bdaf834f4253c319387c42",
                "2065f979866765fbcf6da634fd3f559ce7c92062bb16659b544b7db3bf795661", 21390.0),
            3: (14, "tol", "fd0e8212e82760a6b8af0d662dbb6a45c5a428dada968418c44076221165af10",
                "3f761ec0a291ee3fc6eb4f036a79c9b84bd6b415537ed4adb1ecc90dec62b96c", 11864.0),
            4: (1000, "cap", "81f36c0330a5bf8e652dd554b20d2c33ee3c56ab7f79e9285fa27960fb8d178e",
                "c08698b021c3a11e90082f37dd509f7e51ce6353ec7c4c3b58c97f70ac46189e", 14346.0),
            5: (1000, "cap", "e6e76e87ba1684b6050025ba639fa88e0178fdfa93448cb6868fa2b18632ee03",
                "be18c562e0f80b57b94170368f4fecbadc67384cf0c77594caa8a85b0bed41ec", 18508.0),
        },
        "Haswell": {
            0: (1000, "cap", "ac6dd64a88f27cab33fedaa4e6c21086e2a8c25307521a8cf42035836be45f53",
                "685e8943bfc375593b68a1f112082635fee84f7303247d020a40feac0d41fc5a", 12746.0),
            1: (1000, "cap", "9c90333f1c8b77e14bcb6f3bff0c4d99c2b601f6f9f897235901f321eaa4d7c5",
                "632e33693b0d2e08d62586592c59ba0247377159693e9ae02944ad3dc6497bdf", 14828.0),
            2: (1000, "cap", "2443dde28cb3ed4ab74082ca3d8c5c4127abe9bbea3f49577faa6bf177651c54",
                "b26021d668c2014722a140ca8501b139002072d3b42a6488ba878af44971e7d4", 21390.0),
            3: (14, "tol", "94702ac14dcfbe34fa1b2c7723cf7d3a76c977786ea34dcb03cdc733aca1506a",
                "237594aeaaca339c99d0d6bc242e5e134a580820a6e437115077ce7fff65fd41", 11864.0),
            4: (1000, "cap", "ee40d7bf5150115f734b4fa54a2c19bfa8afe3e0600d5067f6afe9b6fb2ae44b",
                "5a54c0bbe46d84059dd3aca150a13936fbeaaeaef4a0e266e5cb5da48a98a0c2", 14346.0),
            5: (1000, "cap", "bc40c29be3a90d8eb422816f327d11287a00744583d3834457932fa9bd4af75f",
                "56ac96c78bc5f536f88025bd98edecfad6611ec41d5b4b99f98c0efed1617ea4", 18508.0),
        },
    }
    # split2 with the Gaussian minibatch oracle (sigma = 0.05 L, batch 8) and
    # the random-iterate output, same start and step, SNAPSHOT_CAP + 64
    # iterations so that z_tau is replayed: sha256 of z_out, and tau.  The
    # box, affine and minibatch path.
    GOLDEN_STOCHASTIC = {
        "SkylakeX": ("984c688cb67f86d60eeab34e5b8d0e3285872170c47efe9687d3f501617f5f0e", 1858),
        "Haswell": ("fdddeaca08a4ef85c8e2c0b5033c6d9cf3bb89afb10b82d4db167df581488a84", 1858),
    }

    @pytest.mark.parametrize("split", SPLITS)
    def test_golden_relax_and_round(self, split):
        res = relax_and_round(load_instance(chr12a_path()), split,
                              SolverConfig(iters=512, step=StepRule.inv_smoothness()))
        assert res.run.iterations_run == 512
        digest = hashlib.sha256(res.relaxed_iterate.tobytes()).hexdigest()
        assert (digest, trace_digest(res.run.trace),
                trace_digest(res.run.trace, TRACE_FIELDS[:5])) == on_core(**self.GOLDEN)[split]

    def test_golden_product_space(self):
        inst = load_instance(chr12a_path())
        step = StepRule.inv_smoothness(estimate_smoothness(inst))
        res = solver.run_tos_product_space(
            qap_oracle(inst),
            [prox.prox_row_stochastic(), prox.prox_col_stochastic(), prox.prox_box01()],
            SolverConfig(iters=512, step=step), initial_point(inst.n, 0))
        assert hashlib.sha256(res.x_out.tobytes()).hexdigest() == on_core(**self.GOLDEN_CONSENSUS)

    def test_product_space_result_is_the_stacked_run(self):
        # The consensus result is the stacked run's RunResult plus x_out
        # and block_residuals: the same run as test_golden_product_space.
        inst = load_instance(chr12a_path())
        l_smooth = estimate_smoothness(inst)
        res = solver.run_tos_product_space(
            qap_oracle(inst),
            [prox.prox_row_stochastic(), prox.prox_col_stochastic(), prox.prox_box01()],
            SolverConfig(iters=512, step=StepRule.inv_smoothness(l_smooth)),
            initial_point(inst.n, 0))
        assert isinstance(res, solver.RunResult)
        assert (res.gamma, res.l_smooth) == (1.0 / l_smooth, l_smooth)
        assert (res.iterations_run, res.checks, res.stopped) == (512, len(res.trace), False)
        assert res.z_out.shape == (1, 12, 12)  # g's prox returns the block mean as one block
        np.testing.assert_array_equal(res.z_out[0], res.x_out)
        assert res.block_residuals == [rec.coupling for rec in res.trace]

    def test_golden_run_fw(self):
        res = fw.run_fw(load_instance(chr12a_path()), initial_point(12, 0),
                        fw.FwConfig(max_iters=512))
        assert res.iterations_run == 512
        digest = hashlib.sha256(res.iterate.tobytes()).hexdigest()
        assert (digest, trace_digest(res.trace), res.relaxed_value.hex(),
                res.nonstationarity.hex()) == on_core(**self.GOLDEN_FW)

    @staticmethod
    def fw_cell(cap, start):
        """(iterations, stop reason, iterate and trace sha256, rounded value)
        of run_fw on chr12a at tol 1e-5 from initial_point(12, start)."""
        res = fw.run_fw(load_instance(chr12a_path()), initial_point(12, start),
                        fw.FwConfig(max_iters=cap, gap_tolerance=1e-5))
        return (res.iterations_run, res.stopped_by,
                hashlib.sha256(res.iterate.tobytes()).hexdigest(), trace_digest(res.trace),
                res.rounded_value)

    @pytest.mark.parametrize("start", range(5))
    def test_golden_fw_cell(self, start):
        assert self.fw_cell(4096, start) == on_core(**self.GOLDEN_FW_CELL)[start]

    @pytest.mark.parametrize("start", range(6))
    def test_golden_fw_composite_cell(self, start):
        assert self.fw_cell(1000, start) == on_core(**self.GOLDEN_FW_COMPOSITE)[start]

    def test_golden_stochastic_replay(self):
        inst = load_instance(chr12a_path())
        l_smooth = estimate_smoothness(inst)
        problem = build_problem(inst, SPLIT2)
        problem = dataclasses.replace(
            problem, stochastic=oracles.gaussian_noise_oracle(problem.oracle, 0.05 * l_smooth),
            batch=8)
        res = solver.run_tos(problem, SolverConfig(iters=solver.SNAPSHOT_CAP + 64,
                                                   step=StepRule.inv_smoothness(l_smooth),
                                                   output="random"),
                             initial_point(inst.n, 0))
        assert res.iterations_run > solver.SNAPSHOT_CAP
        assert (hashlib.sha256(res.z_out.tobytes()).hexdigest(), res.tau) == on_core(
            **self.GOLDEN_STOCHASTIC)

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
