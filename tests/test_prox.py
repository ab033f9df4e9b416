import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tosqap import (
    frobenius_inner,
    frobenius_norm,
    make_rng,
    project_affine_doubly_stochastic,
    project_birkhoff_alternating,
    project_box01,
    project_col_stochastic,
    project_row_stochastic,
    project_simplex,
)
from tosqap.prox import (
    prox_affine_doubly_stochastic,
    prox_box01,
    prox_col_stochastic,
    prox_row_stochastic,
)

moderate = st.floats(min_value=-50, max_value=50, allow_nan=False)


def square(n=4):
    return arrays(np.float64, (n, n), elements=moderate)


def reference_simplex_projection(v):
    """Independent sort-and-threshold recipe, written from the definition:
    theta is theta_k = (u_1 + ... + u_k - 1) / k for the largest k with
    u_k > theta_k.  k = 1 always qualifies, so a rounded theta_k that lands
    on u_{k+1} cannot leave the search without an answer."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    best_theta = None
    for k in range(1, v.size + 1):
        theta = (u[:k].sum() - 1.0) / k
        if u[k - 1] > theta:
            best_theta = theta
    return np.maximum(v - best_theta, 0.0)


def loop_simplex_projection(v):
    """One vector at a time, with the arithmetic of project_simplex: the last
    index passing the threshold test, then css[rho] / (rho + 1)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


#: Entries with ties (a few repeated values) and entries of order 1e4.
batch_entries = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, -1.0]),
    moderate,
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


def matrices():
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 9))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=batch_entries))


class TestSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_vertex(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_symmetric_shift(self):
        np.testing.assert_allclose(project_simplex([0.8, 0.8]), [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    @settings(max_examples=100)
    @given(arrays(np.float64, 7, elements=moderate))
    @example(np.array([49.0, 49.99999999999999, 0.0, 0.0, 0.0, 0.0, 0.0]))
    def test_matches_reference(self, v):
        got = project_simplex(v)
        want = reference_simplex_projection(v)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @settings(max_examples=200)
    @given(matrices())
    @example(np.array([[3.0], [-2.0], [1e4]]))
    @example(np.full((3, 5), 0.25))
    @example(np.array([[1e4, 1e4, -1e4, 9999.5], [0.5, 0.5, 0.5, 0.5]]))
    def test_batched_rows_match_row_by_row(self, x):
        got = project_simplex(x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.stack([project_simplex(row) for row in x]))
        assert np.array_equal(got, np.stack([loop_simplex_projection(row) for row in x]))

    @given(arrays(np.float64, 5, elements=moderate))
    def test_feasible_output(self, v):
        w = project_simplex(v)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300)
    @given(st.integers(1, 30).flatmap(lambda n: arrays(
        np.float64, st.tuples(st.integers(1, 4), st.just(n)), elements=batch_entries)))
    @example(np.full((1, 30), 1e4))
    @example(np.array([[1e4] + [-1e4] * 29]))
    @example(np.array([[1e4, 1e4 - 0.5, 9999.75, -1e4], [1.0, 1.0, 1.0, 1.0]]))
    @example(np.full((2, 3), 1.0 / 3.0))
    def test_rows_sum_to_one_within_derived_bound(self, x):
        # Rounding error model, with u = eps/2, gamma_k = k u / (1 - k u),
        # n entries per row, M = max |v_i| and k = rho + 1 the count the code
        # picks; C_k is the exact sum of the k largest entries and
        # theta_k = (C_k - 1) / k.  The first test passes (|v| < 2^53).  The
        # sequential cumsum minus 1 is off by <= gamma_k (kM + 1) and u_k k by
        # <= u k M, so the test passing at k and failing at k + 1 puts u_k
        # above theta_k - gamma_{n+1} (M + 1) and u_{k+1} below
        # theta_k + gamma_{n+1} (2M + 1); theta = css_k / k is within
        # gamma_{n+1} (M + 1) of theta_k.  The k largest entries less theta
        # then sum to 1 within gamma_{n+1} (nM + 1), and each of the n
        # entries is clipped or kept wrongly by at most gamma_{n+1} (3M + 2):
        # F = sum_i max(v_i - theta, 0) is within
        # G = gamma_{n+1} (4nM + 2n + 1) of 1.  The n rounded subtractions
        # (relative u, sign kept) and the n-term row sum below add
        # gamma_n (1 + G).  Underflow in the division moves theta by half the
        # smallest subnormal, which moves F by at most n of them.
        w = project_simplex(x)
        assert np.all(w >= 0.0)
        n = x.shape[1]
        u = np.finfo(np.float64).eps / 2

        def gamma(k):
            return k * u / (1 - k * u)

        g = gamma(n + 1) * (4 * n * np.max(np.abs(x), axis=1) + 2 * n + 1)
        bound = gamma(n) * (1 + g) + g + n * np.nextafter(0.0, 1.0)
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= bound)

    @settings(max_examples=50)
    @given(arrays(np.float64, 6, elements=moderate))
    def test_nearest_point(self, v):
        # Any feasible competitor must be at least as far away.
        w = project_simplex(v)
        rng = make_rng(0)
        for _ in range(10):
            c = rng.dirichlet(np.ones(6))
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - c) + 1e-9


class TestBox:
    def test_interior_untouched(self):
        np.testing.assert_array_equal(project_box01(np.array([[0.3]])), [[0.3]])

    def test_clamp(self):
        np.testing.assert_array_equal(project_box01(np.array([[-1.0, 2.0]])), [[0.0, 1.0]])

    @given(square())
    def test_idempotent(self, x):
        once = project_box01(x)
        np.testing.assert_array_equal(project_box01(once), once)


class TestRowColStochastic:
    def test_fixed_point(self):
        x = np.array([[0.25, 0.75], [1.0, 0.0]])
        np.testing.assert_allclose(project_row_stochastic(x), x, atol=1e-15)

    def test_rows_independent(self):
        x = np.array([[2.0, 0.0], [0.8, 0.8]])
        np.testing.assert_allclose(project_row_stochastic(x), [[1.0, 0.0], [0.5, 0.5]])

    def test_random_output_feasible(self):
        rng = make_rng(1)
        x = rng.standard_normal((5, 7))
        y = project_row_stochastic(x)
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        z = project_col_stochastic(x)
        np.testing.assert_allclose(z.sum(axis=0), 1.0, atol=1e-12)

    @given(matrices())
    def test_col_is_transposed_row(self, x):
        np.testing.assert_array_equal(
            project_col_stochastic(x), project_row_stochastic(x.T).T)


class TestAffineDoublyStochastic:
    def test_fixed_point(self):
        x = np.array([[0.3, 0.7], [0.7, 0.3]])
        np.testing.assert_allclose(project_affine_doubly_stochastic(x), x, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(
            project_affine_doubly_stochastic(np.zeros((2, 2))),
            np.full((2, 2), 0.5))

    def test_rank_one_columns(self):
        np.testing.assert_allclose(
            project_affine_doubly_stochastic(np.array([[1.0, 0.0], [1.0, 0.0]])),
            np.full((2, 2), 0.5))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            project_affine_doubly_stochastic(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_constrained_least_squares(self, n):
        # Independent oracle: KKT solve of min ||Y - X||^2 s.t. both
        # marginal-sum constraints, assembled as an explicit linear system.
        rng = make_rng(n)
        x = rng.standard_normal((n, n)) * 3
        got = project_affine_doubly_stochastic(x)

        rows = []
        for i in range(n):
            c = np.zeros((n, n))
            c[i, :] = 1.0
            rows.append(c.ravel())
        for j in range(n):
            c = np.zeros((n, n))
            c[:, j] = 1.0
            rows.append(c.ravel())
        C = np.array(rows)
        d = np.ones(2 * n)
        lam = np.linalg.pinv(C @ C.T) @ (C @ x.ravel() - d)
        want = (x.ravel() - C.T @ lam).reshape(n, n)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_marginals_exact(self):
        rng = make_rng(77)
        y = project_affine_doubly_stochastic(rng.standard_normal((8, 8)))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-12)


    @settings(max_examples=200)
    @given(st.integers(1, 12).flatmap(lambda n: arrays(
        np.float64, (n, n), elements=st.floats(-1e4, 1e4, allow_nan=False))))
    @example(1e4 * np.where(np.arange(144).reshape(12, 12) % 2, 1.0, -1.0))
    def test_marginals_at_large_magnitudes(self, x):
        # Rounding error model, with u = eps/2, gamma_k = k u / (1 - k u) and
        # M = max |x_ij|.  The row and column sums of x are off by
        # <= gamma_{n-1} n M, the total by <= gamma_{2n-2} n^2 M; so the
        # constant 1/n + s/n^2 is off by <= gamma_{2n} (M + 1) and each r_i/n,
        # c_j/n by <= gamma_n M.  The three additions forming an entry add
        # gamma_3 (4M + 1)(1 + gamma_{2n}); each entry is then off by
        # <= gamma_{2n+3} (7M + 2) and bounded by (4M + 1)(1 + gamma_{2n+3}).
        # Summing n entries costs gamma_{n-1} n (4M + 1)(1 + gamma_{2n+3}), so
        # every marginal is within n gamma_{3n+2} (11M + 3) of 1.  Underflow
        # in the three divisions adds at most half the smallest subnormal
        # each per entry.
        n = x.shape[0]
        y = project_affine_doubly_stochastic(x)
        u = np.finfo(np.float64).eps / 2
        k = 3 * n + 2
        bound = (n * k * u / (1 - k * u) * (11 * np.max(np.abs(x)) + 3)
                 + 3 * n * np.nextafter(0.0, 1.0))
        assert np.max(np.abs(y.sum(axis=1) - 1)) <= bound
        assert np.max(np.abs(y.sum(axis=0) - 1)) <= bound


class TestAlternatingProjections:
    def test_permutation_fixed_point(self):
        p = np.eye(4)[[2, 0, 3, 1]]
        np.testing.assert_allclose(project_birkhoff_alternating(p, 5), p, atol=1e-15)

    def test_scalar_case(self):
        np.testing.assert_allclose(project_birkhoff_alternating(np.array([[1.0]]), 3), [[1.0]])

    @pytest.mark.parametrize("iters", [2.5, True])
    def test_rounds_must_be_an_integer(self, iters):
        with pytest.raises(ValueError, match="^iters: expected an integer >= 1"):
            project_birkhoff_alternating(np.eye(2), iters)

    def test_gaussian_converges(self):
        rng = make_rng(3)
        y = project_birkhoff_alternating(rng.standard_normal((12, 12)), 1000)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)  # exact: rows last
        assert np.max(np.abs(y.sum(axis=0) - 1.0)) <= 1e-6
        assert np.all(y >= 0)


ALL_PROJECTIONS = [
    ("box", lambda x: project_box01(x)),
    ("row", lambda x: project_row_stochastic(x)),
    ("col", lambda x: project_col_stochastic(x)),
    ("affine", lambda x: project_affine_doubly_stochastic(x)),
]


@pytest.mark.parametrize("name,proj", ALL_PROJECTIONS)
def test_projection_idempotent(name, proj):
    rng = make_rng(11)
    for _ in range(20):
        x = rng.standard_normal((5, 5)) * 4
        once = proj(x)
        assert frobenius_norm(proj(once) - once) <= 1e-12


@pytest.mark.parametrize("name,proj", ALL_PROJECTIONS)
def test_projection_nonexpansive(name, proj):
    rng = make_rng(13)
    for _ in range(30):
        x = rng.standard_normal((4, 4)) * 5
        y = rng.standard_normal((4, 4)) * 5
        assert frobenius_norm(proj(x) - proj(y)) <= frobenius_norm(x - y) + 1e-12


def random_feasible(name, rng, n=4):
    if name == "box":
        return rng.uniform(0, 1, (n, n))
    if name == "row":
        return project_row_stochastic(rng.uniform(0, 1, (n, n)))
    if name == "col":
        return project_col_stochastic(rng.uniform(0, 1, (n, n)))
    # random convex combination of permutation matrices: exactly doubly
    # stochastic, hence in the affine set
    w = rng.dirichlet(np.ones(5))
    out = np.zeros((n, n))
    for k in range(5):
        out += w[k] * np.eye(n)[rng.permutation(n)]
    return out


@pytest.mark.parametrize("name,op", [
    ("box", prox_box01()),
    ("row", prox_row_stochastic()),
    ("col", prox_col_stochastic()),
    ("affine", prox_affine_doubly_stochastic()),
])
def test_prox_characterization(name, op):
    # <x - P(x), z - P(x)> <= f(z) - f(P(x)) for all z in dom f; for
    # indicators both values vanish at feasible points.
    rng = make_rng(17)
    for _ in range(25):
        x = rng.standard_normal((4, 4)) * 3
        p = op(x, 1.0)
        z = random_feasible(name, rng)
        assert frobenius_inner(x - p, z - p) <= 1e-9


@pytest.mark.parametrize("name,op", [("box", prox_box01()), ("row", prox_row_stochastic())])
def test_indicator_prox_ignores_scale(name, op):
    rng = make_rng(19)
    x = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(op(x, 0.01), op(x, 100.0))
