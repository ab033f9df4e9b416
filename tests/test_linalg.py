import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import math

from tosqap import draw_uniform_index, frobenius_inner, frobenius_norm, make_rng
from tosqap.linalg import as_matrix, as_square, check_int, check_real

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def small_matrices(rows=3, cols=3):
    return arrays(np.float64, (rows, cols), elements=finite_floats)


def test_inner_identity():
    assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0


def test_inner_zero_annihilates():
    x = np.arange(6.0).reshape(2, 3)
    assert frobenius_inner(x, np.zeros((2, 3))) == 0.0


def test_inner_elementwise_sum():
    assert frobenius_inner([[1, 2], [3, 4]], [[1, 1], [1, 1]]) == 10.0


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(np.eye(2), np.eye(3))


def test_norm_examples():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=0)
    assert frobenius_norm([[3.0, 4.0]]) == 5.0


@given(small_matrices(), small_matrices())
def test_norm_triangle_inequality(x, y):
    assert frobenius_norm(x + y) <= frobenius_norm(x) + frobenius_norm(y) + 1e-9


@given(small_matrices(), st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_norm_absolute_homogeneity(x, c):
    assert frobenius_norm(c * x) == pytest.approx(abs(c) * frobenius_norm(x), rel=1e-12, abs=1e-9)


@settings(max_examples=50)
@given(small_matrices(), small_matrices())
@example(4533.0 * np.ones((3, 3)), np.diag([1.0, 0.0, 0.0]))
def test_cosine_rule(x, y):
    lhs = frobenius_inner(x, y)
    rhs = 0.5 * frobenius_norm(x + y) ** 2 - 0.5 * frobenius_norm(x) ** 2 - 0.5 * frobenius_norm(y) ** 2
    # Rounding error model, with m entries, u = eps/2, gamma_k = k u / (1 - k u)
    # and s = ||x|| + ||y||.  Each squared norm (sum of m squares, sqrt,
    # square, plus one rounding per entry of x + y) has relative error
    # <= gamma_{m+5}; the two subtractions add u (A + B + C) / 2, where
    # A + B + C = ||x+y||^2 + ||x||^2 + ||y||^2 <= 2 s^2.  So the rhs is off
    # by <= gamma_{m+7} s^2, the m-term dot product lhs by
    # <= gamma_m ||x|| ||y|| <= gamma_m s^2 / 4, and computing s itself costs
    # one more unit.  The rhs cancels, so the error scales with s^2, not
    # with ||x|| ||y||.  Gradual underflow adds at most half the smallest
    # subnormal to each of the 9m + 7 operations.
    m = x.size
    u = np.finfo(np.float64).eps / 2
    k = 1.25 * m + 8
    s = frobenius_norm(x) + frobenius_norm(y)
    bound = k * u / (1 - k * u) * s**2 + (9 * m + 7) * np.nextafter(0.0, 1.0)
    assert abs(lhs - rhs) <= bound


def test_rng_golden_stream():
    # Pins the PCG64 output so a platform or numpy change that altered the
    # stream is caught loudly.
    rng = make_rng(12345)
    draws = [draw_uniform_index(rng, 1000) for _ in range(8)]
    assert draws == [700, 228, 789, 317, 205, 798, 643, 677]


def test_rng_seed_determinism():
    a = make_rng(7)
    b = make_rng(7)
    assert [draw_uniform_index(a, 10) for _ in range(20)] == [
        draw_uniform_index(b, 10) for _ in range(20)
    ]


def test_draw_single_outcome():
    assert draw_uniform_index(make_rng(0), 1) == 1


def test_draw_rejects_zero():
    with pytest.raises(ValueError):
        draw_uniform_index(make_rng(0), 0)


@pytest.mark.parametrize("t_max", [2.5, True])
def test_draw_rejects_non_integer(t_max):
    with pytest.raises(ValueError, match="^t_max: expected an integer >= 1"):
        draw_uniform_index(make_rng(0), t_max)


@pytest.mark.parametrize("value", [0, 2.5, True, "3", np.float64(3.0), None])
def test_check_int_rejects(value):
    with pytest.raises(ValueError, match=r"^n: expected an integer >= 1, got "):
        check_int(value, "n", 1)


@pytest.mark.parametrize("value", [1, 7, np.int64(7), np.uint8(3)])
def test_check_int_accepts(value):
    assert check_int(value, "n", 1) is value


@pytest.mark.parametrize("value, kwargs, message", [
    (math.nan, {}, "x: expected a number, got nan"),
    ("1", {}, "x: expected a number, got '1'"),
    (True, {"least": 0}, "x: expected a number >= 0, got True"),
    (-0.5, {"least": 0}, "x: expected a number >= 0, got -0.5"),
    (0.0, {"above": 0}, "x: expected a number > 0, got 0.0"),
    (math.inf, {"finite": True}, "x: expected a finite number, got inf"),
    (-math.inf, {"least": 0, "finite": True}, "x: expected a finite number >= 0, got -inf"),
])
def test_check_real_rejects_with_its_rule(value, kwargs, message):
    with pytest.raises(ValueError) as err:
        check_real(value, "x", **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("value, kwargs", [
    (-3, {}), (-math.inf, {}), (math.inf, {"least": 0}), (np.float32(0.5), {"above": 0}),
    (np.int64(2), {"finite": True}), (0.0, {"least": 0, "finite": True})])
def test_check_real_accepts(value, kwargs):
    assert check_real(value, "x", **kwargs) is value


def test_as_square_names_the_matrix():
    assert as_square([[1, 2], [3, 4]], "cost").dtype == np.float64
    with pytest.raises(ValueError, match=r"^cost must be square, got shape \(2, 3\)"):
        as_square(np.ones((2, 3)), "cost")
    for bad in ([[object()]], [[1.0], [1.0, 2.0]], "abc", [[10 ** 400]]):
        with pytest.raises(ValueError, match="^A must be an array of real numbers"):
            as_square(bad, "A")


def test_as_matrix_shape_form():
    stack = np.zeros((2, 3, 3))
    assert as_matrix(stack, "y1", (2, 3, 3)).shape == (2, 3, 3)
    assert as_matrix([1.0, 2.0], "v", (2,)).shape == (2,)
    with pytest.raises(ValueError, match=r"^y1 must have shape \(3, 3\), got \(2, 3, 3\)"):
        as_matrix(stack, "y1", (3, 3))
    stack[1, 2, 0] = np.inf
    with pytest.raises(ValueError, match="^y1 contains non-finite entries"):
        as_matrix(stack, "y1", (2, 3, 3))


def test_draw_uniform_frequencies():
    rng = make_rng(99)
    n_draws = 100_000
    counts = np.zeros(4)
    for _ in range(n_draws):
        counts[draw_uniform_index(rng, 4) - 1] += 1
    p = 0.25
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert np.all(np.abs(counts - n_draws * p) <= 3 * sigma)
