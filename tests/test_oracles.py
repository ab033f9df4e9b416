import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tosqap import (
    GradientOracle,
    StochasticGradientOracle,
    batch_schedule_lipschitz,
    frobenius_norm,
    gaussian_noise_oracle,
    make_rng,
    minibatch_gradient,
    step_size_lipschitz,
)
from tosqap.oracles import _theory_terms


def quadratic_oracle(m):
    return GradientOracle(
        value=lambda x: 0.5 * frobenius_norm(x - m) ** 2,
        gradient=lambda x: np.asarray(x) - m,
    )


@pytest.fixture
def exact():
    return quadratic_oracle(np.arange(9.0).reshape(3, 3))


def test_zero_variance_collapse(exact):
    noisy = gaussian_noise_oracle(exact, 0.0)
    x = np.ones((3, 3))
    for batch in (1, 3, 7):
        got = minibatch_gradient(noisy, x, batch, make_rng(0))
        np.testing.assert_array_equal(got, exact.gradient(x))


def test_batch_zero_rejected(exact):
    noisy = gaussian_noise_oracle(exact, 1.0)
    with pytest.raises(ValueError):
        minibatch_gradient(noisy, np.zeros((3, 3)), 0, make_rng(0))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("batch", [2.5, True])
def test_batch_must_be_an_integer(exact, sigma, batch):
    noisy = gaussian_noise_oracle(exact, sigma)
    with pytest.raises(ValueError, match="^batch: expected an integer >= 1"):
        minibatch_gradient(noisy, np.zeros((3, 3)), batch, make_rng(0))


def reference_minibatch(exact, sigma, x, batch, rng):
    """Mean of ``batch`` draws, each with its own exact gradient and its own
    ``standard_normal`` call, summed one by one: the estimator written
    draw by draw."""
    def sample():
        g = exact.gradient(x)
        if sigma == 0.0:
            return g
        return g + (sigma / math.sqrt(g.size)) * rng.standard_normal(g.shape)

    acc = np.array(sample(), dtype=np.float64, copy=True)
    if sigma == 0.0:
        return acc
    for _ in range(batch - 1):
        acc += sample()
    return acc / batch


@pytest.mark.parametrize("sigma", [0.0, 0.05, 2.0])
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (12, 12)])
@pytest.mark.parametrize("batch", [1, 2, 7, 8, 64])
def test_minibatch_matches_draw_by_draw_reference(batch, shape, sigma):
    m = make_rng(sum(shape)).standard_normal(shape)
    exact = quadratic_oracle(m)
    noisy = gaussian_noise_oracle(exact, sigma)
    x = make_rng(batch).standard_normal(shape)
    rng_want, rng_got = make_rng(17), make_rng(17)
    want = reference_minibatch(exact, sigma, x, batch, rng_want)
    got = minibatch_gradient(noisy, x, batch, rng_got)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()
    # Both generators are left in the same state: the next draws are equal.
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert rng_got.standard_normal() == rng_want.standard_normal()
    # A single draw is the draw-by-draw estimator with batch 1.
    assert (minibatch_gradient(noisy, x, 1, rng_got).tobytes()
            == reference_minibatch(exact, sigma, x, 1, rng_want).tobytes())


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_one_exact_gradient_per_batch(sigma):
    calls = []
    exact = GradientOracle(value=lambda x: 0.0,
                           gradient=lambda x: calls.append(1) or np.asarray(x) - 1.0)
    noisy = gaussian_noise_oracle(exact, sigma)
    minibatch_gradient(noisy, np.zeros((3, 3)), 8, make_rng(0))
    assert len(calls) == 1


def test_zero_variance_returns_a_copy(exact):
    g = np.ones((3, 3))
    noisy = gaussian_noise_oracle(GradientOracle(value=exact.value, gradient=lambda x: g), 0.0)
    rng = make_rng(4)
    state = rng.bit_generator.state
    got = minibatch_gradient(noisy, np.zeros((3, 3)), 5, rng)
    assert got is not g
    np.testing.assert_array_equal(got, g)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0, True])
def test_sigma_must_be_nonnegative_and_finite(exact, sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_noise_oracle(exact, sigma)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0, True, "1"])
def test_oracle_built_directly_checks_sigma(exact, sigma):
    # The oracle checks its own sigma, as a problem checks its constants: a
    # NaN sigma would otherwise surface only as a divergence at iteration 1.
    with pytest.raises(ValueError, match=r"^sigma: expected a finite number >= 0, got "):
        StochasticGradientOracle(gradient=exact.gradient, sigma=sigma)


def test_minibatch_determinism(exact):
    noisy = gaussian_noise_oracle(exact, 1.0)
    x = np.full((3, 3), 0.25)
    a = minibatch_gradient(noisy, x, 16, make_rng(42))
    b = minibatch_gradient(noisy, x, 16, make_rng(42))
    np.testing.assert_array_equal(a, b)


def test_unbiasedness(exact):
    sigma = 1.0
    noisy = gaussian_noise_oracle(exact, sigma)
    rng = make_rng(7)
    x = rng.standard_normal((3, 3))
    n_samples = 100_000
    acc = np.zeros((3, 3))
    for _ in range(n_samples):
        acc += minibatch_gradient(noisy, x, 1, rng)
    mean = acc / n_samples
    # per-entry deviation scale: sigma / sqrt(n_entries), averaged over draws
    per_entry = sigma / np.sqrt(x.size)
    bound = 4 * per_entry / np.sqrt(n_samples)
    assert np.max(np.abs(mean - exact.gradient(x))) <= bound


def test_variance_one_over_batch_law(exact):
    # The MSE of the batch mean must track sigma^2 / batch.
    sigma = 1.0
    noisy = gaussian_noise_oracle(exact, sigma)
    rng = make_rng(11)
    x = rng.standard_normal((3, 3))
    g = exact.gradient(x)
    reps = 2000
    for batch in (1, 4, 16, 64):
        mse = 0.0
        for _ in range(reps):
            u = minibatch_gradient(noisy, x, batch, rng)
            mse += frobenius_norm(u - g) ** 2
        mse /= reps
        assert abs(mse - sigma**2 / batch) <= 0.2 * sigma**2 / batch


def test_batch_schedule_lipschitz_examples():
    assert batch_schedule_lipschitz(8, 1.0) == 2
    assert batch_schedule_lipschitz(1, 1.0) == 1
    assert batch_schedule_lipschitz(1000, 2.0) == 13
    # A Lipschitz g or h enters only through the bound G = G_f + L_g + L_h.
    assert batch_schedule_lipschitz(1000, 1.0 + 0.5 + 0.5) == 13
    # The quotient is 2.000000005: its ceiling is 3, not 2.
    assert batch_schedule_lipschitz(8, math.sqrt(1.0 / (1.0 + 2.5e-9))) == 3


def test_batch_schedule_indicator_examples():
    # Both terms indicators: the bound is G_f.
    assert batch_schedule_lipschitz(8, 1.0) == 2
    assert batch_schedule_lipschitz(8, 10.0) == 1
    assert batch_schedule_lipschitz(10**6, 1.0) == 5000


def test_batch_schedule_floors_an_overflowing_square():
    # G^2 overflows a float; the quotient is below 1.
    assert batch_schedule_lipschitz(8, 1e200) == 1
    assert batch_schedule_lipschitz(10**300, 1e200) == 1


def test_theory_terms_are_python_floats():
    # A numpy bound would make its square a numpy power, which warns on
    # overflow instead of raising; the rules compute in Python floats.
    assert batch_schedule_lipschitz(8, np.float64(1e200)) == 1
    assert batch_schedule_lipschitz(np.int64(1000), np.float32(2.0)) == 13
    power, g_f = _theory_terms(np.int64(8), np.float32(0.3))
    assert (type(power), type(g_f)) == (float, float)
    assert (power, g_f) == _theory_terms(8, float(np.float32(0.3)))


@pytest.mark.parametrize("t_total, power", [(8, 4.0), (27, 9.0), (4096, 256.0),
                                             (10**6, 10_000.0), (2**600, 2.0**400),
                                             (10**300, 1e200)],
                         ids=["8", "27", "4096", "1e6", "2^600", "1e300"])
def test_theory_power_exact_on_cubes(t_total, power):
    # float(T) ** (2/3) misses every cube: 8 gave 3.9999999999999996.  The
    # last two are past 2^512, where T^2 overflows a float.
    assert _theory_terms(t_total, 1.0)[0] == power
    assert step_size_lipschitz(2.0, 1.0, t_total) == 1.0 / power


def test_theory_power_within_an_ulp():
    # Against T^(2/3) in 40-digit decimal arithmetic, rounded once to a float.
    rng = make_rng(9)
    sample = [int(t) for t in rng.integers(1, 10**9, 2000)] + list(range(1, 1001))
    with localcontext() as ctx:
        ctx.prec = 40
        for t_total in sample:
            want = float((Decimal(t_total) ** 2) ** (Decimal(1) / 3))
            assert abs(_theory_terms(t_total, 1.0)[0] - want) <= math.ulp(want), t_total


@given(st.integers(1, 10**9), st.floats(1e-3, 1e3))
@example(8, math.sqrt(1.0 / (1.0 + 2.5e-9)))  # ceil(2.000000005) = 3; the rule gave 2
def test_batch_schedule_exact(t_total, g_f):
    # ceil(T^(2/3) / (2 G^2)) is the least b with 2 G^2 b >= T^(2/3), that is
    # with 8 G^6 b^3 >= T^2, here in exact arithmetic.
    b = batch_schedule_lipschitz(t_total, g_f)
    g6 = 8 * Fraction(g_f) ** 6
    assert g6 * b**3 >= t_total**2
    assert b == 1 or g6 * (b - 1) ** 3 < t_total**2


def test_batch_schedule_rejects_bad_constants():
    with pytest.raises(ValueError):
        batch_schedule_lipschitz(10, 0.0)
    with pytest.raises(ValueError):
        batch_schedule_lipschitz(10, -1.0)


@pytest.mark.parametrize("args, name", [
    ((2.5, 1.0), "t_total"), ((True, 1.0), "t_total"),
    ((10, 0.0), "g_f"), ((8, math.inf), "g_f"),
    # A negative bound would give the batch of its absolute value, and a
    # string one a TypeError naming nothing; the rest are not finite numbers > 0.
    ((8, -1.0), "g_f"), ((8, "1"), "g_f"),
    ((8, math.nan), "g_f"), ((8, 0), "g_f"),
    ((8, True), "g_f"), ((8, None), "g_f"),
    ((8, -math.inf), "g_f"), ((8, np.float32(math.nan)), "g_f"),
    # A horizon whose T^(2/3) a float cannot hold; a bound whose square
    # underflows to 0, or whose batch overflows a float.
    ((10**400, 1.0), "t_total"),
    ((10**9, 1e-200), "g_f"),
    ((10**9, 1e-160), "g_f"),
    # An integer too large for a float is not finite.
    ((8, 10**400), "g_f")])
def test_batch_schedule_names_bad_argument(args, name):
    with pytest.raises(ValueError, match=f"^{name}: expected"):
        batch_schedule_lipschitz(*args)


def test_gradient_matches_finite_differences(exact):
    rng = make_rng(3)
    x = rng.standard_normal((3, 3))
    grad = exact.gradient(x)
    eps = 1e-6
    fd = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            e = np.zeros_like(x)
            e[i, j] = eps
            fd[i, j] = (exact.value(x + e) - exact.value(x - e)) / (2 * eps)
    assert frobenius_norm(fd - grad) <= 1e-6 * max(1.0, frobenius_norm(grad))
