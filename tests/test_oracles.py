import numpy as np
import pytest

from tosqap import (
    GradientOracle,
    batch_schedule_lipschitz,
    frobenius_norm,
    gaussian_noise_oracle,
    make_rng,
    minibatch_gradient,
)


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


def test_single_sample_batch(exact):
    noisy = gaussian_noise_oracle(exact, 2.0)
    x = np.zeros((3, 3))
    want = noisy.sample(x, make_rng(5))
    got = minibatch_gradient(noisy, x, 1, make_rng(5))
    np.testing.assert_array_equal(got, want)


def test_batch_zero_rejected(exact):
    noisy = gaussian_noise_oracle(exact, 1.0)
    with pytest.raises(ValueError):
        minibatch_gradient(noisy, np.zeros((3, 3)), 0, make_rng(0))


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
        acc += noisy.sample(x, rng)
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
    assert batch_schedule_lipschitz(8, 1.0, 0.0, 0.0) == 2
    assert batch_schedule_lipschitz(1, 1.0, 0.0, 0.0) == 1
    assert batch_schedule_lipschitz(1000, 2.0, 0.0, 0.0) == 13


def test_batch_schedule_indicator_examples():
    # Both terms indicators: L_g = L_h = 0.
    assert batch_schedule_lipschitz(8, 1.0, 0.0, 0.0) == 2
    assert batch_schedule_lipschitz(8, 10.0, 0.0, 0.0) == 1
    assert batch_schedule_lipschitz(10**6, 1.0, 0.0, 0.0) == 5000


def test_batch_schedule_rejects_bad_constants():
    with pytest.raises(ValueError):
        batch_schedule_lipschitz(10, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        batch_schedule_lipschitz(10, -1.0, 0.0, 0.0)


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
