import numpy as np
import pytest

from romres.forward import (NoiseModel, add_noise, simulate_response,
                            spectral_weights, transfer_eval, transfer_moments)


def test_scalar_exponential():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    y = simulate_response(A, b, T=1.0, h_T=0.25)
    assert y.samples[-1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_sample_count():
    A = np.array([[-1.0]])
    y = simulate_response(A, np.array([1.0]), T=2.0, h_T=1e-4)
    assert y.n_samples == 20000
    assert y.times()[0] == pytest.approx(1e-4)


def test_response_positive_decreasing(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=5.0, h_T=1e-3)
    assert np.all(y.samples > 0)
    assert np.all(np.diff(y.samples) < 0)


def test_noise_zero_level_bitwise(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=1.0, h_T=1e-2)
    d = add_noise(y, NoiseModel(0.0, seed=3))
    assert np.array_equal(d.samples, y.samples)


def test_noise_snr(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=2.0, h_T=1e-4)
    eps = 5e-2
    ratios = []
    for seed in range(5):
        d = add_noise(y, NoiseModel(eps, seed))
        ratios.append(np.linalg.norm(d.samples)
                      / np.linalg.norm(d.samples - y.samples))
    mean = np.mean(ratios)
    assert abs(mean - 1.0 / eps) / (1.0 / eps) < 0.2


def test_noise_seed_determinism(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=1.0, h_T=1e-2)
    d1 = add_noise(y, NoiseModel(1e-2, seed=7))
    d2 = add_noise(y, NoiseModel(1e-2, seed=7))
    assert np.array_equal(d1.samples, d2.samples)


def test_transfer_eval_scalar():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    val, der = transfer_eval(A, b, s=1.0)
    assert val == pytest.approx(0.5)
    assert der == pytest.approx(-0.25)


def test_transfer_stieltjes_signs(small_system):
    grid, field, op, b = small_system
    for s in (0.5, 2.0, 50.0):
        val, der = transfer_eval(op.A, b, s=s)
        assert val > 0
        assert der < 0


def test_laplace_of_spectral_response_analytic(small_system):
    # sum of w_i/(s - lambda_i) must equal the resolvent expression
    grid, field, op, b = small_system
    lam, w = spectral_weights(op.A, b)
    for s in (1.0, 10.0):
        val, _ = transfer_eval(op.A, b, s=s)
        assert val == pytest.approx(np.sum(w / (s - lam)), rel=1e-12)


def test_transfer_moments_geometric():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    tau = transfer_moments(A, b, 0.0, 4)
    assert np.allclose(tau, [1.0, -1.0, 1.0, -1.0])


def test_transfer_moment_zero_equals_value(small_system):
    grid, field, op, b = small_system
    s = 3.0
    tau = transfer_moments(op.A, b, s, 2)
    val, der = transfer_eval(op.A, b, s=s)
    assert tau[0] == pytest.approx(val, rel=1e-12)
    assert tau[1] == pytest.approx(der, rel=1e-12)


def test_transfer_moments_rank_warning():
    A = np.array([[-1.0]])
    with pytest.warns(UserWarning):
        transfer_moments(A, np.array([1.0]), 0.0, 3)
