import warnings

import numpy as np
import pytest

from romres.errors import RomresError
from romres.forward import (_EXP_UNDERFLOW, TimeSeries, simulate_response,
                            transfer_eval)
from romres.grids import (Grid1D, ResistivityField, assemble_operator,
                          build_difference_1d, source_vector)
from romres.laplace import (_CHUNK, _CUT_ROUND, _active_slice, _cut_chunks,
                            _cut_moments, _slice_sums, laplace_derivative,
                            laplace_moments, laplace_transform)
from romres.ratfit import node_family


def _exp_series(h=1e-4, T=40.0):
    t = h * np.arange(1, int(T / h) + 1)
    return TimeSeries(np.exp(-t), h)


def test_transform_of_exponential():
    d = _exp_series()
    assert laplace_transform(d, 1.0) == pytest.approx(0.5, abs=2e-4)


def test_derivative_of_exponential():
    d = _exp_series()
    assert laplace_derivative(d, 1.0) == pytest.approx(-0.25, abs=2e-4)


def test_derivative_negative_for_positive_data():
    d = _exp_series(h=1e-3, T=10.0)
    for s in (0.5, 2.0, 10.0):
        assert laplace_derivative(d, s) < 0


def test_moments_of_exponential():
    d = _exp_series()
    tau = laplace_moments(d, 0.0, 3)
    assert np.allclose(tau, [1.0, -1.0, 1.0], atol=5e-4)


def test_moment_zero_equals_transform():
    d = _exp_series(h=1e-3, T=20.0)
    assert laplace_moments(d, 2.0, 1)[0] == pytest.approx(
        laplace_transform(d, 2.0), rel=1e-12)


def test_empty_series_rejected():
    with pytest.raises(RomresError):
        TimeSeries(np.array([]), 0.1)


def test_pipeline_cross_check():
    # transfer values from data quadrature vs direct resolvent solves
    g = Grid1D(299)
    op = assemble_operator(ResistivityField(np.ones(299), g),
                           build_difference_1d(g))
    b = source_vector(g).b
    y = simulate_response(op.A, b, T=100.0, h_T=1e-5)
    # the rectangle rule resolves the early-time spike to a few permille;
    # the t-weighted derivative kernel is far more accurate
    for s in (2.0, 6.8):
        val, der = transfer_eval(op, b, s=s)
        assert laplace_transform(y, s) == pytest.approx(val, rel=5e-3)
        assert laplace_derivative(y, s) == pytest.approx(der, rel=1e-5)


def test_complete_monotonicity_probe():
    # (-1)^k tau_k k! >= 0 for noiseless (positive, decaying) data
    d = _exp_series(h=1e-3, T=20.0)
    tau = laplace_moments(d, 1.0, 8)
    signs = (-1.0) ** np.arange(8) * tau
    assert np.all(signs >= 0)


def test_truncation_tail_bound():
    # the horizon-T truncation error is at most sup|d| e^{-sT}/s
    h = 1e-3
    s = 1.0
    long = _exp_series(h=h, T=30.0)
    for T in (5.0, 10.0):
        n = int(T / h)
        short = TimeSeries(long.samples[:n], h)
        gap = abs(laplace_transform(long, s) - laplace_transform(short, s))
        assert gap <= np.max(np.abs(long.samples)) * np.exp(-s * T) / s + 1e-15


def test_moment_overflow_guard():
    # large k with long horizons must not overflow t^k
    h = 1e-2
    t = h * np.arange(1, int(100.0 / h) + 1)
    d = TimeSeries(np.exp(-0.5 * t), h)
    tau = laplace_moments(d, 0.0, 20)
    assert np.all(np.isfinite(tau))


def _longdouble_moments(series, s, K):
    """The rectangle rule's Taylor moments tau_0..tau_{K-1} in extended precision."""
    n = _active_slice(series, s)
    h, s = np.longdouble(series.step), np.longdouble(s)
    sums = np.zeros(K, dtype=np.longdouble)
    for a in range(0, n, 1 << 20):
        b = min(n, a + (1 << 20))
        t = h * np.arange(a + 1, b + 1, dtype=np.longdouble)
        w = series.samples[a:b].astype(np.longdouble) * np.exp(-s * t)
        for k in range(K):
            sums[k] += np.sum(w)
            w *= t / (k + 1)
    return h * sums * (-1) ** np.arange(K)


def _assert_matches_longdouble(series, s, rel, K=2):
    tau = _longdouble_moments(series, s, K)
    assert abs(laplace_transform(series, s) - tau[0]) <= rel * abs(tau[0])
    assert abs(laplace_derivative(series, s) - tau[1]) <= rel * abs(tau[1])
    err = np.abs(laplace_moments(series, s, K) - tau) / np.abs(tau)
    assert np.all(err <= rel), err


def _noisy_series(n, h, seed=7):
    rng = np.random.default_rng(seed)
    t = h * np.arange(1, n + 1)
    d = 0.3 * t ** -0.5 * np.exp(-0.02 * t) + np.exp(-t)
    return TimeSeries(d * (1.0 + 1e-3 * rng.standard_normal(n)), h)


_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="the reference needs an extended-precision long double")


@_extended
@pytest.mark.parametrize("active", [_CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1])
def test_chunk_boundaries(active):
    # the cutoff lands just below, on and just past a chunk boundary
    h = 1e-3
    d = _noisy_series(3 * _CHUNK, h)
    s = -_EXP_UNDERFLOW / (h * (active - 0.5))
    assert _active_slice(d, s) == active
    _assert_matches_longdouble(d, s, 1e-14, K=6)


@_extended
def test_no_cutoff_at_zero_s():
    d = _noisy_series(3 * _CHUNK + 17, 1e-3)
    assert _active_slice(d, 0.0) == d.n_samples
    _assert_matches_longdouble(d, 0.0, 1e-14, K=6)


def test_single_active_sample():
    # past s h = 746 only the first sample is read, and its kernel
    # exp(-s h) underflows to 0 like every later one
    h = 1e-3
    d = _noisy_series(10, h)
    s = -2.0 * _EXP_UNDERFLOW / h
    assert _active_slice(d, s) == 1
    assert np.exp(-s * h) == 0.0
    assert laplace_transform(d, s) == 0.0
    assert laplace_derivative(d, s) == 0.0


@pytest.fixture(scope="module")
def long_series():
    return _noisy_series(10**7, 1e-5)


@_extended
def test_long_noisy_series_accuracy(long_series):
    # 1e7 samples at s = 2: a single per-sample dot product is off by ~1e-13
    _assert_matches_longdouble(long_series, 2.0, 1e-14)


def _full_sums(series, s, K):
    n = _active_slice(series, s)
    return _slice_sums(series, s, K, n, n // _CHUNK)


@pytest.mark.parametrize("s, K", [(s, 2) for m in (6, 5) for s in node_family("zolotarev", m).nodes]
                         + [(60.0, 10)])
def test_tail_cut_agrees_with_full_slice(long_series, s, K):
    # the cut leaves out chunks whose terms sit below 2^-80 of each moment;
    # bitwise equality holds on the pinned stack but depends on how the BLAS
    # groups GEMV rows, so only the agreement is asserted here
    S, kept = _cut_moments(long_series, float(s), K)
    assert 0 < kept < _active_slice(long_series, s) // _CHUNK
    assert kept % _CUT_ROUND == 0
    full = _full_sums(long_series, float(s), K)
    assert np.all(np.abs(S - full) <= 1e-14 * np.abs(full))


def _late_signal(n, h, start):
    # zero up to sample `start`, then +-1: a signed series whose early sums vanish
    d = np.zeros(n)
    d[start:] = (-1.0) ** np.arange(n - start)
    return TimeSeries(d, h)


def _growing(n, h):
    # exp(10 t) up to t = 40: peak e^400, while the kernel at s = 20 decays faster
    return TimeSeries(np.exp(10.0 * h * np.arange(1, n + 1)), h)


@pytest.mark.parametrize("make", [lambda: _growing(400_000, 1e-4),
                                  lambda: _late_signal(400_000, 1e-4, 300_000)],
                         ids=["growing", "signed"])
def test_tail_cut_falls_back_to_full_slice(make):
    # peak * (kernel mass past the cut) is not below 2^-80 |S_k|, so the cut
    # sums are refused and the whole active slice is summed as before
    series = make()
    s, K = 20.0, 3
    nc = _active_slice(series, s) // _CHUNK
    assert _cut_chunks(s, series.step, K, nc) < nc
    S, kept = _cut_moments(series, s, K)
    assert kept == nc
    assert np.array_equal(S, _full_sums(series, s, K))
    assert np.array_equal(laplace_moments(series, s, K) * (-1.0) ** np.arange(K), S)


def test_no_tail_cut_at_zero_s(long_series):
    S, kept = _cut_moments(long_series, 0.0, 2)
    assert kept == long_series.n_samples // _CHUNK
    assert np.array_equal(S, _full_sums(long_series, 0.0, 2))


@_extended
@pytest.mark.parametrize("s, K", [(0.0, 12), (60.0, 10)])
def test_diffusion_response_moments_accuracy(s, K):
    # criterion 1's series; one weight per sample was off by 6e-14 to 1e-13
    # per moment at s = 0 and up to 5e-15 at s = 60
    g = Grid1D(299)
    op = assemble_operator(ResistivityField(np.ones(299), g),
                           build_difference_1d(g))
    y = simulate_response(op.A, source_vector(g).b, T=100.0, h_T=1e-5)
    _assert_matches_longdouble(y, s, 1e-14, K=K)


@pytest.mark.parametrize("s", [0.0, 0.7, 60.0])
def test_moments_carry_value_and_derivative(s):
    d = _noisy_series(5 * _CHUNK + 123, 1e-3)
    assert np.array_equal(laplace_moments(d, s, 2),
                          [laplace_transform(d, s), laplace_derivative(d, s)])


def test_one_moments_call_per_node_is_bitwise():
    # the conditioning table reads each node's value and derivative with one
    # laplace_moments call; it must give the bits of the two scalar reads
    g = Grid1D(49)
    op = assemble_operator(ResistivityField(np.ones(49), g), build_difference_1d(g))
    y = simulate_response(op.A, source_vector(g).b, T=20.0, h_T=1e-4)
    for m in range(2, 7):
        for s in node_family("zolotarev", m).nodes:
            assert np.array_equal(laplace_moments(y, s, 2),
                                  [laplace_transform(y, s), laplace_derivative(y, s)])


def test_input_contract():
    d = _noisy_series(3 * _CHUNK, 1e-3)
    with warnings.catch_warnings():
        # no bare ValueError or TypeError, and no warning in their place
        warnings.simplefilter("error")
        for bad in (np.nan, -1.0):
            for read in (laplace_transform, laplace_derivative,
                         lambda d, s: laplace_moments(d, s, 2)):
                with pytest.raises(RomresError, match="nonnegative"):
                    read(d, bad)
        for K in (0, 2.5, "2", None):
            with pytest.raises(RomresError):
                laplace_moments(d, 1.0, K)


_READS = [laplace_transform, laplace_derivative, lambda d, s: laplace_moments(d, s, 3)]


@pytest.mark.parametrize("s", ["2", 1 + 0j, np.array([1.0]), np.inf, 5e-324, 1e308],
                         ids=["str", "complex", "array", "inf", "tiny", "huge"])
def test_laplace_variable_contract(s):
    # finite, nonnegative real scalars only, each read without a warning
    d = _noisy_series(3 * _CHUNK, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in _READS:
            if isinstance(s, float) and 0 < s < np.inf:
                # a tiny s reads every sample with the kernel of s = 0, and
                # past s h = 746 the kernel is exactly zero
                expect = read(d, 0.0) if s < 1 else 0.0 * read(d, 0.0)
                assert np.array_equal(read(d, s), expect)
            else:
                with pytest.raises(RomresError, match="Laplace variable must be a finite and nonnegative real number"):
                    read(d, s)
