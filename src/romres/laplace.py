"""Discrete Laplace transforms of measured time series.

All three quadratures are plain rectangle rules on the stored samples,
matching the data pathway used to synthesize the experiments: values,
s-derivatives and shifted Taylor moments of the transfer function.

The value and the s-derivative are evaluated without one ``exp`` per
sample.  The active samples (those whose kernel has not underflowed) are
cut into chunks of L = ``_CHUNK`` samples; sample i of chunk c sits at
t = t0_c + tau_i with t0_c = c L h and tau_i = (i + 1) h, so

    exp(-s t) = exp(-s t0_c) * p_i,        p_i = exp(-s tau_i).

One length-L kernel p and one scale per chunk are exponentiated, and the
sum becomes the BLAS product of the (n_chunks x L) sample matrix with p,
scaled per chunk.  The t-weighted sum of the derivative splits the same
way, t = t0_c + tau_i, so one product with the two columns [p, tau p]
serves it.  Fewer than L trailing samples are summed directly.

This is at least as accurate as the per-sample kernel.  Both kernels carry
the rounding of the argument s t, about s t eps, in the scale exp(-s t0_c)
here and in exp(-s t) there, and that term is largest where the kernel
is smallest.  The sum is where they differ: one dot product over n samples
accumulates rounding that grows with n, while the chunked form adds L
terms per chunk and then n / L chunk sums.  On a noisy 1e7-sample series
at s = 2 the relative error against an extended-precision evaluation of
the same rule falls from about 1e-13 to below 1e-15
(``tests/test_laplace.py::test_long_noisy_series_accuracy``).

The Taylor moments keep one weight per sample: t^k does not factor over
a chunk.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import RomresError
from .forward import _EXP_UNDERFLOW, TimeSeries

__all__ = ["laplace_transform", "laplace_derivative", "laplace_moments"]

# samples per chunk of the factorized kernel
_CHUNK = 4096


def _check(series: TimeSeries, s: float):
    if series.n_samples == 0:
        raise RomresError("empty time series")
    if s < 0:
        raise RomresError("Laplace variable must be nonnegative")


def _active_slice(series: TimeSeries, s: float) -> int:
    # samples past this index multiply an exactly-zero kernel
    if s <= 0:
        return series.n_samples
    k = int(np.floor(-_EXP_UNDERFLOW / (s * series.step))) + 1
    return min(series.n_samples, max(k, 1))


def _rectangle_rule(series: TimeSeries, s: float, t_weighted: bool) -> float:
    """h sum_k d_k w_k exp(-s t_k) over the active samples, w = t or 1."""
    h, d = series.step, series.samples
    n = _active_slice(series, s)
    nc = n // _CHUNK
    tau = h * np.arange(1, _CHUNK + 1)
    p = np.exp(-s * tau)
    t0 = h * (_CHUNK * np.arange(nc))
    blocks = d[: nc * _CHUNK].reshape(nc, _CHUNK)
    t = h * np.arange(nc * _CHUNK + 1, n + 1)
    tail = d[nc * _CHUNK : n] * np.exp(-s * t)
    if t_weighted:
        q = blocks @ np.column_stack([p, tau * p])
        total = np.exp(-s * t0) @ (t0 * q[:, 0] + q[:, 1]) + tail @ t
    else:
        total = np.exp(-s * t0) @ (blocks @ p) + tail.sum()
    return h * float(total)


def laplace_transform(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of int_0^inf d(t) exp(-s t) dt."""
    _check(series, s)
    return _rectangle_rule(series, s, t_weighted=False)


def laplace_derivative(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of -int_0^inf d(t) t exp(-s t) dt."""
    _check(series, s)
    return -_rectangle_rule(series, s, t_weighted=True)


def laplace_moments(series: TimeSeries, s_hat: float, K: int) -> np.ndarray:
    """Taylor coefficients tau_0..tau_{K-1} of the transform at s_hat.

    tau_k = ((-1)^k / k!) * h_T * sum_j d_j t_j^k exp(-s_hat t_j).  The
    weights are accumulated as exp(k log t - s_hat t - log k!) so that large
    k and long horizons cannot overflow t^k.
    """
    _check(series, s_hat)
    if K < 1:
        raise RomresError("need at least one moment")
    n = _active_slice(series, s_hat)
    t = series.step * np.arange(1, n + 1)
    log_t = np.log(t)
    tau = np.empty(K)
    sign = 1.0
    for k in range(K):
        w = np.exp(k * log_t - s_hat * t - gammaln(k + 1))
        tau[k] = sign * series.step * float(np.dot(series.samples[:n], w))
        sign = -sign
    return tau
