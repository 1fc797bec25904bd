"""Discrete Laplace transforms of measured time series.

All three quadratures are plain rectangle rules on the stored samples,
matching the data pathway used to synthesize the experiments: values,
s-derivatives and shifted Taylor moments of the transfer function.  They
share one kernel, which returns the K sums

    S_k = h sum_i d_i t_i^k / k! exp(-s t_i),   k = 0..K-1,

without one ``exp`` per sample.  The value is S_0, the s-derivative -S_1
and the Taylor moments (-1)^k S_k.

The active samples (those whose kernel has not underflowed) are cut into
chunks of L = ``_CHUNK`` samples; sample i of chunk c sits at
t = t0_c + tau_i with t0_c = c L h and tau_i = (i + 1) h.  The binomial
split

    t^k / k! = sum_{j<=k} t0_c^(k-j) / (k-j)! * tau_i^j / j!,
    exp(-s t) = exp(-s t0_c) * exp(-s tau_i),

keeps every term of a positive series positive, so S_k is a sum over
chunks and powers j <= k of the per-chunk weight
t0_c^(k-j) / (k-j)! exp(-s t0_c) times the chunk's product with the kernel
column tau^j / j! exp(-s tau).  Those products are one BLAS matrix-vector
product (GEMV) per power j < K on the (n_chunks x L) sample view.  One
product with all K columns would be a GEMM that packs the whole view: on
1e7 samples (2 cores, OpenBLAS 0.3.31, 2 threads) the value alone took
1.9 ms, the derivative through the two-column GEMM 6.3 ms, and both
through two GEMVs 3.7 ms.  Kernel columns and chunk weights are
exponentiated in log space, so large k and long horizons cannot overflow
t^k; the fewer than L trailing samples are summed directly.

This is more accurate than one weight per sample.  A single dot product
over n samples accumulates rounding that grows with n, while here each
chunk adds L terms and the chunk sums are then combined.  Against an
extended-precision evaluation of the same rule (``tests/test_laplace.py``)
on a 1e7-sample diffusion response (N = 299, T = 100, h = 1e-5), the
largest relative error of a moment is 8.8e-16 at s = 0 with K = 12, where
one weight per sample gave 6e-14 to 1e-13; 6.7e-16 at s = 60 with K = 10,
against up to 4.7e-15; and 1e-16 at s = 2 with K = 2, against 3e-14 to
4.4e-14.
"""

from __future__ import annotations

import operator

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
    # also rejects NaN, which compares false
    if not s >= 0:
        raise RomresError(f"Laplace variable must be nonnegative, got {s}")


def _active_slice(series: TimeSeries, s: float) -> int:
    # samples past this index multiply an exactly-zero kernel
    if s <= 0:
        return series.n_samples
    k = int(np.floor(-_EXP_UNDERFLOW / (s * series.step))) + 1
    return min(series.n_samples, max(k, 1))


def _log_weights(x: np.ndarray, s: float, K: int) -> np.ndarray:
    """Rows x^k / k! exp(-s x), k < K, with x^k formed through log x."""
    w = np.empty((K, x.size))
    w[0] = np.exp(-s * x)
    if K > 1:
        k = np.arange(1, K)[:, None]
        # x = 0 (the first chunk's offset) gives log 0 = -inf and weight 0
        with np.errstate(divide="ignore"):
            w[1:] = np.exp(k * np.log(x) - s * x - gammaln(k + 1))
    return w


def _chunked_moments(series: TimeSeries, s: float, K: int) -> np.ndarray:
    """S_k = h sum_i d_i t_i^k / k! exp(-s t_i), k < K, over the active samples."""
    h, d = series.step, series.samples
    n = _active_slice(series, s)
    nc = n // _CHUNK
    blocks = d[: nc * _CHUNK].reshape(nc, _CHUNK)
    q = [blocks @ col for col in _log_weights(h * np.arange(1, _CHUNK + 1), s, K)]
    w = _log_weights(h * (_CHUNK * np.arange(nc)), s, K)
    tail = d[nc * _CHUNK : n]
    w_tail = _log_weights(h * np.arange(nc * _CHUNK + 1, n + 1), s, K)
    S = np.empty(K)
    for k in range(K):
        # chunk weights of power k - j against the chunks' kernel-j sums
        S[k] = sum(w[k - j] @ q[j] for j in range(k + 1)) + (tail * w_tail[k]).sum()
    return h * S


def laplace_transform(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of int_0^inf d(t) exp(-s t) dt."""
    _check(series, s)
    return float(_chunked_moments(series, s, 1)[0])


def laplace_derivative(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of -int_0^inf d(t) t exp(-s t) dt."""
    _check(series, s)
    return -float(_chunked_moments(series, s, 2)[1])


def laplace_moments(series: TimeSeries, s_hat: float, K: int) -> np.ndarray:
    """Taylor coefficients tau_0..tau_{K-1} of the transform at s_hat.

    tau_k = ((-1)^k / k!) * h_T * sum_j d_j t_j^k exp(-s_hat t_j), so
    tau_0 and tau_1 are the value and the s-derivative.
    """
    _check(series, s_hat)
    try:
        K = operator.index(K)
    except TypeError:
        raise RomresError(f"K must be an integer, got {K!r}") from None
    if K < 1:
        raise RomresError("need at least one moment")
    tau = _chunked_moments(series, s_hat, K)
    tau[1::2] *= -1.0
    return tau
