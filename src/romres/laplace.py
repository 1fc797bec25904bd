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

Most of the active slice cannot change a moment.  For s > 0 the kernel's
mass past t = T' is int_T'^inf t^k / k! exp(-s t) dt = Q(k + 1, s T') /
s^(k + 1), with Q the regularized upper incomplete gamma function, and for
T' >= (K - 1) / s every kernel power k < K decreases past T', so the
rectangle terms past T' sum to at most peak * Q(k + 1, s T') / s^(k + 1),
peak being the series' largest magnitude (``TimeSeries.peak``).  Each
quadrature therefore reads only the chunks before the first chunk boundary
T' at which Q(K, s T') <= ``_TAIL_MASS`` = 2^-90 (Q(K, .) is the largest of
the K shares), with the chunk count rounded up to a multiple of
``_CUT_ROUND`` = 32.  The sums it forms are kept only if peak times each
dropped mass is at most ``_TAIL_SHARE`` = 2^-80 of |S_k|; the dropped part
is then below 2^-27 of an ulp of S_k and flips a last bit with probability
of order 1e-8.  Otherwise (a growing series, or signed data that cancels)
the whole active slice is summed as before.  The dropped chunks' sums enter
as 0.0, so every dot product over chunks keeps its full length and
order.  The rounding to 32 chunks keeps the kept GEMV rows aligned with the
full pass's row groups and thread splits: OpenBLAS forms GEMV rows in
groups of 4, with a different path for the remainder, so a kept chunk's
sum could otherwise differ from the full pass's in its last bits.  On the
18 noisy 1e7-sample inputs of the invert1d benchmark (OpenBLAS 0.3.31, 1
and 2 threads), at the zolotarev nodes of m = 3..6 (s = 2 to 486), every
cut moment with K = 2 equals the full sum bit for bit (and so did unrounded
cuts there), and the samples read fall 6.5-fold; at s = 0 nothing is cut.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import RomresError, _require_integer
from .forward import _EXP_UNDERFLOW, TimeSeries

__all__ = ["laplace_transform", "laplace_derivative", "laplace_moments"]

# samples per chunk of the factorized kernel
_CHUNK = 4096
# the tail cut (module docstring): the candidate leaves out at most this share
# of the kernel's mass for every power k < K ...
_TAIL_MASS = 2.0 ** -90
# ... and is kept only if peak * (dropped kernel mass) <= this share of |S_k|:
# below 2^-27 of an ulp of S_k, a last bit flips with probability ~1e-8
_TAIL_SHARE = 2.0 ** -80
# chunks kept, a multiple of this, so that each kept chunk's GEMV row takes the
# same kernel path as in the full pass (OpenBLAS groups GEMV rows by 4, with a
# different path for the remainder)
_CUT_ROUND = 32


def _check(series: TimeSeries, s) -> float:
    if series.n_samples == 0:
        raise RomresError("empty time series")
    # a string, complex number or array is refused before any arithmetic;
    # NaN compares false and inf fails the bound
    if not (isinstance(s, numbers.Real) and 0 <= s < np.inf):
        raise RomresError(f"Laplace variable must be a finite, nonnegative real scalar, got {s!r}")
    return float(s)


def _active_slice(series: TimeSeries, s: float) -> int:
    # samples past this index multiply an exactly-zero kernel
    if s <= 0:
        return series.n_samples
    sh = s * series.step
    # a tiny s h underflows to 0 or sends the bound past every sample
    bound = -_EXP_UNDERFLOW / sh if sh > 0 else np.inf
    if bound >= series.n_samples:
        return series.n_samples
    return max(int(np.floor(bound)) + 1, 1)


def _log_weights(x: np.ndarray, s: float, K: int) -> np.ndarray:
    """Rows x^k / k! exp(-s x), k < K, with x^k formed through log x."""
    w = np.empty((K, x.size))
    # s x overflows to inf for a huge s, and its kernel is then exactly 0
    with np.errstate(over="ignore"):
        w[0] = np.exp(-s * x)
        if K > 1:
            k = np.arange(1, K)[:, None]
            # x = 0 (the first chunk's offset) gives log 0 = -inf and weight 0
            with np.errstate(divide="ignore"):
                w[1:] = np.exp(k * np.log(x) - s * x - gammaln(k + 1))
    return w


def _slice_sums(series: TimeSeries, s: float, K: int, n: int, kept: int) -> np.ndarray:
    """S_k over the first n samples, k < K, reading only their first ``kept`` chunks.

    With ``kept`` below the n // L full chunks the later chunks' sums enter as
    0.0 and the trailing samples are left out; otherwise every sample is read.
    """
    h, d = series.step, series.samples
    nc = n // _CHUNK
    blocks = d[: kept * _CHUNK].reshape(kept, _CHUNK)
    # unread chunks' sums are 0.0, so the dot products below keep the full
    # pass's length and order
    q = np.zeros((K, nc))
    for j, col in enumerate(_log_weights(h * np.arange(1, _CHUNK + 1), s, K)):
        q[j, :kept] = blocks @ col
    w = _log_weights(h * (_CHUNK * np.arange(nc)), s, K)
    end = n if kept == nc else nc * _CHUNK
    tail = d[nc * _CHUNK : end]
    w_tail = _log_weights(h * np.arange(nc * _CHUNK + 1, end + 1), s, K)
    S = np.empty(K)
    for k in range(K):
        # chunk weights of power k - j against the chunks' kernel-j sums
        S[k] = sum(w[k - j] @ q[j] for j in range(k + 1)) + (tail * w_tail[k]).sum()
    return h * S


def _cut_chunks(s: float, h: float, K: int, nc: int) -> int:
    """The first multiple of ``_CUT_ROUND`` chunks whose kernel tail is negligible, else nc."""
    c = np.arange(_CUT_ROUND, nc, _CUT_ROUND)
    # Q(K, x) is the largest of the tail shares Q(k + 1, x), k < K.  It is 1
    # at s = 0, and it exceeds 1/2 at x = K - 1 (below the Gamma(K) median),
    # so a cut lies past T' = (K - 1) / s, where every kernel power decreases
    ok = gammaincc(K, s * (_CHUNK * h) * c) <= _TAIL_MASS
    return int(c[ok.argmax()]) if ok.any() else nc


def _cut_moments(series: TimeSeries, s: float, K: int) -> tuple[np.ndarray, int]:
    """S_k, k < K, over the active samples, and the number of chunks read."""
    n = _active_slice(series, s)
    nc = n // _CHUNK
    kept = _cut_chunks(s, series.step, K, nc)
    if kept < nc:
        S = _slice_sums(series, s, K, n, kept)
        x = s * (_CHUNK * series.step) * kept
        k1 = np.arange(1, K + 1)
        with np.errstate(divide="ignore"):
            # log of peak * int_T'^inf t^k / k! exp(-s t) dt (T' = x / s) against log 2^-80 |S_k|
            dropped = np.log(series.peak) + np.log(gammaincc(k1, x)) - k1 * np.log(s)
            if np.all(dropped <= np.log(np.abs(S)) + np.log(_TAIL_SHARE)):
                return S, kept
    return _slice_sums(series, s, K, n, nc), nc


def _chunked_moments(series: TimeSeries, s: float, K: int) -> np.ndarray:
    """S_k = h sum_i d_i t_i^k / k! exp(-s t_i), k < K, over the active samples."""
    return _cut_moments(series, s, K)[0]


def laplace_transform(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of int_0^inf d(t) exp(-s t) dt."""
    s = _check(series, s)
    return float(_chunked_moments(series, s, 1)[0])


def laplace_derivative(series: TimeSeries, s: float) -> float:
    """Rectangle-rule value of -int_0^inf d(t) t exp(-s t) dt."""
    s = _check(series, s)
    return -float(_chunked_moments(series, s, 2)[1])


def laplace_moments(series: TimeSeries, s_hat: float, K: int) -> np.ndarray:
    """Taylor coefficients tau_0..tau_{K-1} of the transform at s_hat.

    tau_k = ((-1)^k / k!) * h_T * sum_j d_j t_j^k exp(-s_hat t_j), so
    tau_0 and tau_1 are the value and the s-derivative.
    """
    s_hat = _check(series, s_hat)
    K = _require_integer("K", K)
    if K < 1:
        raise RomresError("need at least one moment")
    tau = _chunked_moments(series, s_hat, K)
    tau[1::2] *= -1.0
    return tau
