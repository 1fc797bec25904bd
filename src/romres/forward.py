"""Time-domain forward solver, noise synthesis and resolvent evaluations."""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import RomresError
from .grids import SystemOperator

__all__ = [
    "TimeSeries",
    "NoiseModel",
    "simulate_response",
    "add_noise",
    "transfer_eval",
    "transfer_moments",
    "shifted_solver",
]

# exp(x) underflows to exactly 0.0 below this argument, so terms past the
# cutoff contribute nothing to a sum and can be skipped bit-identically.
_EXP_UNDERFLOW = -746.0
# samples per block of the time-series synthesis: a block's times and one
# mode's terms (2 x 512 KB) stay in L2 while every active mode is added
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TimeSeries:
    """Samples y(t_k) at t_k = k*h_T for k = 1..N_T."""

    samples: np.ndarray
    step: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not 0 < self.step < np.inf:
            raise RomresError(f"time step must be positive and finite, got {self.step!r}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise RomresError("time series must be a nonempty vector")
        if not np.all(np.isfinite(self.samples)):
            raise RomresError("time series contains nonfinite samples")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def horizon(self) -> float:
        return self.n_samples * self.step

    def times(self) -> np.ndarray:
        return self.step * np.arange(1, self.n_samples + 1)


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise, d_k = y_k (1 + level * chi_k)."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.level < np.inf:
            raise RomresError(f"noise level must be nonnegative and finite, got {self.level!r}")


def _as_dense(A):
    """A dense copy of a sparse matrix or a ``SystemOperator``, or A as floats."""
    return A.toarray() if hasattr(A, "toarray") else np.asarray(A, dtype=float)


def spectral_weights(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of A and weights (b^T q_i)^2 for the symmetrized response.

    A is a dense or sparse matrix or a ``SystemOperator``.  It must be
    exactly symmetric, as every assembled operator is: ``eigh`` would
    otherwise read only its lower triangle.
    """
    Ad = _as_dense(A)
    if not np.array_equal(Ad, Ad.T):
        raise RomresError("A must be a symmetric matrix")
    lam, Q = sla.eigh(Ad)
    w = (Q.T @ b) ** 2
    return lam, w


def _spectral_series(lam, w, n_t, h_t):
    # mode i is nonzero on samples [0, n_i): exp(li * t) underflows to 0.0 past it
    modes = []
    for li, wi in zip(lam, w):
        if wi == 0.0:
            continue
        n_i = n_t if li >= 0 else min(n_t, int(np.floor(_EXP_UNDERFLOW / (li * h_t))) + 1)
        modes.append((li, wi, n_i))
    y = np.zeros(n_t)
    t = np.empty(min(n_t, _BLOCK))
    term = np.empty_like(t)
    for k0 in range(0, n_t, _BLOCK):
        k1 = min(n_t, k0 + _BLOCK)
        tb = t[:k1 - k0]
        # t_k = h_T + h_T * k, rounded as in h_T + h_T * arange(n_t)
        np.multiply(h_t, np.arange(k0, k1, dtype=float), out=tb)
        tb += h_t
        yb = y[k0:k1]
        # every sample sums its active modes in eigenvalue order, starting from 0.0
        for li, wi, n_i in modes:
            if n_i <= k0:
                continue
            nb = min(k1, n_i) - k0
            tm = term[:nb]
            np.multiply(li, tb[:nb], out=tm)
            np.exp(tm, out=tm)
            tm *= wi
            yb[:nb] += tm
    return y


def simulate_response(A, b, T: float, h_T: float) -> TimeSeries:
    """Samples of y(t) = b^T exp(At) b on t = h_T, 2 h_T, ..., T.

    Evaluates the eigenexpansion exactly; modes are truncated only where
    exp underflows to zero.  The time axis is walked in blocks of
    ``_BLOCK`` samples, and each block adds every mode still active in it
    through one reused buffer.  Each sample therefore goes through the same
    operations in the same order as a mode-by-mode sweep, so the series is
    bitwise identical to one.  The output is the only full-length array;
    the rest is a few block-sized buffers, so the peak stays within 1.5x
    the output's bytes for long series.
    """
    if not (0 < h_T < np.inf and 0 < T < np.inf):
        raise RomresError(f"T and h_T must be positive and finite, got {T!r}, {h_T!r}")
    n_t = int(round(T / h_T))
    if n_t < 1:
        raise RomresError("empty time interval")
    b = np.asarray(b, dtype=float)
    if b.shape != np.shape(A)[:1]:
        raise RomresError(f"source of shape {b.shape} does not match A of shape {np.shape(A)}")
    lam, w = spectral_weights(A, b)
    return TimeSeries(_spectral_series(lam, w, n_t, h_T), h_T)


def add_noise(series: TimeSeries, noise: NoiseModel) -> TimeSeries:
    """Apply the seeded multiplicative noise model; exact copy at level 0."""
    if noise.level == 0.0:
        return TimeSeries(series.samples.copy(), series.step)
    rng = np.random.default_rng(noise.seed)
    # in place, so the draw is the only full-length array besides the input;
    # bitwise equal to samples * (1 + level * chi)
    d = rng.standard_normal(series.n_samples)
    d *= noise.level
    d += 1.0
    d *= series.samples
    return TimeSeries(d, series.step)


class shifted_solver:
    """Cached factorizations of (s I - A) across shifts.

    The factorization is chosen by the kind of operator, because the two
    kinds are different problems:

    - a 1D ``SystemOperator`` (symmetric tridiagonal by construction, see
      ``assemble_operator``): LAPACK's LDL^T of a symmetric positive
      definite tridiagonal matrix, ``pttrf``/``pttrs``, on the operator's
      bands (main, off) as they are, with no sparse matrix built.  It costs
      O(n) per shift with no ordering step and no pivoting.  sI - A is
      positive definite for every shift s >= 0, since A = -D^T diag(r) D
      with r > 0, so a pivot that is not positive means the shift is
      singular (or, below zero, that sI - A is indefinite) and raises.
    - everything else (a 2D operator's CSR A, full reduced models, any
      other matrix, tridiagonal or not): SuperLU, whose fill-reducing
      ordering a 2D operator needs.  sI - A is symmetric, so the ordering
      is the symmetric minimum degree on A^T + A (``MMD_AT_PLUS_A``), with
      partial pivoting kept: on a 90 x 30 grid the factor holds a third
      fewer entries than under SuperLU's default column ordering.

    ``RomresError`` is raised for a matrix that is not square, a shift that
    is not a real scalar (a complex shift, numpy's included, a string or an
    array), is not finite or is singular ("singular shift"), and a
    right-hand side that is not a vector or matrix with n rows.
    """

    def __init__(self, A):
        self._factors = {}
        self._bands = A.bands if isinstance(A, SystemOperator) else None
        if self._bands is None:
            A = self._A = sp.csc_matrix(A.A if isinstance(A, SystemOperator) else A)
            if A.shape[0] != A.shape[1]:
                raise RomresError(f"shifted_solver needs a square matrix, got shape {A.shape}")
        self._n = A.shape[0]

    def _factor(self, s: float):
        if not np.isfinite(s):
            raise RomresError(f"shift must be finite, got s={s!r}")
        if self._bands is not None:
            main, off = self._bands
            d, e, info = sla.lapack.dpttrf(s - main, -off, overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise RomresError(f"singular shift s={s!r}: pivot {info} of sI - A is not "
                                  "positive (sI - A is singular or indefinite)")

            def solve_bands(rhs):
                x, info = sla.lapack.dpttrs(d, e, rhs)
                if info:
                    raise RomresError(f"dpttrs refused argument {-info}")
                return x

            return solve_bands
        mat = (s * sp.identity(self._n, format="csc") - self._A).tocsc()
        try:
            return spla.splu(mat, permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:  # singular shift
            raise RomresError(f"singular shift s={s!r}: {exc}") from exc

    def solve(self, s: float, rhs: np.ndarray) -> np.ndarray:
        if np.ndim(rhs) not in (1, 2) or np.shape(rhs)[0] != self._n:
            raise RomresError(f"right-hand side of shape {np.shape(rhs)} does not have "
                              f"the operator's {self._n} rows")
        if not isinstance(s, numbers.Real):
            raise RomresError(f"shift must be a real scalar, got {s!r}")
        key = float(s)
        solve = self._factors.get(key)
        if solve is None:
            solve = self._factors[key] = self._factor(key)
        return solve(rhs)


def transfer_eval(A, b, s: float):
    """Value and s-derivative of the transfer function b^T (sI - A)^{-1} b.

    One resolvent solve x = (sI - A)^{-1} b serves both: A is symmetric, so
    the derivative -b^T (sI - A)^{-2} b equals -x^T x.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise RomresError("source vector must be finite")
    x = shifted_solver(A).solve(s, b)
    return float(np.dot(b, x)), -float(np.dot(x, x))


def transfer_moments(A, b, s_hat: float, K: int, solver: shifted_solver | None = None) -> np.ndarray:
    """Taylor coefficients tau_0..tau_{K-1} of the transfer function at s_hat.

    tau_k = (-1)^k b^T (s_hat I - A)^{-(k+1)} b, so that
    Y(s) = sum_k tau_k (s - s_hat)^k.
    """
    import warnings

    try:
        K = operator.index(K)
    except TypeError:
        raise RomresError(f"K must be an integer, got {K!r}") from None
    if K < 1:
        raise RomresError("need at least one moment")
    if K > A.shape[0]:
        warnings.warn("more moments than system dimension; trailing ones are rank deficient")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise RomresError("source vector must be finite")
    solver = solver or shifted_solver(A)
    tau = np.empty(K)
    x = b
    sign = 1.0
    for k in range(K):
        x = solver.solve(s_hat, x)
        tau[k] = sign * float(np.dot(b, x))
        sign = -sign
    return tau
