"""Time-domain forward solver, noise synthesis and resolvent evaluations."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidGridError, RomresError, _require_integer, _require_real
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
# the longest series simulate_response makes: 1e9 samples are 8 GB of output,
# a hundred times the experiments' 1e7
_MAX_SAMPLES = 10 ** 9


@dataclass(frozen=True)
class TimeSeries:
    """Samples y(t_k) at t_k = k*h_T for k = 1..N_T.

    ``samples`` is a read-only view of the array given (converted to float
    if it is not; samples that are not real numbers are refused), and the
    array must not change after construction:
    ``peak``, the largest sample magnitude, is recorded by the validation
    pass, and the Laplace quadratures bound the samples they leave out by it.
    The caller's own array keeps its flags.
    """

    samples: np.ndarray
    step: float
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            samples = np.asarray(self.samples)
        except ValueError as exc:  # a ragged nested sequence
            raise RomresError(f"time series is not an array: {exc}") from None
        if samples.dtype.kind not in "biuf":
            raise RomresError(f"time series samples must be real, got dtype {samples.dtype}")
        samples = np.asarray(samples, dtype=float).view()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        _require_real("time step", self.step, positive=True)
        if samples.ndim != 1 or samples.size == 0:
            raise RomresError("time series must be a nonempty vector")
        # NaN and +-inf carry through min and max, with no boolean temporary
        lo, hi = float(samples.min()), float(samples.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise RomresError("time series contains nonfinite samples")
        object.__setattr__(self, "peak", max(-lo, hi))

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def horizon(self) -> float:
        return self.n_samples * self.step


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise, d_k = y_k (1 + level * chi_k); the
    chi_k are drawn from ``numpy.random.default_rng(seed)``, so the seed is a
    nonnegative integer."""

    level: float
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.level, numbers.Real) and 0 <= self.level < np.inf):
            raise RomresError(f"noise level must be nonnegative and finite, got {self.level!r}")
        if _require_integer("seed", self.seed) < 0:
            raise RomresError(f"noise seed must be nonnegative, got {self.seed!r}")


def _rows(op) -> int:
    """The rows of a ``SystemOperator``; InvalidGridError for anything else."""
    if not isinstance(op, SystemOperator):
        raise InvalidGridError(f"expected a SystemOperator, got {type(op).__name__}")
    return op.shape[0]


def _source(b, n: int) -> np.ndarray:
    """The source b as a float64 vector (b itself if it is one); InvalidGridError
    unless it is a finite real vector of the operator's n rows."""
    try:
        b = np.asarray(b)
    except ValueError as exc:  # a ragged nested sequence
        raise InvalidGridError(f"source is not an array: {exc}") from None
    if b.dtype.kind not in "biuf" or b.shape != (n,) or not np.all(np.isfinite(b)):
        raise InvalidGridError(f"source of shape {b.shape} and dtype {b.dtype} does not match "
                               f"a finite real vector of the operator's {n} rows")
    return np.asarray(b, dtype=float)


def _as_dense(A):
    """A dense copy of a sparse matrix or a ``SystemOperator``, or A as an array."""
    return A.toarray() if hasattr(A, "toarray") else np.asarray(A)


def spectral_weights(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of A and weights (b^T q_i)^2 for the symmetrized response.

    A is a ``SystemOperator`` or a dense or sparse matrix.  It must be finite,
    real and exactly symmetric, as every assembled operator is: ``eigh``
    would otherwise read only its lower triangle.
    """
    Ad = _as_dense(A)
    if Ad.ndim != 2 or Ad.dtype.kind not in "biuf" or not np.all(np.isfinite(Ad)) \
            or not np.array_equal(Ad, Ad.T):
        raise RomresError("A must be a finite, real symmetric matrix")
    b = _source(b, Ad.shape[0])
    lam, Q = sla.eigh(Ad)
    return lam, (Q.T @ b) ** 2


def _active_samples(decay: float, n: int) -> int:
    """How many of the samples exp(-decay * k), k = 1..n, are not 0.0.

    They underflow to exactly 0.0 past k = -_EXP_UNDERFLOW / decay.  A decay
    that is not positive keeps every sample, and so does a tiny one, whose
    bound overflows to inf or passes n (a Python float division: inf, not an
    OverflowError or a warning).
    """
    if not decay > 0:
        return n
    bound = -_EXP_UNDERFLOW / float(decay)
    return n if bound >= n else math.floor(bound) + 1


def _spectral_series(lam, w, n_t, h_t):
    # mode i is nonzero on samples [0, n_i): exp(li * t) underflows to 0.0 past it
    modes = []
    for li, wi in zip(lam, w):
        if wi == 0.0:
            continue
        modes.append((li, wi, _active_samples(-li * h_t, n_t)))
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
    the output's bytes for long series.  A T / h_T above ``_MAX_SAMPLES``
    (1e9) raises RomresError before anything is allocated.
    """
    for name, x in (("T", T), ("h_T", h_T)):
        _require_real(name, x, positive=True)
    # Python floats: T / h_T is inf, not an overflow warning, for a tiny h_T
    ratio = float(T) / float(h_T)
    if not ratio < _MAX_SAMPLES + 0.5:
        raise RomresError(f"T / h_T = {ratio:.3g} samples exceeds the ceiling of "
                          f"{_MAX_SAMPLES:.0e}")
    n_t = int(round(ratio))
    if n_t < 1:
        raise RomresError("empty time interval")
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
    """Cached factorizations of (s I - A) across shifts of a ``SystemOperator``.

    Each operator keeps one, built on first use (``SystemOperator.solver``),
    and every resolvent evaluation in the library asks the operator for it:
    one factorization per (operator, shift) serves every Krylov column,
    every source, the moments and the Jacobian.  The solver holds the
    operator's bands or A, not the operator, so its factors are freed with
    the operator.

    The factorization is chosen by the kind of operator, because the two
    kinds are different problems:

    - a 1D operator (symmetric tridiagonal by construction, see
      ``assemble_operator``): LAPACK's LDL^T of a symmetric positive
      definite tridiagonal matrix, ``pttrf``/``pttrs``, on the operator's
      bands (main, off) as they are, with no sparse matrix built.  It costs
      O(n) per shift with no ordering step and no pivoting.  sI - A is
      positive definite for every shift s >= 0, since A = -D^T diag(r) D
      with r > 0, so a pivot that is not positive means the shift is
      singular (or, below zero, that sI - A is indefinite) and raises.
    - a 2D operator: SuperLU of its CSR A, whose fill-reducing ordering the
      five-point stencil needs.  sI - A is symmetric, so the ordering is
      the symmetric minimum degree on A^T + A (``MMD_AT_PLUS_A``), with
      partial pivoting kept: on a 90 x 30 grid the factor holds a third
      fewer entries than under SuperLU's default column ordering.

    Any other input raises InvalidGridError, before any work.  RomresError
    is raised for a shift that is not a real scalar (a complex shift, numpy's
    included, a string or an array), is not finite or is singular ("singular
    shift"), and a right-hand side that is not a real vector or matrix with n rows.
    """

    def __init__(self, op: SystemOperator):
        # the bands or A, not op itself: op keeps its solver
        # (``SystemOperator.solver``), and holding op would make a cycle
        self._n, self._bands, self._factors = _rows(op), op.bands, {}
        self._A = op.A if op.bands is None else None

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
        rhs = np.asarray(rhs)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self._n or rhs.dtype.kind not in "biuf":
            raise RomresError(f"right-hand side of shape {rhs.shape} and dtype {rhs.dtype} is "
                              f"not a real vector or matrix with the operator's {self._n} rows")
        if not isinstance(s, numbers.Real):
            raise RomresError(f"shift must be a real scalar, got {s!r}")
        key = float(s)
        solve = self._factors.get(key)
        if solve is None:
            solve = self._factors[key] = self._factor(key)
        return solve(rhs)


def transfer_eval(op: SystemOperator, b, s: float):
    """Value and s-derivative of the transfer function b^T (sI - A)^{-1} b.

    ``op`` must be a ``SystemOperator`` and b a finite real vector of its n
    rows (InvalidGridError).  One solve x = (sI - A)^{-1} b serves both: A is
    symmetric, so the derivative -b^T (sI - A)^{-2} b equals -x^T x.
    """
    b = _source(b, _rows(op))
    x = op.solver.solve(s, b)
    return float(np.dot(b, x)), -float(np.dot(x, x))


def transfer_moments(op: SystemOperator, b, s_hat: float, K: int) -> np.ndarray:
    """Taylor coefficients tau_0..tau_{K-1} of the transfer function at s_hat.

    tau_k = (-1)^k b^T (s_hat I - A)^{-(k+1)} b, so that
    Y(s) = sum_k tau_k (s - s_hat)^k.  ``op`` and b are checked as in
    ``transfer_eval``; the K solves run on the operator's one factor of
    s_hat I - A (``SystemOperator.solver``).
    """
    K = _require_integer("K", K)
    if K < 1:
        raise RomresError("need at least one moment")
    b = _source(b, _rows(op))
    if K > b.size:
        warnings.warn("more moments than system dimension; trailing ones are rank deficient")
    solver = op.solver
    tau, x = np.empty(K), b
    for k in range(K):
        x = solver.solve(s_hat, x)
        tau[k] = float(np.dot(b, x))
    tau[1::2] *= -1.0
    return tau
