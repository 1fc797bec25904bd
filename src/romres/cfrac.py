"""Stieltjes continued fractions and their Lanczos construction.

A rational function with negative poles and positive residues has a
continued-fraction expansion

    Y_m(s) = 1/(kh_1 s + 1/(k_1 + 1/(kh_2 s + ... + 1/(kh_m s + 1/k_m))))

with positive coefficients (kappa_j, kappahat_j).  The coefficients are the
entries of an equivalent three-point finite-difference scheme, and they are
computed from the pole/residue form through a tridiagonalizing Lanczos
iteration followed by a short recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DegeneracyError, RomresError
from .ratfit import PoleResidue

__all__ = [
    "Tridiagonal",
    "ContinuedFraction",
    "lanczos_tridiag",
    "cfrac_from_tridiagonal",
    "pole_residue_to_cfrac",
    "eval_cfrac",
    "solve_fd_scheme",
]

# relative floor under which a formally positive coefficient is treated as
# degenerate (sign-correct but meaningless fits)
_POSITIVITY_FLOOR = 1e-14


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: diagonal alpha, couplings beta.

    ``beta[j]`` couples positions j and j+1 (0-based), so beta has length
    m - 1 and is positive by the Lanczos sign convention.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if b.shape != (max(a.size - 1, 0),):
            raise RomresError("off-diagonal length must be m - 1")

    @property
    def m(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients (kappa_j, kappahat_j); admissible when all positive."""

    kappa: np.ndarray
    kappa_hat: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=float)
        kh = np.asarray(self.kappa_hat, dtype=float)
        object.__setattr__(self, "kappa", k)
        object.__setattr__(self, "kappa_hat", kh)
        if k.shape != kh.shape or k.ndim != 1 or k.size == 0:
            raise RomresError("kappa and kappa_hat must be matching vectors")

    @property
    def m(self) -> int:
        return self.kappa.size

    def require_admissible(self):
        for name, arr in (("kappa", self.kappa), ("kappa_hat", self.kappa_hat)):
            bad = np.flatnonzero(arr <= _POSITIVITY_FLOOR * np.max(np.abs(arr)))
            if bad.size:
                raise AdmissibilityError(f"{name}[{bad[0]}] = {arr[bad[0]]:.3e} not positive",
                                         index=int(bad[0]))

    def log_vector(self) -> np.ndarray:
        """Fixed wire ordering: (log kappa_1..m, log kappahat_1..m)."""
        self.require_admissible()
        return np.concatenate([np.log(self.kappa), np.log(self.kappa_hat)])

    def to_json(self) -> str:
        return json.dumps({"kappa": list(map(float, self.kappa)),
                           "kappa_hat": list(map(float, self.kappa_hat))},
                          indent=2, sort_keys=True)


def lanczos_tridiag(E: np.ndarray, eta: np.ndarray) -> tuple[Tridiagonal, np.ndarray]:
    """Tridiagonalize a small symmetric matrix, T = X^T E X, X[:, 0] = eta.

    Full reorthogonalization (applied twice) at every step; couplings are
    normalized positive, which makes the output unique.  A vanishing
    coupling signals an invariant subspace (e.g. coinciding poles) and
    raises DegeneracyError.
    """
    E = np.asarray(E, dtype=float)
    eta = np.asarray(eta, dtype=float)
    m = E.shape[0]
    if E.shape != (m, m) or eta.shape != (m,):
        raise RomresError("dimension mismatch in Lanczos input")
    if abs(np.linalg.norm(eta) - 1.0) > 1e-8:
        raise RomresError("Lanczos start vector must have unit norm")
    norm_E = np.linalg.norm(E, 2) if m > 1 else abs(float(E[0, 0]))

    X = np.zeros((m, m))
    X[:, 0] = eta / np.linalg.norm(eta)
    alpha = np.zeros(m)
    beta = np.zeros(max(m - 1, 0))
    for j in range(m - 1):
        x = X[:, j]
        alpha[j] = x @ E @ x
        u = E @ x - alpha[j] * x - (beta[j - 1] * X[:, j - 1] if j > 0 else 0.0)
        for _ in range(2):
            u -= X[:, : j + 1] @ (X[:, : j + 1].T @ u)
        nb = np.linalg.norm(u)
        if nb <= 1e-14 * max(norm_E, 1e-300):
            raise DegeneracyError(f"Lanczos breakdown at step {j + 1}: "
                                  "invariant subspace (coinciding poles?)")
        beta[j] = nb
        X[:, j + 1] = u / nb
    alpha[m - 1] = X[:, m - 1] @ E @ X[:, m - 1]
    return Tridiagonal(alpha=alpha, beta=beta), X


def cfrac_from_tridiagonal(tri: Tridiagonal, total_weight: float) -> ContinuedFraction:
    """Coefficient recursion from the tridiagonal entries.

    ``total_weight`` is sum(c_j) = 1/kappahat_1.  The recursion divides by
    intermediate coefficients, so any nonpositive or vanishing value along
    the way is reported as inadmissible/degenerate.
    """
    a, b = tri.alpha, tri.beta
    m = tri.m
    if total_weight <= 0:
        raise AdmissibilityError("total spectral weight not positive", index=0)
    kh = np.empty(m)
    k = np.empty(m)
    kh[0] = 1.0 / total_weight
    if a[0] == 0:
        raise DegeneracyError("alpha_1 vanishes in coefficient recursion")
    k[0] = -1.0 / (kh[0] * a[0])
    for j in range(1, m):
        denom = k[j - 1] ** 2 * b[j - 1] ** 2 * kh[j - 1]
        if denom == 0:
            raise DegeneracyError(f"vanishing denominator at coefficient {j + 1}")
        kh[j] = 1.0 / denom
        denom = a[j] * kh[j] + 1.0 / k[j - 1]
        if denom == 0:
            raise DegeneracyError(f"vanishing denominator at coefficient {j + 1}")
        k[j] = -1.0 / denom
    return ContinuedFraction(kappa=k, kappa_hat=kh)


def pole_residue_to_cfrac(pr: PoleResidue):
    """Continued fraction of a pole/residue model (spectral Lanczos path).

    Runs the Lanczos iteration on E = -diag(theta) with start vector
    eta_i = sqrt(c_i / sum c).  Returns (cfrac, tridiagonal, X) so that the
    derivative chain can reuse the Lanczos vectors; coefficients that are
    not all positive raise AdmissibilityError.
    """
    theta, c = pr.theta, pr.c
    if np.any(c <= 0):
        raise AdmissibilityError("residues must be positive", index=int(np.argmin(c)))
    total = float(np.sum(c))
    eta = np.sqrt(c / total)
    E = -np.diag(theta)
    tri, X = lanczos_tridiag(E, eta)
    cf = cfrac_from_tridiagonal(tri, total)
    cf.require_admissible()
    return cf, tri, X


def eval_cfrac(cf: ContinuedFraction, s) -> np.ndarray | float:
    """Bottom-up evaluation of the nested fraction."""
    s = np.asarray(s, dtype=float)
    k, kh = cf.kappa, cf.kappa_hat
    t = kh[-1] * s + 1.0 / k[-1]
    for j in range(cf.m - 2, -1, -1):
        t = kh[j] * s + 1.0 / (k[j] + 1.0 / t)
    out = 1.0 / t
    return float(out) if out.ndim == 0 else out


def solve_fd_scheme(cf: ContinuedFraction, s: float) -> np.ndarray:
    """Solve the equivalent three-point scheme; w_1 equals eval_cfrac.

    Interior rows j = 2..m:
        (1/kh_j) [ (w_{j+1}-w_j)/k_j - (w_j-w_{j-1})/k_{j-1} ] - s w_j = 0
    with the excitation folded into row 1 and w_{m+1} = 0.
    """
    k, kh = cf.kappa, cf.kappa_hat
    m = cf.m
    diag = np.empty(m)
    lower = np.empty(m - 1)
    upper = np.empty(m - 1)
    rhs = np.zeros(m)
    rhs[0] = -1.0 / kh[0]
    diag[0] = -1.0 / (kh[0] * k[0]) - s
    if m > 1:
        upper[0] = 1.0 / (kh[0] * k[0])
    for j in range(1, m):
        diag[j] = -(1.0 / k[j] + 1.0 / k[j - 1]) / kh[j] - s
        lower[j - 1] = 1.0 / (kh[j] * k[j - 1])
        if j < m - 1:
            upper[j] = 1.0 / (kh[j] * k[j])
    mat = np.diag(diag)
    if m > 1:
        mat[np.arange(m - 1), np.arange(1, m)] = upper
        mat[np.arange(1, m), np.arange(m - 1)] = lower
    try:
        w = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise RomresError(f"singular reduced scheme at s={s!r}") from exc
    return w
