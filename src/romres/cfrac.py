"""Stieltjes continued fractions: Lanczos to the three-point scheme and its inverse.

A rational function with negative poles and positive residues has a
continued-fraction expansion

    Y_m(s) = 1/(kh_1 s + 1/(k_1 + 1/(kh_2 s + ... + 1/(kh_m s + 1/k_m))))

with positive coefficients (kappa_j, kappahat_j).  The coefficients are the
entries of an equivalent three-point finite-difference scheme, whose
symmetric form (``three_point_scheme``) has the poles and residues as its
eigenpairs.  A Lanczos iteration on the poles, started from the normalized
residues, builds that scheme's tridiagonal matrix, and the scheme's
inverse reads the coefficients off its entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DegeneracyError, RomresError, _real_array, _require_real
from .ratfit import PoleResidue

__all__ = [
    "ContinuedFraction",
    "pole_residue_to_cfrac",
    "three_point_scheme",
    "eval_cfrac",
    "solve_fd_scheme",
]

# relative floor under which a formally positive coefficient is treated as
# degenerate (sign-correct but meaningless fits)
_POSITIVITY_FLOOR = 1e-14


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients (kappa_j, kappahat_j), admissible by construction: a
    coefficient that is not finite, or not above 1e-14 of the largest in
    its vector, raises AdmissibilityError with its ``index``."""

    kappa: np.ndarray
    kappa_hat: np.ndarray

    def __post_init__(self):
        k = _real_array("kappa", self.kappa)
        kh = _real_array("kappa_hat", self.kappa_hat)
        object.__setattr__(self, "kappa", k)
        object.__setattr__(self, "kappa_hat", kh)
        if k.shape != kh.shape or k.ndim != 1 or k.size == 0:
            raise RomresError("kappa and kappa_hat must be matching vectors")
        for name, arr in (("kappa", k), ("kappa_hat", kh)):
            # a NaN passes the floor test, so nonfinite entries are found first
            bad = np.flatnonzero(~np.isfinite(arr))
            if not bad.size:
                bad = np.flatnonzero(arr <= _POSITIVITY_FLOOR * np.max(np.abs(arr)))
            if bad.size:
                raise AdmissibilityError(f"{name}[{bad[0]}] = {arr[bad[0]]:.3e} is not a "
                                         "finite positive coefficient", index=int(bad[0]))

    @property
    def m(self) -> int:
        return self.kappa.size

    def log_vector(self) -> np.ndarray:
        """Fixed wire ordering: (log kappa_1..m, log kappahat_1..m)."""
        return np.concatenate([np.log(self.kappa), np.log(self.kappa_hat)])


def _lanczos(theta: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and couplings of the Lanczos tridiagonal of (-diag theta, eta).

    Full reorthogonalization (applied twice) at every step; couplings are
    positive.  A vanishing coupling signals an invariant subspace
    (coinciding poles) and raises DegeneracyError.
    """
    m = theta.size
    X = np.zeros((m, m))
    X[:, 0] = eta / np.linalg.norm(eta)
    alpha, beta = np.zeros(m), np.zeros(m - 1)
    floor = 1e-14 * np.max(np.abs(theta))
    for j in range(m):
        x = X[:, j]
        Ex = -theta * x
        alpha[j] = Ex @ x
        if j == m - 1:
            break
        u = Ex - alpha[j] * x - (beta[j - 1] * X[:, j - 1] if j > 0 else 0.0)
        for _ in range(2):
            u -= X[:, : j + 1] @ (X[:, : j + 1].T @ u)
        nb = np.linalg.norm(u)
        if nb <= floor:
            raise DegeneracyError(f"Lanczos breakdown at step {j + 1}: "
                                  "invariant subspace (coinciding poles?)")
        beta[j] = nb
        X[:, j + 1] = u / nb
    return alpha, beta


def _reciprocal(x: float, j: int) -> float:
    if x == 0:
        raise DegeneracyError(f"vanishing denominator at coefficient {j + 1}")
    return 1.0 / x


def _scheme_inverse(diag: np.ndarray, off: np.ndarray, total: float) -> ContinuedFraction:
    """Inverse of ``three_point_scheme``: the coefficients of the scheme
    with diagonal ``diag``, couplings ``off`` and b_1^2 = ``total``.

    Row by row, with kappahat_1 = 1/total,
        A_{j,j+1}^2 = 1/(kappa_j^2 kappahat_j kappahat_{j+1}),
        A_jj = -(1/kappa_j + 1/kappa_{j-1}) / kappahat_j   (1/kappa_0 = 0),
    so the couplings' signs drop out.
    """
    m = diag.size
    k, kh = np.empty(m), np.empty(m)
    kh[0] = 1.0 / total
    for j in range(m):
        if j:
            kh[j] = _reciprocal(k[j - 1] ** 2 * off[j - 1] ** 2 * kh[j - 1], j)
        k[j] = -_reciprocal(diag[j] * kh[j] + (1.0 / k[j - 1] if j else 0.0), j)
    return ContinuedFraction(kappa=k, kappa_hat=kh)


def pole_residue_to_cfrac(pr: PoleResidue) -> ContinuedFraction:
    """Continued fraction of a pole/residue model.

    The Lanczos iteration on the poles with start vector
    eta_i = sqrt(c_i / sum c) builds the three-point scheme, and its
    inverse gives the coefficients; coefficients that are not all positive
    raise AdmissibilityError when the ContinuedFraction is built.
    """
    theta, c = pr.theta, pr.c
    if np.any(c <= 0):
        raise AdmissibilityError("residues must be positive", index=int(np.argmin(c)))
    total = float(np.sum(c))
    return _scheme_inverse(*_lanczos(theta, np.sqrt(c / total)), total)


def three_point_scheme(cf: ContinuedFraction) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric form (A, b) of the three-point scheme, Y_m(s) = b^T (sI - A)^-1 b.

    With g = 1/kappa and q = kappahat^(-1/2), A = diag(q) L diag(q), where
    L_jj = -(g_j + g_{j-1}) with g_0 = 0 and L_{j,j+1} = L_{j+1,j} = g_j;
    b = q_1 e_1.  So the eigenvalues of A are -theta and the residues are
    c_j = (b^T z_j)^2.
    """
    g = 1.0 / cf.kappa
    q = cf.kappa_hat ** -0.5
    A = np.diag(-q ** 2 * (g + np.concatenate([[0.0], g[:-1]])))
    k = np.arange(cf.m - 1)
    A[k, k + 1] = A[k + 1, k] = q[:-1] * q[1:] * g[:-1]
    b = np.zeros(cf.m)
    b[0] = q[0]
    return A, b


def eval_cfrac(cf: ContinuedFraction, s) -> np.ndarray | float:
    """Bottom-up evaluation of the nested fraction at finite real s."""
    s = _real_array("s", s, expected="finite real points", finite=True)
    k, kh = cf.kappa, cf.kappa_hat
    with np.errstate(divide="ignore", over="ignore"):  # +-inf at a pole, 0 at a huge |s|
        t = kh[-1] * s + 1.0 / k[-1]
        for j in range(cf.m - 2, -1, -1):
            t = kh[j] * s + 1.0 / (k[j] + 1.0 / t)
        out = 1.0 / t
    return float(out) if out.ndim == 0 else out


def solve_fd_scheme(cf: ContinuedFraction, s: float) -> np.ndarray:
    """Solve the equivalent three-point scheme; w_1 equals eval_cfrac.

    Interior rows j = 2..m:
        (1/kh_j) [ (w_{j+1}-w_j)/k_j - (w_j-w_{j-1})/k_{j-1} ] - s w_j = 0
    with the excitation folded into row 1 and w_{m+1} = 0.  In the
    symmetric form (A, b) of ``three_point_scheme``,
    w = diag(kh^(-1/2)) (sI - A)^-1 b.  A shift that is not a finite real
    number raises RomresError.
    """
    s = _require_real("shift s", s)
    A, b = three_point_scheme(cf)
    try:
        u = np.linalg.solve(s * np.eye(cf.m) - A, b)
    except np.linalg.LinAlgError as exc:
        raise RomresError(f"singular reduced scheme at s={s!r}") from exc
    return cf.kappa_hat ** -0.5 * u
