"""Analytic Jacobian of the preconditioner map.

The Jacobian rows are d log kappa_j / d r_k (rows 1..m) and
d log kappahat_j / d r_k (rows m+1..2m), assembled by the chain rule
through every stage of the evaluation chain: snapshot derivatives, the
triangular factor of the QR decomposition (via Cholesky-factor
differentiation), the projected operator, the eigendecomposition, the
Lanczos iteration (closed-form perturbation matrices) and the coefficient
recursion.

Three paths produce the derivatives (dA_m, db_m) of the projected system;
every stage after it (spectral, eta, Lanczos, coefficient recursion) has
one batched implementation that all three share.  The ``fast`` path serves
raw snapshot bases: it evaluates the formulas for all parameters at once,
contracting every appearance of the rank-one operator derivatives with the
difference factor D up front, so the per-parameter work involves only
m x m arrays.  Sequential bases are differentiated in reverse mode
instead: one adjoint sweep of their recurrence, with one cotangent per
output scalar of (dA_m, db_m) rather than one tangent per parameter.  The
``reference`` path follows the snapshot, basis and projection stages one
parameter at a time and exists for tests and cross-checks of the fast
path.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .cfrac import ContinuedFraction, Tridiagonal
from .errors import DegeneracyError, RomresError
from .forward import shifted_solver
from .krylov import ChainContext
from .ratfit import NodeFamily

__all__ = [
    "diff_snapshots",
    "diff_cholesky",
    "diff_basis",
    "diff_reduced",
    "diff_spectral",
    "diff_eta",
    "diff_lanczos",
    "diff_cfrac_recursion",
    "assemble_jacobian",
]


def _column_layout(family: NodeFamily):
    """(node_index, power) for every snapshot column."""
    layout = []
    for j, mult in enumerate(family.multiplicities):
        for q in range(1, int(mult) + 1):
            layout.append((j, q))
    return layout


def diff_snapshots(solver: shifted_solver, family: NodeFamily, K: np.ndarray,
                   d_k: np.ndarray) -> np.ndarray:
    """Derivative of the snapshot matrix for one parameter direction.

    For a simple node the column derivative is
        -(sI - A)^{-1} d_k  [(sI - A)^{-1} d_k]^T b,
    and for resolvent powers the product rule turns this into a short sum
    over split applications; the trailing resolvent factors applied to b
    are existing snapshot columns.
    """
    layout = _column_layout(family)
    nodes = family.nodes
    dK = np.zeros_like(K)
    # G^p d_k per node, built incrementally up to that node's multiplicity
    gd = {}
    for j, mult in enumerate(family.multiplicities):
        vecs = []
        x = d_k
        for _ in range(int(mult)):
            x = solver.solve(nodes[j], x)
            vecs.append(x)
        gd[j] = vecs
    col_of = {}
    for c, (j, q) in enumerate(layout):
        col_of[(j, q)] = c
    for c, (j, q) in enumerate(layout):
        acc = np.zeros(K.shape[0])
        for p in range(1, q + 1):
            scal = float(d_k @ K[:, col_of[(j, q + 1 - p)]])
            acc -= gd[j][p - 1] * scal
        dK[:, c] = acc
    return dK


def diff_cholesky(L: np.ndarray, dM: np.ndarray) -> np.ndarray:
    """Perturbations of a Cholesky factor, column by column.

    Solves (dL) L^T + L (dL)^T = dM for lower-triangular dL given the
    lower-triangular factor L with positive diagonal, for each dM of a
    batch of shape (n, m, m).
    """
    m = L.shape[0]
    if np.any(np.diag(L) <= 0):
        raise RomresError("Cholesky factor must have positive diagonal")
    n = dM.shape[0]
    dL = np.zeros((n, m, m))
    for k in range(m):
        s = dM[:, k, k] / 2.0
        if k:
            s = s - dL[:, k, :k] @ L[k, :k]
        dL[:, k, k] = s / L[k, k]
        if k + 1 < m:
            s = dM[:, k + 1:, k] - dL[:, k, : k + 1] @ L[k + 1:, : k + 1].T
            if k:
                s = s - np.einsum("nij,j->ni", dL[:, k + 1:, :k], L[k, :k])
            dL[:, k + 1:, k] = s / L[k, k]
    return dL


def diff_basis(K: np.ndarray, dK: np.ndarray, V: np.ndarray, U: np.ndarray,
               dU: np.ndarray) -> np.ndarray:
    """dV = (dK - V dU) U^{-1} from the differentiated QR decomposition."""
    rhs = dK - V @ dU
    return sla.solve_triangular(U.T, rhs.T, lower=True).T


def diff_reduced(A, b: np.ndarray, V: np.ndarray, dV: np.ndarray,
                 d_k: np.ndarray):
    """Derivatives of the projected operator and source.

    dA_m = -(V^T d_k)(d_k^T V) + dV^T A V + V^T A dV   (symmetrized),
    db_m = dV^T b.
    """
    AV = A @ V
    w = V.T @ d_k
    S = dV.T @ AV
    dA_m = -np.outer(w, w) + S + S.T
    dA_m = 0.5 * (dA_m + dA_m.T)
    db_m = dV.T @ np.asarray(b, dtype=float)
    return dA_m, db_m


def diff_spectral(dA_m: np.ndarray, b_m: np.ndarray, db_m: np.ndarray,
                  theta: np.ndarray, Z: np.ndarray):
    """Derivatives of poles and residues from the eigendecomposition.

    d theta_j = -z_j^T dA_m z_j; the eigenvector derivative uses the
    deflated eigen-expansion of the pseudoinverse (A_m + theta_j I)^+,
    which requires simple eigenvalues.  dA_m (n, m, m) and db_m (n, m)
    carry a batch axis; dtheta and dc come back with shape (n, m).
    """
    gap = theta[None, :] - theta[:, None]  # [i, j] -> theta_j - theta_i
    np.fill_diagonal(gap, np.inf)
    if np.min(np.abs(gap)) < 1e-10 * max(np.max(np.abs(theta)), 1e-300):
        raise DegeneracyError("eigenvalue gap below resolution in diff_spectral")
    W = np.einsum("nab,ai,bj->nij", dA_m, Z, Z, optimize=True)
    dtheta = -np.einsum("njj->nj", W)
    phi = b_m @ Z
    cross = -np.einsum("i,nij,ij->nj", phi, W, 1.0 / gap)
    dc = 2.0 * phi[None, :] * (db_m @ Z + cross)
    return dtheta, dc


def diff_eta(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Derivative of the normalized weights eta_i = sqrt(c_i / sum c).

    ``dc`` carries a batch axis, shape (n, m), and so does the result.
    """
    S = float(np.sum(c))
    dS = dc.sum(axis=1)
    eta = np.sqrt(c / S)
    return (dc - eta ** 2 * dS[:, None]) / (2.0 * eta * S)


def diff_lanczos(theta: np.ndarray, tri: Tridiagonal, X: np.ndarray,
                 dtheta: np.ndarray, deta: np.ndarray):
    """Perturbations of the tridiagonal entries under (dtheta, deta).

    Forward-mode differentiation of the Lanczos recurrence on
    E = -diag(theta) with start vector eta: the perturbations of alpha_j,
    beta_j and of the Lanczos vectors are propagated step by step, exactly
    mirroring the iteration that produced (tri, X).  ``deta`` must be
    tangent to the unit sphere (eta^T deta = 0), which holds automatically
    for perturbations coming from the residue weights.

    dtheta and deta carry a batch axis, shape (n, m); dalpha comes back
    with shape (n, m) and dbeta with shape (n, m-1).
    """
    if tri.beta.size and np.any(tri.beta <= 0):
        raise DegeneracyError("vanishing Lanczos coupling")
    n, m = dtheta.shape
    lam = -theta
    dlam = -dtheta
    al, be = tri.alpha, tri.beta

    dX = np.zeros((n, m, m))
    dX[:, :, 0] = deta
    dalpha = np.zeros((n, m))
    dbeta = np.zeros((n, max(m - 1, 0)))
    for j in range(m - 1):
        x = X[:, j]
        dx = dX[:, :, j]
        Ex = lam * x
        dEx = dlam * x[None, :] + lam[None, :] * dx
        dalpha[:, j] = dx @ Ex + dEx @ x
        du = dEx - dalpha[:, j, None] * x[None, :] - al[j] * dx
        if j > 0:
            du -= dbeta[:, j - 1, None] * X[None, :, j - 1] + be[j - 1] * dX[:, :, j - 1]
        xn = X[:, j + 1]
        dbeta[:, j] = du @ xn
        dX[:, :, j + 1] = (du - dbeta[:, j, None] * xn[None, :]) / be[j]
    x = X[:, m - 1]
    dx = dX[:, :, m - 1]
    Ex = lam * x
    dEx = dlam * x[None, :] + lam[None, :] * dx
    dalpha[:, m - 1] = dx @ Ex + dEx @ x
    return dalpha, dbeta


def diff_cfrac_recursion(tri: Tridiagonal, cf: ContinuedFraction,
                         dalpha: np.ndarray, dbeta: np.ndarray,
                         c: np.ndarray, dc: np.ndarray):
    """Differentiate the coefficient recursion that produced ``cf`` from
    ``tri`` and the total weight sum(c).

    dalpha, dbeta and dc carry a batch axis, shape (n, .); returns
    (dkappa, dkappahat), each of shape (n, m).
    """
    a, bt = tri.alpha, tri.beta
    kh, kp = cf.kappa_hat, cf.kappa
    n, m = dc.shape
    S = float(np.sum(c))
    dkh = np.empty((n, m))
    dkp = np.empty((n, m))
    dkh[:, 0] = -dc.sum(axis=1) / S ** 2
    x = kh[0] * a[0]
    dkp[:, 0] = (dkh[:, 0] * a[0] + kh[0] * dalpha[:, 0]) / x ** 2
    for j in range(1, m):
        x = kp[j - 1] ** 2 * bt[j - 1] ** 2 * kh[j - 1]
        dx = (2.0 * kp[j - 1] * dkp[:, j - 1] * bt[j - 1] ** 2 * kh[j - 1]
              + kp[j - 1] ** 2 * 2.0 * bt[j - 1] * dbeta[:, j - 1] * kh[j - 1]
              + kp[j - 1] ** 2 * bt[j - 1] ** 2 * dkh[:, j - 1])
        dkh[:, j] = -dx / x ** 2
        y = a[j] * kh[j] + 1.0 / kp[j - 1]
        dy = dalpha[:, j] * kh[j] + a[j] * dkh[:, j] - dkp[:, j - 1] / kp[j - 1] ** 2
        dkp[:, j] = dy / y ** 2
    return dkp, dkh


def _jacobian_reference(ctx: ChainContext):
    """(dA_m, db_m) one parameter at a time through the snapshot, basis
    and projection derivatives."""
    op = ctx.operator
    D = op.D
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    m = ctx.m
    n_e = op.n_edges
    dA_all = np.empty((n_e, m, m))
    db_all = np.empty((n_e, m))
    for k in range(n_e):
        d_k = np.asarray(D.getrow(k).todense()).ravel()
        dK = diff_snapshots(ctx.solver, ctx.family, K, d_k)
        dM = dK.T @ K + K.T @ dK
        dU = diff_cholesky(U.T, dM[None])[0].T
        dV = diff_basis(K, dK, V, U, dU)
        dA_all[k], db_all[k] = diff_reduced(op.A, ctx.b, V, dV, d_k)
    return dA_all, db_all


def _jacobian_fast(ctx: ChainContext):
    """(dA_m, db_m) for a raw snapshot basis.

    Every rank-one derivative is contracted with D up front, so the
    per-parameter work reduces to m x m algebra.
    """
    op = ctx.operator
    D = op.D
    A = op.A
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    fam = ctx.family
    m = ctx.m
    n_e = op.n_edges

    col_scale = np.linalg.norm(K, axis=0)
    Lt = (U / col_scale[None, :]).T  # lower factor of the equilibrated Gram

    AV = A @ V
    DK = np.asarray(D @ K)
    DV = np.asarray(D @ V)

    layout = _column_layout(fam)
    col_of = {jq: c for c, jq in enumerate(layout)}
    # D G_j^p [K | AV | b] per node and power
    bundle = np.column_stack([K, AV, ctx.b])
    contr = {}
    for j, mult in enumerate(fam.multiplicities):
        Yp = bundle
        for p in range(1, int(mult) + 1):
            Yp = ctx.solver.solve(fam.nodes[j], Yp)
            contr[(j, p)] = np.asarray(D @ Yp)

    KtdK = np.zeros((n_e, m, m))   # [., i, c] = K_i^T dK_c
    dKtAV = np.zeros((n_e, m, m))  # [., c, l] = dK_c^T (AV)_l
    dKtb = np.zeros((n_e, m))
    for c, (j, q) in enumerate(layout):
        for p in range(1, q + 1):
            scal = DK[:, col_of[(j, q + 1 - p)]]
            block = contr[(j, p)]
            KtdK[:, :, c] -= block[:, :m] * scal[:, None]
            dKtAV[:, c, :] -= block[:, m:2 * m] * scal[:, None]
            dKtb[:, c] -= block[:, 2 * m] * scal

    inv_n = 1.0 / col_scale
    dM = (KtdK + KtdK.transpose(0, 2, 1)) * inv_n[None, :, None] * inv_n[None, None, :]
    dLt = diff_cholesky(Lt, dM)

    A_m, b_m = ctx.model.A_m, ctx.model.b_m
    term = dKtAV * inv_n[None, :, None] - dLt @ A_m
    S = sla.solve_triangular(Lt, term.transpose(1, 0, 2).reshape(m, -1),
                             lower=True).reshape(m, n_e, m).transpose(1, 0, 2)
    dA_m = S + S.transpose(0, 2, 1) - DV[:, :, None] * DV[:, None, :]

    rhs_b = dKtb * inv_n[None, :] - np.einsum("nij,j->ni", dLt, b_m)
    db_m = sla.solve_triangular(Lt, rhs_b.T, lower=True).T
    return dA_m, db_m


def _jacobian_sequential(ctx: ChainContext):
    """(dA_m, db_m) for a sequential basis, by one adjoint sweep of its
    recurrence.

    Used when the raw snapshot columns are too collinear to differentiate.
    dA_m and db_m depend on the basis derivative only through the scalars
    dV_i^T W_j with W = [A V, b], so one cotangent is seeded per pair
    (i, j), V_i-bar = W_j, and all m(m+1) of them are pulled back together
    through normalization, the two-pass Gram-Schmidt step and the solve of
    every column, from the last to the first.  The solve of column c
    depends on edge k through -(sI - A)^{-1} d_k (d_k^T K_c), which adds
    -(D G u_c-bar)_k (D K_c)_k; G u_c-bar is also the cotangent of the
    previous column when column c is not the first of its node.  The basis
    supplies each step's raw solve (K), Gram-Schmidt coefficients and norm
    (U).
    """
    op = ctx.operator
    D = op.D
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    m = ctx.m
    w = m + 1
    W = np.column_stack([op.A @ V, ctx.b])
    DK = np.asarray(D @ K)
    DV = np.asarray(D @ V)
    layout = _column_layout(ctx.family)

    # Vbar[c][:, i*w + j] is the cotangent of V_c for dV_i^T W_j; it can be
    # nonzero only for i >= c, so column c works on directions c*w onward
    Vbar = np.zeros((m, op.n_state, m * w))
    for i in range(m):
        Vbar[i, :, i * w:(i + 1) * w] = W
    # P[k, i*w + j] accumulates d(dV_i^T W_j)/dr_k
    P = np.zeros((op.n_edges, m * w))
    for c in range(m - 1, -1, -1):
        lo = c * w
        x = V[:, c]
        ubar = Vbar[c, :, lo:]
        ubar = (ubar - np.outer(x, x @ ubar)) / U[c, c]
        if c:
            proj = V[:, :c].T @ ubar
            Vbar[:c, :, lo:] -= (U[:c, c, None, None] * ubar[None]
                                 + K[None, :, c, None] * proj[:, None, :])
            ubar = ubar - V[:, :c] @ proj
        j, q = layout[c]
        y = ctx.solver.solve(ctx.family.nodes[j], ubar)
        P[:, lo:] -= np.asarray(D @ y) * DK[:, c, None]
        if q > 1:  # column c was solved on V_{c-1}, not on b
            Vbar[c - 1, :, lo:] += y
    P = P.reshape(op.n_edges, m, w)
    S = P[:, :, :m]
    dA_m = S + S.transpose(0, 2, 1) - DV[:, :, None] * DV[:, None, :]
    return dA_m, P[:, :, m]


def assemble_jacobian(ctx: ChainContext, method: str = "fast",
                      target: str = "cfrac") -> np.ndarray:
    """Jacobian of the preconditioner map with respect to the parameters.

    ``target='cfrac'`` (the standard map) produces the rows of
    d log kappa / dr and d log kappahat / dr in the wire ordering of the
    preconditioner output; ``target='spectral'`` stops at the spectral
    parameters and returns d theta / dr and d c / dr instead (the
    baseline parametrization used for comparison).  The chain is
    differentiated with respect to the edge resistivities and composed
    with the (sparse) edge-from-parameter averaging map, which is the
    identity in 1D.  ``method='fast'`` picks the path that matches the
    basis generation; ``'reference'`` needs a raw basis.
    """
    if target not in ("cfrac", "spectral"):
        raise RomresError(f"unknown Jacobian target {target!r}")
    if method == "reference":
        if ctx.basis.generation == "sequential":
            raise RomresError("reference path needs a raw snapshot basis")
        dA_m, db_m = _jacobian_reference(ctx)
    elif method == "fast":
        if ctx.basis.generation == "sequential":
            dA_m, db_m = _jacobian_sequential(ctx)
        else:
            dA_m, db_m = _jacobian_fast(ctx)
    else:
        raise RomresError(f"unknown Jacobian method {method!r}")
    theta, c = ctx.pr.theta, ctx.pr.c
    dtheta, dc = diff_spectral(dA_m, ctx.model.b_m, db_m, theta, ctx.Z)
    if target == "spectral":
        J_edge = np.vstack([dtheta.T, dc.T])
    else:
        deta = diff_eta(c, dc)
        dalpha, dbeta = diff_lanczos(theta, ctx.tri, ctx.X, dtheta, deta)
        dkp, dkh = diff_cfrac_recursion(ctx.tri, ctx.cf, dalpha, dbeta, c, dc)
        J_edge = np.vstack([(dkp / ctx.cf.kappa).T, (dkh / ctx.cf.kappa_hat).T])
    M = ctx.operator.averaging
    return np.asarray(J_edge @ M)
