"""Analytic Jacobian of the preconditioner map.

The Jacobian rows are d log kappa_j / d r_k (rows 1..m) and
d log kappahat_j / d r_k (rows m+1..2m) of the chain

    r -> Krylov basis V -> (A_m, b_m) -> (theta, c) -> Lanczos -> cfrac.

Every stage after the projected system (A_m, b_m) is m x m algebra and
linear in its input derivative (dA_m, db_m), so the whole tail is one
2m x (m^2 + m) matrix, built once per evaluation by passing the unit
directions through the batched stages below (spectral, eta, Lanczos,
coefficient recursion).  The basis stage is differentiated in reverse mode
(Giles, "Collected matrix derivative results for forward and reverse mode
algorithmic differentiation", 2008): one adjoint sweep of the basis
recurrence, seeded with the 2m rows of the tail matrix, pulls the output
cotangents back through normalization, Gram-Schmidt and the solve of every
column, from the last to the first, and accumulates the per-edge Jacobian
directly.  The sweep keeps its cotangents in the coordinates of an
orthonormal basis of the doubled rational Krylov space, of dimension
d = 2m + 1 - (number of distinct nodes), where every one of them lies.
Each Jacobian costs sum_j (mult_j - 1) single-vector solves to build that
basis and one solve with d right-hand sides per distinct node, however many
edges the grid has; the rest is d-dimensional algebra and the per-edge
accumulation.  Raw and sequential bases share the sweep; they differ only
in what the next column's solve was applied to.
"""

from __future__ import annotations

import numpy as np

from .cfrac import ContinuedFraction, Tridiagonal
from .errors import DegeneracyError, RomresError
from .krylov import ChainContext, doubled_basis
from .ratfit import NodeFamily

__all__ = [
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


def _chain_tail(ctx: ChainContext, dA_m: np.ndarray, db_m: np.ndarray,
                target: str) -> np.ndarray:
    """Output derivatives (2m, n) for a batch of (dA_m, db_m), shapes
    (n, m, m) and (n, m), through the stages after the projection."""
    theta, c = ctx.pr.theta, ctx.pr.c
    dtheta, dc = diff_spectral(dA_m, ctx.model.b_m, db_m, theta, ctx.Z)
    if target == "spectral":
        return np.vstack([dtheta.T, dc.T])
    deta = diff_eta(c, dc)
    dalpha, dbeta = diff_lanczos(theta, ctx.tri, ctx.X, dtheta, deta)
    dkp, dkh = diff_cfrac_recursion(ctx.tri, ctx.cf, dalpha, dbeta, c, dc)
    return np.vstack([(dkp / ctx.cf.kappa).T, (dkh / ctx.cf.kappa_hat).T])


def _adjoint_sweep(ctx: ChainContext, T_A: np.ndarray, T_b: np.ndarray) -> np.ndarray:
    """Per-edge Jacobian (n_edges, n_out) of the outputs o whose derivative
    is sum(T_A[o] * dA_m) + T_b[o] . db_m.

    With d_k the k-th row of D and W = [A V, b], the derivatives for edge k
    are dA_m = S + S^T - (V^T d_k)(d_k^T V) with S_ab = dV_a^T (A V)_b, and
    db_m = dV^T b, so output o depends on the basis derivative only through
    sum_a dV_a^T W C_o[a]^T with C_o = [T_A[o] + T_A[o]^T | T_b[o]].  The
    sweep seeds V_a-bar with W C_o[a]^T for every output at once and pulls
    it back from the last column to the first through normalization, the
    two-pass Gram-Schmidt step and the solve.  The solve of column c
    depends on edge k through -(sI - A)^{-1} d_k (d_k^T K_c), which adds
    -(D G u_c-bar)_k (D K_c)_k; when column c is not the first of its node,
    G u_c-bar is also the cotangent of the solve's input.  That input is
    V_{c-1} in a sequential basis and the raw snapshot K_{c-1} in a raw
    one, so the raw case adds it to column c-1's cotangent after that
    column's normalization and Gram-Schmidt pull-back instead of before.
    The basis supplies each column's solve (K), Gram-Schmidt coefficients
    and norm (U).

    Every cotangent the sweep solves on lies in the span of the
    ``doubled_basis`` Q: the seeds lie in span{V, b}, and each solve at node
    j raises only that node's resolvent power, at most mult_j times down
    its chain.  So the sweep runs on coordinates in Q, d-vectors with
    d = 2m + 1 - (number of nodes), and the full space enters only through
    one solve Y_j = (s_j I - A)^{-1} Q with d right-hand sides per node:
    D G u_c-bar = (D Y_j) u_c and the handed-down cotangent is
    (Q^T Y_j) u_c.  Building Q costs sum_j (mult_j - 1) single-vector
    solves.  The products D Y_j come from full solves, not from a Galerkin
    solve in Q: close nodes leave Q's extension directions too inexact for
    that.  On a random 1D field (N = 199, zolotarev m = 5) the result is
    1.4e-11 off a long-double recomputation of the full-space sweep, whose
    double-precision version is 2.7e-12 off.
    """
    op = ctx.operator
    D = op.D
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    m = ctx.m
    sequential = ctx.basis.generation == "sequential"
    Q = doubled_basis(ctx.solver, ctx.basis, ctx.b)
    DK = np.asarray(D @ K)
    DV = np.asarray(D @ V)
    Vq, Kq = Q.T @ V, Q.T @ K
    Wq = Q.T @ np.column_stack([op.A @ V, ctx.b])
    DY, QY = [], []
    for s in ctx.family.nodes:
        Y = ctx.solver.solve(s, Q)
        DY.append(np.asarray(D @ Y))
        QY.append(Q.T @ Y)
    layout = _column_layout(ctx.family)

    C = np.concatenate([T_A + T_A.transpose(0, 2, 1), T_b[:, :, None]], axis=2)
    Vbar = Wq @ C.transpose(1, 2, 0)  # [a, :, o] is V_a-bar for output o, in Q
    J = -np.einsum("okb,kb->ko", DV @ T_A, DV)
    DGu = np.empty_like(J)  # D G u_c-bar, filled in place
    Kbar = 0.0  # raw bases: cotangent of K_c handed down by column c+1
    for c in range(m - 1, -1, -1):
        x = Vq[:, c]
        ubar = Vbar[c]
        ubar = (ubar - np.outer(x, x @ ubar)) / U[c, c]
        if c:
            proj = Vq[:, :c].T @ ubar
            Vbar[:c] -= (U[:c, c, None, None] * ubar[None]
                         + Kq[None, :, c, None] * proj[:, None, :])
            ubar = ubar - Vq[:, :c] @ proj
        ubar = ubar + Kbar
        j, q = layout[c]
        np.matmul(DY[j], ubar, out=DGu)
        DGu *= DK[:, c, None]
        J -= DGu
        Kbar = 0.0
        if q > 1:  # column c was solved on column c-1, not on b
            y = QY[j] @ ubar
            if sequential:
                Vbar[c - 1] += y
            else:
                Kbar = y
    return J


def assemble_jacobian(ctx: ChainContext, target: str = "cfrac") -> np.ndarray:
    """Jacobian of the preconditioner map with respect to the parameters.

    ``target='cfrac'`` (the standard map) produces the rows of
    d log kappa / dr and d log kappahat / dr in the wire ordering of the
    preconditioner output; ``target='spectral'`` stops at the spectral
    parameters and returns d theta / dr and d c / dr instead (the
    baseline parametrization used for comparison).  The chain is
    differentiated with respect to the edge resistivities and composed
    with the (sparse) edge-from-parameter averaging map, which is the
    identity in 1D.
    """
    if target not in ("cfrac", "spectral"):
        raise RomresError(f"unknown Jacobian target {target!r}")
    m = ctx.m
    units = np.eye(m * m + m)
    T = _chain_tail(ctx, units[:, :m * m].reshape(-1, m, m), units[:, m * m:],
                    target)
    J_edge = _adjoint_sweep(ctx, T[:, :m * m].reshape(-1, m, m), T[:, m * m:])
    return np.asarray(J_edge.T @ ctx.operator.averaging)
