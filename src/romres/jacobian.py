"""Analytic Jacobian of the preconditioner map.

The Jacobian rows are d log kappa_j / d r_k (rows 1..m) and
d log kappahat_j / d r_k (rows m+1..2m) of the chain

    r -> Krylov basis V -> (A_m, b_m) -> (theta, c) -> cfrac.

Every stage after the projected system (A_m, b_m) is m x m algebra and
linear in its input derivative (dA_m, db_m), so the whole tail is one
2m x (m^2 + m) matrix, built once per evaluation.  ``diff_spectral``
gives the spectral derivatives S of the unit directions.  The coefficients
are the entries of the three-point scheme whose eigenpairs are (theta, c),
so the same ``diff_spectral`` on that scheme gives the 2m x 2m derivative
F of (theta, c) in the log coefficients, and the tail is F^-1 S.

The basis stage is differentiated in reverse mode (Giles, "Collected
matrix derivative results for forward and reverse mode algorithmic
differentiation", 2008): one adjoint sweep of the basis recurrence,
seeded with the 2m rows of the tail matrix, pulls the output cotangents
back through normalization, Gram-Schmidt and the solve of every column,
from the last to the first, and accumulates the per-edge Jacobian
directly.  The sweep keeps its cotangents in the coordinates of an
orthonormal basis of the doubled rational Krylov space, of dimension
d = 2m + 1 - (number of distinct nodes), where every one of them lies.
Each Jacobian costs sum_j (mult_j - 1) single-vector solves to build that
basis and one solve with d right-hand sides per distinct node, however many
edges the grid has; the rest is d-dimensional algebra and the per-edge
accumulation.
"""

from __future__ import annotations

import numpy as np

from .cfrac import ContinuedFraction, three_point_scheme
from .errors import DegeneracyError, RomresError
from .krylov import ChainContext, doubled_basis
from .ratfit import NodeFamily

__all__ = [
    "diff_spectral",
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
    W = Z.T @ dA_m @ Z
    dtheta = -np.einsum("njj->nj", W)
    phi = b_m @ Z
    cross = -np.einsum("i,nij,ij->nj", phi, W, 1.0 / gap)
    dc = 2.0 * phi[None, :] * (db_m @ Z + cross)
    return dtheta, dc


def _scheme_derivative(cf: ContinuedFraction) -> np.ndarray:
    """F = d(theta, c) / d(log kappa, log kappahat), shape (2m, 2m).

    The poles and residues are the eigenpairs of the symmetric three-point
    scheme (A, b), so F is ``diff_spectral`` on the 2m log-coefficient
    directions of (A, b), with theta ascending as in ``ReducedModel.pr``.
    """
    m = cf.m
    A, b = three_point_scheme(cf)
    g, q = 1.0 / cf.kappa, cf.kappa_hat ** -0.5
    i, k = np.arange(m), np.arange(m - 1)
    dA = np.zeros((2 * m, m, m))
    # log kappa_j flips the sign of g_j's terms: A_jj, A_{j+1,j+1}, A_{j,j+1}
    dA[i, i, i] = g * q ** 2
    dA[k, k + 1, k + 1] = g[:-1] * q[1:] ** 2
    dA[k, k, k + 1] = dA[k, k + 1, k] = -g[:-1] * q[:-1] * q[1:]
    # log kappahat_j scales row and column j of A, and b for j = 1, by -1/2
    dA[m + i, i, :] -= 0.5 * A
    dA[m + i, :, i] -= 0.5 * A
    db = np.zeros((2 * m, m))
    db[m] = -0.5 * b
    lam, Z = np.linalg.eigh(A)
    dtheta, dc = diff_spectral(dA, b, db, -lam[::-1], Z[:, ::-1])
    return np.vstack([dtheta.T, dc.T])


def _chain_tail(ctx: ChainContext, dA_m: np.ndarray, db_m: np.ndarray,
                target: str) -> np.ndarray:
    """Output derivatives (2m, n) for a batch of (dA_m, db_m), shapes
    (n, m, m) and (n, m), through the stages after the projection.

    For ``target='cfrac'`` the spectral derivatives S are mapped to the
    log coefficients as F^-1 S, with F from ``_scheme_derivative``.
    """
    dtheta, dc = diff_spectral(dA_m, ctx.model.b_m, db_m, ctx.model.pr.theta, ctx.model.Z)
    S = np.vstack([dtheta.T, dc.T])
    if target == "spectral":
        return S
    try:
        return np.linalg.solve(_scheme_derivative(ctx.cf), S)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("singular coefficient-to-spectral derivative") from exc


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
    the solve was applied to V_{c-1}, and G u_c-bar is added to that
    column's cotangent.  The basis supplies each column's solve (K),
    Gram-Schmidt coefficients and norm (U).

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
    D = ctx.operator.D
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    m = ctx.m
    Q = doubled_basis(ctx.operator, ctx.basis, ctx.b)
    DK = np.asarray(D @ K)
    DV = np.asarray(D @ V)
    Vq, Kq = Q.T @ V, Q.T @ K
    Wq = Q.T @ np.column_stack([ctx.model.AV, ctx.b])
    DY, QY = [], []
    for s in ctx.basis.family.nodes:
        Y = ctx.operator.solver.solve(s, Q)
        DY.append(np.asarray(D @ Y))
        QY.append(Q.T @ Y)
    layout = _column_layout(ctx.basis.family)

    C = np.concatenate([T_A + T_A.transpose(0, 2, 1), T_b[:, :, None]], axis=2)
    Vbar = Wq @ C.transpose(1, 2, 0)  # [a, :, o] is V_a-bar for output o, in Q
    J = -np.einsum("okb,kb->ko", DV @ T_A, DV)
    DGu = np.empty_like(J)  # D G u_c-bar, filled in place
    for c in range(m - 1, -1, -1):
        x = Vq[:, c]
        ubar = Vbar[c]
        ubar = (ubar - np.outer(x, x @ ubar)) / U[c, c]
        if c:
            proj = Vq[:, :c].T @ ubar
            Vbar[:c] -= (U[:c, c, None, None] * ubar[None]
                         + Kq[None, :, c, None] * proj[:, None, :])
            ubar = ubar - Vq[:, :c] @ proj
        j, q = layout[c]
        np.matmul(DY[j], ubar, out=DGu)
        DGu *= DK[:, c, None]
        J -= DGu
        if q > 1:  # column c was solved on V_{c-1}, not on b
            Vbar[c - 1] += QY[j] @ ubar
    return J


def assemble_jacobian(ctx: ChainContext, target: str = "cfrac") -> np.ndarray:
    """Jacobian of the preconditioner map with respect to the parameters.

    ``target='cfrac'`` (the standard map) produces the rows of
    d log kappa / dr and d log kappahat / dr in the wire ordering of the
    preconditioner output; ``target='spectral'`` stops at the spectral
    parameters and returns d theta / dr and d c / dr instead (the
    baseline parametrization used for comparison).  The chain is
    differentiated with respect to the edge resistivities and composed
    with the operator's sparse edge-from-cell ``averaging`` map.  A 1D
    operator has none (its parameters are its edges), and J is the
    per-edge Jacobian with 0.0 added into a column-major array: the exact
    result and layout of a product with the identity map.
    """
    if target not in ("cfrac", "spectral"):
        raise RomresError(f"unknown Jacobian target {target!r}")
    m = ctx.m
    units = np.eye(m * m + m)
    T = _chain_tail(ctx, units[:, :m * m].reshape(-1, m, m), units[:, m * m:],
                    target)
    J_edge = _adjoint_sweep(ctx, T[:, :m * m].reshape(-1, m, m), T[:, m * m:])
    if ctx.operator.averaging is None:
        # the identity product's result: 0.0 + x (which turns -0.0 into 0.0),
        # column-major, which the rounding of later products with J reads
        return np.add(J_edge.T, 0.0, order="F")
    return np.asarray(J_edge.T @ ctx.operator.averaging)
