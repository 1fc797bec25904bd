import numpy as np
import pytest

from romres.cfrac import pole_residue_to_cfrac
from romres.errors import DegeneracyError
from romres.grids import (Grid2D, Grid1D, ResistivityField, assemble_operator,
                          assemble_operator_2d, build_difference_1d,
                          source_vector, uniform_segments)
from romres.jacobian import (_jacobian_sequential, assemble_jacobian,
                             diff_basis, diff_cholesky, diff_cfrac_recursion,
                             diff_eta, diff_lanczos, diff_reduced,
                             diff_snapshots, diff_spectral)
from romres.krylov import preconditioner_R, preconditioner_chain
from romres.ratfit import PoleResidue, node_family


# the m x m chain stages take a leading batch axis; their tests run each
# check at both of these batch sizes
BATCH_SIZES = (1, 3)


def fd_jacobian(fn, r, h=1e-6):
    out0 = fn(r)
    J = np.empty((out0.size, r.size))
    for k in range(r.size):
        rp = r.copy(); rp[k] += h
        rm = r.copy(); rm[k] -= h
        J[:, k] = (fn(rp) - fn(rm)) / (2 * h)
    return J


def test_diff_cholesky_identity():
    L = np.eye(4)
    for n in BATCH_SIZES:
        scale = np.arange(1, n + 1)[:, None, None]
        dL = diff_cholesky(L, scale * np.diag([0.1, 0.2, 0.3, 0.4]))
        assert dL.shape == (n, 4, 4)
        assert np.allclose(dL, scale * np.diag([0.05, 0.1, 0.15, 0.2]))
        assert np.allclose(diff_cholesky(L, np.zeros((n, 4, 4))), 0.0)


def test_diff_cholesky_fd(rng):
    A = rng.random((5, 5))
    M = A @ A.T + 5 * np.eye(5)
    L = np.linalg.cholesky(M)
    h = 1e-7
    for n in BATCH_SIZES:
        dM = rng.random((n, 5, 5))
        dM = dM + dM.transpose(0, 2, 1)
        dL = diff_cholesky(L, dM)
        for i in range(n):
            dL_fd = (np.linalg.cholesky(M + h * dM[i])
                     - np.linalg.cholesky(M - h * dM[i])) / (2 * h)
            assert np.max(np.abs(dL[i] - dL_fd)) < 1e-6 * np.max(np.abs(dL_fd))


def test_diff_snapshots_fd(small_system, rng):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)
    h = 1e-6
    k = 11
    from romres.grids import operator_derivative
    from romres.krylov import build_krylov

    d_k = operator_derivative(op.D, k)
    basis = build_krylov(op.A, b, fam)
    dK = diff_snapshots(
        __import__("romres.forward", fromlist=["shifted_solver"]).shifted_solver(op.A),
        fam, basis.K, d_k)
    D = build_difference_1d(grid)

    def kmat(r):
        opx = assemble_operator(ResistivityField(r, grid), D)
        return build_krylov(opx.A, b, fam, generation="raw").K

    r = field.values
    rp = r.copy(); rp[k] += h
    rm = r.copy(); rm[k] -= h
    dK_fd = (kmat(rp) - kmat(rm)) / (2 * h)
    assert np.max(np.abs(dK - dK_fd)) < 1e-5 * np.max(np.abs(dK_fd))


def test_chain_stage_identities(small_system):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)
    vec, ctx = preconditioner_R(field, fam, return_context=True)
    from romres.grids import operator_derivative

    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    for n in BATCH_SIZES:
        edges = range(7, 7 + n)
        d = [operator_derivative(op.D, k) for k in edges]
        dK = [diff_snapshots(ctx.solver, fam, K, d_k) for d_k in d]
        dM = np.stack([x.T @ K + K.T @ x for x in dK])
        dU = diff_cholesky(U.T, dM).transpose(0, 2, 1)
        dA_m, db_m = [], []
        for i in range(n):
            dV = diff_basis(K, dK[i], V, U, dU[i])
            # orthogonality derivative: V^T dV antisymmetric
            S = V.T @ dV
            assert np.max(np.abs(S + S.T)) < 1e-8
            dA, db = diff_reduced(op.A, b, V, dV, d[i])
            assert np.allclose(dA, dA.T)
            dA_m.append(dA)
            db_m.append(db)
        db_m = np.array(db_m)
        dtheta, dc = diff_spectral(np.array(dA_m), ctx.model.b_m, db_m,
                                   ctx.pr.theta, ctx.Z)
        assert dtheta.shape == dc.shape == (n, 3)
        # Parseval derivative: sum dc = 2 b_m . db_m
        assert np.allclose(dc.sum(axis=1), 2.0 * db_m @ ctx.model.b_m, rtol=1e-8)
        # the normalized weights stay on the unit sphere: eta . deta = 0
        eta = np.sqrt(ctx.pr.c / np.sum(ctx.pr.c))
        deta = diff_eta(ctx.pr.c, dc)
        assert np.max(np.abs(deta @ eta)) < 1e-12 * np.max(np.abs(deta))


def test_diff_spectral_diagonal_case():
    theta = np.array([1.0, 3.0])
    Z = np.eye(2)
    b_m = np.array([0.6, 0.8])
    dA_m = np.array([[0.2, 0.05], [0.05, -0.1]])
    db_m = np.array([0.01, -0.02])
    for n in BATCH_SIZES:
        scale = np.arange(1, n + 1)[:, None]
        dtheta, dc = diff_spectral(scale[:, :, None] * dA_m, b_m, scale * db_m,
                                   theta, Z)
        assert np.allclose(dtheta, scale * np.array([-0.2, 0.1]))


def test_diff_spectral_rejects_coinciding_poles():
    theta = np.array([2.0, 2.0])
    with pytest.raises(DegeneracyError):
        diff_spectral(np.zeros((1, 2, 2)), np.ones(2), np.zeros((1, 2)),
                      theta, np.eye(2))


def test_diff_lanczos_m1():
    pr = PoleResidue(np.array([2.0]), np.array([1.5]))
    cf, tri, X = pole_residue_to_cfrac(pr)
    for n in BATCH_SIZES:
        dtheta = 0.3 * np.arange(1, n + 1)[:, None]
        dal, dbe = diff_lanczos(pr.theta, tri, X, dtheta, np.zeros((n, 1)))
        assert np.allclose(dal, -dtheta)
        assert dbe.shape == (n, 0)


def test_diff_lanczos_zero_input(rng):
    theta = np.sort(rng.uniform(0.5, 20.0, 4))
    c = rng.uniform(0.2, 1.0, 4)
    pr = PoleResidue(theta, c)
    cf, tri, X = pole_residue_to_cfrac(pr)
    for n in BATCH_SIZES:
        dal, dbe = diff_lanczos(theta, tri, X, np.zeros((n, 4)), np.zeros((n, 4)))
        assert dal.shape == (n, 4) and dbe.shape == (n, 3)
        assert np.allclose(dal, 0.0) and np.allclose(dbe, 0.0)


def test_diff_lanczos_fd(rng):
    from romres.cfrac import lanczos_tridiag

    def run(th, et):
        t, _ = lanczos_tridiag(-np.diag(th), et / np.linalg.norm(et))
        return t

    h = 1e-6
    for m in (2, 3, 5):
        theta = np.sort(rng.uniform(0.5, 30.0, m))
        c = rng.uniform(0.2, 2.0, m)
        eta = np.sqrt(c / np.sum(c))
        pr = PoleResidue(theta, c)
        cf, tri, X = pole_residue_to_cfrac(pr)
        for n in BATCH_SIZES:
            dtheta = rng.standard_normal((n, m))
            deta = rng.standard_normal((n, m))
            deta -= (deta @ eta)[:, None] * eta[None, :]  # stay on the unit sphere
            dal, dbe = diff_lanczos(theta, tri, X, dtheta, deta)
            for i in range(n):
                tp = run(theta + h * dtheta[i], eta + h * deta[i])
                tm = run(theta - h * dtheta[i], eta - h * deta[i])
                assert np.max(np.abs(dal[i] - (tp.alpha - tm.alpha) / (2 * h))) < \
                    1e-5 * max(np.max(np.abs(dal[i])), 1.0)
                assert np.max(np.abs(dbe[i] - (tp.beta - tm.beta) / (2 * h))) < \
                    1e-5 * max(np.max(np.abs(dbe[i])), 1.0)


def test_diff_recursion_m1_closed_form():
    pr = PoleResidue(np.array([2.0]), np.array([1.5]))
    cf, tri, X = pole_residue_to_cfrac(pr)
    S = 1.5
    for n in BATCH_SIZES:
        scale = np.arange(1, n + 1)[:, None]
        dc = 0.3 * scale
        dal = 0.7 * scale
        dkp, dkh = diff_cfrac_recursion(tri, cf, dal, np.zeros((n, 0)), pr.c, dc)
        # d log kappahat_1 = -dS/S; d log kappa_1 = -d log kappahat_1 - dal/alpha
        assert np.allclose(dkh / cf.kappa_hat[0], -dc / S)
        assert np.allclose(dkp / cf.kappa[0], dc / S - dal / tri.alpha[0])


def test_full_chain_fd_1d(rng):
    N, m = 50, 4
    grid = Grid1D(N)
    r = 1.0 + 0.5 * rng.random(N)
    fam = node_family("zolotarev", m)

    def R(rv):
        return preconditioner_R(ResistivityField(rv, grid), fam)

    vec, ctx = preconditioner_R(ResistivityField(r, grid), fam,
                                return_context=True)
    J = assemble_jacobian(ctx)
    J_fd = fd_jacobian(R, r)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_fast_equals_reference(small_system):
    grid, field, op, b = small_system
    vec, ctx = preconditioner_R(field, node_family("zolotarev", 4),
                                return_context=True)
    J_fast = assemble_jacobian(ctx, "fast")
    J_ref = assemble_jacobian(ctx, "reference")
    assert np.max(np.abs(J_fast - J_ref)) < 1e-8 * np.max(np.abs(J_ref))


def test_sequential_jacobian_fd(rng):
    N, m = 40, 4
    grid = Grid1D(N)
    r = 1.0 + 0.5 * rng.random(N)
    fam = node_family("pade0", m)

    def R(rv):
        return preconditioner_R(ResistivityField(rv, grid), fam,
                                generation="sequential")

    vec, ctx = preconditioner_R(ResistivityField(r, grid), fam,
                                generation="sequential", return_context=True)
    assert ctx.basis.generation == "sequential"
    J = assemble_jacobian(ctx)
    J_fd = fd_jacobian(R, r)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def _forward_mode_sequential(ctx, chunk=256):
    """(dA_m, db_m) of a sequential basis by forward-mode differentiation of
    its recurrence, one parameter chunk at a time: the tangent of every
    basis vector is propagated through solve, Gram-Schmidt and
    normalization.  Reference for the adjoint sweep."""
    op = ctx.operator
    D = op.D
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    fam = ctx.family
    m = ctx.m
    n_e = op.n_edges
    AV = op.A @ V
    DV = np.asarray(D @ V)
    DK = np.asarray(D @ K)
    dA_all = np.empty((n_e, m, m))
    db_all = np.empty((n_e, m))
    Dt = D.T.tocsc()
    for lo in range(0, n_e, chunk):
        hi = min(lo + chunk, n_e)
        q = hi - lo
        dV = np.zeros((m, op.n_state, q))
        col = 0
        for s, mult in zip(fam.nodes, fam.multiplicities):
            gd = ctx.solver.solve(s, np.asarray(Dt[:, lo:hi].todense()))
            dx = np.zeros((op.n_state, q))  # the chain input b is fixed
            for _ in range(int(mult)):
                u_raw, coeffs, nrm = K[:, col], U[:col, col], U[col, col]
                du = -gd * DK[lo:hi, col][None, :] + ctx.solver.solve(s, dx)
                c_d = np.einsum("lnq,n->lq", dV[:col], u_raw) + V[:, :col].T @ du
                du_perp = du - V[:, :col] @ c_d
                if col:
                    du_perp -= np.einsum("lnq,l->nq", dV[:col], coeffs)
                xk = V[:, col]
                dnrm = xk @ du_perp
                dx = (du_perp - xk[:, None] * dnrm[None, :]) / nrm
                dV[col] = dx
                col += 1
        S = np.einsum("inq,nl->qil", dV, AV, optimize=True)
        dA_all[lo:hi] = (S + S.transpose(0, 2, 1)
                         - DV[lo:hi, :, None] * DV[lo:hi, None, :])
        db_all[lo:hi] = np.einsum("inq,n->qi", dV, ctx.b)
    return dA_all, db_all


def test_sequential_matches_forward_mode_reference(rng):
    # pade0: one node with multiplicity; zolotarev: the recurrence restarts
    # from b at every node
    grid = Grid1D(199)
    field = ResistivityField(1.0 + 0.5 * rng.random(199), grid)
    for name, m in (("pade0", 6), ("pade0", 8), ("zolotarev", 5)):
        vec, ctx = preconditioner_R(field, node_family(name, m),
                                    generation="sequential",
                                    return_context=True)
        dA_ref, db_ref = _forward_mode_sequential(ctx)
        dA_m, db_m = _jacobian_sequential(ctx)
        assert dA_m.shape == dA_ref.shape and db_m.shape == db_ref.shape
        assert np.linalg.norm(dA_m - dA_ref) <= 1e-10 * np.linalg.norm(dA_ref)
        assert np.linalg.norm(db_m - db_ref) <= 1e-10 * np.linalg.norm(db_ref)


def test_auto_fallback_to_sequential_fd(rng):
    # the raw pade0 m = 6 snapshots are too collinear, so "auto" generation
    # falls back to the sequential basis and its adjoint Jacobian
    N = 40
    grid = Grid1D(N)
    r = 1.0 + 0.5 * rng.random(N)
    fam = node_family("pade0", 6)

    def R(rv):
        return preconditioner_R(ResistivityField(rv, grid), fam)

    vec, ctx = preconditioner_R(ResistivityField(r, grid), fam,
                                return_context=True)
    assert ctx.basis.generation == "sequential"
    J = assemble_jacobian(ctx)
    J_fd = fd_jacobian(R, r)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_raw_and_sequential_jacobians_agree(rng):
    # both bases span the same subspace, so the two paths differentiate the
    # same map
    grid = Grid1D(199)
    field = ResistivityField(1.0 + 0.5 * rng.random(199), grid)
    for name, m in (("zolotarev", 4), ("pade0", 3), ("fast", 3)):
        fam = node_family(name, m)
        J = {}
        for gen in ("raw", "sequential"):
            vec, ctx = preconditioner_R(field, fam, generation=gen,
                                        return_context=True)
            assert ctx.basis.generation == gen
            J[gen] = assemble_jacobian(ctx)
        err = np.linalg.norm(J["raw"] - J["sequential"])
        assert err <= 1e-8 * np.linalg.norm(J["sequential"])


def test_full_chain_fd_2d(rng):
    g = Grid2D(nx=10, ny=5, Lx=3.0, Ly=1.0)
    segs = uniform_segments(g, 2)
    r = 1.0 + 0.5 * rng.random(g.n_cells)
    fam = node_family("single-node", 3, s_hat=30.0)
    b = source_vector(g, segs[0]).b

    def R(rv):
        op = assemble_operator_2d(ResistivityField(rv, g), g)
        return preconditioner_chain(op, b, fam).log_vector()

    op = assemble_operator_2d(ResistivityField(r, g), g)
    ctx = preconditioner_chain(op, b, fam)
    J = assemble_jacobian(ctx)
    assert J.shape == (6, g.n_cells)
    J_fd = fd_jacobian(R, r)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_spectral_target_fd(small_system, rng):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)

    def R(rv):
        v, c = preconditioner_R(ResistivityField(rv, grid), fam,
                                return_context=True)
        return np.concatenate([c.pr.theta, c.pr.c])

    vec, ctx = preconditioner_R(field, fam, return_context=True)
    J = assemble_jacobian(ctx, target="spectral")
    J_fd = fd_jacobian(R, field.values)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_sensitivity_localization():
    # the kappa-block rows peak inside their staggered grid cells
    from romres.optgrid import reference_grid

    N, m = 1999, 5
    grid = Grid1D(N)
    f = ResistivityField(np.ones(N), grid)
    vec, ctx = preconditioner_R(f, node_family("zolotarev", m),
                                return_context=True)
    J = assemble_jacobian(ctx)
    ref = reference_grid(m, "zolotarev", n_fine=N)
    xs = grid.edge_midpoints
    for j in range(m):
        peak = xs[np.argmax(np.abs(J[j]))]
        lo = ref.x_hat[j]
        hi = ref.x_hat[j + 1] if j + 1 < m else 1.0
        assert lo <= peak <= hi
