import numpy as np
import pytest

from romres.cfrac import pole_residue_to_cfrac
from romres.errors import DegeneracyError
from romres.grids import (Grid2D, Grid1D, ResistivityField,
                          assemble_operator_2d, source_vector, uniform_segments)
from romres.forward import shifted_solver
from romres import jacobian
from romres.jacobian import (_chain_tail, _scheme_derivative, assemble_jacobian,
                             diff_spectral)
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


def _forward_mode_reference(ctx, lo=0, hi=None):
    """(dV, dA_m, db_m) for edges lo..hi-1 by forward-mode differentiation
    of the basis recurrence: the tangent of every basis vector is propagated
    through solve, Gram-Schmidt and normalization.  A column after the first
    of its node is solved on the previous basis vector, so that solve's
    input tangent is dx.  dV has shape (m, n_state, hi - lo).  Reference for
    the adjoint sweep."""
    op = ctx.basis.operator
    K, V, U = ctx.basis.K, ctx.basis.V, ctx.basis.U
    hi = op.D.shape[0] if hi is None else hi
    AV = op.A @ V
    DV = np.asarray(op.D @ V)[lo:hi]
    DK = np.asarray(op.D @ K)[lo:hi]
    Dt = op.D.T.tocsc()[:, lo:hi].toarray()
    dV = np.zeros((ctx.m, op.A.shape[0], hi - lo))
    solver = op.solver
    col = 0
    for s, mult in zip(ctx.basis.family.nodes, ctx.basis.family.multiplicities):
        gd = solver.solve(s, Dt)
        d_in = np.zeros_like(gd)  # the chain input b is fixed
        for _ in range(int(mult)):
            u_raw, coeffs, nrm = K[:, col], U[:col, col], U[col, col]
            du = -gd * DK[:, col][None, :] + solver.solve(s, d_in)
            c_d = np.einsum("lnq,n->lq", dV[:col], u_raw) + V[:, :col].T @ du
            du_perp = du - V[:, :col] @ c_d
            if col:
                du_perp -= np.einsum("lnq,l->nq", dV[:col], coeffs)
            xk = V[:, col]
            dnrm = xk @ du_perp
            dx = (du_perp - xk[:, None] * dnrm[None, :]) / nrm
            dV[col] = dx
            d_in = dx
            col += 1
    S = np.einsum("inq,nl->qil", dV, AV, optimize=True)
    dA_m = S + S.transpose(0, 2, 1) - DV[:, :, None] * DV[:, None, :]
    db_m = np.einsum("inq,n->qi", dV, ctx.basis.b)
    return dV, dA_m, db_m


def test_chain_stage_identities(small_system):
    grid, field, _, _ = small_system
    fam = node_family("zolotarev", 3)
    vec, ctx = preconditioner_R(field, fam, return_context=True)
    V = ctx.basis.V
    for n in BATCH_SIZES:
        dV, dA_m, db_m = _forward_mode_reference(ctx, 7, 7 + n)
        # orthogonality derivative: V^T dV antisymmetric
        S = np.einsum("na,inq->qai", V, dV)
        assert np.max(np.abs(S + S.transpose(0, 2, 1))) < 1e-8
        dtheta, dc = diff_spectral(dA_m, ctx.model.b_m, db_m,
                                   ctx.model.pr.theta, ctx.model.Z)
        assert dtheta.shape == dc.shape == (n, 3)
        # Parseval derivative: sum dc = 2 b_m . db_m
        assert np.allclose(dc.sum(axis=1), 2.0 * db_m @ ctx.model.b_m, rtol=1e-8)


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


def test_singular_scheme_derivative_is_degeneracy(small_system, monkeypatch):
    # numpy's LinAlgError from F^-1 S stays inside the RomresError contract
    grid, field, _, _ = small_system
    vec, ctx = preconditioner_R(field, node_family("zolotarev", 3), return_context=True)
    monkeypatch.setattr(jacobian, "_scheme_derivative", lambda cf: np.zeros((6, 6)))
    with pytest.raises(DegeneracyError):
        assemble_jacobian(ctx)


def test_scheme_derivative_inverse_fd(rng):
    # F^-1 is d log(kappa, kappahat) / d(theta, c), the map the tail applies
    for m in (1, 2, 3, 5):
        theta = np.sort(rng.uniform(0.5, 30.0, m))
        while m > 1 and np.min(np.diff(theta)) < 0.3:
            theta = np.sort(rng.uniform(0.5, 30.0, m))
        c = rng.uniform(0.2, 2.0, m)

        def logs(x):
            return pole_residue_to_cfrac(PoleResidue(x[:m], x[m:])).log_vector()

        F = _scheme_derivative(pole_residue_to_cfrac(PoleResidue(theta, c)))
        assert F.shape == (2 * m, 2 * m)
        G_fd = fd_jacobian(logs, np.concatenate([theta, c]))
        assert np.linalg.norm(np.linalg.inv(F) - G_fd) <= 1e-7 * np.linalg.norm(G_fd)


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


def test_sequential_jacobian_fd(rng):
    N, m = 40, 4
    grid = Grid1D(N)
    r = 1.0 + 0.5 * rng.random(N)
    fam = node_family("pade0", m)

    def R(rv):
        return preconditioner_R(ResistivityField(rv, grid), fam)

    vec, ctx = preconditioner_R(ResistivityField(r, grid), fam, return_context=True)
    assert ctx.basis.generation == "sequential"
    J = assemble_jacobian(ctx)
    J_fd = fd_jacobian(R, r)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def _two_source_2d_contexts(rng, m=3):
    g = Grid2D(nx=10, ny=5, Lx=3.0, Ly=1.0)
    op = assemble_operator_2d(ResistivityField(1.0 + 0.5 * rng.random(g.n_cells), g), g)
    fam = node_family("single-node", m, s_hat=30.0)
    return [preconditioner_chain(op, source_vector(g, seg).b, fam)
            for seg in uniform_segments(g, 2)]


def _saturated_contexts(rng):
    # grids with fewer unknowns than the 2m + 1 - (number of nodes)
    # dimensions of the doubled space: the rational Krylov space is
    # invariant and the doubled basis stops short
    contexts = []
    for N, name, m in ((4, "pade0", 3), (6, "pade0", 4), (5, "single-node", 4)):
        grid = Grid1D(N)
        field = ResistivityField(1.0 + 0.5 * rng.random(N), grid)
        vec, ctx = preconditioner_R(field, node_family(name, m), return_context=True)
        assert N < 2 * m + 1 - len(ctx.basis.family.nodes)
        contexts.append(ctx)
    return contexts


def test_adjoint_matches_forward_mode_reference(rng):
    # pade0 and the 2D single-node family: one node with multiplicity, each
    # further solve on the newest basis vector; zolotarev (the default of
    # the 1D inversions) and fast: the recurrence restarts from b at every
    # node
    grid = Grid1D(199)
    field = ResistivityField(1.0 + 0.5 * rng.random(199), grid)
    contexts = []
    for name, m in (("pade0", 3), ("pade0", 6), ("pade0", 8), ("zolotarev", 5),
                    ("fast", 5)):
        vec, ctx = preconditioner_R(field, node_family(name, m), return_context=True)
        contexts.append(ctx)
    contexts += _two_source_2d_contexts(rng)
    assert [c.basis.generation for c in contexts] == ["sequential"] * 3 + ["raw"] * 2 \
        + ["sequential"] * 2
    contexts += _saturated_contexts(rng)
    for ctx in contexts:
        _, dA_ref, db_ref = _forward_mode_reference(ctx)
        for target in ("cfrac", "spectral"):
            J_ref = _chain_tail(ctx, dA_ref, db_ref, target)
            if ctx.basis.operator.averaging is not None:  # 2D: to the cells
                J_ref = np.asarray(J_ref @ ctx.basis.operator.averaging)
            J = assemble_jacobian(ctx, target=target)
            assert J.shape == J_ref.shape
            assert np.linalg.norm(J - J_ref) <= 1e-10 * np.linalg.norm(J_ref)


def test_raw_pade0_m5_jacobian_fd(rng):
    # the plain resolvent powers of pade0 m = 5 are nearly collinear, and
    # central differences of a chain built from them miss J by 4e-4;
    # the default basis spans the same subspace and follows them to 1e-5
    N = 40
    grid = Grid1D(N)
    r = 1.0 + 0.5 * rng.random(N)
    fam = node_family("pade0", 5)

    def R(rv):
        return preconditioner_R(ResistivityField(rv, grid), fam)

    vec, ctx = preconditioner_R(ResistivityField(r, grid), fam, return_context=True)
    J = assemble_jacobian(ctx)
    J_fd = fd_jacobian(R, r, h=1e-5)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


def test_jacobian_cost_structure(monkeypatch, rng):
    # sum_j (mult_j - 1) single-vector solves extend the basis to the
    # doubled space of dimension d = 2m + 1 - (number of nodes), then one
    # solve with d right-hand sides per node, however many edges the grid
    # has and however many outputs there are
    grid = Grid1D(199)
    field = ResistivityField(1.0 + 0.5 * rng.random(199), grid)
    contexts = []
    for name, m in (("zolotarev", 4), ("pade0", 3), ("pade0", 6)):
        vec, ctx = preconditioner_R(field, node_family(name, m), return_context=True)
        contexts.append(ctx)
    contexts += _two_source_2d_contexts(rng, m=5)
    calls = []
    solve = shifted_solver.solve

    def counting_solve(self, s, rhs):
        calls.append((s, np.shape(rhs)))
        return solve(self, s, rhs)

    monkeypatch.setattr(shifted_solver, "solve", counting_solve)
    for ctx in contexts:
        n, fam = ctx.basis.operator.A.shape[0], ctx.basis.family
        d = 2 * ctx.m + 1 - len(fam.nodes)
        expected = [(s, (n,)) for s, mult in zip(fam.nodes, fam.multiplicities)
                    for _ in range(int(mult) - 1)]
        expected += [(s, (n, d)) for s in fam.nodes]
        calls.clear()
        assemble_jacobian(ctx)
        assert calls == expected


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
        return np.concatenate([c.model.pr.theta, c.model.pr.c])

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
