from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

import romres.krylov as krylov
from romres.cfrac import pole_residue_to_cfrac
from romres.errors import BasisCollapseError, InvalidGridError, ProjectionError, RomresError
from romres.forward import shifted_solver, transfer_eval, transfer_moments
from romres.grids import Grid1D, Grid2D, ResistivityField, SystemOperator, assemble_operator, \
    assemble_operator_2d, build_difference_1d, source_vector, uniform_segments
from romres.jacobian import assemble_jacobian
from romres.krylov import (KrylovBasis, build_krylov, preconditioner_R,
                           preconditioner_chain, project)
from romres.phantoms import phantom
from romres.ratfit import NodeFamily, fit_multipoint, node_family, to_pole_residue


def test_basis_orthonormal(small_system):
    grid, field, op, b = small_system
    for name, label in (("zolotarev", "raw"), ("pade0", "sequential")):
        basis = build_krylov(op, b, node_family(name, 5))
        assert basis.generation == label
        V, K, U = basis.V, basis.K, basis.U
        assert np.max(np.abs(V.T @ V - np.eye(5))) < 1e-12
        assert np.max(np.abs(K - V @ U)) / np.max(np.abs(K)) < 1e-10
        assert np.all(np.diag(U) > 0)
        assert np.array_equal(U, np.triu(U))


def test_basis_m1(small_system):
    grid, field, op, b = small_system
    fam = NodeFamily(np.array([3.0]), np.array([1]))
    basis = build_krylov(op, b, fam)
    k = basis.K[:, 0]
    assert np.allclose(basis.V[:, 0], k / np.linalg.norm(k))


def test_zero_source_collapses_basis(small_system):
    grid, field, op, b = small_system
    with pytest.raises(BasisCollapseError, match="snapshot column 1 "):
        build_krylov(op, np.zeros_like(b), node_family("zolotarev", 3))


def _refuse_solves(monkeypatch, what):
    def no_solve(self, s, rhs):
        raise AssertionError(f"solved before checking the {what}")

    monkeypatch.setattr(shifted_solver, "solve", no_solve)


def test_model_larger_than_system_rejected_before_solving(monkeypatch):
    # zolotarev m = 6 on four unknowns is refused on entry, before any
    # resolvent is factored
    _refuse_solves(monkeypatch, "model size")
    grid = Grid1D(4)
    op = assemble_operator(ResistivityField(np.ones(4), grid), build_difference_1d(grid))
    with pytest.raises(BasisCollapseError, match="exceeds the system dimension"):
        build_krylov(op, source_vector(grid).b, node_family("zolotarev", 6))
    with pytest.raises(BasisCollapseError):
        preconditioner_R(ResistivityField(np.ones(4), grid), node_family("zolotarev", 6))


def test_bad_family_refused_on_entry(small_system, monkeypatch):
    # build_krylov, preconditioner_chain and preconditioner_R read family.m
    # before the basis could check the family, so anything else escaped as a
    # bare AttributeError; the basis now refuses it before any solve
    _refuse_solves(monkeypatch, "family")
    grid, field, op, b = small_system
    for family in (None, "zolotarev", (2.0, 3.0)):
        for call in (lambda: build_krylov(op, b, family),
                     lambda: preconditioner_chain(op, b, family),
                     lambda: preconditioner_R(field, family)):
            with pytest.raises(InvalidGridError, match="NodeFamily"):
                call()


def test_chain_checks_its_operator_and_source_once(small_system, monkeypatch):
    # the basis's construction is the chain's one check of the operator and
    # the source; build_krylov ran both checks before building it as well
    grid, field, op, b = small_system
    calls = []
    for name in ("_rows", "_source"):
        def counting(*args, check=getattr(krylov, name), name=name):
            calls.append(name)
            return check(*args)

        monkeypatch.setattr(krylov, name, counting)
    preconditioner_chain(op, b, node_family("zolotarev", 3))
    assert sorted(calls) == ["_rows", "_source"]


def test_bad_source_refused_on_entry(small_system, monkeypatch):
    # a source that is not finite, or not of the operator's length, is
    # refused before any solve, on a 1D and a 2D operator alike, not left to
    # eigh's ValueError (NaN), a RuntimeWarning (inf), SuperLU's ValueError
    # (2D length) or a misleading BasisCollapseError (1D length)
    _refuse_solves(monkeypatch, "source")
    grid, field, op, b = small_system
    g2 = Grid2D(nx=6, ny=3)
    op2 = assemble_operator_2d(ResistivityField(np.ones(g2.n_cells), g2), g2)
    b2 = source_vector(g2, uniform_segments(g2, 1)[0]).b
    nan, inf = b.copy(), b.copy()
    nan[3], inf[0] = np.nan, np.inf
    for o, bad, fam in ((op, nan, "zolotarev"), (op, inf, "zolotarev"), (op, b[:-1], "zolotarev"),
                        (op, b[:, None], "zolotarev"), (op2, b2[:-1], "single-node"),
                        (op2, np.r_[b2, 0.0], "single-node")):
        family = node_family(fam, 2, s_hat=30.0) if fam == "single-node" else node_family(fam, 2)
        with pytest.raises(InvalidGridError, match="source"):
            build_krylov(o, bad, family)
        with pytest.raises(InvalidGridError, match="source"):
            preconditioner_chain(o, bad, family)


def test_basis_refuses_what_does_not_fit_its_operator(small_system):
    # a basis carries the operator and source it spans: a raw matrix, a
    # source that is not a finite vector of the operator's rows, or snapshots
    # of another size are refused when the basis is built, so a basis cannot
    # be projected on another operator (a 12-row basis on a 10-point operator
    # raised a bare ValueError from SystemOperator.__matmul__)
    grid, field, op, b = small_system
    basis = build_krylov(op, b, node_family("zolotarev", 3))
    K, V, U, fam = basis.K, basis.V, basis.U, basis.family
    nan = b.copy()
    nan[2] = np.nan
    with pytest.raises(InvalidGridError, match="NodeFamily"):
        KrylovBasis(K=K, V=V, U=U, family=3, operator=op, b=b)
    for operator in (op.A.toarray(), op.A, None):
        with pytest.raises(InvalidGridError, match="SystemOperator"):
            KrylovBasis(K=K, V=V, U=U, family=fam, operator=operator, b=b)
    for source in (nan, b[:-1], b + 1j, None):
        with pytest.raises(InvalidGridError, match="source"):
            KrylovBasis(K=K, V=V, U=U, family=fam, operator=op, b=source)
    for k, v, u in ((K[:-1], V[:-1], U), (K, V[:-1], U), (K[:, :2], V[:, :2], U[:2, :2]),
                    (K, V, U[:2])):
        with pytest.raises(InvalidGridError, match="does not fit"):
            KrylovBasis(K=k, V=v, U=u, family=fam, operator=op, b=b)
    g = Grid1D(12)
    other = assemble_operator(ResistivityField(np.ones(12), g), build_difference_1d(g))
    with pytest.raises(InvalidGridError, match=r"does not fit the operator's 12 rows"):
        replace(basis, operator=other, b=source_vector(g).b)
    assert replace(basis).b is basis.b


def test_indefinite_projection_raises_its_own_error(small_system):
    # projecting -A (positive definite) on a valid basis of A
    grid, field, op, b = small_system
    basis = build_krylov(op, b, node_family("zolotarev", 3))
    assert np.all(np.linalg.eigvalsh(project(basis).A_m) < 0)
    main, off = op.bands
    with pytest.raises(ProjectionError, match="not negative definite"):
        project(replace(basis, operator=SystemOperator(D=op.D, bands=(-main, -off))))


def test_pade0_snapshots_are_inverse_powers(small_system):
    # the leading k columns of V span the first k inverse powers (-A)^-j b
    grid, field, op, b = small_system
    basis = build_krylov(op, b, node_family("pade0", 3))
    P = np.empty((b.size, 3))
    x = b.copy()
    for j in range(3):
        x = P[:, j] = np.linalg.solve(-op.A.toarray(), x)
    assert np.allclose(basis.K[:, 0], P[:, 0], rtol=1e-10)
    for k in range(1, 4):
        Vk, Pk = basis.V[:, :k], P[:, :k]
        assert np.linalg.norm(Pk - Vk @ (Vk.T @ Pk)) <= 1e-10 * np.linalg.norm(Pk)


def reduced_moments(model, s_hat, K):
    """tau_k = (-1)^k sum_j c_j / (s_hat + theta_j)^(k+1) of the reduced model."""
    pr = model.pr
    return np.array([(-1) ** k * np.sum(pr.c / (s_hat + pr.theta) ** (k + 1))
                     for k in range(K)])


def test_projection_moment_matching(small_system):
    # reduced transfer function osculates the full one at every node
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 4)
    basis = build_krylov(op, b, fam)
    pr = project(basis).pr
    for s in fam.nodes:
        val, der = transfer_eval(op, b, s=s)
        assert pr(s) == pytest.approx(val, rel=1e-8)
        assert pr.derivative(s) == pytest.approx(der, rel=1e-8)


def test_single_node_higher_moments(small_system):
    grid, field, op, b = small_system
    s_hat = 20.0
    fam = node_family("single-node", 3, s_hat=s_hat)
    model = project(build_krylov(op, b, fam))
    tau = transfer_moments(op, b, s_hat, 4)
    # four of the 2m = 6 moments the m = 3 single-node model matches
    tau_m = reduced_moments(model, s_hat, 4)
    assert np.allclose(tau_m, tau, rtol=1e-6)


def test_full_basis_is_exact(rng):
    grid = Grid1D(8)
    r = 1.0 + rng.random(8)
    op = assemble_operator(ResistivityField(r, grid), build_difference_1d(grid))
    b = source_vector(grid).b
    fam = NodeFamily(np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
                     np.ones(8, dtype=int))
    pr = project(build_krylov(op, b, fam)).pr
    for s in (0.5, 3.0, 300.0):
        assert pr(s) == pytest.approx(transfer_eval(op, b, s=s)[0], rel=1e-9)


def test_reduced_poles_and_residues_basics(small_system):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 4)
    model = project(build_krylov(op, b, fam))
    pr = model.pr
    assert np.all(np.diff(pr.theta) > 0)
    assert np.all(pr.c >= 0)
    assert np.sum(pr.c) == pytest.approx(model.b_m @ model.b_m)
    lam_full = sla.eigvalsh(op.A.toarray())
    assert -pr.theta.max() >= lam_full[0] - 1e-9
    assert -pr.theta.min() <= lam_full[-1] + 1e-9


def test_projection_equals_interpolation(small_system):
    # Galerkin ROM and the osculatory fit give the same poles/residues
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 4)
    pr_proj = project(build_krylov(op, b, fam)).pr
    vals = np.empty(4)
    ders = np.empty(4)
    for j, s in enumerate(fam.nodes):
        vals[j], ders[j] = transfer_eval(op, b, s=s)
    pr_fit = to_pole_residue(fit_multipoint(vals, ders, fam))
    assert np.allclose(pr_fit.theta, pr_proj.theta, rtol=1e-6)
    assert np.allclose(pr_fit.c, pr_proj.c, rtol=1e-6)


def test_preconditioner_output_contract(small_system):
    grid, field, op, b = small_system
    vec, ctx = preconditioner_R(field, node_family("zolotarev", 5),
                                return_context=True)
    assert vec.shape == (10,)
    assert np.allclose(vec[:5], np.log(ctx.cf.kappa))
    assert np.allclose(vec[5:], np.log(ctx.cf.kappa_hat))
    # a 2D field has one source per boundary segment; preconditioner_chain
    # takes the operator and that source
    g2 = Grid2D(nx=6, ny=3)
    with pytest.raises(RomresError, match="1D field"):
        preconditioner_R(ResistivityField(np.ones(g2.n_cells), g2), node_family("single-node", 2))


def test_constant_field_node_rescaling_exact():
    # A(gamma r) = gamma A(r): evaluating at nodes s equals the unit medium
    # at nodes s/gamma with kappa scaled by 1/gamma and kappahat unchanged
    N, m, gamma = 120, 4, 2.5
    grid = Grid1D(N)
    fam = node_family("zolotarev", m)
    fam_scaled = NodeFamily(fam.nodes / gamma, fam.multiplicities)
    v_gamma, ctx_gamma = preconditioner_R(
        ResistivityField(gamma * np.ones(N), grid), fam, return_context=True)
    v_unit, ctx_unit = preconditioner_R(
        ResistivityField(np.ones(N), grid), fam_scaled, return_context=True)
    assert np.allclose(ctx_gamma.cf.kappa, ctx_unit.cf.kappa / gamma, rtol=1e-10)
    assert np.allclose(ctx_gamma.cf.kappa_hat, ctx_unit.cf.kappa_hat, rtol=1e-10)


def test_constant_field_sqrt_law_asymptotic():
    # kappa ~ r^(-1/2), kappahat ~ r^(1/2); exact only in the half-line
    # limit, so probe shallow depths with large nodes and skip kappahat_1
    # (total captured weight, still lattice-sensitive)
    from romres.ratfit import nodes_geometric

    N, m, gamma = 400, 4, 1.5
    grid = Grid1D(N)
    fam = nodes_geometric(m, 200.0, 3.0)
    v1 = preconditioner_R(ResistivityField(np.ones(N), grid), fam)
    vg = preconditioner_R(ResistivityField(gamma * np.ones(N), grid), fam)
    shift = vg - v1
    half = 0.5 * np.log(gamma)
    expect = np.concatenate([np.full(m, -half), np.full(m, half)])
    dev = np.abs(shift - expect) / half
    assert np.max(np.delete(dev, m)) < 0.05
    assert dev[m] < 0.5


def test_high_contrast_field_finite():
    grid = Grid1D(199)
    vec = preconditioner_R(phantom("rH", grid), node_family("zolotarev", 5))
    assert np.all(np.isfinite(vec))


def test_unknown_generation_rejected(small_system):
    # generation= selects nothing: it takes 'auto' or the family's own label
    grid, field, op, b = small_system
    for name, label, other in (("zolotarev", "raw", "sequential"),
                               ("pade0", "sequential", "raw")):
        fam = node_family(name, 3)
        ref = preconditioner_chain(op, b, fam)
        assert ref.basis.generation == label
        assert np.array_equal(preconditioner_chain(op, b, fam, generation=label).log_vector(),
                              ref.log_vector())
        for bad in (other, "bogus"):
            with pytest.raises(RomresError, match="generation"):
                preconditioner_chain(op, b, fam, generation=bad)
            with pytest.raises(RomresError, match="generation"):
                preconditioner_R(field, fam, generation=bad)


def test_sequential_matches_raw_values(small_system):
    # the reduced model depends only on the span: projecting onto the
    # orthonormalized literal resolvent powers gives the same log vector
    grid, field, op, b = small_system
    s_hat = 10.0
    fam = node_family("single-node", 4, s_hat=s_hat)
    resolvent = s_hat * np.eye(b.size) - op.A.toarray()
    P = np.empty((b.size, 4))
    x = b.copy()
    for j in range(4):
        x = P[:, j] = np.linalg.solve(resolvent, x)
    Q, R = np.linalg.qr(P)
    poles = project(KrylovBasis(K=P, V=Q, U=R, family=fam, operator=op, b=b)).pr
    cf = pole_residue_to_cfrac(poles)
    ctx = preconditioner_chain(op, b, fam)
    assert np.allclose(ctx.log_vector(), cf.log_vector(), atol=1e-9)


def test_1d_chain_builds_no_sparse_matrix(sparse_constructions):
    # once the grid's difference factor exists, a 1D evaluation and its
    # Jacobian run on the grid's shared factor and the operator's bands, and
    # construct no sparse matrix; the CSR A is built when first read and
    # kept.  The Jacobian keeps the column-major layout of the identity
    # product it replaces, which J's later products round by
    grid = Grid1D(199)
    r = phantom("rQ", grid).values
    for label in ("zolotarev", "pade0"):
        fam = node_family(label, 5)
        preconditioner_R(ResistivityField(r, grid), fam)
        sparse_constructions.clear()
        _, ctx = preconditioner_R(ResistivityField(1.1 * r, grid), fam, return_context=True)
        J = assemble_jacobian(ctx)
        assert sparse_constructions == []
        assert ctx.basis.operator.D is build_difference_1d(grid)
        assert J.shape == (10, 199) and J.flags.f_contiguous
        A = ctx.basis.operator.A
        assert A.format == "csr" and sparse_constructions[-1] == "csr_matrix"
        sparse_constructions.clear()
        assert ctx.basis.operator.A is A and sparse_constructions == []


def test_project_reuses_its_eigendecomposition(small_system):
    # the definiteness check, the poles, residues and eigenvectors come from
    # one eigh of A_m, stored once in chain order (theta ascending), and the
    # model keeps the product A V the Jacobian's sweep reads
    grid, field, op, b = small_system
    basis = build_krylov(op, b, node_family("zolotarev", 4))
    model = project(basis)
    lam, Z = sla.eigh(model.A_m)
    assert np.array_equal(model.pr.theta, -lam[::-1])
    assert np.array_equal(model.Z, Z[:, ::-1])
    assert np.array_equal(model.pr.c, (model.b_m @ Z[:, ::-1]) ** 2)
    assert np.array_equal(model.AV, op.A @ basis.V)
    ctx = preconditioner_chain(op, b, basis.family)
    assert np.array_equal(ctx.model.pr.theta, model.pr.theta)
    assert np.array_equal(ctx.model.Z, model.Z)
