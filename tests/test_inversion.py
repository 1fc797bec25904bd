import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import romres.inversion as inversion
import romres.laplace as laplace
from romres.errors import (DataUnusableError, RegularizationError, RomresError,
                           SpectralValidityError, StepFailureError)
from romres.forward import TimeSeries, shifted_solver, simulate_response
from romres.grids import (Grid1D, Grid2D, ResistivityField, _difference_diagonal,
                          assemble_operator, assemble_operator_2d, build_difference_1d,
                          source_vector, uniform_segments)
from romres.inversion import (FitTarget, InversionConfig, adaptive_weights,
                              data_fitting_Q,
                              data_fitting_moments, gauss_newton_step, invert_1d,
                              invert_2d, moments_from_operator,
                              regularization_gradient, regularize_nullspace,
                              relative_error)
from romres.jacobian import assemble_jacobian
from romres.krylov import preconditioner_R, preconditioner_chain
from romres.laplace import laplace_derivative, laplace_moments, laplace_transform
from romres.phantoms import phantom
from romres.ratfit import fit_multipoint, node_family


def _pinv(J):
    """J^+ as the Gauss-Newton loop forms it for the step and the correction."""
    return np.linalg.pinv(J, rcond=inversion._PINV_RCOND)


def synthesize(name, n_fine=149, T=100.0, h_T=2e-5):
    g = Grid1D(n_fine)
    op = assemble_operator(phantom(name, g), build_difference_1d(g))
    b = source_vector(g).b
    return simulate_response(op.A, b, T, h_T)


def test_relative_error_basics():
    r = np.array([1.0, 2.0])
    assert relative_error(r, r) == 0.0
    assert relative_error(2 * r, r) == pytest.approx(1.0)
    with pytest.raises(RomresError):
        relative_error(np.ones(3), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RomresError, match="zero reference"):
            relative_error(r, np.zeros(2))
        # a string or complex field raised numpy's ValueError or TypeError,
        # and a ragged one its ValueError
        for bad in (["a"], [1j], [1.0, [1.0, 2.0]]):
            with pytest.raises(RomresError, match="arrays"):
                relative_error(bad, [1.0] * len(bad))


def test_gauss_newton_fixed_point(small_system):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)
    vec, ctx = preconditioner_R(field, fam, return_context=True)
    J = assemble_jacobian(ctx)
    r_gn, rho, a = gauss_newton_step(field.values, J, np.zeros(6), J_pinv=_pinv(J))
    assert np.linalg.norm(rho) <= 1e-12 * np.linalg.norm(field.values)
    assert np.array_equal(r_gn, field.values)


def test_gauss_newton_positivity_guard():
    J = np.eye(2)
    r = np.array([1.0, 1.0])
    residual = np.array([100.0, 0.0])  # rho = (-100, 0)
    r_gn, rho, a = gauss_newton_step(r, J, residual, J_pinv=J)
    assert np.all(r_gn > 0)
    assert a < 1.0
    # rho = (-1e8, 0) needs 27 halvings, past the fixed budget of 20
    with pytest.raises(StepFailureError):
        gauss_newton_step(r, J, np.array([1e8, 0.0]), J_pinv=J)


@pytest.mark.parametrize("bad", ["residual", "J"])
def test_gauss_newton_rejects_nonfinite(bad):
    # a NaN used to pass through J^+ and exhaust the positivity halvings
    J, residual = np.eye(2), np.array([0.1, 0.0])
    if bad == "residual":
        residual[1] = np.nan
    else:
        J[1, 0] = np.inf
    with pytest.raises(RomresError, match="finite") as info:
        gauss_newton_step(np.ones(2), J, residual, J_pinv=np.eye(2))
    assert not isinstance(info.value, StepFailureError)


@pytest.mark.parametrize("alpha", ["a", 0.0, -1.0, np.nan, np.inf, 1j, np.array([1.0])])
def test_gauss_newton_refuses_a_bad_step_length(alpha):
    # a string alpha raised numpy's UFuncTypeError from r + a * rho
    J = np.eye(2)
    with pytest.raises(RomresError, match="alpha") as info:
        gauss_newton_step(np.ones(2), J, np.array([0.1, 0.0]), alpha, J_pinv=J)
    assert not isinstance(info.value, StepFailureError)


def test_nullspace_correction_preserves_residual(small_system, rng):
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)
    vec, ctx = preconditioner_R(field, fam, return_context=True)
    J = assemble_jacobian(ctx)
    Dt = regularization_gradient(grid)
    r_gn = field.values * (1.0 + 0.1 * rng.random(grid.n_points))
    for w in (None, adaptive_weights(Dt, r_gn, 1e-3)):
        r_next = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
        rel = np.linalg.norm(J @ (r_next - r_gn)) / np.linalg.norm(J @ r_gn)
        assert rel < 1e-8, w is None


def test_nullspace_correction_keeps_constant(small_system):
    # a constant update already minimizes the seminorm in its affine space
    grid, field, op, b = small_system
    fam = node_family("zolotarev", 3)
    vec, ctx = preconditioner_R(field, fam, return_context=True)
    J = assemble_jacobian(ctx)
    Dt = regularization_gradient(grid)
    r_gn = np.full(grid.n_points, 1.37)
    r_next = regularize_nullspace(r_gn, J, Dt, w=None, J_pinv=_pinv(J))
    assert np.allclose(r_next, r_gn, atol=1e-8)


def _jacobian_2d(nx, ny, n_sources=2, m=3):
    """2D field, its multi-source Jacobian and interior difference operator."""
    g = Grid2D(nx=nx, ny=ny)
    g = replace(g, segments=uniform_segments(g, n_sources))
    field = phantom("two-rect-side", g)
    op = assemble_operator_2d(field, g)
    fam = node_family("single-node", m, s_hat=30.0)
    J = np.vstack([assemble_jacobian(preconditioner_chain(op, source_vector(g, s).b, fam))
                   for s in g.segments])
    return field.values, J, regularization_gradient(g)


def _dense_kkt(r_gn, J, Dt, w):
    """Truncated-SVD solve of the dense saddle matrix, smallest pair dropped."""
    n, k = r_gn.size, J.shape[0]
    H = (Dt.T @ sp.diags(w) @ Dt).toarray()
    M = np.block([[H, J.T], [J, np.zeros((k, k))]])
    rhs = np.concatenate([np.zeros(n), J @ r_gn])
    U, s, Vh = np.linalg.svd(M)
    x = Vh[:-1].T @ ((U[:, :-1].T @ rhs) / s[:-1])
    corr = x[:n] - r_gn
    corr -= np.linalg.pinv(J, rcond=1e-12) @ (J @ corr)
    return r_gn + corr


def _dense_nullspace(r_gn, J, Dt, w):
    """Least squares over a full null-space basis of J."""
    _, s, Vh = np.linalg.svd(J, full_matrices=True)
    rank = int(np.sum(s > max(J.shape) * np.finfo(float).eps * s[0]))
    N = Vh[rank:].T
    G = sp.diags(np.sqrt(w)) @ Dt
    z, *_ = np.linalg.lstsq(G @ N, -(G @ r_gn), rcond=1e-13)
    return r_gn + N @ z


def test_nullspace_correction_matches_dense_formulas(rng):
    r, J, Dt = _jacobian_2d(12, 6)
    r_gn = r * (1.0 + 0.1 * rng.random(r.size))
    ones, w = np.ones(Dt.shape[0]), adaptive_weights(Dt, r_gn, 1e-3)
    # identity weights take the deflated solve; given weights, unit ones
    # included, take the exact minimizer
    for w, ref, w_ref, tol in ((None, _dense_kkt, ones, 1e-8),
                               (ones, _dense_nullspace, ones, 1e-10),
                               (w, _dense_nullspace, w, 1e-10)):
        r_next = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
        r_ref = ref(r_gn, J, Dt, w_ref)
        rel = np.linalg.norm(r_next - r_ref) / np.linalg.norm(r_ref)
        assert rel < tol, (ref.__name__, w is None, rel)


def test_nullspace_correction_rerun_identical(rng):
    # the smallest saddle eigenpair comes from dense LAPACK calls on the
    # capacitance columns and one saddle solve, with no random start
    r, J, Dt = _jacobian_2d(12, 6)
    r_gn = r * (1.0 + 0.1 * rng.random(r.size))
    first = regularize_nullspace(r_gn, J, Dt, w=None, J_pinv=_pinv(J))
    assert np.array_equal(regularize_nullspace(r_gn, J, Dt, w=None, J_pinv=_pinv(J)), first)


def test_nullspace_correction_large_grid(rng):
    # 10800 cells: a dense saddle matrix would take 0.95 GB
    g = Grid2D(nx=180, ny=60)
    Dt = regularization_gradient(g)
    J = rng.standard_normal((80, g.n_cells))
    r_gn = 1.0 + 0.1 * rng.random(g.n_cells)
    for w in (None, adaptive_weights(Dt, r_gn, 1e-3)):
        r_next = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
        rel = np.linalg.norm(J @ (r_next - r_gn)) / np.linalg.norm(J @ r_gn)
        assert rel < 1e-10, (w is None, rel)


def test_singular_saddle_system_raises(small_system, rng):
    grid, field, op, b = small_system
    Dt = regularization_gradient(grid)
    J = np.zeros((2, grid.n_points))
    J[0, 0] = 1.0  # the zero row leaves the saddle system singular
    w = adaptive_weights(Dt, field.values, 1e-3)
    with warnings.catch_warnings():
        # no LinAlgWarning (or any other) may escape in place of the error
        warnings.simplefilter("error")
        for weights in (None, w):
            with pytest.raises(RegularizationError, match="capacitance"):
                regularize_nullspace(field.values, J, Dt, w=weights, J_pinv=_pinv(J))
        # without the last edge the last cell is cut off from the grounded one
        J = rng.standard_normal((2, grid.n_points))
        for weights in (None, w[:-1]):
            with pytest.raises(RegularizationError, match="grounded Laplacian"):
                regularize_nullspace(field.values, J, Dt[:-1], w=weights, J_pinv=_pinv(J))


@pytest.mark.parametrize("bad", ["short", "negative", "nan"])
def test_nullspace_rejects_bad_weights(bad, rng, monkeypatch):
    # each used to reach the factorization: a short vector failed in
    # scipy's bmat, all -1 returned a correction and NaN became a
    # RegularizationError, which the Gauss-Newton loop turns into a note
    grid = Grid1D(20)
    _, ctx = preconditioner_R(ResistivityField(np.ones(20), grid),
                              node_family("zolotarev", 3), return_context=True)
    J, Dt = assemble_jacobian(ctx), regularization_gradient(grid)
    w = {"short": np.ones(Dt.shape[0] - 1), "negative": -np.ones(Dt.shape[0]),
         "nan": np.where(np.arange(Dt.shape[0]) == 3, np.nan, 1.0)}[bad]

    def no_factorization(*args, **kwargs):
        raise AssertionError("factored before the weights were checked")

    monkeypatch.setattr(spla, "splu", no_factorization)
    with pytest.raises(RomresError, match="weights") as info:
        regularize_nullspace(1.0 + rng.random(20), J, Dt, w=w, J_pinv=_pinv(J))
    assert not isinstance(info.value, RegularizationError)


def test_unknown_solver_label_rejected(rng):
    # solver= selects nothing: it takes 'auto' or the weights' own mode
    grid = Grid1D(20)
    _, ctx = preconditioner_R(ResistivityField(np.ones(20), grid),
                              node_family("zolotarev", 3), return_context=True)
    J, Dt = assemble_jacobian(ctx), regularization_gradient(grid)
    r_gn = 1.0 + rng.random(20)
    for w, label, other in ((None, "kkt", "nullspace"),
                            (adaptive_weights(Dt, r_gn, 1e-3), "nullspace", "kkt")):
        ref = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
        assert np.array_equal(
            regularize_nullspace(r_gn, J, Dt, w=w, solver=label, J_pinv=_pinv(J)), ref)
        for bad in (other, "bogus"):
            with pytest.raises(RomresError, match="solver"):
                regularize_nullspace(r_gn, J, Dt, w=w, solver=bad, J_pinv=_pinv(J))


# calls that each must raise RomresError on entry, given a 1D N = 20 zolotarev
# m = 3 Jacobian J (6 x 20), its seminorm operator Dt and a field r
_BAD_INPUTS = {
    "step J width": lambda J, Dt, r: gauss_newton_step(r, J[:, :-1], np.zeros(6),
                                                       J_pinv=_pinv(J[:, :-1])),
    "step J height": lambda J, Dt, r: gauss_newton_step(r, J, np.zeros(5), J_pinv=_pinv(J)),
    "step J_pinv shape": lambda J, Dt, r: gauss_newton_step(r, J, np.zeros(6), J_pinv=J),
    "correction J width": lambda J, Dt, r: regularize_nullspace(r, J[:, :-1], Dt,
                                                                J_pinv=_pinv(J[:, :-1])),
    "correction r_gn length": lambda J, Dt, r: regularize_nullspace(r[:-1], J[:, :-1], Dt,
                                                                    J_pinv=_pinv(J[:, :-1])),
    "correction J nan": lambda J, Dt, r: regularize_nullspace(
        r, np.where(np.indices(J.shape)[1] == 5, np.nan, J), Dt, J_pinv=_pinv(J)),
    "correction r_gn nan": lambda J, Dt, r: regularize_nullspace(np.full(20, np.nan), J, Dt,
                                                                 J_pinv=_pinv(J)),
    "correction J one row": lambda J, Dt, r: regularize_nullspace(r, J[:1], Dt,
                                                                  J_pinv=_pinv(J[:1])),
    "correction J_pinv shape": lambda J, Dt, r: regularize_nullspace(r, J, Dt, J_pinv=J),
    "relative error nan": lambda J, Dt, r: relative_error(np.full(20, np.nan), r),
    "relative error nan reference": lambda J, Dt, r: relative_error(r, np.full(20, np.nan)),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_input_errors_raise_on_entry(case, capfd):
    # each used to raise ValueError or ArpackError (with LAPACK's DLASCL
    # lines on stderr) or to return nan
    grid = Grid1D(20)
    _, ctx = preconditioner_R(ResistivityField(np.ones(20), grid),
                              node_family("zolotarev", 3), return_context=True)
    J, Dt = assemble_jacobian(ctx), regularization_gradient(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RomresError) as info:
            _BAD_INPUTS[case](J, Dt, np.ones(20))
    assert not isinstance(info.value, (RegularizationError, StepFailureError))
    assert capfd.readouterr().err == ""


def _augmented_saddle_solver(J, Dt, w):
    """M^-1 through one sparse LU of [[-W^-1, Dt, 0], [Dt^T, 0, J^T], [0, J, 0]].

    The capacitance columns G = L_g^-1 J^T come from a dense solve of the
    formed grounded operator L_g = Dt^T W Dt + e_0 e_0^T, and C from G.
    """
    e = Dt.shape[0]
    w = np.ones(e) if w is None else w
    Js = sp.csr_matrix(J)
    K = sp.bmat([[-sp.diags(1.0 / w), Dt, None], [Dt.T, None, Js.T], [None, Js, None]],
                format="csc")
    lu = spla.splu(K)
    L_g = (Dt.T @ sp.diags(w) @ Dt).toarray()
    L_g[0, 0] += 1.0
    G, J1 = np.linalg.solve(L_g, J.T), J.sum(axis=1)
    C = np.block([[J @ G, J1[:, None]], [J1, 0.0]])
    return lambda b: lu.solve(np.concatenate([np.zeros(e), b]))[e:], G, C


def test_identity_correction_matches_augmented_lu(small_system, rng, monkeypatch):
    # the capacitance solver against the augmented LU that held J in its
    # sparse factor, on a 1D N = 40 zolotarev m = 3 context and a 2D 30x10
    # two-source one; the reference's G comes from the formed L_g.  Identity
    # weights: measured at most 7.5e-15 (1D) and 2.3e-12 (2D).  Adaptive
    # weights (phi = 1e-3, 1e-1): measured at most 3.7e-15 (1D) and 1.1e-11
    # (2D), so their bound of 1e-9 leaves a margin of 95x
    grid, field, op, b = small_system
    _, ctx = preconditioner_R(field, node_family("zolotarev", 3), return_context=True)
    r_2d, J_2d, Dt_2d = _jacobian_2d(30, 10)
    cases = ((field.values, assemble_jacobian(ctx), regularization_gradient(grid), 1e-12),
             (r_2d, J_2d, Dt_2d, 1e-10))
    for r, J, Dt, tol in cases:
        r_gn = r * (1.0 + 0.1 * rng.random(r.size))
        modes = [(None, tol)] + [(adaptive_weights(Dt, r_gn, phi), 1e-9) for phi in (1e-3, 1e-1)]
        for w, bound in modes:
            r_next = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
            with monkeypatch.context() as m:
                m.setattr(inversion, "_saddle_solver", _augmented_saddle_solver)
                r_ref = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=_pinv(J))
            rel = np.linalg.norm(r_next - r_ref) / np.linalg.norm(r_ref)
            assert rel < bound, (r.size, w is None, rel)


def _assert_smallest_saddle_pair(J, Dt, bound):
    """v against the eigenvector of the formed M = [[Dt^T Dt, J^T], [J, 0]]
    whose eigenvalue lambda is smallest in modulus, up to sign, and mu
    against -lambda, both relative, within ``bound``."""
    solve, G, C = inversion._saddle_solver(J, Dt, None)
    mu, v = inversion._smallest_saddle_pair(C, G, solve)
    k = J.shape[0]
    lam, V = np.linalg.eigh(np.block([[(Dt.T @ Dt).toarray(), J.T], [J, np.zeros((k, k))]]))
    i = np.argmin(np.abs(lam))
    assert min(np.linalg.norm(v - V[:, i]), np.linalg.norm(v + V[:, i])) < bound
    assert abs(mu + lam[i]) < bound * abs(lam[i])


def test_smallest_saddle_pair_matches_dense_eigh(small_system):
    # on the 1D N = 40 zolotarev m = 3 context, where the path solve gives
    # G.  Measured: 2.1e-8 for v (eigh's own eigenvector error, eps ||M|| /
    # gap, is about 3e-8 here: ||M|| = 6.7e3, gap 5.1e-5) and 9.0e-8 for mu,
    # so the bound of 1e-6 leaves margins of 48x and 11x
    grid, field, op, b = small_system
    _, ctx = preconditioner_R(field, node_family("zolotarev", 3), return_context=True)
    _assert_smallest_saddle_pair(assemble_jacobian(ctx), regularization_gradient(grid), 1e-6)


def test_smallest_saddle_pair_matches_dense_eigh_2d(rng):
    # on a 30 x 10 grid, where SuperLU's factor of the grounded Laplacian
    # gives G, with a random 20-row J of scale 0.01.  One inverse-iteration
    # step is leading-order accurate, so the error grows as J's scale
    # squared (regularize_nullspace); measured 7.0e-7 for v and 6.8e-7 for
    # mu, so the bound of 1e-5 leaves margins of 14x and 15x
    Dt = regularization_gradient(Grid2D(nx=30, ny=10))
    _assert_smallest_saddle_pair(0.01 * rng.standard_normal((20, 300)), Dt, 1e-5)


def test_identity_correction_runs_no_arpack(small_system, rng, monkeypatch):
    # the deflated eigenpair comes from the capacitance system, not eigsh
    grid, field, op, b = small_system
    _, ctx = preconditioner_R(field, node_family("zolotarev", 3), return_context=True)
    J, Dt = assemble_jacobian(ctx), regularization_gradient(grid)

    def no_eigsh(*args, **kwargs):
        raise AssertionError("eigsh called")

    monkeypatch.setattr(spla, "eigsh", no_eigsh)
    r_gn = field.values * (1.0 + 0.1 * rng.random(grid.n_points))
    r_next = regularize_nullspace(r_gn, J, Dt, w=None, J_pinv=_pinv(J))
    assert np.all(np.isfinite(r_next))


def test_saddle_factorization_structure(rng, monkeypatch):
    # J never enters a sparse factor: identity weights factor only the n x n
    # grounded Laplacian, other weights only the (e + n) grounded edge
    # system; J enters through the dense capacitance system
    r, J, Dt = _jacobian_2d(30, 10)
    r_gn = r * (1.0 + 0.1 * rng.random(r.size))
    (e, n), k = Dt.shape, J.shape[0]
    shapes = []
    reference_splu = spla.splu

    def capturing_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return reference_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", capturing_splu)
    w = adaptive_weights(Dt, r_gn, 1e-3)
    for weights, size in ((None, n), (w, e + n)):
        regularize_nullspace(r_gn, J, Dt, w=weights, J_pinv=_pinv(J))
        assert shapes == [(size, size)], weights is None
        shapes.clear()


@pytest.fixture
def splu_callers(monkeypatch):
    """(calling function, size) of the SuperLU factorizations made while the
    test runs."""
    calls = []
    reference_splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, A.shape[0]))
        return reference_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def _grounded_reference(Dt, w):
    """L_g^-1 through SuperLU: the edge system and the SPD grounded operator."""
    e, n = Dt.shape
    ground = sp.csc_matrix(([1.0], ([0], [0])), shape=(n, n))
    edge = spla.splu(sp.bmat([[-sp.diags(1.0 / w), Dt], [Dt.T, ground]], format="csc"))
    spd = spla.splu((Dt.T @ sp.diags(w) @ Dt + ground).tocsc(), permc_spec="MMD_AT_PLUS_A")
    return (lambda b: edge.solve(np.concatenate([np.zeros((e,) + b.shape[1:]), b]))[e:],
            spd.solve)


@pytest.mark.parametrize("N", [199, 1999])
def test_path_solve_matches_sparse_factors(N, rng, splu_callers):
    # the prefix-sum solve of a 1D seminorm against the SuperLU solves it
    # replaced, for weights spanning 0 to 14 decades and one or eight
    # right-hand sides.  Over 20 draws each on N = 60, 199 and 1999 it was at
    # most 4.4e-15 off the edge system's LU (the bound 1e-13 leaves a margin
    # of 23), and both were within 2e-14 of the same formula in long double.
    # The SPD LU of the formed Dt^T W Dt + e_0 e_0^T loses accuracy as the
    # weights spread (5e-6, 1e-3 and O(1) at 5, 10 and 14 decades on
    # N = 1999, and exactly singular twice at 14), so it is compared only at
    # unit weights, which the identity correction used: at most 5.1e-11
    # (N = 199) and 5.0e-8 (N = 1999) off, bounds 1e-9 and 1e-6
    Dt = regularization_gradient(Grid1D(N))
    e = Dt.shape[0]
    spd_bound = {199: 1e-9, 1999: 1e-6}[N]
    for span in (0, 5, 10, 14):
        w = 10.0 ** (span * (rng.random(e) - 0.5))
        solve_edge, solve_spd = _grounded_reference(Dt, w)
        splu_callers.clear()
        solve_path = inversion._grounded_solver(Dt, w if span else None)
        assert splu_callers == []
        for b in (rng.standard_normal(N), rng.standard_normal((N, 8))):
            x = solve_path(b)
            assert x.shape == b.shape
            x_edge = solve_edge(b)
            rel = np.linalg.norm(x - x_edge) / np.linalg.norm(x_edge)
            assert rel < 1e-13, (span, b.ndim, rel)
            if span == 0:
                x_spd = solve_spd(b)
                rel = np.linalg.norm(x - x_spd) / np.linalg.norm(x_spd)
                assert rel < spd_bound, (b.ndim, rel)


def test_non_path_takes_sparse_factor(rng, splu_callers):
    # the path solve needs an (n - 1) x n Dt whose row i joins columns i and
    # i + 1 with entries (d_i, -d_i), d_i != 0 (the grid factor's recogniser
    # _difference_diagonal); any other Dt is factored by SuperLU
    g = Grid1D(40)
    Dt = regularization_gradient(g)
    e, n = Dt.shape
    w = adaptive_weights(Dt, 1.0 + rng.random(n), 1e-3)
    b = rng.standard_normal((n, 3))
    assert _difference_diagonal(Dt) is not None
    # a 2D grid's edges form cycles
    Dt_2d = regularization_gradient(Grid2D(nx=7, ny=5))
    assert _difference_diagonal(Dt_2d) is None
    inversion._grounded_solver(Dt_2d, None)
    assert splu_callers == [("_grounded_solver", Dt_2d.shape[1])]
    # the square grid factor is recognised, but its Dirichlet row makes it
    # no path
    D = build_difference_1d(g)
    assert _difference_diagonal(D) is not None
    splu_callers.clear()
    inversion._grounded_solver(D, None)
    assert splu_callers == [("_grounded_solver", n)]
    # reordering the rows keeps L_g but not the diagonals the check reads
    perm = rng.permutation(e)
    assert _difference_diagonal(Dt[perm]) is None
    for weights in (None, w):
        splu_callers.clear()
        w_perm = None if weights is None else weights[perm]
        x = inversion._grounded_solver(Dt[perm], w_perm)(b)
        assert splu_callers == [("_grounded_solver", n if weights is None else e + n)]
        x_path = inversion._grounded_solver(Dt, weights)(b)
        assert np.linalg.norm(x - x_path) < 1e-12 * np.linalg.norm(x_path)
    # a row whose two entries do not cancel is no difference
    skew = Dt.copy()
    skew.data[1::2] *= 2.0
    assert _difference_diagonal(skew) is None
    splu_callers.clear()
    inversion._grounded_solver(skew, w)
    assert splu_callers == [("_grounded_solver", e + n)]
    # a zero coupling cuts the path in two, and SuperLU reports the singular
    # grounded operator
    cut = Dt.copy()
    cut.data[10:12] = 0.0
    assert cut.nnz == Dt.nnz and _difference_diagonal(cut) is None
    for weights in (None, w):
        with pytest.raises(RegularizationError, match="grounded Laplacian"):
            inversion._grounded_solver(cut, weights)


def test_failed_correction_keeps_plain_update(monkeypatch):
    g = Grid1D(60)
    fam = node_family("zolotarev", 3)
    target = FitTarget(m=3, log_cfrac=preconditioner_R(phantom("rQ", g), fam),
                       spectral=np.zeros(6))

    def failing(*args, **kwargs):
        raise RegularizationError("saddle-system factorization failed")

    plain, _ = invert_1d(target, g, InversionConfig(m0=3, n_gn=2,
                                                    nullspace_correction=False))
    monkeypatch.setattr(inversion, "regularize_nullspace", failing)
    rec, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=2))
    assert np.array_equal(rec.values, plain.values)
    assert sum("null-space correction" in note for note in hist.notes) == 2


def test_adaptive_weights_formula(rng):
    g = Grid1D(10)
    Dt = regularization_gradient(g)
    r = 1.0 + rng.random(10)
    phi = 0.05
    w = adaptive_weights(Dt, r, phi)
    grad = np.asarray(Dt @ r).ravel()
    assert np.allclose(w, 1.0 / (grad ** 2 + phi ** 2))


def test_adaptive_weight_scale(monkeypatch):
    # phi = ||residual|| / (2 m^2) at each step, with m the model size in 1D
    g = Grid1D(60)
    fam = node_family("zolotarev", 3)
    target = FitTarget(m=3, log_cfrac=preconditioner_R(phantom("rQ", g), fam),
                       spectral=np.zeros(6))
    phis = []

    def recording(Dt, r, phi):
        phis.append(phi)
        return adaptive_weights(Dt, r, phi)

    monkeypatch.setattr(inversion, "adaptive_weights", recording)
    _, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=2, weights="adaptive"))
    m = hist.m
    assert len(phis) == 2
    for p, phi in enumerate(phis, start=1):
        assert phi == 1.0 / (2.0 * m ** 2) * hist.residual[p - 1]


@pytest.mark.parametrize("fields", [{"m": 0}, {"m": 2.5},
                                    {"log_cfrac": np.zeros(4)},
                                    {"spectral": np.zeros((2, 3))},
                                    {"log_cfrac": np.full(6, np.nan)},
                                    {"spectral": np.array([1.0, 2.0, np.inf, 1.0, 1.0, 1.0])}])
def test_fit_target_checks_itself(fields):
    # an m = 3 target with the wrong m or vector used to reach invert_1d and
    # fail there with numpy's broadcast ValueError
    args = dict(m=3, log_cfrac=np.zeros(6), spectral=np.ones(6)) | fields
    with pytest.raises(RomresError):
        FitTarget(**args)


def test_data_fitting_noiseless_consistency():
    # the fitted coefficients of same-grid noiseless data match the stable
    # map up to the quadrature error amplified by the fit conditioning
    n = 199
    g = Grid1D(n)
    f = ResistivityField(np.ones(n), g)
    op = assemble_operator(f, build_difference_1d(g))
    b = source_vector(g).b
    y = simulate_response(op.A, b, T=100.0, h_T=1e-5)
    target = data_fitting_Q(y, InversionConfig(m0=4))
    assert target.m == 4
    vec = preconditioner_R(f, node_family("zolotarev", 4))
    assert np.max(np.abs(target.log_cfrac - vec)) < 0.1
    # noiseless data admits the full m = 6 model
    assert data_fitting_Q(y, InversionConfig(m0=6)).m == 6


def test_data_fitting_unusable():
    t = 1e-2 * np.arange(1, 2001)
    rng = np.random.default_rng(0)
    junk = TimeSeries(np.abs(rng.standard_normal(2000)) + 1.0, 1e-2)
    with pytest.raises(DataUnusableError):
        data_fitting_Q(junk, InversionConfig(m0=3))
    del t


def test_data_fitting_input_error_not_reduced(monkeypatch):
    # only fit-validity failures reduce m; a confluent family given to the
    # multipoint fit is an input error and surfaces at the first attempt
    import romres.inversion as inv

    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args[2].m)
        return fit_multipoint(*args, **kwargs)

    monkeypatch.setattr(inv, "fit_multipoint", counting_fit)
    y = TimeSeries(np.exp(-1e-2 * np.arange(1, 2001)), 1e-2)
    with pytest.raises(RomresError, match="confluent families"):
        data_fitting_Q(y, InversionConfig(m0=4, family_kind="pade0"))
    assert calls == [4]


@pytest.mark.parametrize("n_samples, m0", [(1, 1), (1, 2), (3, 2), (11, 6)])
def test_data_fitting_rejects_too_short_series(n_samples, m0, monkeypatch):
    # n samples determine at most n of the 2m quadrature values a trial
    # reads: a series shorter than 2 m0 is an input error, raised before any
    # quadrature and not answered by reducing m
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return laplace_moments(*args, **kwargs)

    monkeypatch.setattr(inversion, "laplace_moments", counting)
    y = TimeSeries(np.exp(-0.5 * np.arange(1, n_samples + 1)), 1.0)
    with pytest.raises(RomresError, match="samples cannot determine") as info:
        data_fitting_Q(y, InversionConfig(m0=m0))
    assert type(info.value) is RomresError and calls == []


def test_data_fitting_reduces_m_after_fit_failure(monkeypatch):
    # a fit-validity failure at m = 6 retries at m = 5 with that family's
    # quadratures; the data alone admit m = 6
    y = synthesize("rQ", n_fine=99, T=100.0, h_T=1e-4)
    seen = []

    def failing_at_6(values, derivs, fam):
        seen.append((fam.m, values, derivs))
        if fam.m == 6:
            raise SpectralValidityError("injected at m = 6")
        return fit_multipoint(values, derivs, fam)

    monkeypatch.setattr(inversion, "fit_multipoint", failing_at_6)
    target = data_fitting_Q(y, InversionConfig(m0=6))
    assert target.m == 5
    assert target.attempts == (6, 5)
    assert [m for m, _, _ in seen] == [6, 5]
    nodes = node_family("zolotarev", 5).nodes
    _, values, derivs = seen[1]
    assert np.array_equal(values, [laplace_transform(y, s) for s in nodes])
    assert np.array_equal(derivs, [laplace_derivative(y, s) for s in nodes])


def test_data_fitting_reads_each_node_once(monkeypatch):
    # one laplace_moments(series, s, 2) call per node and attempt, and no
    # scalar quadrature, across an m-reduction from 6 to 5
    y = synthesize("rQ", n_fine=99, T=100.0, h_T=1e-4)
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append((name,) + args[1:])
            return original(*args)
        return wrapper

    def failing_at_6(values, derivs, fam):
        if fam.m == 6:
            raise SpectralValidityError("injected at m = 6")
        return fit_multipoint(values, derivs, fam)

    for name in ("laplace_transform", "laplace_derivative", "laplace_moments"):
        wrapper = counting(name, getattr(laplace, name))
        for module in (laplace, inversion):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    monkeypatch.setattr(inversion, "fit_multipoint", failing_at_6)
    assert data_fitting_Q(y, InversionConfig(m0=6)).attempts == (6, 5)
    nodes = np.concatenate([node_family("zolotarev", m).nodes for m in (6, 5)])
    assert calls == [("laplace_moments", s, 2) for s in nodes]


@pytest.mark.parametrize("m0", [0, -1])
def test_model_size_must_be_positive(m0):
    # an input error, not a verdict on the data
    with pytest.raises(RomresError, match="m0 must be at least 1") as err:
        InversionConfig(m0=m0)
    assert not isinstance(err.value, DataUnusableError)
    tau = np.array([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0, -1.0 / 81.0])
    with pytest.raises(RomresError, match="m0 must be at least 1") as err:
        data_fitting_moments(tau, 2.0, m0)
    assert not isinstance(err.value, DataUnusableError)


def test_moment_fit_size_must_be_integer():
    # a RomresError on entry, not a TypeError from slicing the moments
    tau = np.array([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0, -1.0 / 81.0])
    with pytest.raises(RomresError, match="m0 must be an integer"):
        data_fitting_moments(tau, 2.0, 1.5)


@pytest.mark.parametrize("setting", [{"n_gn": -1}, {"n_sources": 0},
                                     {"weights": "bogus"}, {"parametrization": "bogus"},
                                     {"family_kind": "bogus"}, {"s_hat": np.nan},
                                     {"s_hat": np.inf}, {"m0": 2.5}, {"n_gn": 2.5},
                                     {"n_sources": 2.5}])
def test_config_rejects_invalid_setting(setting):
    # checked at construction, before any data are read
    with pytest.raises(RomresError):
        InversionConfig(**setting)


def test_data_fitting_moments_reduction():
    # moments of an m=1 function at a shifted node: requested m=2 collapses
    tau = np.array([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0, -1.0 / 81.0])  # 1/(s+1) at s=2
    target = data_fitting_moments(tau, 2.0, 2)
    assert target.m == 1 and target.attempts == (2,)
    assert target.spectral[0] == pytest.approx(1.0, rel=1e-8)
    assert data_fitting_moments(tau, 2.0, 1).attempts == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_data_fitting_moments_rejects_nonfinite(bad):
    # an input error: the Toeplitz SVD must not see it
    tau = np.array([1.0 / 3.0, bad, 1.0 / 27.0, -1.0 / 81.0])
    good = np.array([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0, -1.0 / 81.0])
    with warnings.catch_warnings():
        # no bare LinAlgError or ValueError, and no warning in their place
        warnings.simplefilter("error")
        for moments, s_hat, match in ((tau, 2.0, "finite"), (good, bad, "finite"),
                                      (np.vstack([good, good]), 2.0, "vector")):
            with pytest.raises(RomresError, match=match) as err:
                data_fitting_moments(moments, s_hat, 2)
            assert not isinstance(err.value, DataUnusableError)


@pytest.mark.parametrize("s_hat", ["a", 2.0 + 1j, None])
def test_data_fitting_moments_rejects_non_real_node(s_hat):
    tau = np.array([1.0 / 3.0, -1.0 / 9.0, 1.0 / 27.0, -1.0 / 81.0])
    with pytest.raises(RomresError, match="s_hat must be a finite real number"):
        data_fitting_moments(tau, s_hat, 2)


def test_invert_1d_noiseless_quick():
    y = synthesize("rQ")
    g = Grid1D(99)
    cfg = InversionConfig(m0=4, n_gn=4)
    truth = phantom("rQ", g)
    rec, hist = invert_1d(y, g, cfg, r_true=truth.values)
    assert hist.m == 4
    assert hist.error[-1] < 0.05
    assert all(np.diff(hist.residual[:3]) < 0)  # early monotone decrease
    assert np.all(rec.values > 0)


def test_invert_1d_history_csv():
    y = synthesize("rQ")
    g = Grid1D(99)
    cfg = InversionConfig(m0=3, n_gn=2)
    rec, hist = invert_1d(y, g, cfg, r_true=phantom("rQ", g).values)
    assert len(hist.iterates) == len(hist.iterations)


def test_invert_2d_smoke():
    gf = Grid2D(nx=24, ny=8)
    gc = Grid2D(nx=18, ny=6)
    gf = replace(gf, segments=uniform_segments(gf, 2))
    gc = replace(gc, segments=uniform_segments(gc, 2))
    truth_f = phantom("two-rect-side", gf)
    op = assemble_operator_2d(truth_f, gf)
    sources = [source_vector(gf, s).b for s in gf.segments]
    cfg = InversionConfig(m0=3, family_kind="single-node", s_hat=30.0, n_gn=1,
                          n_sources=2)
    tau = moments_from_operator(op, sources, cfg.s_hat, 2 * cfg.m0)
    truth_c = phantom("two-rect-side", gc)
    rec, hist = invert_2d(tau, gc, cfg, r_true=truth_c.values)
    assert rec.values.shape == (gc.n_cells,)
    assert np.all(rec.values > 0)
    assert hist.m == 3
    # the step reduces the coefficient misfit
    assert hist.residual[-1] <= hist.residual[0]


@pytest.fixture
def pinv_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.pinv while the test runs."""
    calls = []
    reference_pinv = np.linalg.pinv

    def counting_pinv(a, *args, **kwargs):
        calls.append(np.shape(a))
        return reference_pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    return calls


@pytest.mark.parametrize("weights", ["identity", "adaptive"])
def test_invert_1d_evaluations_build_no_sparse_matrix(weights, sparse_constructions):
    # invert_1d builds its difference factor and seminorm operator once;
    # every chain evaluation, Jacobian and null-space correction after that
    # constructs no sparse matrix, so three steps build as many as none
    g = Grid1D(60)
    l_star = preconditioner_R(phantom("rQ", g), node_family("zolotarev", 3))
    target = FitTarget(m=3, log_cfrac=l_star, spectral=np.zeros(6))
    built = []
    for n_gn in (0, 3):
        sparse_constructions.clear()
        _, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=n_gn, weights=weights))
        assert len(hist.residual) == n_gn + 1
        built.append(list(sparse_constructions))
    assert built[0] == built[1]


def test_gn_stops_at_rounding_level(monkeypatch):
    # a same-grid noiseless target is reached to rounding: the residual falls
    # to about 3e-14 at step 9 and afterwards only wanders (up to 1.5e-13),
    # which the relative stagnation test never catches
    g = Grid1D(60)
    l_star = preconditioner_R(phantom("rQ", g), node_family("zolotarev", 3))
    target = FitTarget(m=3, log_cfrac=l_star, spectral=np.zeros(6))
    chains = []

    def counting_chain(*args, **kwargs):
        chains.append(1)
        return preconditioner_chain(*args, **kwargs)

    monkeypatch.setattr(inversion, "preconditioner_chain", counting_chain)
    _, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=12))
    p = len(hist.step_length) + 1
    assert p < 12
    assert hist.notes == [f"residual at rounding level at iteration {p}"]
    floor = inversion._ROUNDING_FLOOR * np.finfo(float).eps * np.linalg.norm(l_star)
    assert hist.residual[p - 1] <= floor < min(hist.residual[:p - 1])
    # the stopping evaluation is the last one: the history ends at iteration
    # p, and no chain is evaluated again at the iterate it has just evaluated
    assert hist.iterations == list(range(1, p + 1))
    assert len(hist.residual) == len(hist.iterates) == len(chains) == p


def test_gn_stops_on_stagnation(monkeypatch):
    # a step that returns r unchanged repeats the residual exactly, and the
    # relative stagnation test stops the loop at the second evaluation
    g = Grid1D(60)
    l_star = preconditioner_R(phantom("rQ", g), node_family("zolotarev", 3))
    target = FitTarget(m=3, log_cfrac=l_star, spectral=np.zeros(6))

    def standing_still(r, J, residual, *, J_pinv):
        return r, np.zeros_like(r), 1.0

    monkeypatch.setattr(inversion, "gauss_newton_step", standing_still)
    _, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=5, nullspace_correction=False))
    assert hist.notes == ["stagnated at iteration 2"]
    assert hist.residual[0] == hist.residual[1] > 0
    assert hist.iterations == [1, 2] and len(hist.residual) == len(hist.iterates) == 2
    assert hist.step_length == [1.0]


def test_invert_2d_reduces_m_across_sources(monkeypatch):
    # the middle source's moments are those of a two-pole model, so its fit
    # drops to m = 2 while the others fit at m0 = 3; every source is then
    # refitted at m = 2, and the loop runs at that size
    gf, gc = Grid2D(nx=24, ny=8), Grid2D(nx=18, ny=6)
    gf = replace(gf, segments=uniform_segments(gf, 3))
    gc = replace(gc, segments=uniform_segments(gc, 3))
    cfg = InversionConfig(m0=3, family_kind="single-node", s_hat=30.0, n_gn=1, n_sources=3)
    op = assemble_operator_2d(phantom("two-rect-side", gf), gf)
    tau = moments_from_operator(op, [source_vector(gf, s).b for s in gf.segments],
                                cfg.s_hat, 2 * cfg.m0)
    k = np.arange(2 * cfg.m0)[:, None]
    theta, c = np.array([5.0, 40.0]), np.array([0.02, 0.01])
    tau[1] = np.sum((-1.0) ** k * c / (cfg.s_hat + theta) ** (k + 1), axis=1)
    fits, chains = [], []

    def recording_fit(moments, s_hat, m0):
        target = data_fitting_moments(moments, s_hat, m0)
        fits.append((m0, target.m))
        return target

    def recording_chain(op, b, family, **kwargs):
        chains.append(family.m)
        return preconditioner_chain(op, b, family, **kwargs)

    monkeypatch.setattr(inversion, "data_fitting_moments", recording_fit)
    monkeypatch.setattr(inversion, "preconditioner_chain", recording_chain)
    _, hist = invert_2d(tau, gc, cfg)
    assert hist.m == 2
    assert fits == [(3, 3), (3, 2), (3, 3), (2, 2), (2, 2), (2, 2)]
    assert chains == [2] * 3 * len(hist.residual)


@pytest.mark.parametrize("weights", ["identity", "adaptive"])
def test_one_pseudoinverse_per_gn_iteration(weights, pinv_calls, splu_callers):
    # the step and the null(J) projection share one SVD of J.  1D seminorms
    # are paths, solved by prefix sums, and 1D chains take the tridiagonal
    # LDL^T, so a 1D inversion makes no SuperLU factorization; 2D factors the
    # grounded Laplacian (identity) or edge system (adaptive) once per
    # correction
    g = Grid1D(60)
    fam = node_family("zolotarev", 3)
    target = FitTarget(m=3, log_cfrac=preconditioner_R(phantom("rQ", g), fam),
                       spectral=np.zeros(6))
    _, hist = invert_1d(target, g, InversionConfig(m0=3, n_gn=2, weights=weights))
    assert not hist.notes
    assert pinv_calls == [(6, 60)] * len(hist.step_length) == [(6, 60)] * 2
    assert splu_callers == []
    pinv_calls.clear()
    gf, gc = Grid2D(nx=24, ny=8), Grid2D(nx=18, ny=6)
    gf = replace(gf, segments=uniform_segments(gf, 2))
    gc = replace(gc, segments=uniform_segments(gc, 2))
    op = assemble_operator_2d(phantom("two-rect-side", gf), gf)
    cfg = InversionConfig(m0=3, family_kind="single-node", s_hat=30.0, n_gn=1,
                          n_sources=2, weights=weights)
    tau = moments_from_operator(op, [source_vector(gf, s).b for s in gf.segments],
                                cfg.s_hat, 2 * cfg.m0)
    splu_callers.clear()
    _, hist = invert_2d(tau, gc, cfg)
    assert not hist.notes
    assert pinv_calls == [(12, gc.n_cells)] * len(hist.step_length) == [(12, gc.n_cells)]
    e, n = regularization_gradient(gc).shape
    size = n if weights == "identity" else e + n
    corrections = [c for c in splu_callers if c[0] == "_grounded_solver"]
    assert corrections == [("_grounded_solver", size)] * len(hist.step_length)


@pytest.mark.parametrize("tau", [np.ones((2, 1)), np.ones((2, 0)),
                                 np.array([[1.0, np.nan], [1.0, 0.5]]),
                                 [[1.0, 0.5], [1.0, 0.5]]])
def test_invert_2d_rejects_bad_moment_array(tau):
    # fewer than two moments per source, a nonfinite moment or data that are
    # not a moment array is an input error, not a verdict on the data
    g = Grid2D(nx=12, ny=4)
    cfg = InversionConfig(m0=2, family_kind="single-node", n_gn=1, n_sources=2)
    with pytest.raises(RomresError, match="moment") as err:
        invert_2d(tau, g, cfg)
    assert not isinstance(err.value, DataUnusableError)


def test_regularization_gradient_interior_edges():
    # one row per interior edge: the seminorm of a constant field vanishes
    for grid, n_rows in ((Grid1D(10), 9), (Grid2D(nx=7, ny=9), 9 * 6 + 8 * 7)):
        Dt = regularization_gradient(grid)
        n = Dt.shape[1]
        assert Dt.shape[0] == n_rows
        assert np.array_equal(np.diff(Dt.indptr), np.full(n_rows, 2))
        assert np.allclose(Dt @ np.ones(n), 0.0)


def test_quadrature_moments_match_operator_moments(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=40.0, h_T=5e-5)
    s_hat = 8.0
    tau_q = laplace_moments(y, s_hat, 4)
    tau_m = moments_from_operator(op, [b], s_hat, 4)[0]
    assert np.allclose(tau_q, tau_m, rtol=5e-3)


def test_gauss_newton_evaluation_factors_once(monkeypatch):
    # each 2D evaluation (18 x 6 grid, 2 sources, single node m = 3) builds
    # one solver and factors s_hat I - A once for every chain and Jacobian;
    # the synthesis factors its operator once for every source
    built, factored = [], []
    init, factor = shifted_solver.__init__, shifted_solver._factor

    def counting_init(self, op):
        built.append(self)
        init(self, op)

    def counting_factor(self, s):
        factored.append((self, s))
        return factor(self, s)

    monkeypatch.setattr(shifted_solver, "__init__", counting_init)
    monkeypatch.setattr(shifted_solver, "_factor", counting_factor)
    gf, gc = Grid2D(nx=24, ny=8), Grid2D(nx=18, ny=6)
    gf = replace(gf, segments=uniform_segments(gf, 2))
    cfg = InversionConfig(m0=3, family_kind="single-node", s_hat=30.0, n_gn=1, n_sources=2)
    op = assemble_operator_2d(phantom("two-rect-side", gf), gf)
    tau = moments_from_operator(op, [source_vector(gf, s).b for s in gf.segments],
                                cfg.s_hat, 2 * cfg.m0)
    assert factored == [(op.solver, 30.0)] and built == [op.solver]
    built.clear()
    factored.clear()
    _, hist = invert_2d(tau, gc, cfg)
    assert hist.m == 3 and len(hist.iterations) == 2
    assert factored == [(solver, 30.0) for solver in built] and len(built) == 2


def test_toeplitz_scale_zero_moment_guard():
    # a vanishing first or last moment leaves the Toeplitz system unscaled
    assert inversion._toeplitz_scale(np.array([0.0, 0.5, 0.25])) == 1.0
    assert inversion._toeplitz_scale(np.array([1.0, 0.5, 0.0])) == 1.0
    assert inversion._toeplitz_scale(np.array([1.0, 0.5, 0.25])) == 2.0
