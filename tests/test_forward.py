import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from romres.errors import RomresError
from romres.forward import (NoiseModel, add_noise, shifted_solver, simulate_response,
                            spectral_weights, transfer_eval, transfer_moments)
from romres.grids import (Grid1D, Grid2D, ResistivityField, assemble_operator,
                          assemble_operator_2d, build_difference_1d, source_vector,
                          uniform_segments)
from romres.jacobian import assemble_jacobian
from romres.krylov import preconditioner_chain
from romres.phantoms import phantom
from romres.ratfit import node_family

# the reference factorization, kept from before any test wraps spla.splu
reference_splu = spla.splu


@pytest.fixture
def splu_calls(monkeypatch):
    """Sizes of the SuperLU factorizations made while the test runs."""
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape[0])
        return reference_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def test_scalar_exponential():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    y = simulate_response(A, b, T=1.0, h_T=0.25)
    assert y.samples[-1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_sample_count():
    A = np.array([[-1.0]])
    y = simulate_response(A, np.array([1.0]), T=2.0, h_T=1e-4)
    assert y.n_samples == 20000
    assert y.times()[0] == pytest.approx(1e-4)


def test_response_positive_decreasing(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=5.0, h_T=1e-3)
    assert np.all(y.samples > 0)
    assert np.all(np.diff(y.samples) < 0)


def test_noise_zero_level_bitwise(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=1.0, h_T=1e-2)
    d = add_noise(y, NoiseModel(0.0, seed=3))
    assert np.array_equal(d.samples, y.samples)


def test_noise_snr(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=2.0, h_T=1e-4)
    eps = 5e-2
    ratios = []
    for seed in range(5):
        d = add_noise(y, NoiseModel(eps, seed))
        ratios.append(np.linalg.norm(d.samples)
                      / np.linalg.norm(d.samples - y.samples))
    mean = np.mean(ratios)
    assert abs(mean - 1.0 / eps) / (1.0 / eps) < 0.2


def test_noise_seed_determinism(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=1.0, h_T=1e-2)
    d1 = add_noise(y, NoiseModel(1e-2, seed=7))
    d2 = add_noise(y, NoiseModel(1e-2, seed=7))
    assert np.array_equal(d1.samples, d2.samples)


def test_transfer_eval_scalar():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    val, der = transfer_eval(A, b, s=1.0)
    assert val == pytest.approx(0.5)
    assert der == pytest.approx(-0.25)


def test_transfer_stieltjes_signs(small_system):
    grid, field, op, b = small_system
    for s in (0.5, 2.0, 50.0):
        val, der = transfer_eval(op.A, b, s=s)
        assert val > 0
        assert der < 0


def test_laplace_of_spectral_response_analytic(small_system):
    # sum of w_i/(s - lambda_i) must equal the resolvent expression
    grid, field, op, b = small_system
    lam, w = spectral_weights(op.A, b)
    for s in (1.0, 10.0):
        val, _ = transfer_eval(op.A, b, s=s)
        assert val == pytest.approx(np.sum(w / (s - lam)), rel=1e-12)


def test_transfer_moments_geometric():
    A = np.array([[-1.0]])
    b = np.array([1.0])
    tau = transfer_moments(A, b, 0.0, 4)
    assert np.allclose(tau, [1.0, -1.0, 1.0, -1.0])


def test_transfer_moment_zero_equals_value(small_system):
    grid, field, op, b = small_system
    s = 3.0
    tau = transfer_moments(op.A, b, s, 2)
    val, der = transfer_eval(op.A, b, s=s)
    assert tau[0] == pytest.approx(val, rel=1e-12)
    assert tau[1] == pytest.approx(der, rel=1e-12)


def test_transfer_moments_rank_warning():
    A = np.array([[-1.0]])
    with pytest.warns(UserWarning):
        transfer_moments(A, np.array([1.0]), 0.0, 3)


@pytest.mark.parametrize("N", [2, 199, 1999])
def test_shifted_solver_matches_superlu(N, rng, splu_calls):
    # 1D operators take the tridiagonal LU; n = 2 stays on SuperLU.  Shift 0
    # is the pade0 node and 2 the one nearest the spectrum.  Bound 1e-10 on
    # the relative error; measured at most 3.5e-12 (N = 1999, s = 2).
    if N == 2:
        A = sp.csr_matrix([[-2.0, 1.0], [1.0, -3.0]])
    else:
        grid = Grid1D(N)
        A = assemble_operator(phantom("rJ", grid), build_difference_1d(grid)).A
    solver = shifted_solver(A)
    for s in (0.0, 2.0, 60.0):
        ref_lu = reference_splu(sp.csc_matrix(s * sp.identity(N) - A))
        for shape in ((N,), (N, 10)):
            rhs = rng.standard_normal(shape)
            x = solver.solve(s, rhs)
            ref = ref_lu.solve(rhs)
            assert x.shape == shape
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert splu_calls == ([2] * 3 if N == 2 else [])


def test_singular_shift_raises(splu_calls):
    # the Neumann Laplacian is tridiagonal; its periodic wrap adds corner
    # entries and takes SuperLU.  Both are singular at s = 0.
    n = 6
    main = np.r_[-1.0, np.full(n - 2, -2.0), -1.0]
    neumann = sp.diags([np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1], format="lil")
    periodic = neumann.copy()
    periodic[0, 0] = periodic[-1, -1] = -2.0
    periodic[0, -1] = periodic[-1, 0] = 1.0
    for A in (neumann, periodic):
        solver = shifted_solver(A.tocsr())
        with pytest.raises(RomresError, match="singular shift"):
            solver.solve(0.0, np.ones(n))
        assert solver.solve(1.0, np.ones(n)).shape == (n,)
    assert splu_calls == [n, n]


def test_chain_factorizations_by_dimension(rng, splu_calls):
    # 1D chains and Jacobians factor every shift without SuperLU; a 2D chain
    # makes one SuperLU factorization for its single node
    grid = Grid1D(199)
    op = assemble_operator(ResistivityField(1.0 + 0.5 * rng.random(199), grid),
                           build_difference_1d(grid))
    for name in ("zolotarev", "fast", "pade0"):
        ctx = preconditioner_chain(op, source_vector(grid).b, node_family(name, 4))
        assemble_jacobian(ctx)
    assert splu_calls == []
    g2 = Grid2D(nx=10, ny=5)
    op2 = assemble_operator_2d(ResistivityField(1.0 + 0.5 * rng.random(g2.n_cells), g2))
    b2 = source_vector(g2, uniform_segments(g2, 1)[0]).b
    ctx = preconditioner_chain(op2, b2, node_family("single-node", 3, s_hat=30.0))
    assemble_jacobian(ctx)
    assert splu_calls == [g2.n_cells]
