import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from romres import forward
from romres.errors import InvalidGridError, RomresError
from romres.forward import (NoiseModel, add_noise, shifted_solver, simulate_response,
                            spectral_weights, transfer_eval, transfer_moments)
from romres.grids import (Grid1D, Grid2D, ResistivityField, SystemOperator, assemble_operator,
                          assemble_operator_2d, build_difference_1d, source_vector,
                          uniform_segments)
from romres.jacobian import assemble_jacobian
from romres.krylov import build_krylov, preconditioner_R, preconditioner_chain, project
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


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the LAPACK tridiagonal factorizations made while the test runs."""
    calls = []
    for name in ("dpttrf", "dgttrf"):
        def counting(*args, _name=name, _ref=getattr(sla.lapack, name), **kwargs):
            calls.append(_name)
            return _ref(*args, **kwargs)

        monkeypatch.setattr(sla.lapack, name, counting)
    return calls


def diagonal_operator(main):
    """A 1D-kind operator with main diagonal ``main`` and a zero off-diagonal."""
    main = np.asarray(main, dtype=float)
    return SystemOperator(D=sp.identity(main.size, format="csr"),
                          bands=(main, np.zeros(main.size - 1)))


# the operator diag(-1, -2) with the source e_1 answers as the scalar -1
SCALAR_OP, SCALAR_B = diagonal_operator([-1.0, -2.0]), np.array([1.0, 0.0])


def test_scalar_exponential():
    y = simulate_response(SCALAR_OP, SCALAR_B, T=1.0, h_T=0.25)
    assert y.samples[-1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_sample_count():
    y = simulate_response(SCALAR_OP, SCALAR_B, T=2.0, h_T=1e-4)
    assert y.n_samples == 20000
    assert y.step == 1e-4 and y.horizon == pytest.approx(2.0)


def test_simulate_response_rejects_nonsymmetric(small_system):
    # eigh would read only the lower triangle and answer for another matrix;
    # a ragged, string or complex matrix raised numpy's ValueError or a
    # ComplexWarning
    grid, field, op, b = small_system
    A = op.A.tolil()
    A[0, 1] *= 2.0
    for bad in (A.tocsr(), A.toarray(), [[-2.0, 1.0], [1.0]], op.A.toarray().astype(str),
                op.A.toarray() + 1j):
        with pytest.raises(RomresError, match="symmetric"):
            simulate_response(bad, b, T=1.0, h_T=1e-2)
    with warnings.catch_warnings():
        # no bare ValueError, and no warning in its place
        warnings.simplefilter("error")
        for T, h_T in ((1.0, np.nan), (np.nan, 1e-2), (np.inf, 1e-2), (1.0, 0.0)):
            with pytest.raises(RomresError, match="positive and finite"):
                simulate_response(op.A, b, T=T, h_T=h_T)
        for short in (b[:-1], b[:, None]):
            with pytest.raises(RomresError, match="does not match"):
                simulate_response(op.A, short, T=1.0, h_T=1e-2)


def test_simulate_response_takes_an_operator(small_system):
    # an assembled operator is densified through its CSR A, so the series
    # and the spectral weights from op and from op.A are bitwise equal
    g2 = Grid2D(nx=12, ny=4)
    op2 = assemble_operator_2d(phantom("two-rect-side", g2))
    _, _, op1, b1 = small_system
    for op, b in ((op1, b1), (op2, source_vector(g2, uniform_segments(g2, 2)[0]).b)):
        y, y_ref = (simulate_response(A, b, T=1.0, h_T=1e-3) for A in (op, op.A))
        assert np.array_equal(y.samples, y_ref.samples)
        for part, ref in zip(spectral_weights(op, b), spectral_weights(op.A, b)):
            assert np.array_equal(part, ref)


def test_response_positive_decreasing(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=5.0, h_T=1e-3)
    assert np.all(y.samples > 0)
    assert np.all(np.diff(y.samples) < 0)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf, "a", 1j, np.array([0.1]),
                                  np.array([0.1, 0.2]), None])
def test_time_series_rejects_bad_step(step):
    # a string or complex step raised a bare TypeError, and an array one
    # numpy's ValueError, from the comparison
    with pytest.raises(RomresError, match="time step"):
        forward.TimeSeries(np.ones(4), step)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_time_series_rejects_nonfinite_samples(bad):
    samples = np.ones(5)
    samples[3] = bad
    with pytest.raises(RomresError, match="time series contains nonfinite samples"):
        forward.TimeSeries(samples, 0.1)


@pytest.mark.parametrize("samples", [np.ones(3) + 1j, ["a", "b"], [[1.0], [1.0, 2.0]],
                                     np.array([1.0, None])])
def test_time_series_rejects_non_real_samples(samples):
    # complex samples used to drop their imaginary part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RomresError, match="time series"):
            forward.TimeSeries(samples, 0.1)


def test_time_series_samples_read_only():
    samples = np.array([0.5, -2.0, 1.5])
    y = forward.TimeSeries(samples, 0.1)
    assert y.peak == 2.0
    assert np.shares_memory(y.samples, samples)
    with pytest.raises(ValueError):
        y.samples[0] = 1.0
    # the caller's array is a separate view and stays writeable
    samples[0] = 1.0
    assert samples.flags.writeable and y.samples[0] == 1.0


@pytest.mark.parametrize("level", [-1e-3, np.nan, np.inf, "a", None])
def test_noise_model_rejects_bad_level(level):
    with pytest.raises(RomresError, match="noise level"):
        NoiseModel(level)


@pytest.mark.parametrize("seed, match", [(-1, "nonnegative"), (1.5, "integer"),
                                         ("a", "integer"), (None, "integer")])
def test_noise_model_rejects_bad_seed(seed, match):
    # numpy's default_rng would fail on these only when the noise is drawn
    with pytest.raises(RomresError, match=match):
        NoiseModel(0.1, seed)


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


def reference_series(lam, w, n_t, h_t):
    """Mode-by-mode sweep over each mode's whole active range."""
    y = np.zeros(n_t)
    for li, wi in zip(lam, w):
        if wi == 0.0:
            continue
        if li < 0:
            n_i = min(n_t, int(np.floor(forward._EXP_UNDERFLOW / (li * h_t))) + 1)
        else:
            n_i = n_t
        if n_i <= 0:
            continue
        t = h_t + h_t * np.arange(n_i)
        y[:n_i] += wi * np.exp(li * t)
    return y


def traced_peak(fn):
    """Result of fn() and the peak of the memory it allocated meanwhile."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


B = forward._BLOCK


@pytest.mark.parametrize("n_t", [B - 1, B, B + 1, 2 * B + 3])
def test_spectral_series_matches_mode_sweep(n_t, small_system):
    grid, field, op, b = small_system
    h_t = 1e-3
    # active over exactly the first block: floor(-746 / (li h_t)) + 1 == B
    li_edge = forward._EXP_UNDERFLOW / (h_t * (B - 0.5))
    assert int(np.floor(forward._EXP_UNDERFLOW / (li_edge * h_t))) + 1 == B
    lam, w = spectral_weights(op.A, b)
    extra_lam = [0.5, 0.0, -1e5, li_edge, -3.0]   # -1e5 underflows after 8 samples
    extra_w = [1e-3, 0.25, 2.0, 0.75, 0.0]         # -3.0 has a zero weight
    lam = np.concatenate([lam[:20], extra_lam, lam[20:]])
    w = np.concatenate([w[:20], extra_w, w[20:]])
    y = forward._spectral_series(lam, w, n_t, h_t)
    assert np.array_equal(y, reference_series(lam, w, n_t, h_t))


def test_simulate_response_bitwise_on_full_series():
    # the rQ series of the 1D inversion benchmark: N = 299, 1e7 samples
    grid = Grid1D(299)
    op = assemble_operator(phantom("rQ", grid), build_difference_1d(grid))
    b = source_vector(grid).b
    y = simulate_response(op.A, b, T=100.0, h_T=1e-5)
    lam, w = spectral_weights(op.A, b)
    assert y.n_samples == 10 ** 7
    assert np.array_equal(y.samples, reference_series(lam, w, y.n_samples, 1e-5))


@pytest.mark.parametrize("level", [0.0, 1e-3])
def test_add_noise_matches_formula(level, small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=1.0, h_T=1e-4)
    chi = np.random.default_rng(5).standard_normal(y.n_samples)
    d = add_noise(y, NoiseModel(level, seed=5))
    assert np.array_equal(d.samples, y.samples * (1.0 + level * chi))
    assert not np.shares_memory(d.samples, y.samples)


def test_simulate_response_memory(small_system):
    grid, field, op, b = small_system
    y, peak = traced_peak(lambda: simulate_response(op.A, b, T=10.0, h_T=1e-5))
    assert y.n_samples == 10 ** 6
    assert peak <= 1.5 * y.samples.nbytes


def test_add_noise_memory(small_system):
    grid, field, op, b = small_system
    y = simulate_response(op.A, b, T=10.0, h_T=1e-5)
    d, peak = traced_peak(lambda: add_noise(y, NoiseModel(1e-3, seed=1)))
    assert peak <= 1.25 * d.samples.nbytes


def test_transfer_eval_scalar():
    val, der = transfer_eval(SCALAR_OP, SCALAR_B, s=1.0)
    assert val == pytest.approx(0.5)
    assert der == pytest.approx(-0.25)


def test_transfer_stieltjes_signs(small_system):
    grid, field, op, b = small_system
    for s in (0.5, 2.0, 50.0):
        val, der = transfer_eval(op, b, s=s)
        assert val > 0
        assert der < 0


def test_laplace_of_spectral_response_analytic(small_system):
    # sum of w_i/(s - lambda_i) must equal the resolvent expression
    grid, field, op, b = small_system
    lam, w = spectral_weights(op.A, b)
    for s in (1.0, 10.0):
        val, _ = transfer_eval(op, b, s=s)
        assert val == pytest.approx(np.sum(w / (s - lam)), rel=1e-12)


def test_transfer_moments_geometric():
    with pytest.warns(UserWarning, match="more moments than system dimension"):
        tau = transfer_moments(SCALAR_OP, SCALAR_B, 0.0, 4)
    assert np.allclose(tau, [1.0, -1.0, 1.0, -1.0])


def test_transfer_moment_zero_equals_value(small_system):
    grid, field, op, b = small_system
    s = 3.0
    tau = transfer_moments(op, b, s, 2)
    val, der = transfer_eval(op, b, s=s)
    assert tau[0] == pytest.approx(val, rel=1e-12)
    assert tau[1] == pytest.approx(der, rel=1e-12)


def test_transfer_moments_rank_warning():
    with pytest.warns(UserWarning, match="more moments than system dimension"):
        transfer_moments(SCALAR_OP, SCALAR_B, 0.0, 3)


def test_transfer_moments_needs_integer_count():
    for K in (2.5, "2", None):
        with pytest.raises(RomresError, match="integer"):
            transfer_moments(SCALAR_OP, SCALAR_B, 0.0, K)
    assert transfer_moments(SCALAR_OP, SCALAR_B, 0.0, np.int64(1)).shape == (1,)


@pytest.mark.parametrize("N", [2, 199, 1999])
def test_shifted_solver_matches_superlu(N, rng, splu_calls, lapack_calls):
    # a 1D operator of any size takes the symmetric tridiagonal LDL^T.
    # Shift 0 is the pade0 node and 2 the one nearest the spectrum.  Bound
    # 1e-10 on the relative error; measured at most 3.3e-12 (N = 1999,
    # s = 2).
    grid = Grid1D(N)
    op = assemble_operator(phantom("rJ", grid), build_difference_1d(grid))
    solver = shifted_solver(op)
    for s in (0.0, 2.0, 60.0):
        ref_lu = reference_splu(sp.csc_matrix(s * sp.identity(N) - op.A))
        for shape in ((N,), (N, 10)):
            rhs = rng.standard_normal(shape)
            x = solver.solve(s, rhs)
            ref = ref_lu.solve(rhs)
            assert x.shape == shape
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert splu_calls == [] and lapack_calls == ["dpttrf"] * 3


@pytest.mark.parametrize("n", [2, 3, 40, 1999])
def test_band_solver_matches_csr_solver_bitwise(n, rng, lapack_calls, sparse_constructions):
    # shifted_solver(op) factors a 1D operator's bands as they are, building
    # no sparse matrix, and its solves equal bit for bit the LDL^T of the
    # operator's CSR A read off its diagonals (both off-diagonals are the
    # one band).  SuperLU of the CSR A agrees to rounding: measured at most
    # 2.1e-12 relative (n = 1999), bound 1e-10 as in
    # test_shifted_solver_matches_superlu
    grid = Grid1D(n)
    op = assemble_operator(phantom("rQ", grid), build_difference_1d(grid))
    sparse_constructions.clear()
    band = shifted_solver(op)
    band.solve(2.0, np.ones(n))
    assert sparse_constructions == [] and lapack_calls == ["dpttrf"]
    A = op.A
    assert np.array_equal(A.diagonal(1), A.diagonal(-1))
    for s in (0.0, 2.0, 60.0):
        d, e, info = sla.lapack.dpttrf(s - A.diagonal(), -A.diagonal(1))
        assert info == 0
        ref_lu = reference_splu(sp.csc_matrix(s * sp.identity(n) - A))
        for shape in ((n,), (n, 7)):
            rhs = rng.standard_normal(shape)
            x = band.solve(s, rhs)
            assert np.array_equal(x, sla.lapack.dpttrs(d, e, rhs)[0])
            ref = ref_lu.solve(rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_singular_shift_raises(splu_calls, lapack_calls):
    # the Neumann Laplacian -Dt^T Dt of a path is symmetric tridiagonal and
    # singular at s = 0.  As the bands of a 1D operator it takes the LDL^T,
    # whose last pivot is exactly 0; as the A of a 2D-kind operator, and
    # with the periodic wrap's row in D, it takes SuperLU.
    n = 6
    main = np.r_[-1.0, np.full(n - 2, -2.0), -1.0]
    Dt = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n), format="csr")
    bands = SystemOperator(D=Dt, bands=(main, np.ones(n - 1)))
    Dp = sp.vstack([Dt, sp.csr_matrix(([1.0, -1.0], [0, n - 1], [0, 2]), shape=(1, n))])
    neumann, periodic = (SystemOperator(A=-(D.T @ D).tocsr(), D=D, averaging=abs(D) / 2)
                         for D in (Dt, Dp.tocsr()))
    assert np.array_equal(bands.A.toarray(), neumann.A.toarray())
    assert np.array_equal(np.diag(periodic.toarray()), np.full(n, -2.0))
    assert periodic.toarray()[0, -1] == periodic.toarray()[-1, 0] == 1.0
    for A in (bands, neumann, periodic):
        solver = shifted_solver(A)
        with pytest.raises(RomresError, match="singular shift"):
            solver.solve(0.0, np.ones(n))
        assert solver.solve(1.0, np.ones(n)).shape == (n,)
    assert splu_calls == [n] * 4 and lapack_calls == ["dpttrf", "dpttrf"]


def test_indefinite_shift_raises(lapack_calls):
    # a 1D operator is negative definite, so at a negative shift between two
    # of its eigenvalues sI - A is nonsingular with eigenvalues of both
    # signs, which the LDL^T of a positive definite matrix does not factor
    grid = Grid1D(5)
    op = assemble_operator(ResistivityField(np.ones(5), grid), build_difference_1d(grid))
    lam = sla.eigvalsh(op.A.toarray())
    s = 0.5 * (lam[-2] + lam[-1])
    assert lam[-1] < 0 and np.min(np.abs(lam - s)) > 0.1 * np.abs(lam[-1])
    solver = shifted_solver(op)
    with pytest.raises(RomresError, match="singular shift"):
        solver.solve(s, np.ones(5))
    assert solver.solve(1.0, np.ones(5)).shape == (5,)
    assert lapack_calls == ["dpttrf", "dpttrf"]


def _two_kinds_of_operator(rng):
    """A 1D operator and a 2D operator, each with its source."""
    g1 = Grid1D(40)
    op1 = assemble_operator(phantom("rQ", g1), build_difference_1d(g1))
    g2 = Grid2D(nx=10, ny=5)
    op2 = assemble_operator_2d(ResistivityField(1.0 + 0.5 * rng.random(g2.n_cells), g2))
    b2 = source_vector(g2, uniform_segments(g2, 1)[0]).b
    return ((op1, source_vector(g1).b), (op2, b2))


def test_solve_refuses_wrong_rows(rng, splu_calls, lapack_calls):
    # a right-hand side without the operator's n rows is refused on every
    # path; dpttrs would report it only in info and on stdout and return it
    # unchanged, so transfer_eval would answer for the wrong vector.  One
    # that is not real is refused too: dpttrs raised a bare TypeError on a
    # complex one and SuperLU dropped its imaginary part with a ComplexWarning
    for A, b in _two_kinds_of_operator(rng):
        n = b.size
        solver = shifted_solver(A)
        assert solver.solve(2.0, b).shape == (n,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (b[:-1], np.ones((n - 1, 3)), np.ones((n, 2, 2)), np.ones(2 * n), 1.0,
                        b + 1j, ["a"] * n, [None] * n):
                with pytest.raises(RomresError, match="rows"):
                    solver.solve(2.0, bad)
        with pytest.raises(RomresError, match="rows"):
            transfer_eval(A, b[:-1], 2.0)
    assert lapack_calls == ["dpttrf"] and splu_calls == [50]


def test_band_solve_checks_lapack_info(monkeypatch):
    # an argument error that dpttrs reports in info raises RomresError
    grid = Grid1D(5)
    op = assemble_operator(ResistivityField(np.ones(5), grid), build_difference_1d(grid))
    monkeypatch.setattr(sla.lapack, "dpttrs", lambda d, e, rhs: (rhs, -3))
    with pytest.raises(RomresError, match="dpttrs refused argument 3"):
        shifted_solver(op).solve(2.0, np.ones(5))


def test_nonfinite_shift_refused(rng, splu_calls, lapack_calls):
    # a shift that is not finite is refused before anything is factored, on
    # the band path (where pttrf would return NaNs) as on SuperLU's
    for A, b in _two_kinds_of_operator(rng):
        solver = shifted_solver(A)
        for s in (np.nan, np.inf, -np.inf):
            with pytest.raises(RomresError, match="finite"):
                solver.solve(s, b)
            with pytest.raises(RomresError, match="finite"):
                transfer_eval(A, b, s)
    assert splu_calls == [] and lapack_calls == []


def test_non_real_shift_refused(rng, splu_calls, lapack_calls):
    # float(s) raised a bare TypeError on a Python complex, dropped a numpy
    # complex's imaginary part with only a ComplexWarning and parsed a string
    for A, b in _two_kinds_of_operator(rng):
        solver = shifted_solver(A)
        for s in (2.0 + 1j, np.complex128(2.0 + 1j), "2.0", np.array([2.0])):
            with pytest.raises(RomresError, match="shift must be a finite real number"):
                solver.solve(s, b)
            with pytest.raises(RomresError, match="shift must be a finite real number"):
                transfer_eval(A, b, s)
    assert splu_calls == [] and lapack_calls == []


def test_raw_matrix_refused(rng, splu_calls, lapack_calls):
    # the resolvent layer takes a SystemOperator only: a raw matrix used to
    # go to SuperLU (a 1D operator's CSR A among them), and None or a 3D
    # array raised a bare ValueError from scipy.sparse.  Each is refused on
    # entry
    fam = node_family("zolotarev", 2)
    for op, b in _two_kinds_of_operator(rng):
        if op.bands is None:
            fam = node_family("single-node", 2, s_hat=30.0)
        basis = build_krylov(op, b, fam)
        splu_calls.clear()
        lapack_calls.clear()
        entry_points = [shifted_solver, lambda A: transfer_eval(A, b, 2.0),
                        lambda A: project(replace(basis, operator=A)),
                        lambda A: transfer_moments(A, b, 2.0, 2),
                        lambda A: build_krylov(A, b, fam),
                        lambda A: preconditioner_chain(A, b, fam)]
        for raw in (op.A.toarray(), op.A, op.A.toarray().tolist(), None):
            for call in entry_points:
                with pytest.raises(InvalidGridError, match="SystemOperator"):
                    call(raw)
        assert splu_calls == [] and lapack_calls == []
    for raw in (np.ones((2, 2, 2)), np.ones((2, 3)), "A"):
        with pytest.raises(InvalidGridError, match="SystemOperator"):
            shifted_solver(raw)


def test_source_escapes_refused(rng, splu_calls, lapack_calls):
    # a complex source lost its imaginary part behind a ComplexWarning, a
    # string source raised a bare ValueError, and project took a short one
    # to matmul's ValueError; each now raises InvalidGridError before any
    # factorization (a basis checks the source it carries when it is built)
    fam = node_family("zolotarev", 2)
    for op, b in _two_kinds_of_operator(rng):
        if op.bands is None:
            fam = node_family("single-node", 2, s_hat=30.0)
        basis = build_krylov(op, b, fam)
        splu_calls.clear()
        lapack_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (b + 1j, ["a"] * b.size, [None] * b.size, None, b[:-1], b[:, None]):
                for call in (lambda: transfer_eval(op, bad, 2.0),
                             lambda: transfer_moments(op, bad, 2.0, 2),
                             lambda: build_krylov(op, bad, fam),
                             lambda: project(replace(basis, b=bad)),
                             lambda: preconditioner_chain(op, bad, fam),
                             lambda: simulate_response(op, bad, 1.0, 0.1)):
                    with pytest.raises(InvalidGridError, match="source .* does not match .* rows"):
                        call()
        assert splu_calls == [] and lapack_calls == []
    # an integer or float32 source is read as float64, and a float64 vector
    # is used as it is
    op, b = _two_kinds_of_operator(rng)[0]
    assert forward._source(b, b.size) is b
    assert transfer_eval(op, b.astype(np.float32), 2.0) == pytest.approx(
        transfer_eval(op, b.astype(np.float32).astype(float), 2.0), rel=0)


def test_ragged_source_refused(splu_calls, lapack_calls):
    # a ragged nested list escaped from _source as numpy's bare ValueError
    # ("inhomogeneous shape")
    grid = Grid1D(10)
    op = assemble_operator(ResistivityField(np.ones(10), grid), build_difference_1d(grid))
    ragged = [[1.0, 2.0], [1.0]] + [0.0] * 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: transfer_eval(op, ragged, 2.0),
                     lambda: transfer_moments(op, ragged, 2.0, 2),
                     lambda: build_krylov(op, ragged, node_family("zolotarev", 2)),
                     lambda: simulate_response(op, ragged, 1.0, 0.1)):
            with pytest.raises(InvalidGridError, match="source is not an array"):
                call()
    assert splu_calls == [] and lapack_calls == []


def test_simulate_response_bounds_the_sample_count(small_system, monkeypatch):
    # h_T = 5e-324 made T / h_T infinite, and round() raised a bare
    # OverflowError; 1e12 samples would have been allocated.  Both are
    # refused before the eigendecomposition, and the ceiling itself is not
    grid, field, op, b = small_system

    def no_decomposition(A, b):
        raise AssertionError("decomposed before the sample count was checked")

    monkeypatch.setattr(forward, "spectral_weights", no_decomposition)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T, h_T in ((1.0, 5e-324), (np.float64(1.0), np.float64(5e-324)), (1e6, 1e-6)):
            with pytest.raises(RomresError, match="exceeds the ceiling of 1e\\+09"):
                simulate_response(op, b, T, h_T)
        with pytest.raises(AssertionError, match="decomposed"):
            simulate_response(op, b, float(forward._MAX_SAMPLES), 1.0)


def test_simulate_response_needs_real_times(small_system):
    # a string T used to raise a bare TypeError from the comparison
    grid, field, op, b = small_system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T, h_T in (("1", 0.1), (1.0, "0.1"), (1.0 + 0j, 0.1), (1.0, None),
                       (np.array([1.0]), 0.1), (1.0, np.array(0.1))):
            with pytest.raises(RomresError, match="positive and finite"):
                simulate_response(op, b, T, h_T)
    assert simulate_response(op, b, np.float64(1.0), 0.25).n_samples == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_source_refused(bad, rng, splu_calls, lapack_calls):
    # each used to return NaN: the solves check a right-hand side's rows only
    for A, b in _two_kinds_of_operator(rng):
        b = b.copy()
        b[1] = bad
        with pytest.raises(RomresError, match="source"):
            transfer_eval(A, b, 2.0)
        with pytest.raises(RomresError, match="source"):
            transfer_moments(A, b, 2.0, 3)
    assert splu_calls == [] and lapack_calls == []


def test_chain_factorizations_by_dimension(rng, splu_calls, lapack_calls):
    # 1D chains and Jacobians factor every shift by the tridiagonal LDL^T,
    # without SuperLU or the pivoting LU; a 2D chain makes one SuperLU
    # factorization for its single node
    grid = Grid1D(199)
    op = assemble_operator(ResistivityField(1.0 + 0.5 * rng.random(199), grid),
                           build_difference_1d(grid))
    for name in ("zolotarev", "fast", "pade0"):
        ctx = preconditioner_chain(op, source_vector(grid).b, node_family(name, 4))
        assemble_jacobian(ctx)
    assert splu_calls == [] and lapack_calls and set(lapack_calls) == {"dpttrf"}
    g2 = Grid2D(nx=10, ny=5)
    op2 = assemble_operator_2d(ResistivityField(1.0 + 0.5 * rng.random(g2.n_cells), g2))
    b2 = source_vector(g2, uniform_segments(g2, 1)[0]).b
    ctx = preconditioner_chain(op2, b2, node_family("single-node", 3, s_hat=30.0))
    assemble_jacobian(ctx)
    assert splu_calls == [g2.n_cells]


def test_2d_resolvent_symmetric_ordering(rng, monkeypatch):
    # sI - A is symmetric, so a symmetric minimum-degree ordering suits it:
    # on the 90x30 tilted operator at s = 60 the factor holds 73,546
    # entries, against 110,398 under SuperLU's default column ordering
    g = Grid2D(nx=90, ny=30)
    op = assemble_operator_2d(phantom("tilted", g), g)
    factors = []

    def capturing_splu(M, *args, **kwargs):
        factors.append(reference_splu(M, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", capturing_splu)
    rhs = rng.standard_normal((g.n_cells, 10))
    x = shifted_solver(op).solve(60.0, rhs)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 80_000
    ref = reference_splu(sp.csc_matrix(60.0 * sp.identity(g.n_cells) - op.A)).solve(rhs)
    # measured 1.0e-15
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_underflowing_decay_keeps_every_sample():
    # a mode whose decay per sample li * h_T underflows to a subnormal or to
    # -0.0 sent the underflow bound to inf, and int(inf) raised a bare
    # OverflowError after a RuntimeWarning: a ResistivityField of 1e-320
    # (which the field accepts) and a CSR diag(-1e-318, -1).  Such a mode is
    # active on every sample
    g = Grid1D(4)
    tiny = assemble_operator(ResistivityField(np.full(4, 1e-320), g), build_difference_1d(g))
    t = 0.25 * np.arange(1, 5)
    for A in (tiny, sp.csr_matrix(np.diag([-1e-318, -1.0]))):
        b = np.ones(A.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = simulate_response(A, b, 1.0, 0.25)
        lam, w = spectral_weights(A, b)
        ref = np.zeros(4)
        for li, wi in zip(lam, w):
            ref += wi * np.exp(li * t)
        assert np.array_equal(y.samples, ref)
    assert np.allclose(simulate_response(tiny, np.ones(4), 1.0, 0.25).samples, 4.0)


def test_active_samples_rule():
    # bitwise the old count floor(-746 / (li h)) + 1 wherever that was finite,
    # and every sample where the bound overflows, is past n or the decay is not
    # positive
    for li, h in ((-1e5, 1e-3), (-3.0, 1e-5), (-2.0, 0.1), (-746.0, 1.0)):
        old = int(np.floor(forward._EXP_UNDERFLOW / (li * h))) + 1
        assert forward._active_samples(-li * h, 10 ** 9) == old
    n = 1000
    for decay in (0.0, -0.0, -1.0, 1e-320, 5e-324, 0.746):
        assert forward._active_samples(decay, n) == n
    assert forward._active_samples(746.0 / 10.5, n) == 11


def test_operator_keeps_one_solver(rng, lapack_calls, splu_calls):
    # every resolvent evaluation asks the operator for its one solver, so a
    # shift is factored once per operator, whichever functions ask
    grid = Grid1D(50)
    op = assemble_operator(ResistivityField(1.0 + rng.random(50), grid),
                           build_difference_1d(grid))
    b = source_vector(grid).b
    assert op.solver is op.solver
    fam = node_family("zolotarev", 3)
    transfer_eval(op, b, float(fam.nodes[0]))
    transfer_moments(op, b, float(fam.nodes[1]), 3)
    build_krylov(op, b, fam)
    assemble_jacobian(preconditioner_chain(op, b, fam))
    assert lapack_calls == ["dpttrf"] * 3 and splu_calls == []
    g2 = Grid2D(nx=10, ny=5)
    op2 = assemble_operator_2d(ResistivityField(1.0 + rng.random(g2.n_cells), g2))
    fam2 = node_family("single-node", 3, s_hat=30.0)
    for seg in uniform_segments(g2, 2):
        b2 = source_vector(g2, seg).b
        transfer_moments(op2, b2, 30.0, 2)
        assemble_jacobian(preconditioner_chain(op2, b2, fam2))
    assert splu_calls == [g2.n_cells]


def test_jacobian_reuses_the_chain_factors(lapack_calls):
    # preconditioner_R then assemble_jacobian: one dpttrf per distinct node
    field = phantom("rQ", Grid1D(199))
    for name, m in (("zolotarev", 4), ("pade0", 3), ("fast", 5)):
        fam = node_family(name, m)
        lapack_calls.clear()
        _, ctx = preconditioner_R(field, fam, return_context=True)
        assemble_jacobian(ctx)
        assert lapack_calls == ["dpttrf"] * len(fam.nodes)


def test_assembled_operator_arrays_read_only(rng):
    # the operator's solver caches factors of its arrays, so they must not change
    grid = Grid1D(10)
    op = assemble_operator(ResistivityField(1.0 + rng.random(10), grid),
                           build_difference_1d(grid))
    g2 = Grid2D(nx=6, ny=3)
    op2 = assemble_operator_2d(ResistivityField(1.0 + rng.random(g2.n_cells), g2))
    arrays = list(op.bands) + [a for mat in (op2.A, op2.D, op2.averaging)
                               for a in (mat.data, mat.indices, mat.indptr)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_operator_and_factors_freed_without_gc(rng):
    # the solver holds the operator's bands or A, not the operator: dropping
    # the operator (and a chain context on it) frees its factors at once,
    # with the cycle collector off
    import gc
    import weakref

    g2 = Grid2D(nx=10, ny=5)
    b2 = source_vector(g2, uniform_segments(g2, 1)[0]).b
    systems = [(phantom("rQ", Grid1D(40)), source_vector(Grid1D(40)).b,
                node_family("zolotarev", 3)),
               (ResistivityField(1.0 + rng.random(g2.n_cells), g2), b2,
                node_family("single-node", 3, s_hat=30.0))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for field, b, fam in systems:
            if isinstance(field.grid, Grid1D):
                op = assemble_operator(field, build_difference_1d(field.grid))
            else:
                op = assemble_operator_2d(field)
            ctx = preconditioner_chain(op, b, fam)
            assemble_jacobian(ctx)
            refs = [weakref.ref(op), weakref.ref(op.solver)]
            del op, ctx
            assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()

