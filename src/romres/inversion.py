"""Regularized, nonlinearly preconditioned Gauss-Newton inversion.

The data enter once, through the fitting map that converts a measured
time series to target log continued-fraction coefficients (the only
ill-conditioned step; its instability is controlled by shrinking the
reduced-model size m until the fitted coefficients are all positive).
The iteration then matches the stable resistivity-to-coefficients map to
that target.  Updates live in the low-dimensional row space of the
Jacobian; prior information enters through a null-space correction that
minimizes a weighted discrete H1 seminorm without touching the linearized
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (AdmissibilityError, DataUnusableError, DegeneracyError,
                     RegularizationError, RomresError, SpectralValidityError,
                     StepFailureError, _require_integer, _require_real)
from .forward import TimeSeries, transfer_moments
from .grids import (Grid1D, Grid2D, ResistivityField, SystemOperator, _difference_diagonal,
                    assemble_operator, assemble_operator_2d,
                    build_difference_1d, build_difference_2d, source_vector,
                    uniform_segments)
from .jacobian import assemble_jacobian
from .krylov import preconditioner_chain
from .laplace import laplace_moments
from .ratfit import (NodeFamily, fit_multipoint, fit_pade_toeplitz, node_family,
                     to_pole_residue)
from .cfrac import pole_residue_to_cfrac
from ._blas import single_thread

__all__ = [
    "InversionConfig",
    "FitTarget",
    "data_fitting_Q",
    "data_fitting_moments",
    "gauss_newton_step",
    "adaptive_weights",
    "regularize_nullspace",
    "invert_1d",
    "invert_2d",
    "relative_error",
]


@dataclass(frozen=True)
class InversionConfig:
    """Settings of the Gauss-Newton drivers; defaults follow the experiments.

    ``m0`` is the largest reduced-model size the data fit tries, with nodes
    from ``family_kind`` (``s_hat`` is the single-node expansion point).
    ``n_gn`` Gauss-Newton steps start from the constant field r = 1; each
    takes the full pseudoinverse step, halved until the update stays
    positive.  ``weights='identity'`` keeps the plain discrete H1 seminorm
    in the null-space correction (smooth targets); ``'adaptive'`` uses the
    misfit-scaled inverse-gradient weights that suppress Gibbs artifacts
    at jumps.  ``nullspace_correction=False`` keeps the plain step.
    ``parametrization='spectral'`` switches the residual to the log
    pole/residue coordinates (baseline for comparison).  ``n_sources`` is
    the number of boundary segments a 2D grid without segments gets.
    """

    m0: int = 6
    family_kind: str = "zolotarev"
    s_hat: float = 60.0
    n_gn: int = 5
    weights: str = "identity"
    parametrization: str = "cfrac"
    nullspace_correction: bool = True
    n_sources: int = 8

    def __post_init__(self):
        for name in ("m0", "n_gn", "n_sources"):
            _require_integer(name, getattr(self, name))
        if self.m0 < 1:
            raise RomresError(f"m0 must be at least 1, got {self.m0}")
        if self.n_gn < 0:
            raise RomresError(f"n_gn must be nonnegative, got {self.n_gn}")
        if self.n_sources < 1:
            raise RomresError(f"n_sources must be at least 1, got {self.n_sources}")
        if self.weights not in ("identity", "adaptive"):
            raise RomresError(f"unknown weight mode {self.weights!r}")
        if self.parametrization not in ("cfrac", "spectral"):
            raise RomresError(f"unknown parametrization {self.parametrization!r}")
        if not isinstance(self.nullspace_correction, bool):
            raise RomresError(f"nullspace_correction must be true or false, "
                              f"got {self.nullspace_correction!r}")
        # node_family's own checks: the kind's name, and s_hat as the 2D node
        node_family(self.family_kind, 1)
        node_family("single-node", 1, s_hat=self.s_hat)

    def family(self, m: int) -> NodeFamily:
        return node_family(self.family_kind, m, s_hat=self.s_hat)


@dataclass(frozen=True)
class FitTarget:
    """Outcome of the data-fitting map: final m and target vectors."""

    m: int
    log_cfrac: np.ndarray
    spectral: np.ndarray
    attempts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _require_integer("m", self.m)
        if self.m < 1:
            raise RomresError(f"m must be at least 1, got {self.m}")
        for name in ("log_cfrac", "spectral"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (2 * self.m,) or not np.all(np.isfinite(v)):
                raise RomresError(f"{name} must be a finite vector of length 2m = {2 * self.m}")
            object.__setattr__(self, name, v)

    def vector(self, parametrization: str) -> np.ndarray:
        if parametrization == "cfrac":
            return self.log_cfrac
        if parametrization == "spectral":
            return self.spectral
        raise RomresError(f"unknown parametrization {parametrization!r}")


# the fit-validity failures that reducing m can cure; any other error is a
# bad input or a defect and propagates
_FIT_ERRORS = (SpectralValidityError, AdmissibilityError, DegeneracyError)

# relative singular-value cutoff of J^+, shared by the step and the null(J)
# projection
_PINV_RCOND = 1e-12

# the Gauss-Newton loop stops once the residual norm changes by less than
# this fraction between iterations
_STAGNATION_RTOL = 1e-8

# ... or once the residual norm is at most this many times eps * ||l*||, the
# rounding of the chain itself: on N = 60 (m = 3..6; rQ, rL, rJ) an
# eps-relative perturbation of r moves the log vector by 56-760 eps ||l||,
# and a converged iterate's residual wanders between 28 and 135 eps ||l*||,
# which the relative test never catches.  N = 199 targets (m = 3, 5, 6)
# also stop at the floor; on N = 1999 (m = 3) the converged residual
# wanders at 7e3-2e4 eps ||l*||, above it, and n_gn ends the loop.
_ROUNDING_FLOOR = 1e3

# a step is halved at most this often to keep the update positive
_MAX_HALVINGS = 20

# right-hand sides per grounded solve of the capacitance columns
# G = L_g^-1 J^T.  It matters for the SuperLU factors: on one BLAS thread,
# invert2d's 80 columns took a median 10.7 ms in blocks of 8 against 11.6 ms
# in one solve on the grounded Laplacian, and 46 against 49 ms on the grounded
# edge system (2-core machine, 45 interleaved runs).  The 1D path solve treats
# each column alone, and 1D has k = 2m <= 12 columns, one or two blocks
_SOLVE_COLUMNS = 8


def _reduce_m(fit_at, m: int) -> FitTarget:
    """The m-reduction rule shared by both data routes.

    ``fit_at(m)`` returns the rational model fitted at trial size m.  A
    fit whose poles/residues are invalid or whose continued-fraction
    coefficients are not all positive triggers a retry at m - 1; reaching
    m = 0 means the data support no admissible model at all.
    """
    attempts = []
    while m >= 1:
        attempts.append(m)
        try:
            pr = to_pole_residue(fit_at(m))
            return FitTarget(m=pr.m, log_cfrac=pole_residue_to_cfrac(pr).log_vector(),
                             spectral=np.concatenate([pr.theta, pr.c]),
                             attempts=tuple(attempts))
        except _FIT_ERRORS:
            m -= 1
    raise DataUnusableError("no admissible reduced model at any m >= 1")


def data_fitting_Q(series: TimeSeries, config: InversionConfig | None = None) -> FitTarget:
    """Fit a rational model to measured 1D data, shrinking m as needed.

    At each trial m, starting from ``config.m0``, the transfer function
    and its derivative are read off the data at the m nodes of the
    configured family, in one quadrature pass per node (the leading two
    Taylor moments), and fitted by the osculatory interpolation.

    A trial reads 2m quadrature values, which n samples determine only if
    n >= 2m: a series shorter than 2 ``config.m0`` samples raises
    ``RomresError`` before any quadrature, and is not taken as a reason to
    reduce m.
    """
    config = config or InversionConfig()
    if series.n_samples < 2 * config.m0:
        raise RomresError(f"{series.n_samples} samples cannot determine the {2 * config.m0} "
                          f"quadrature values of a fit at m0 = {config.m0}")

    def fit_at(m):
        fam = config.family(m)
        values, derivs = np.array([laplace_moments(series, s, 2) for s in fam.nodes]).T
        return fit_multipoint(values, derivs, fam)

    return _reduce_m(fit_at, config.m0)


def _toeplitz_scale(tau: np.ndarray) -> float:
    """Geometric moment decay rate, which equilibrates the Toeplitz system."""
    lo, hi = abs(tau[0]), abs(tau[-1])
    if lo == 0 or hi == 0:
        return 1.0
    return (lo / hi) ** (1.0 / (tau.size - 1))


def data_fitting_moments(moments: np.ndarray, s_hat: float, m0: int) -> FitTarget:
    """Moment-based fitting at one expansion node (the 2D data route).

    ``moments`` holds tau_0..tau_{2 m0 - 1} of the transfer function at
    s_hat; trial m uses the leading 2m of them.  The fitted size is the
    Toeplitz fit's degree, which may fall below the trial m when the
    moments have lower rank.
    """
    _require_integer("m0", m0)
    if m0 < 1:
        raise RomresError(f"m0 must be at least 1, got {m0}")
    tau_all = np.asarray(moments, dtype=float)
    if tau_all.ndim != 1:
        raise RomresError(f"moments must be a vector, got shape {tau_all.shape}")
    if tau_all.size < 2 * m0:
        raise RomresError("not enough moments for the requested m")
    if not np.all(np.isfinite(tau_all)):
        raise RomresError("moments must be finite")
    _require_real("expansion node s_hat", s_hat)

    def fit_at(m):
        tau = tau_all[: 2 * m]
        return fit_pade_toeplitz(tau, shift=s_hat, scale=_toeplitz_scale(tau))

    return _reduce_m(fit_at, m0)


def gauss_newton_step(r: np.ndarray, J: np.ndarray, residual: np.ndarray,
                      alpha: float = 1.0, *, J_pinv: np.ndarray):
    """Pseudoinverse step with a positivity guard on the step length.

    rho = -J^+ residual; alpha is halved (at most ``_MAX_HALVINGS`` times)
    until r + alpha*rho stays strictly positive.  ``J_pinv`` is J^+, which
    the caller forms (``_gn_loop`` takes ``np.linalg.pinv`` with relative
    cutoff ``_PINV_RCOND`` once per iteration, for this step and the
    null-space correction).  An alpha that is not a positive and finite real
    number, a non-finite residual or J, a J whose shape is
    not (residual size, r size), or a ``J_pinv`` not of J's transposed shape
    raises ``RomresError``.
    """
    _require_real("step length alpha", alpha, positive=True)
    if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(J))):
        raise RomresError("residual and Jacobian must be finite")
    if np.shape(J) != (np.size(residual), np.size(r)) or np.shape(J_pinv) != np.shape(J)[::-1]:
        raise RomresError(f"Jacobian of shape {np.shape(J)} and pseudoinverse of shape "
                          f"{np.shape(J_pinv)} do not map {np.size(r)} cells to "
                          f"{np.size(residual)} residuals and back")
    rho = -J_pinv @ residual
    a = alpha
    for _ in range(_MAX_HALVINGS + 1):
        r_gn = r + a * rho
        if np.all(r_gn > 0):
            return r_gn, rho, a
        a *= 0.5
    raise StepFailureError("positivity guard exhausted while halving the step")


def adaptive_weights(Dt: sp.spmatrix, r: np.ndarray, phi: float) -> np.ndarray:
    """Misfit-scaled inverse-gradient weights, w_j = ((Dt r)_j^2 + phi^2)^-1."""
    g = np.asarray(Dt @ r).ravel()
    return 1.0 / (g ** 2 + phi ** 2)


def _grounded_solver(Dt: sp.spmatrix, w: np.ndarray | None):
    """L_g^-1 for the grounded seminorm operator L_g = Dt^T W Dt + e_0 e_0^T.

    Three inner solves, picked by the structure of Dt and then by the
    weights:

    - a path (every 1D grid: Dt is (n - 1) x n with rows (d_j, -d_j) at
      columns j, j + 1, as ``grids._difference_diagonal`` recognises):
      L_g^-1 is exact in two prefix sums, and nothing is factored.  Summing
      the rows of L_g x = b gives x_0 = 1^T b, and cell j's balance fixes
      the flux through edge j to the sum of b beyond it,
      g_j = sum_{i>j} b_i, so x_{j+1} = x_j + g_j / (d_j^2 w_j).  In a
      tree no flux splits between routes, so no weight is ever added to
      another: the rounding loss that sends the other graphs' weights to
      the edge system cannot occur.  On N = 60 to 1999 with weights
      spanning up to 14 decades it stays within 4.4e-15 of the edge
      system's LU, and both within 2e-14 of the same prefix sums in long
      double; the SPD LU of the formed operator is 5e-8 off at unit weights
      and O(1) off at 14 decades (N = 1999).
    - W = I (``w`` is None) on any other graph factors L_g itself, the SPD
      grounded Laplacian, under SuperLU's symmetric minimum-degree ordering
      ``MMD_AT_PLUS_A``; on 90 x 30 cells it holds 73.5k entries.
    - other weights factor the grounded edge system
      K_g = [[-W^-1, Dt], [Dt^T, e_0 e_0^T]]; the trailing block of
      K_g^-1 [0; b] is L_g^-1 b.  The weights enter as -W^-1 on a diagonal
      of their own, not inside Dt^T W Dt: adaptive weights span 10+
      decades, and the LU of that product loses the small-weight edges to
      rounding (Bjorck 1996, section 2.5).  K_g is indefinite, so its LU
      pivots, which undoes a symmetric ordering: on 90 x 30 cells
      ``MMD_AT_PLUS_A`` filled 5.5M entries in 3.8 s against 285k in 23 ms
      under SuperLU's default COLAMD.  Putting J into the factor as well
      (the augmented [[-W^-1, Dt, 0], [Dt^T, 0, J^T], [0, J, 0]]) took
      1.33M entries.
    """
    e, n = Dt.shape
    d = _difference_diagonal(Dt) if e == n - 1 else None
    if d is not None:
        stiffness = (d * d if w is None else d * d * w)[:, None]

        def solve_path(b):
            x = np.empty((n, b.size // n))
            np.cumsum(b.reshape(x.shape)[::-1], axis=0, out=x[::-1])  # sum_{i>=j} b_i
            x[1:] /= stiffness  # x_0 = 1^T b, then the steps g_j / (d_j^2 w_j)
            return np.cumsum(x, axis=0, out=x).reshape(b.shape)

        return solve_path
    ground = sp.csc_matrix(([1.0], ([0], [0])), shape=(n, n))
    try:
        if w is None:
            return spla.splu((Dt.T @ Dt + ground).tocsc(), permc_spec="MMD_AT_PLUS_A").solve
        lu = spla.splu(sp.bmat([[-sp.diags(1.0 / w), Dt], [Dt.T, ground]], format="csc"))
    except RuntimeError as exc:
        raise RegularizationError(f"grounded Laplacian factorization failed: {exc}") from exc
    return lambda b: lu.solve(np.concatenate([np.zeros((e,) + b.shape[1:]), b]))[e:]


def _saddle_solver(J: np.ndarray, Dt: sp.spmatrix, w: np.ndarray | None):
    """(M^-1, G = L_g^-1 J^T, C): a grounded seminorm factor plus the dense
    capacitance matrix C = [[J G, J 1], [(J 1)^T, 0]], and G."""
    n, k = Dt.shape[1], J.shape[0]
    solve_g = _grounded_solver(Dt, w)
    G = np.hstack([solve_g(J[i:i + _SOLVE_COLUMNS].T) for i in range(0, k, _SOLVE_COLUMNS)])
    J1 = J.sum(axis=1)
    C = np.zeros((k + 1, k + 1))
    C[:k, :k] = J @ G
    C[:k, k] = C[k, :k] = J1
    # LAPACK's getrf reports an exactly zero pivot in info instead of warning
    lu_c, piv, info = sla.lapack.dgetrf(C)
    if info > 0:
        raise RegularizationError(f"singular capacitance matrix: zero pivot {info}")

    def solve(b):
        b1, b2 = b[:n], b[n:]
        g1 = solve_g(b1)
        y = sla.lapack.dgetrs(lu_c, piv, np.append(J @ g1 - b2, b1.sum()))[0]
        return np.concatenate([g1 - G @ y[:k] - y[k], y[:k]])

    return solve, G, C


def _smallest_saddle_pair(C: np.ndarray, G: np.ndarray, solve):
    """(mu, v): M's unit eigenvector v of smallest modulus, eigenvalue ~ -mu."""
    k = G.shape[1]
    JG, J1 = C[:k, :k], C[:k, k]
    # Gc = G - 1 g^T with g = mean(G) is never formed: J Gc = J G - (J 1) g^T
    g = G.mean(axis=0)
    # Householder basis of (J 1)^perp; J 1 != 0, or C's getrf would have raised
    Q = sla.qr(J1[:, None])[0][:, 1:]
    mu, Y = np.linalg.eigh(Q.T @ (JG - np.outer(J1, g)) @ Q)
    y = Q @ Y[:, 0]
    v = solve(np.concatenate([g @ y - G @ y, y]))  # one inverse-iteration step
    return mu[0], v / np.linalg.norm(v)


def regularize_nullspace(r_gn: np.ndarray, J: np.ndarray, Dt: sp.spmatrix,
                         w: np.ndarray | None = None, solver: str = "auto", *,
                         J_pinv: np.ndarray):
    """Null-space correction minimizing the weighted H1 seminorm.

    Computes the minimizer of

        min 1/2 || W^(1/2) Dt rho ||^2   s.t.  J rho = J r_gn,

    so the seminorm picks the smoothest representative while the
    linearized residual is untouched (W = I when ``w`` is None).  Its
    stationarity conditions form the saddle system

        M [rho; lam] = [0; J r_gn],   M = [[Dt^T W Dt, J^T], [J, 0]].

    M is never formed, and J never enters a sparse factor.  M^-1 comes from
    one factor of the grounded seminorm operator plus a dense capacitance
    system.  Dt^T W Dt is singular only along the constants, because Dt's
    edge graph is connected and 1^T Dt^T = 0; grounding one cell,
    L_g = Dt^T W Dt + e_0 e_0^T, makes it nonsingular.  J's k rows enter
    through the (k+1) x (k+1) matrix

        C = [[J G, J 1], [(J 1)^T, 0]],   G = L_g^-1 J^T

    (k right-hand sides on the one factor), and M^-1 [b1; b2] = [rho; lam]
    with

        g1 = L_g^-1 b1,   [lam; a] = C^-1 [J g1 - b2; 1^T b1],
        rho = g1 - G lam - a 1.

    The last row of C is 1^T of M's first block row, and it makes
    a = -rho_0, which undoes the grounding.  L_g^-1 is one of three inner
    solves (``_grounded_solver``): two prefix sums on a path (every 1D
    grid), whatever the weights; on other graphs SuperLU's factor of the
    SPD grounded Laplacian for identity weights, or of the grounded edge
    system that keeps each weighted edge on its own row for given ones.  A
    system with an exactly zero pivot (in L_g, K_g or C: for example an
    edge graph that leaves a cell unconnected, which is never a path, or a
    zero row of J) raises ``RegularizationError``.

    The weights pick the solve.  Given weights get the exact constrained
    minimizer M^-1 [0; J r_gn].  Identity weights get the deflated solve
    P M^-1 P, P = I - v v^T, which drops the eigenpair of the symmetric M
    of smallest modulus, as a truncated SVD of M would.  That pair is a
    combination of multipliers, not a component of rho: with L = Dt^T Dt,
    M's small eigenvalues are to leading order those of -J L^+ J^T on the
    multipliers orthogonal to J 1, and v is close to [-L^+ J^T y0; y0],
    where y0 minimizes y^T J L^+ J^T y over unit y with (J 1)^T y = 0.
    ``_smallest_saddle_pair`` reads y0 off the capacitance columns, since
    Gc = G - mean(G) is L^+ J^T on such y: it is the bottom eigenvector of
    Q^T J Gc Q, with Q an orthonormal basis of (J 1)^perp.  One
    inverse-iteration step on the same factor, v ~ M^-1 [-Gc y0; y0],
    brings v within 2.1e-8 of a dense ``eigh`` of M (1D N = 40, zolotarev
    m = 3).  The step is leading-order accurate only, so its error grows
    as the square of J's scale: on a 30 x 10 grid with a random 20-row J
    (seven draws) v lies 5e-7 to 7e-6 from the dense eigenvector at scale
    0.01, 5e-5 to 7e-4 at 0.1 and 5e-3 to 8e-2 at 1.  Either way the
    correction is finally projected onto null(J) through ``J_pinv``, the
    J^+ that the caller forms (``_gn_loop`` shares its one
    ``np.linalg.pinv`` per iteration, relative cutoff ``_PINV_RCOND``, with
    the step).

    ``solver`` is a label that selects nothing: ``'auto'`` or the weights'
    own mode (``'kkt'`` or ``'nullspace'``); anything else raises
    RomresError.  ROADMAP item 0 deletes it with the harness that reads it.

    Weights of the wrong shape, NaN or nonpositive weights, an r_gn whose
    size is not Dt's column count, a J of the wrong width, a ``J_pinv`` not
    of J's transposed shape, a non-finite r_gn or J, and a one-row J with
    identity weights (whose (J 1)^perp holds no multiplier combination to
    deflate) raise ``RomresError`` before anything is factored.
    """
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != (Dt.shape[0],):
            raise RomresError(f"weights must have shape ({Dt.shape[0]},), got {w.shape}")
        # also rejects NaN, which compares false
        if not np.all(w > 0):
            raise RomresError("weights must be positive")
    n = Dt.shape[1]
    if np.shape(r_gn) != (n,) or np.ndim(J) != 2 or np.shape(J)[1] != n \
            or np.shape(J_pinv) != np.shape(J)[::-1]:
        raise RomresError(f"r_gn of shape {np.shape(r_gn)}, J of shape {np.shape(J)} and "
                          f"J_pinv of shape {np.shape(J_pinv)} do not all fit Dt's {n} columns")
    if not (np.all(np.isfinite(r_gn)) and np.all(np.isfinite(J))):
        raise RomresError("r_gn and Jacobian must be finite")
    if w is None and np.shape(J)[0] < 2:
        raise RomresError("the deflated correction needs a Jacobian with at least two rows")
    mode = "kkt" if w is None else "nullspace"
    if solver not in ("auto", mode):
        raise RomresError(f"solver {solver!r} is neither 'auto' nor {mode!r}, "
                          "the solve these weights take")
    solve, G, C = _saddle_solver(J, Dt, w)
    rhs = np.concatenate([np.zeros(n), J @ r_gn])
    if w is not None:
        x = solve(rhs)
    else:
        _, v = _smallest_saddle_pair(C, G, solve)
        # deflating the right-hand side keeps the 1/lambda-amplified v
        # component out of the solve; deflating x removes what rounding adds
        x = solve(rhs - v * (v @ rhs))
        x -= v * (v @ x)
    # exact constraint enforcement: project the correction onto null(J)
    corr = x[:n] - r_gn
    corr -= J_pinv @ (J @ corr)
    return r_gn + corr


def regularization_gradient(grid: Grid1D | Grid2D) -> sp.csr_matrix:
    """Difference operator of the H1 seminorm (no boundary rows)."""
    if isinstance(grid, Grid1D):
        D = build_difference_1d(grid)
        return D[:-1, :].tocsr()
    # build_difference_2d lists the interior x- and y-edges first
    D, _ = build_difference_2d(grid)
    n_interior = grid.ny * (grid.nx - 1) + (grid.ny - 1) * grid.nx
    return D[:n_interior, :]


def relative_error(r_star: np.ndarray, r_true: np.ndarray) -> float:
    """Ratio of discrete l2 norms, ||r* - r_true|| / ||r_true||."""
    try:
        r_star, r_true = np.asarray(r_star), np.asarray(r_true)
    except ValueError as exc:  # a ragged nested sequence
        raise RomresError(f"fields are not arrays: {exc}") from None
    if r_star.dtype.kind not in "biuf" or r_true.dtype.kind not in "biuf":
        raise RomresError(f"fields must be real arrays, got dtypes {r_star.dtype} "
                          f"and {r_true.dtype}")
    r_star, r_true = r_star.astype(float, copy=False), r_true.astype(float, copy=False)
    if r_star.shape != r_true.shape:
        raise RomresError("fields must have matching shape")
    if not (np.all(np.isfinite(r_star)) and np.all(np.isfinite(r_true))):
        raise RomresError("fields must be finite")
    norm_true = np.linalg.norm(r_true)
    if norm_true == 0:
        raise RomresError("relative error against a zero reference field")
    return float(np.linalg.norm(r_star - r_true) / norm_true)


@dataclass
class InversionHistory:
    """Per-iteration record of the Gauss-Newton run."""

    iterations: list[int] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    error: list[float] = field(default_factory=list)
    step_length: list[float] = field(default_factory=list)
    m: int = 0
    notes: list[str] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)


def _gn_loop(assemble, sources, family: NodeFamily, l_star, config: InversionConfig,
             Dt, r_true=None):
    """Gauss-Newton driver shared by 1D (one source) and 2D (several).

    ``assemble(r)`` returns the SystemOperator at resistivity r.  Each
    evaluation runs the stable chain of ``family`` once per source vector
    in ``sources``, all on that operator's one set of factors, and stacks
    the per-source coefficient vectors and Jacobians in source order; the
    iteration matches the stack to ``l_star``.  Step, weights, null-space
    correction and bookkeeping follow ``config``; the unknowns are the
    columns of the seminorm difference operator ``Dt``.
    """

    def eval_chain(r):
        op = assemble(r)
        ctxs = [preconditioner_chain(op, b, family) for b in sources]
        if config.parametrization == "cfrac":
            vecs = [c.log_vector() for c in ctxs]
        else:
            vecs = [np.concatenate([c.model.pr.theta, c.model.pr.c]) for c in ctxs]
        return np.concatenate(vecs), ctxs

    def jac(ctxs):
        return np.vstack([assemble_jacobian(c, target=config.parametrization)
                          for c in ctxs])

    # the loop's mid-size BLAS kernels (the SVD of J, SuperLU's supernodal
    # solves, the Jacobian's products) ran slower on two OpenBLAS threads than
    # on one on a 2-core machine, and one thread makes the loop's results
    # independent of the thread setting
    floor = _ROUNDING_FLOOR * np.finfo(float).eps * float(np.linalg.norm(l_star))
    with single_thread():
        r = np.ones(Dt.shape[1])
        hist = InversionHistory()
        prev_res = None
        # evaluation n_gn + 1 only records the last iterate; an early stop
        # records the iterate it has just evaluated and ends the history there
        for p in range(1, config.n_gn + 2):
            l_vec, ctxs = eval_chain(r)
            residual = l_vec - l_star
            res_norm = float(np.linalg.norm(residual))
            hist.iterations.append(p)
            hist.residual.append(res_norm)
            if r_true is not None:
                hist.error.append(relative_error(r, r_true))
            hist.iterates.append(r.copy())
            if p > config.n_gn:
                break
            if res_norm <= floor:
                hist.notes.append(f"residual at rounding level at iteration {p}")
                break
            if prev_res is not None and abs(prev_res - res_norm) <= \
                    _STAGNATION_RTOL * max(prev_res, 1e-300):
                hist.notes.append(f"stagnated at iteration {p}")
                break
            prev_res = res_norm
            J = jac(ctxs)
            # one SVD per iteration serves the step and the null(J) projection
            J_pinv = np.linalg.pinv(J, rcond=_PINV_RCOND)
            r_gn, _, a_used = gauss_newton_step(r, J, residual, J_pinv=J_pinv)
            hist.step_length.append(a_used)
            if not config.nullspace_correction:
                r_next = r_gn
            else:
                w = None
                if config.weights == "adaptive":
                    m_eff = J.shape[0] // 2
                    phi = 1.0 / (2.0 * m_eff ** 2) * res_norm
                    w = adaptive_weights(Dt, r_gn, phi)
                try:
                    r_next = regularize_nullspace(r_gn, J, Dt, w=w, J_pinv=J_pinv)
                except RegularizationError as exc:
                    hist.notes.append(f"null-space correction failed at iteration {p} "
                                      f"({exc}); kept the plain update")
                    r_next = r_gn
                if not np.all(r_next > 0):
                    hist.notes.append(f"null-space correction left positivity at "
                                      f"iteration {p}; kept the plain update")
                    r_next = r_gn
            r = r_next
        return r, hist


def invert_1d(data: TimeSeries | FitTarget, grid: Grid1D,
              config: InversionConfig | None = None,
              r_true: np.ndarray | None = None):
    """Full 1D driver: data fitting once, then the regularized iteration.

    ``data`` may be a measured time series (fitted here, with the
    m-reduction rule) or an already-computed FitTarget.  Returns
    (ResistivityField, InversionHistory).
    """
    config = config or InversionConfig()
    target = data if isinstance(data, FitTarget) else data_fitting_Q(data, config)
    D = build_difference_1d(grid)
    r, hist = _gn_loop(lambda r: assemble_operator(ResistivityField(r, grid), D),
                       [source_vector(grid).b], config.family(target.m),
                       target.vector(config.parametrization), config,
                       regularization_gradient(grid), r_true=r_true)
    hist.m = target.m
    return ResistivityField(r, grid), hist


def moments_from_operator(op: SystemOperator, sources, s_hat: float, K: int) -> np.ndarray:
    """Per-source transfer moments of a semi-discrete model (data synthesis).

    Every source's solves run on the operator's one factor of s_hat I - A
    (``SystemOperator.solver``), which is kept on ``op`` while it lives.
    """
    return np.vstack([transfer_moments(op, b, s_hat, K) for b in sources])


def invert_2d(data, grid: Grid2D, config: InversionConfig | None = None,
              r_true: np.ndarray | None = None):
    """Multi-source 2D driver with single-node moment matching.

    ``data`` is the array of per-source transfer moments, shape (N_d, 2 m0),
    taken at the common node ``config.s_hat`` (``moments_from_operator``
    synthesizes it; ``laplace_moments`` reads one row from a measured
    series).  The family is the single node ``s_hat`` whatever
    ``config.family_kind``.  Per-source residuals and Jacobians are stacked
    into one coupled least-squares update; the shared model size m is the
    largest at which every source admits a positive-coefficient fit.
    """
    config = config or InversionConfig()
    if not grid.segments:
        grid = replace(grid, segments=uniform_segments(grid, config.n_sources))
    sources = [source_vector(grid, seg).b for seg in grid.segments]
    n_d = len(sources)

    if not isinstance(data, np.ndarray) or data.ndim != 2 or data.shape[0] != n_d \
            or data.shape[1] < 2:
        raise RomresError("moment array must be (n_sources, 2*m0), m0 >= 1")
    tau = np.asarray(data, dtype=float)

    # each fit's size lies in 1..m (or the fit raises DataUnusableError),
    # so m strictly decreases until every source fits at the same size
    m = min(config.m0, tau.shape[1] // 2)
    while True:
        targets = [data_fitting_moments(tau[j], config.s_hat, m)
                   for j in range(n_d)]
        if all(t.m == m for t in targets):
            break
        m = min(t.m for t in targets)
    fam = node_family("single-node", m, s_hat=config.s_hat)
    l_star = np.concatenate([t.vector(config.parametrization) for t in targets])
    r, hist = _gn_loop(lambda r: assemble_operator_2d(ResistivityField(r, grid), grid),
                       sources, fam, l_star, config, regularization_gradient(grid),
                       r_true=r_true)
    hist.m = m
    return ResistivityField(r, grid), hist
