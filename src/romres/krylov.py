"""Rational Krylov subspaces, Galerkin projection and the map to log
continued-fraction coefficients.

The nonlinear map evaluated here takes a resistivity vector to the
2m-vector (log kappa_1..m, log kappahat_1..m) through the stable chain

    r -> A(r) -> snapshot basis V -> (A_m, b_m) -> (theta, c)
      -> (kappa, kappahat) -> logs.

All intermediates are kept in a ChainContext so the analytic Jacobian can
reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cfrac import ContinuedFraction, Tridiagonal, pole_residue_to_cfrac
from .errors import BasisCollapseError, DegeneracyError, RomresError
from .forward import shifted_solver
from .grids import (Grid1D, ResistivityField, SystemOperator, assemble_operator,
                    build_difference_1d, source_vector)
from .ratfit import NodeFamily, PoleResidue

__all__ = [
    "KrylovBasis",
    "ReducedModel",
    "ChainContext",
    "build_krylov",
    "project",
    "reduced_spectral",
    "preconditioner_chain",
    "preconditioner_R",
]


@dataclass(frozen=True)
class KrylovBasis:
    """Snapshots K, orthonormal V and triangular U with K = V U, diag(U) > 0.

    Column j of K is the solve that produced V[:, j], and column j of U
    holds its Gram-Schmidt coefficients and remaining norm, whichever the
    ``generation``.  That records what each solve was applied to: ``raw``
    solves on the previous solve, so K holds the literal resolvent powers;
    ``sequential`` solves on the newest orthonormal column, which spans the
    same subspace but stays well conditioned when plain powers go
    numerically collinear.  The Jacobian's adjoint sweep reads K and U for
    both, in the coordinates of the ``doubled_basis`` that extends V, and
    needs the generation only to know what each solve was applied to.
    """

    K: np.ndarray
    V: np.ndarray
    U: np.ndarray
    family: NodeFamily
    generation: str = "raw"

    @property
    def m(self) -> int:
        return self.K.shape[1]


@dataclass(frozen=True)
class ReducedModel:
    """Projected system (A_m, b_m); A_m symmetric negative definite."""

    A_m: np.ndarray
    b_m: np.ndarray
    family: NodeFamily

    @property
    def m(self) -> int:
        return self.b_m.size


def _gram_schmidt_step(V: np.ndarray, j: int, u: np.ndarray):
    """Orthogonalize u against V[:, :j] in place, in two classical passes.

    Returns the summed projection coefficients of both passes, so that
    u_before = u_after + V[:, :j] @ coeffs.
    """
    coeffs = np.zeros(j)
    for _ in range(2):
        c = V[:, :j].T @ u
        u -= V[:, :j] @ c
        coeffs += c
    return coeffs


# a column left with at most this share of its norm after Gram-Schmidt
# already lies in the span built so far
_SPAN_FLOOR = 1e-13


def _krylov_basis(solver: shifted_solver, b: np.ndarray, family: NodeFamily,
                  floor: float, sequential: bool) -> KrylovBasis:
    """Solve, orthogonalize and normalize the basis one column at a time.

    Each node's chain starts from b.  Its next solve is applied to the
    previous raw solve, or with ``sequential`` to the newest orthonormal
    column.  A column left with at most ``floor`` of its norm after the
    Gram-Schmidt step raises BasisCollapseError.
    """
    b = np.asarray(b, dtype=float)
    n, m = b.size, family.m
    K = np.zeros((n, m))
    V = np.zeros((n, m))
    U = np.zeros((m, m))
    col = 0
    for s, mult in zip(family.nodes, family.multiplicities):
        x = b
        for _ in range(int(mult)):
            x = solver.solve(s, x)
            K[:, col] = x
            u = x.copy()
            nrm0 = np.linalg.norm(u)
            U[:col, col] = _gram_schmidt_step(V, col, u)
            nrm = np.linalg.norm(u)
            if nrm <= floor * nrm0:
                raise BasisCollapseError(
                    f"snapshot column {col + 1} lies in the span of the previous ones; "
                    "reduce the model size m")
            U[col, col] = nrm
            u = u / nrm
            V[:, col] = u
            if sequential:
                x = u
            col += 1
    return KrylovBasis(K=K, V=V, U=U, family=family,
                       generation="sequential" if sequential else "raw")


def doubled_basis(solver: shifted_solver, basis: KrylovBasis, b: np.ndarray) -> np.ndarray:
    """Orthonormal Q of the space every adjoint-sweep input lies in.

    That space is span{b, (s_j I - A)^{-k} b : k <= 2 mult_j - 1}, of
    dimension d = 2m + 1 - (number of nodes).  Q starts as [V, b] and each
    node's chain is extended from its last column of V by mult_j - 1 more
    solves, each on the newest column, with a two-pass Gram-Schmidt step.
    A direction left with at most 1e-13 of its norm is skipped with the rest
    of its node's chain: the space is then invariant under that node's
    resolvent (as when n < d), so the skip is exact and Q has fewer than d
    columns.
    """
    V, fam = basis.V, basis.family
    n, m = V.shape
    Q = np.zeros((n, 2 * m + 1 - len(fam.nodes)))
    Q[:, :m] = V
    k = m

    def append(x):
        nonlocal k
        nrm0 = np.linalg.norm(x)
        _gram_schmidt_step(Q, k, x)
        nrm = np.linalg.norm(x)
        if nrm <= _SPAN_FLOOR * nrm0:
            return False
        Q[:, k] = x / nrm
        k += 1
        return True

    append(np.array(b, dtype=float))
    for s, mult, last in zip(fam.nodes, fam.multiplicities, np.cumsum(fam.multiplicities) - 1):
        x = V[:, last]
        for _ in range(int(mult) - 1):
            if not append(solver.solve(s, x)):
                break
            x = Q[:, k - 1]
    return Q[:, :k]


# a raw column that keeps at most this share of its norm after Gram-Schmidt
# is too collinear with the earlier ones to trust; 'auto' then builds the
# sequential basis
_RAW_RESIDUAL_FLOOR = 1e-8


def build_krylov(A, b, family: NodeFamily, solver: shifted_solver | None = None,
                 generation: str = "auto") -> KrylovBasis:
    """Orthonormal basis of the rational Krylov subspace of ``family``.

    ``generation`` is ``'raw'``, ``'sequential'`` (see KrylovBasis) or
    ``'auto'``, which builds the raw basis and switches to sequential at the
    first column that keeps at most 1e-8 of its norm after Gram-Schmidt.  A
    raw column left with at most 1e-13 of its norm, or a sequential one that
    vanishes, raises BasisCollapseError.
    """
    solver = solver or shifted_solver(A)
    if generation not in ("auto", "raw", "sequential"):
        raise RomresError(f"unknown snapshot generation {generation!r}")
    if generation == "auto":
        try:
            return _krylov_basis(solver, b, family, _RAW_RESIDUAL_FLOOR, sequential=False)
        except BasisCollapseError:
            generation = "sequential"
    if generation == "raw":
        return _krylov_basis(solver, b, family, _SPAN_FLOOR, sequential=False)
    return _krylov_basis(solver, b, family, 0.0, sequential=True)


def project(A, b, basis: KrylovBasis) -> ReducedModel:
    """Galerkin projection A_m = V^T A V, b_m = V^T b."""
    V = basis.V
    AV = A @ V
    A_m = V.T @ AV
    A_m = 0.5 * (A_m + A_m.T)
    b_m = V.T @ np.asarray(b, dtype=float)
    lam_max = sla.eigvalsh(A_m)[-1]
    if lam_max >= 0:
        raise RomresError(f"projected operator not negative definite (max eig {lam_max:g})")
    return ReducedModel(A_m=A_m, b_m=b_m, family=basis.family)


def reduced_spectral(model: ReducedModel):
    """Poles and residues of the reduced model.

    Eigenvalues of A_m are -theta; residues are c_j = (b_m^T z_j)^2 >= 0.
    Returns (PoleResidue, Z) with theta ascending and the eigenvector
    columns of Z ordered accordingly.
    """
    lam, Z = sla.eigh(model.A_m)
    theta = -lam[::-1]
    Z = Z[:, ::-1]
    c = (model.b_m @ Z) ** 2
    return PoleResidue(theta=theta, c=c), Z


@dataclass(frozen=True)
class ChainContext:
    """All intermediates of one preconditioner evaluation at a fixed r."""

    operator: SystemOperator
    b: np.ndarray
    family: NodeFamily
    solver: shifted_solver
    basis: KrylovBasis
    model: ReducedModel
    pr: PoleResidue
    Z: np.ndarray
    tri: Tridiagonal
    X: np.ndarray
    cf: ContinuedFraction

    @property
    def m(self) -> int:
        return self.family.m

    def log_vector(self) -> np.ndarray:
        return self.cf.log_vector()


def preconditioner_chain(op: SystemOperator, b: np.ndarray, family: NodeFamily,
                         generation: str = "auto",
                         solver: shifted_solver | None = None) -> ChainContext:
    """Run the full stable chain at one operator/source pair."""
    solver = solver or shifted_solver(op.A)
    basis = build_krylov(op.A, b, family, solver=solver, generation=generation)
    model = project(op.A, b, basis)
    pr, Z = reduced_spectral(model)
    gaps = np.diff(pr.theta)
    if gaps.size and np.min(gaps) < 1e-10 * abs(pr.theta[-1]):
        raise DegeneracyError("nearly coinciding reduced eigenvalues")
    cf, tri, X = pole_residue_to_cfrac(pr)
    return ChainContext(operator=op, b=b, family=family, solver=solver,
                        basis=basis, model=model, pr=pr, Z=Z,
                        tri=tri, X=X, cf=cf)


def preconditioner_R(field: ResistivityField, family: NodeFamily, generation: str = "auto",
                     return_context: bool = False):
    """Log continued-fraction coefficients of a 1D resistivity field.

    Output ordering is fixed: (log kappa_1..m, log kappahat_1..m).  The
    source is the boundary excitation at x = 0.  A 2D field has one source
    per boundary segment; run ``preconditioner_chain`` on its operator and
    each segment's source vector.
    """
    grid = field.grid
    if not isinstance(grid, Grid1D):
        raise RomresError("preconditioner_R takes a 1D field; "
                          "use preconditioner_chain for a 2D source")
    op = assemble_operator(field, build_difference_1d(grid))
    ctx = preconditioner_chain(op, source_vector(grid).b, family, generation=generation)
    vec = ctx.log_vector()
    return (vec, ctx) if return_context else vec
