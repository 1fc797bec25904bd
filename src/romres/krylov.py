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
from .grids import (Grid1D, Grid2D, ResistivityField, SystemOperator,
                    assemble_operator, assemble_operator_2d,
                    build_difference_1d, source_vector)
from .ratfit import NodeFamily, PoleResidue, node_family

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

    ``generation`` records how the snapshots were produced: ``raw`` stores
    the literal resolvent powers, each solved on the previous power;
    ``sequential`` re-applies the resolvent to the newest orthonormal
    vector, which spans the same subspace but stays well conditioned when
    plain powers go numerically collinear.  In the sequential case column j
    of K is that re-applied resolvent (before orthogonalization) and U holds
    its Gram-Schmidt coefficients, so K = V U still holds.  The Jacobian's
    adjoint sweep reads K and U for both, in the coordinates of the
    ``doubled_basis`` that extends V, and needs the generation only to know
    what each solve was applied to.
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
    source_index: int = 0

    @property
    def m(self) -> int:
        return self.b_m.size


def snapshot_columns(solver: shifted_solver, b: np.ndarray, family: NodeFamily) -> np.ndarray:
    """Snapshot matrix with columns (s_j I - A)^{-k} b, k = 1..M_j."""
    cols = []
    for s, mult in zip(family.nodes, family.multiplicities):
        x = np.asarray(b, dtype=float)
        for _ in range(int(mult)):
            x = solver.solve(s, x)
            cols.append(x)
    return np.column_stack(cols)


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


def _orthonormalize_mgs(K: np.ndarray):
    """Gram-Schmidt with one re-pass; returns (V, U) with positive diag(U).

    A column left with less than 1e-13 of its norm after orthogonalization
    lies in the span of the previous ones and raises BasisCollapseError.
    """
    n, m = K.shape
    V = np.zeros((n, m))
    U = np.zeros((m, m))
    for j in range(m):
        u = K[:, j].copy()
        nrm0 = np.linalg.norm(u)
        U[:j, j] = _gram_schmidt_step(V, j, u)
        nb = np.linalg.norm(u)
        if nb <= 1e-13 * nrm0:
            raise BasisCollapseError(
                f"snapshot column {j + 1} lies in the span of the previous ones; "
                "reduce the model size m")
        U[j, j] = nb
        V[:, j] = u / nb
    return V, U


def sequential_basis(solver: shifted_solver, b: np.ndarray, family: NodeFamily) -> KrylovBasis:
    """Orthonormal basis built by re-solving on the newest basis vector.

    Spans the same rational Krylov subspace as the raw powers but never
    forms them, so confluent families stay numerically sound at depths
    where the raw snapshot matrix loses rank to roundoff.  Column j of K
    is the solve that produced V[:, j], and column j of U holds its
    Gram-Schmidt coefficients and norm, so K = V U as for raw bases.
    """
    n, m = b.size, family.m
    K = np.zeros((n, m))
    V = np.zeros((n, m))
    U = np.zeros((m, m))
    col = 0
    for s, mult in zip(family.nodes, family.multiplicities):
        x = np.asarray(b, dtype=float)
        for _ in range(int(mult)):
            x = solver.solve(s, x)
            K[:, col] = x
            U[:col, col] = _gram_schmidt_step(V, col, x)
            nrm = np.linalg.norm(x)
            if nrm == 0.0:
                raise BasisCollapseError("sequential snapshot vanished; reduce m")
            U[col, col] = nrm
            x = x / nrm
            V[:, col] = x
            col += 1
    return KrylovBasis(K=K, V=V, U=U, family=family, generation="sequential")


# an extension direction left with at most this share of its norm after
# Gram-Schmidt already lies in the span built so far
_EXTENSION_FLOOR = 1e-13


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
        if nrm <= _EXTENSION_FLOOR * nrm0:
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


# below this relative residual the raw snapshot columns are too collinear
# to orthonormalize reliably; switch to sequential generation
_RAW_RESIDUAL_FLOOR = 1e-8


def build_krylov(A, b, family: NodeFamily, solver: shifted_solver | None = None,
                 generation: str = "auto") -> KrylovBasis:
    """Orthonormal basis of the rational Krylov subspace of ``family``.

    ``generation='raw'`` orthonormalizes the literal snapshot columns by
    Gram-Schmidt.  ``'sequential'`` re-solves on the newest orthonormal
    vector instead, which is the only sound choice once confluent powers go
    collinear.  ``'auto'`` tries raw and falls back when the smallest
    orthogonalization residual drops below the trust floor.
    """
    solver = solver or shifted_solver(A)
    if generation not in ("auto", "raw", "sequential"):
        raise RomresError(f"unknown snapshot generation {generation!r}")
    if generation != "sequential":
        K = snapshot_columns(solver, b, family)
        try:
            V, U = _orthonormalize_mgs(K)
        except BasisCollapseError:
            if generation == "raw":
                raise
        else:
            trust = np.min(np.diag(U) / np.linalg.norm(K, axis=0))
            if generation == "raw" or trust > _RAW_RESIDUAL_FLOOR:
                return KrylovBasis(K=K, V=V, U=U, family=family, generation="raw")
    return sequential_basis(solver, b, family)


def project(A, b, basis: KrylovBasis, source_index: int = 0) -> ReducedModel:
    """Galerkin projection A_m = V^T A V, b_m = V^T b."""
    V = basis.V
    AV = A @ V
    A_m = V.T @ AV
    A_m = 0.5 * (A_m + A_m.T)
    b_m = V.T @ np.asarray(b, dtype=float)
    lam_max = sla.eigvalsh(A_m)[-1]
    if lam_max >= 0:
        raise RomresError(f"projected operator not negative definite (max eig {lam_max:g})")
    return ReducedModel(A_m=A_m, b_m=b_m, family=basis.family, source_index=source_index)


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
                         source_index: int = 0, generation: str = "auto",
                         solver: shifted_solver | None = None) -> ChainContext:
    """Run the full stable chain at one operator/source pair."""
    solver = solver or shifted_solver(op.A)
    basis = build_krylov(op.A, b, family, solver=solver, generation=generation)
    model = project(op.A, b, basis, source_index=source_index)
    pr, Z = reduced_spectral(model)
    gaps = np.diff(pr.theta)
    if gaps.size and np.min(gaps) < 1e-10 * abs(pr.theta[-1]):
        raise DegeneracyError("nearly coinciding reduced eigenvalues")
    cf, tri, X = pole_residue_to_cfrac(pr)
    return ChainContext(operator=op, b=b, family=family, solver=solver,
                        basis=basis, model=model, pr=pr, Z=Z,
                        tri=tri, X=X, cf=cf)


def preconditioner_R(field: ResistivityField, family: NodeFamily | str | None = None,
                     segment=None, generation: str = "auto",
                     return_context: bool = False):
    """Log continued-fraction coefficients of a resistivity field.

    Output ordering is fixed: (log kappa_1..m, log kappahat_1..m).  For 1D
    fields the source is the boundary excitation at x = 0; 2D fields need a
    boundary ``segment``.  ``family`` may be a NodeFamily or a preset name
    (default: the geometric ladder with m = 5 in 1D, the single-node family
    in 2D).
    """
    grid = field.grid
    if isinstance(grid, Grid1D):
        if family is None:
            family = node_family("zolotarev", 5)
        elif isinstance(family, str):
            family = node_family(family, 5)
        op = assemble_operator(field, build_difference_1d(grid))
        b = source_vector(grid).b
    elif isinstance(grid, Grid2D):
        if family is None:
            family = node_family("single-node", 5)
        elif isinstance(family, str):
            family = node_family(family, 5)
        op = assemble_operator_2d(field, grid)
        if segment is None:
            raise RomresError("2D preconditioner needs a boundary segment")
        b = source_vector(grid, segment).b
    else:
        raise RomresError("unsupported grid type")
    ctx = preconditioner_chain(op, b, family, generation=generation)
    vec = ctx.log_vector()
    return (vec, ctx) if return_context else vec
