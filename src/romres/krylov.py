"""Rational Krylov subspaces, Galerkin projection and the map to log
continued-fraction coefficients.

The nonlinear map evaluated here takes a resistivity vector to the
2m-vector (log kappa_1..m, log kappahat_1..m) through the stable chain

    r -> A(r) -> snapshot basis V -> (A_m, b_m) -> (theta, c)
      -> (kappa, kappahat) -> logs.

The basis is generated one way: each node's chain starts from b, and each
further solve is applied to the newest orthonormal column.  All
intermediates are kept in a ChainContext so the analytic Jacobian can
reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cfrac import ContinuedFraction, pole_residue_to_cfrac
from .errors import (BasisCollapseError, DegeneracyError, InvalidGridError, ProjectionError,
                     RomresError)
from .forward import _rows, _source
from .grids import (Grid1D, ResistivityField, SystemOperator, assemble_operator,
                    build_difference_1d, source_vector)
from .ratfit import NodeFamily, PoleResidue

__all__ = [
    "KrylovBasis",
    "ReducedModel",
    "ChainContext",
    "build_krylov",
    "project",
    "preconditioner_chain",
    "preconditioner_R",
]


@dataclass(frozen=True)
class KrylovBasis:
    """Snapshots K, orthonormal V and triangular U with K = V U, diag(U) > 0,
    of the rational Krylov subspace of ``operator`` and source ``b``.

    Column j of K is the solve that produced V[:, j], and column j of U
    holds its Gram-Schmidt coefficients and remaining norm.  Each node's
    chain starts from b, and each further solve of a repeated node is
    applied to the newest orthonormal column: that spans the same subspace
    as the plain resolvent powers but stays well conditioned where they go
    numerically collinear.  The Jacobian's adjoint sweep reads K and U in
    the coordinates of the ``doubled_basis`` that extends V.

    The basis carries the operator and source it was built on, so
    ``project`` and ``doubled_basis`` take nothing else: a basis cannot be
    projected on another operator of the same size.  Construction checks
    them, once per chain (InvalidGridError): ``family`` must be a
    ``NodeFamily``, ``operator`` a ``SystemOperator``, b a finite real
    vector of its n rows (kept as float64), K and V of shape (n, family.m)
    and U of shape (m, m); all three None are zeros for build_krylov to fill.
    """

    K: np.ndarray
    V: np.ndarray
    U: np.ndarray
    family: NodeFamily
    operator: SystemOperator
    b: np.ndarray

    def __post_init__(self):
        if not isinstance(self.family, NodeFamily):
            raise InvalidGridError(f"a basis needs a NodeFamily, got {type(self.family).__name__}")
        n, m = _rows(self.operator), self.family.m
        object.__setattr__(self, "b", _source(self.b, n))
        fits = ((n, m), (n, m), (m, m))
        if self.K is None and self.V is None and self.U is None:
            for name, shape in zip("KVU", fits):
                object.__setattr__(self, name, np.zeros(shape))
        shapes = tuple(np.shape(a) for a in (self.K, self.V, self.U))
        if shapes != fits:
            raise InvalidGridError(f"basis of K, V, U shapes {shapes} does not fit the "
                                   f"operator's {n} rows and the family's m = {m}")

    @property
    def m(self) -> int:
        return self.K.shape[1]

    @property
    def generation(self) -> str:
        """``'sequential'`` if the family is confluent, else ``'raw'``.

        A label only: with simple nodes every solve is applied to b, so the
        plain powers and the sequential chain are the same computation.  It
        is kept because the benchmark harness reads it, and goes with the
        harness's next change (ROADMAP item 0).
        """
        return "sequential" if self.family.confluent else "raw"


@dataclass(frozen=True)
class ReducedModel:
    """Projected system (A_m, b_m); A_m symmetric negative definite.

    ``AV`` is the product A V the projection formed, which the Jacobian's
    adjoint sweep reuses.  ``pr`` and ``Z`` are A_m's one ``eigh`` in chain
    order: the poles theta (ascending, the negated eigenvalues), the
    residues c_j = (b_m^T z_j)^2 >= 0, and the eigenvector z_j of each
    pole in column j of Z.
    """

    A_m: np.ndarray
    b_m: np.ndarray
    AV: np.ndarray
    pr: PoleResidue
    Z: np.ndarray


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


def build_krylov(op: SystemOperator, b, family: NodeFamily) -> KrylovBasis:
    """Orthonormal basis of the rational Krylov subspace of ``family``.

    Builds the empty basis first, whose construction checks ``op``, b and
    ``family`` once (InvalidGridError, see KrylovBasis), and then solves,
    orthogonalizes and normalizes one column at a time into its K, V and U,
    on the operator's own factors (``SystemOperator.solver``).  Before any
    solve, a family with more nodes (with multiplicity) than n raises
    BasisCollapseError; so does a column that vanishes after the
    Gram-Schmidt step.
    """
    basis = KrylovBasis(K=None, V=None, U=None, family=family, operator=op, b=b)
    K, V, U, b = basis.K, basis.V, basis.U, basis.b
    n, m = K.shape
    if m > n:
        raise BasisCollapseError(f"model size m={m} exceeds the system dimension {n}; "
                                 "reduce the model size m")
    solver = op.solver
    col = 0
    for s, mult in zip(family.nodes, family.multiplicities):
        x = b
        for _ in range(int(mult)):
            u = solver.solve(s, x)
            K[:, col] = u
            U[:col, col] = _gram_schmidt_step(V, col, u)
            nrm = np.linalg.norm(u)
            if nrm == 0.0:
                raise BasisCollapseError(
                    f"snapshot column {col + 1} lies in the span of the previous ones; "
                    "reduce the model size m")
            U[col, col] = nrm
            x = u / nrm
            V[:, col] = x
            col += 1
    return basis


# a column left with at most this share of its norm after Gram-Schmidt
# already lies in the span built so far
_SPAN_FLOOR = 1e-13


def doubled_basis(basis: KrylovBasis) -> np.ndarray:
    """Orthonormal Q of the space every adjoint-sweep input lies in.

    That space is span{b, (s_j I - A)^{-k} b : k <= 2 mult_j - 1} of the
    basis's own operator A and source b, of dimension
    d = 2m + 1 - (number of nodes).  Q starts as [V, b] and each node's
    chain is extended from its last column of V by mult_j - 1 more solves on
    the operator's factors, each on the newest column, with a two-pass
    Gram-Schmidt step.
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

    append(basis.b.copy())
    for s, mult, last in zip(fam.nodes, fam.multiplicities, np.cumsum(fam.multiplicities) - 1):
        x = V[:, last]
        for _ in range(int(mult) - 1):
            if not append(basis.operator.solver.solve(s, x)):
                break
            x = Q[:, k - 1]
    return Q[:, :k]


def project(basis: KrylovBasis) -> ReducedModel:
    """Galerkin projection A_m = V^T A V, b_m = V^T b of the basis's own
    operator and source, with A_m's poles and residues from its one ``eigh``
    (see ReducedModel).

    The operator, source and V's rows were checked once, when the basis was
    built (KrylovBasis); a 1D operator multiplies by its two bands, bitwise
    as its CSR A would.  Raises ProjectionError if A_m is not negative definite.
    """
    V = basis.V
    AV = basis.operator @ V
    A_m = V.T @ AV
    A_m = 0.5 * (A_m + A_m.T)
    b_m = V.T @ basis.b
    lam, Z = sla.eigh(A_m)
    if lam[-1] >= 0:
        raise ProjectionError(f"projected operator not negative definite (max eig {lam[-1]:g})")
    Z = Z[:, ::-1]
    return ReducedModel(A_m=A_m, b_m=b_m, AV=AV,
                        pr=PoleResidue(theta=-lam[::-1], c=(b_m @ Z) ** 2), Z=Z)


@dataclass(frozen=True)
class ChainContext:
    """All intermediates of one preconditioner evaluation at a fixed r.

    Each stage's result is held once: the operator and source in ``basis``
    (``basis.operator``, ``basis.b``), the poles, residues and eigenvectors
    in ``model`` (``model.pr``, ``model.Z``), the admissible coefficients in
    ``cf``.  The Jacobian's solves run on ``basis.operator.solver``, whose
    factors the chain made.
    """

    basis: KrylovBasis
    model: ReducedModel
    cf: ContinuedFraction

    @property
    def m(self) -> int:
        return self.basis.m

    def log_vector(self) -> np.ndarray:
        return self.cf.log_vector()


def preconditioner_chain(op: SystemOperator, b: np.ndarray, family: NodeFamily,
                         generation: str = "auto") -> ChainContext:
    """Run the full stable chain at one operator/source pair.

    The solves run on the operator's own factors (``SystemOperator.solver``),
    so every source and the Jacobian of every chain on one operator share
    one factorization per shift.  ``generation`` selects nothing: it accepts
    ``'auto'`` or the family's own ``KrylovBasis.generation`` label and
    raises RomresError otherwise.  It stays only because the benchmark
    harness passes it, and goes with the harness's next change (ROADMAP
    item 0).
    """
    basis = build_krylov(op, b, family)
    if generation not in ("auto", basis.generation):
        raise RomresError(f"generation {generation!r} is neither 'auto' nor "
                          f"{basis.generation!r}, the label of this family's basis")
    model = project(basis)
    pr = model.pr
    gaps = np.diff(pr.theta)
    if gaps.size and np.min(gaps) < 1e-10 * abs(pr.theta[-1]):
        raise DegeneracyError("nearly coinciding reduced eigenvalues")
    return ChainContext(basis=basis, model=model, cf=pole_residue_to_cfrac(pr))


def preconditioner_R(field: ResistivityField, family: NodeFamily, generation: str = "auto",
                     return_context: bool = False):
    """Log continued-fraction coefficients of a 1D resistivity field.

    Output ordering is fixed: (log kappa_1..m, log kappahat_1..m).  The
    source is the boundary excitation at x = 0.  A 2D field has one source
    per boundary segment; run ``preconditioner_chain`` on its operator and
    each segment's source vector.  ``generation`` is checked as there, and
    selects nothing.

    The grid's difference factor D is built once per grid and shared
    (``build_difference_1d``), so a call builds no sparse matrix: the chain
    runs on the operator's bands (``SystemOperator``).
    """
    grid = field.grid
    if not isinstance(grid, Grid1D):
        raise RomresError("preconditioner_R takes a 1D field; "
                          "use preconditioner_chain for a 2D source")
    op = assemble_operator(field, build_difference_1d(grid))
    ctx = preconditioner_chain(op, source_vector(grid).b, family, generation=generation)
    vec = ctx.log_vector()
    return (vec, ctx) if return_context else vec
