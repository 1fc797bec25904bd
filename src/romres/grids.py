"""Grids, difference operators and system-operator assembly.

The semi-discrete diffusion operator has the product form

    A(rho) = -D^T diag(rho) D,

where ``D`` is a sparse difference factor mapping state values (nodes in 1D,
cell centers in 2D) to flux edges, and ``rho`` holds one resistivity value
per edge.  In 1D the inversion unknown lives directly on the edges.  In 2D
the unknown is cell-centered and edge values are obtained by arithmetic
averaging, ``rho = M r``; the sparse map ``M`` is kept so that derivative
chains stay short sums of rank-one terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (InvalidGridError, PositivityError, _real_array, _require_integer,
                     _require_real)

__all__ = [
    "Grid1D",
    "Grid2D",
    "BoundarySegment",
    "ResistivityField",
    "SystemOperator",
    "SourceVector",
    "build_difference_1d",
    "build_difference_2d",
    "assemble_operator",
    "assemble_operator_2d",
    "source_vector",
    "uniform_segments",
]

# fraction of its slot that each uniform source/receiver segment covers
_SEGMENT_FILL = 0.8


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with ``n_points`` interior nodes on [0, 1].

    Node i sits at x = i*h for i = 1..N with h = 1/(N+1); x = 0 carries the
    zero-flux (measurement) boundary and x = 1 the homogeneous Dirichlet one.
    Resistivity sample i is attached to the edge [i*h, (i+1)*h].
    """

    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "n_points", _require_integer("n_points", self.n_points,
                                                             InvalidGridError, low=2))

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_points + 1)

    @property
    def edge_midpoints(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(1, self.n_points + 1) + 0.5) * h


@dataclass(frozen=True)
class BoundarySegment:
    """Interval [lo, hi] on the accessible part of the boundary."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _require_real(f"segment end {name}",
                                                         getattr(self, name), InvalidGridError))
        if not self.hi > self.lo:
            raise InvalidGridError("segment must have positive length")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def overlaps(self, other: "BoundarySegment") -> bool:
        return self.lo < other.hi and other.lo < self.hi


@dataclass(frozen=True)
class Grid2D:
    """Rectangular cell grid on [0, Lx] x [0, Ly].

    ``nx`` by ``ny`` cells of size hx = Lx/nx, hy = Ly/ny.  Fields are
    cell-centered, stored row-major as shape (ny, nx) flattened in C order
    (index = iy*nx + ix).  The accessible boundary is the interval
    ``accessible = (a0, a1)`` on the bottom side y = 0; it carries the
    zero-flux condition and the source/receiver segments.  The remaining
    boundary is homogeneous Dirichlet.
    """

    nx: int
    ny: int
    Lx: float = 3.0
    Ly: float = 1.0
    accessible: tuple[float, float] = (1.0, 2.0)
    segments: tuple[BoundarySegment, ...] = field(default=())

    def __post_init__(self):
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name),
                                                            InvalidGridError, low=2))
        for name in ("Lx", "Ly"):
            object.__setattr__(self, name, _require_real(f"domain extent {name}",
                                                         getattr(self, name), InvalidGridError,
                                                         positive=True))
        try:
            a0, a1 = self.accessible
        except (TypeError, ValueError):
            raise InvalidGridError(f"accessible must be a pair (a0, a1), "
                                   f"got {self.accessible!r}") from None
        a0, a1 = (_require_real("accessible end", a, InvalidGridError) for a in (a0, a1))
        object.__setattr__(self, "accessible", (a0, a1))
        if not (0.0 <= a0 < a1 <= self.Lx):
            raise InvalidGridError("accessible interval outside the bottom side")
        for i, s in enumerate(self.segments):
            if not isinstance(s, BoundarySegment):
                raise InvalidGridError(f"segment {i} is not a BoundarySegment: {s!r}")
            if s.lo < a0 - 1e-12 or s.hi > a1 + 1e-12:
                raise InvalidGridError(f"segment {i} outside accessible boundary")
            for t in self.segments[i + 1:]:
                if s.overlaps(t):
                    raise InvalidGridError("segments must be pairwise disjoint")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (xc, yc) of length n_cells, C-order (iy*nx + ix)."""
        xs = (np.arange(self.nx) + 0.5) * self.hx
        ys = (np.arange(self.ny) + 0.5) * self.hy
        xc, yc = np.meshgrid(xs, ys)
        return xc.ravel(), yc.ravel()


@dataclass(frozen=True)
class ResistivityField:
    """Finite, strictly positive resistivity samples attached to a grid.

    ``values`` is a read-only view of the array given (as float), which must
    not change after construction: assembly relies on the check made here.
    The caller's own array keeps its flags.
    """

    values: np.ndarray
    grid: Grid1D | Grid2D

    def __post_init__(self):
        v = _real_array("resistivity", self.values, PositivityError,
                        "finite and strictly positive values").view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        n = self.grid.n_points if isinstance(self.grid, Grid1D) else self.grid.n_cells
        if v.shape != (n,):
            raise InvalidGridError(f"field length {v.shape} does not match grid ({n})")
        # NaN carries through min and max, with no boolean temporary
        if not (v.min() > 0 and v.max() < np.inf):
            raise PositivityError("resistivity must be finite and strictly positive")


class SystemOperator:
    """Assembled operator A = -D^T diag(rho) D with its factors.

    ``D`` is the sparse difference factor, with n columns.  ``op @ X`` is A X.

    A 2D operator holds A, D and the sparse edge-from-cell map M
    (``averaging``) as CSR matrices.  A 1D operator is symmetric
    tridiagonal by construction: it holds A's main diagonal and its one
    off-diagonal, ``bands = (main, off)``, and D, and ``averaging`` is
    None, since its parameters are the edge values themselves.  The 1D
    chain works on the bands alone: its ``solver`` factors them and
    ``op @ X`` forms main X plus the shifted off X, which equals
    ``op.A @ X`` bit for bit (but for the sign of a zero result).  A 1D
    operator's CSR ``A`` is built from (off, main, off) on first read and
    kept; the chain and its Jacobian never read it.

    ``solver`` is the operator's one ``forward.shifted_solver``, likewise
    built on first read and kept: every resolvent evaluation on the
    operator shares its factors, one per shift.  So the operator's arrays
    must not change after construction, or the cached factors go stale;
    ``assemble_operator`` and ``assemble_operator_2d`` hand it read-only ones.

    Shapes are checked here (InvalidGridError): a 1D operator needs n >= 2
    and bands of shapes (n,) and (n - 1,), a 2D one an n x n ``A``.
    """

    def __init__(self, A=None, D=None, averaging=None, *, bands=None):
        one_d = bands is not None
        if D is None or (A is None, averaging is None) != (one_d, one_d):
            raise InvalidGridError("an operator needs D and either A and averaging "
                                   "or the bands of a symmetric tridiagonal A")
        n = D.shape[1]
        if not (n >= 2 and tuple(map(np.shape, bands)) == ((n,), (n - 1,)) if one_d
                else np.shape(A) == (n, n)):
            raise InvalidGridError(f"an operator on D's {n} columns needs bands of shapes "
                                   f"({n},) and ({n - 1},) with n >= 2, or an {n} x {n} A")
        self.shape = (n, n)
        self.D = D
        self.averaging = averaging
        self.bands = bands
        self._A = A
        self._solver = None

    @property
    def A(self) -> sp.csr_matrix:
        if self._A is None:
            main, off = self.bands
            self._A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        return self._A

    @property
    def solver(self):
        if self._solver is None:
            from .forward import shifted_solver  # forward imports this module
            self._solver = shifted_solver(self)
        return self._solver

    def toarray(self) -> np.ndarray:
        return self.A.toarray()

    def __matmul__(self, X):
        if self.bands is None:
            return self.A @ X
        n = self.shape[0]
        if np.ndim(X) not in (1, 2) or np.shape(X)[0] != n:
            raise ValueError(f"matmul: dimension mismatch, operator is {n}x{n} "
                             f"and X has shape {np.shape(X)}")
        # row i is (main_i x_i + off_{i-1} x_{i-1}) + off_i x_{i+1}: the CSR
        # product's sum from 0.0 in column order, reordered only where
        # a + b = b + a and 0.0 + a = a (which holds but for a = -0.0)
        X = np.asarray(X)
        main, off = (band.reshape((-1,) + (1,) * (X.ndim - 1)) for band in self.bands)
        Y = main * X
        Y[1:] += off * X[:-1]
        Y[:-1] += off * X[1:]
        return Y


@dataclass(frozen=True)
class SourceVector:
    """Source/measurement vector."""

    b: np.ndarray


@lru_cache(maxsize=8)
def build_difference_1d(grid: Grid1D) -> sp.csr_matrix:
    """Forward-difference factor on the 1D grid.

    Row i < N is (v_{i+1} - v_i)/h; the last row is -v_N/h, which folds the
    Dirichlet condition at x = 1 into the product -D^T diag(r) D.  The
    zero-flux edge at x = 0 carries no row.  It is built once per grid and
    shared by every caller on an equal grid (every evaluation of the chain
    and every iterate of an inversion on it), so its arrays are read-only.
    """
    n, h = grid.n_points, grid.spacing
    D = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n), format="csr")
    _read_only(D.data, D.indices, D.indptr)
    return D


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


def _weighted_gram(D: sp.csr_matrix, rho: np.ndarray) -> sp.csr_matrix:
    """-D^T diag(rho) D as one sparse product, with D's rows scaled by rho."""
    D = D.tocsr()
    scaled = sp.csr_matrix((D.data * np.repeat(rho, np.diff(D.indptr)), D.indices, D.indptr),
                           shape=D.shape)
    return (-(D.T @ scaled)).tocsr()


def _difference_diagonal(D) -> np.ndarray | None:
    """d if D is the bidiagonal factor of a 1D grid, else None.

    That is a sparse n x n or (n - 1) x n matrix whose row i holds d_i at
    column i and u_i = -d_i at column i + 1 (the last row of an n x n one
    holds d only), with no d_i zero and nothing else stored nonzero.
    ``build_difference_1d`` gives the n x n one, and its interior rows the
    (n - 1) x n seminorm gradient of a path.
    """
    if not sp.issparse(D) or D.shape[1] - D.shape[0] not in (0, 1):
        return None
    d, u = D.diagonal(0), D.diagonal(1)  # u has n - 1 entries either way
    on_bands = D.count_nonzero() == d.size + u.size
    return d if on_bands and np.all(d != 0) and np.array_equal(u, -d[:u.size]) else None


def assemble_operator(field: ResistivityField, D: sp.csr_matrix) -> SystemOperator:
    """Assemble the symmetric tridiagonal A(r) = -D^T diag(r) D on a 1D grid.

    D is the square bidiagonal factor of ``build_difference_1d``, or any
    factor of that shape (``_difference_diagonal``); anything else raises
    InvalidGridError.  With p = (d r) d, A's diagonals are formed directly,
    with the products and summation order of the sparse product
    ``_weighted_gram`` (so the CSR A built from them is bitwise equal to
    it):

        A_ii = -(p_{i-1} + p_i),   A_{i,i+1} = A_{i+1,i} = p_i,

    since u = -d makes both off-diagonal products -(u r) d and -(d r) u
    equal to p.  The operator keeps the main diagonal and the one
    off-diagonal as its ``bands``, and builds no sparse matrix (see
    ``SystemOperator``).  The field's values are finite and positive
    (``ResistivityField``) and are not checked again.
    """
    r = field.values
    n = r.shape[0]
    d = _difference_diagonal(D)
    if d is None or D.shape != (n, n):
        raise InvalidGridError(f"the 1D difference factor must be a sparse {n} x {n} "
                               "bidiagonal with rows (d_i, -d_i) and no d_i zero")
    p = d * r * d
    main = -p
    main[1:] -= p[:-1]
    _read_only(main, p)
    return SystemOperator(D=D, bands=(main, p[:-1]))


def build_difference_2d(grid: Grid2D) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Difference factor D and edge-from-cell averaging map M for a 2D grid.

    Rows (flux edges) come in a fixed order: the interior x-edges and then
    the interior y-edges, each row-major with the lower-left cell first,
    then the Dirichlet faces (left and right per cell row, top, and the
    bottom cells outside the accessible interval).  An interior row holds
    (-1/h, 1/h) in D and (1/2, 1/2) in M; a face row holds one entry.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    a0, a1 = grid.accessible
    cells = np.arange(grid.n_cells).reshape(ny, nx)
    lo = np.concatenate([cells[:, :-1].ravel(), cells[:-1, :].ravel()])
    hi = np.concatenate([cells[:, 1:].ravel(), cells[1:, :].ravel()])
    inv_h = np.repeat([1.0 / hx, 1.0 / hy], [ny * (nx - 1), (ny - 1) * nx])
    # Dirichlet faces: distance from cell center to boundary is half a cell,
    # hence the sqrt(2)/h coefficient so that the diagonal picks up 2r/h^2.
    # Bottom faces on the accessible interval are zero-flux and carry no row.
    mid = (np.arange(nx) + 0.5) * hx
    bottom = cells[0, ~((a0 < mid) & (mid < a1))]
    faces = np.concatenate([cells[:, [0, nx - 1]].ravel(), cells[-1], bottom])
    sx, sy = np.sqrt(2.0) / hx, np.sqrt(2.0) / hy
    face_coeff = np.repeat([sx, sy], [2 * ny, nx + bottom.size])

    n_int = lo.size
    indptr = np.concatenate([np.arange(0, 2 * n_int + 1, 2),
                             2 * n_int + np.arange(1, faces.size + 1)])
    indices = np.concatenate([np.column_stack([lo, hi]).ravel(), faces])
    d = np.concatenate([np.column_stack([-inv_h, inv_h]).ravel(), -face_coeff])
    m = np.concatenate([np.full(2 * n_int, 0.5), np.ones(faces.size)])
    shape = (n_int + faces.size, grid.n_cells)
    D = sp.csr_matrix((d, indices, indptr), shape=shape)
    M = sp.csr_matrix((m, indices.copy(), indptr.copy()), shape=shape)
    return D, M


def assemble_operator_2d(field: ResistivityField, grid: Grid2D | None = None) -> SystemOperator:
    """Five-point finite-volume operator with cell-centered resistivity.

    Edge resistivity is the arithmetic mean of the two adjacent cells, which
    keeps A linear in the cell values.  Zero-flux on the accessible
    boundary interval, homogeneous Dirichlet elsewhere.  ``grid``, if given,
    must be the field's own grid (InvalidGridError otherwise): the field's
    values are samples on it, and another grid of as many cells would
    silently build that grid's operator.
    """
    if grid is not None and grid != field.grid:
        raise InvalidGridError(f"grid {grid!r} is not the field's grid {field.grid!r}")
    grid = field.grid
    if not isinstance(grid, Grid2D):
        raise InvalidGridError("assemble_operator_2d needs a Grid2D field")
    D, M = build_difference_2d(grid)
    rho = M @ field.values
    A = _weighted_gram(D, rho)
    _read_only(*(a for mat in (A, D, M) for a in (mat.data, mat.indices, mat.indptr)))
    return SystemOperator(A=A, D=D, averaging=M)


def uniform_segments(grid: Grid2D, n_segments: int) -> tuple[BoundarySegment, ...]:
    """Equispaced disjoint source/receiver segments on the accessible boundary.

    The accessible interval is split into ``n_segments`` slots; each segment
    is centered in its slot and covers ``_SEGMENT_FILL`` of the slot width,
    leaving gaps that keep the supports disjoint on any raster.
    """
    n_segments = _require_integer("n_segments", n_segments, InvalidGridError, low=1)
    a0, a1 = grid.accessible
    pitch = (a1 - a0) / n_segments
    half = 0.5 * _SEGMENT_FILL * pitch
    segs = []
    for j in range(n_segments):
        c = a0 + (j + 0.5) * pitch
        segs.append(BoundarySegment(c - half, c + half))
    return tuple(segs)


def source_vector(grid: Grid1D | Grid2D, segment: BoundarySegment | None = None) -> SourceVector:
    """Source/measurement vector for one boundary segment.

    1D: the point excitation/measurement at x = 0, b = e_1/sqrt(h).

    2D: fractional indicator of the bottom-row cells covered by ``segment``,
    scaled by sqrt(hx/hy).  With that scaling b^T exp(At) b approximates the
    grid-independent functional  int_J int_J G(t, x, x') dx dx'  of the
    continuum line source, so data synthesized on one grid can be fitted
    with a model on another.
    """
    if isinstance(grid, Grid1D):
        b = np.zeros(grid.n_points)
        b[0] = 1.0 / np.sqrt(grid.spacing)
        return SourceVector(b=b)

    if segment is None:
        raise InvalidGridError("2D source needs a boundary segment")
    a0, a1 = grid.accessible
    if segment.lo < a0 - 1e-12 or segment.hi > a1 + 1e-12:
        raise InvalidGridError("segment outside accessible boundary")
    hx, hy = grid.hx, grid.hy
    b = np.zeros(grid.n_cells)
    for ix in range(grid.nx):
        lo, hi = ix * hx, (ix + 1) * hx
        overlap = min(hi, segment.hi) - max(lo, segment.lo)
        if overlap > 1e-12 * hx:
            w = overlap / hx
            b[ix] = np.sqrt(hx / hy) * w  # bottom row: cell index = ix
    if not b.any():
        raise InvalidGridError("segment covers no boundary cells")
    return SourceVector(b=b)
