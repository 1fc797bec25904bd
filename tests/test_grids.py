from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from romres.errors import InvalidGridError, PositivityError
from romres.grids import (BoundarySegment, Grid1D, Grid2D, ResistivityField,
                          SystemOperator, _weighted_gram, assemble_operator, assemble_operator_2d,
                          build_difference_1d, build_difference_2d,
                          source_vector, uniform_segments)
from romres.phantoms import phantom


def test_grid1d_spacing():
    g = Grid1D(199)
    assert g.spacing == pytest.approx(1.0 / 200)
    assert g.spacing * (g.n_points + 1) == pytest.approx(1.0)


def test_grid1d_too_small():
    with pytest.raises(InvalidGridError):
        Grid1D(1)


@pytest.mark.parametrize("n", [2.5, 3.0, "5", None])
def test_grid1d_needs_integer_size(n):
    with pytest.raises(InvalidGridError):
        Grid1D(n)


@pytest.mark.parametrize("nx, ny", [(2.5, 3), (3, 2.5), (3.0, 3), (3, "4"), (None, 3), (1, 3)])
def test_grid2d_needs_integer_size(nx, ny):
    with pytest.raises(InvalidGridError):
        Grid2D(nx=nx, ny=ny)


@pytest.mark.parametrize("extent", [{"Lx": np.inf}, {"Ly": np.inf}, {"Lx": np.nan},
                                    {"Ly": np.nan}, {"Ly": 0.0}, {"Lx": "a"}, {"Lx": 1j},
                                    {"Ly": [1.0]}])
def test_grid2d_needs_positive_finite_extents(extent):
    # an infinite Ly used to give a transfer function of (0.0, -0.0), and a
    # string, complex or list extent raised a bare TypeError
    with pytest.raises(InvalidGridError, match="positive and finite"):
        Grid2D(nx=4, ny=3, **extent)


def test_difference_constant_vector():
    g = Grid1D(2)
    D = build_difference_1d(g)
    v = np.ones(2)
    out = D @ v
    # constant vectors are killed except on the Dirichlet row
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.0 / g.spacing)


def test_difference_laplacian_structure():
    g = Grid1D(3)
    D = build_difference_1d(g)
    A = -(D.T @ D).toarray()
    assert np.allclose(A, A.T)
    rowsums = A.sum(axis=1)
    assert rowsums[0] == pytest.approx(0.0, abs=1e-9)
    assert rowsums[1] == pytest.approx(0.0, abs=1e-9)
    assert rowsums[2] < 0  # Dirichlet leak


def test_difference_coarse_grid_shape():
    D = build_difference_1d(Grid1D(199))
    assert D.shape == (199, 199)
    assert D.nnz == 2 * 199 - 1  # bidiagonal


def test_difference_factor_shared_and_read_only():
    # equal grids share one factor, so no caller may write into it
    D = build_difference_1d(Grid1D(40))
    assert build_difference_1d(Grid1D(np.int64(40))) is D
    assert build_difference_1d(Grid1D(41)) is not D
    for array in (D.data, D.indices, D.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_assemble_negative_definite(rng):
    for _ in range(5):
        n = int(rng.integers(3, 50))
        g = Grid1D(n)
        r = 0.1 + rng.random(n)
        op = assemble_operator(ResistivityField(r, g), build_difference_1d(g))
        A = op.A.toarray()
        assert np.allclose(A, A.T)
        assert sla.eigvalsh(A).max() < 0


def test_assemble_linear_in_r(rng):
    g = Grid1D(20)
    D = build_difference_1d(g)
    r1 = 1.0 + rng.random(20)
    r2 = 1.0 + rng.random(20)
    A1 = assemble_operator(ResistivityField(r1, g), D).A.toarray()
    A2 = assemble_operator(ResistivityField(r2, g), D).A.toarray()
    A12 = assemble_operator(ResistivityField(r1 + r2, g), D).A.toarray()
    assert np.allclose(A12, A1 + A2, atol=1e-12)
    A2x = assemble_operator(ResistivityField(2.0 * r1, g), D).A.toarray()
    assert np.allclose(A2x, 2.0 * A1)


def test_assembly_matches_two_products_bitwise(rng):
    # each row of D holds entries of one magnitude, so scaling the rows by
    # rho before the product rounds exactly as D^T diag(rho) D does
    g1 = Grid1D(199)
    D1 = build_difference_1d(g1)
    r1 = 1.0 + rng.random(199)
    g2 = Grid2D(nx=30, ny=10)
    D2, M2 = build_difference_2d(g2)
    r2 = 1.0 + rng.random(g2.n_cells)
    cases = ((assemble_operator(ResistivityField(r1, g1), D1).A, D1, r1),
             (assemble_operator_2d(ResistivityField(r2, g2)).A, D2, M2 @ r2))
    for A, D, rho in cases:
        ref = (-(D.T @ sp.diags(rho) @ D)).tocsr()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(ref, part))


@pytest.mark.parametrize("n", [2, 3, 40, 1999])
def test_direct_1d_assembly_matches_sparse_products_bitwise(n, rng, sparse_constructions):
    # the operator keeps A's main diagonal and its one off-diagonal, builds
    # no sparse matrix and has no averaging map.  Its CSR A, built when
    # first read, equals the sparse product bit for bit (format, shape,
    # index dtype and arrays), whose two off-diagonals both equal the one
    # band, and so does its band product with the CSR product.  That holds
    # on any factor with rows (d_i, -d_i), here also one whose row scales
    # vary over four decades
    g = Grid1D(n)
    D = build_difference_1d(g)
    d = -(10.0 ** rng.uniform(0.0, 4.0, n))
    scaled = sp.diags([d, -d[:-1]], [0, 1], shape=(n, n), format="csr")
    fields = (phantom("rQ", g).values, 0.1 + rng.random(n), np.exp(rng.normal(0.0, 3.0, n)))
    for factor in (D, scaled):
        for r in fields:
            sparse_constructions.clear()
            op = assemble_operator(ResistivityField(r, g), factor)
            assert sparse_constructions == [] and op.shape == (n, n) and op.averaging is None
            X = rng.standard_normal((n, 5))
            products = [op @ X, op @ X[:, 0]]
            A, ref = op.A, _weighted_gram(factor, r)
            assert (A.format, A.shape, A.dtype) == (ref.format, ref.shape, ref.dtype)
            for part in ("data", "indices", "indptr"):
                a, b = getattr(A, part), getattr(ref, part)
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert op.A is A
            main, off = op.bands
            for k, band in ((0, main), (1, off), (-1, off)):
                assert np.array_equal(ref.diagonal(k), band)
            for Y, x in zip(products, (X, X[:, 0])):
                assert Y.shape == x.shape and np.array_equal(Y, A @ x)
    # an X without n rows is refused, as by the CSR product, even when its
    # size is a multiple of n
    for bad in (np.ones((5, n)), np.ones(2 * n), np.ones((n, 2, 2))):
        for M in (op, op.A):
            with pytest.raises(ValueError):
                M @ bad


def test_assembly_needs_bidiagonal_factor(rng):
    # the factor must be a sparse n x n matrix with rows (d_i, -d_i) and no
    # d_i zero: a lower entry, the (n - 1) x n seminorm gradient, a zero
    # diagonal entry, rows whose two entries do not cancel, and a dense or
    # list copy of the grid's own factor are each refused on entry
    g = Grid1D(5)
    D = build_difference_1d(g)
    r = ResistivityField(np.ones(5), g)
    nonuniform = sp.diags([-(1.0 + rng.random(5)), 1.0 + rng.random(4)], [0, 1], format="csr")
    for bad in (D + sp.eye(5, k=-1), D[:4], sp.diags([np.ones(5), np.zeros(4)], [0, 1]),
                nonuniform, D.toarray(), D.toarray().tolist()):
        with pytest.raises(InvalidGridError, match="difference factor"):
            assemble_operator(r, bad)


def test_positivity_required():
    g = Grid1D(5)
    with pytest.raises(PositivityError):
        ResistivityField(np.array([1.0, -1.0, 1.0, 1.0, 1.0]), g)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_field_rejects_nonfinite_values(bad):
    # an infinite resistivity used to reach eigh in the chain as a bare
    # ValueError; it is refused where the field is made, in 1D and 2D
    for g, n in ((Grid1D(5), 5), (Grid2D(nx=3, ny=2), 6)):
        values = np.ones(n)
        values[2] = bad
        with pytest.raises(PositivityError, match="finite and strictly positive"):
            ResistivityField(values, g)


def test_operator_derivative_matches_difference_quotient(rng):
    # A is linear in r, so the quotient is exact at any step
    g = Grid1D(10)
    D = build_difference_1d(g)
    r = 1.0 + rng.random(10)
    A0 = assemble_operator(ResistivityField(r, g), D).A.toarray()
    k = 4
    rp = r.copy()
    rp[k] += 1.0
    A1 = assemble_operator(ResistivityField(rp, g), D).A.toarray()
    d_k = D.getrow(k).toarray().ravel()
    assert np.allclose(A1 - A0, -np.outer(d_k, d_k), atol=1e-12)


def test_2d_difference_entries():
    # 3x2 cells of 1 x 0.5; the accessible interval (1, 2) covers the middle
    # bottom cell, whose face is zero-flux and has no row
    D, M = build_difference_2d(Grid2D(nx=3, ny=2))
    s = np.sqrt(2.0)
    interior = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    inv_h = [1.0] * 4 + [2.0] * 3
    faces = [0, 2, 3, 5, 3, 4, 5, 0, 2]  # left/right per row, top, bottom
    face_coeff = [s] * 4 + [2.0 * s] * 5
    D_ref, M_ref = np.zeros((16, 6)), np.zeros((16, 6))
    for e, ((c0, c1), g) in enumerate(zip(interior, inv_h)):
        D_ref[e, [c0, c1]] = -g, g
        M_ref[e, [c0, c1]] = 0.5
    for e, (c, g) in enumerate(zip(faces, face_coeff), start=len(interior)):
        D_ref[e, c] = -g
        M_ref[e, c] = 1.0
    assert np.array_equal(D.toarray(), D_ref)
    assert np.array_equal(M.toarray(), M_ref)


def _difference_2d_loop(grid):
    """Edge-by-edge enumeration of D and M, the reference of the vectorized one."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    a0, a1 = grid.accessible
    rows = []  # (D entries, M entries) per edge, each a list of (cell, value)
    for iy in range(ny):
        for ix in range(nx - 1):
            c = iy * nx + ix
            rows.append(([(c, -1.0 / hx), (c + 1, 1.0 / hx)], [(c, 0.5), (c + 1, 0.5)]))
    for iy in range(ny - 1):
        for ix in range(nx):
            c = iy * nx + ix
            rows.append(([(c, -1.0 / hy), (c + nx, 1.0 / hy)], [(c, 0.5), (c + nx, 0.5)]))
    sx, sy = np.sqrt(2.0) / hx, np.sqrt(2.0) / hy
    faces = [(iy * nx + ix, sx) for iy in range(ny) for ix in (0, nx - 1)]
    faces += [((ny - 1) * nx + ix, sy) for ix in range(nx)]
    faces += [(ix, sy) for ix in range(nx) if not a0 < (ix + 0.5) * hx < a1]
    rows += [([(c, -v)], [(c, 1.0)]) for c, v in faces]
    D = np.zeros((len(rows), grid.n_cells))
    M = np.zeros_like(D)
    for e, (dents, ments) in enumerate(rows):
        for c, v in dents:
            D[e, c] = v
        for c, v in ments:
            M[e, c] = v
    return D, M


def test_2d_difference_matches_loop_reference():
    for g in (Grid2D(nx=17, ny=9), Grid2D(nx=5, ny=4, Lx=2.0, Ly=1.5, accessible=(0.3, 1.1)),
              Grid2D(nx=6, ny=3, accessible=(0.0, 3.0)), Grid2D(nx=2, ny=2, accessible=(0.0, 0.1))):
        D, M = build_difference_2d(g)
        D_ref, M_ref = _difference_2d_loop(g)
        assert np.array_equal(D.toarray(), D_ref)
        assert np.array_equal(M.toarray(), M_ref)
        assert D.has_sorted_indices and M.has_sorted_indices


def test_2d_uniform_operator():
    g = Grid2D(nx=3, ny=3, Lx=1.0, Ly=1.0, accessible=(0.2, 0.8))
    op = assemble_operator_2d(ResistivityField(np.ones(9), g), g)
    A = op.A.toarray()
    assert np.allclose(A, A.T)
    assert sla.eigvalsh(A).max() < 0


def test_2d_coarse_grid_size():
    g = Grid2D(nx=90, ny=30)
    assert g.n_cells == 2700
    f = ResistivityField(np.ones(2700), g)
    op = assemble_operator_2d(f, g)
    assert op.A.shape == (2700, 2700)


def test_2d_inclusion_negative_definite(rng):
    g = Grid2D(nx=12, ny=6)
    r = np.ones(g.n_cells)
    r[30:40] = 2.0
    op = assemble_operator_2d(ResistivityField(r, g), g)
    lam_max = sla.eigvalsh(op.A.toarray()).max()
    assert lam_max < 0


def test_2d_interior_row_sums_vanish():
    g = Grid2D(nx=12, ny=6)
    op = assemble_operator_2d(ResistivityField(np.ones(g.n_cells), g), g)
    rowsums = np.asarray(op.A.sum(axis=1)).ravel()
    # cell well inside the domain, away from every Dirichlet face
    inner = 2 * 12 + 6
    assert rowsums[inner] == pytest.approx(0.0, abs=1e-9)


def test_2d_cell_derivative_finite_difference(rng):
    # six-by-six grid: the averaging map turns each cell derivative into a
    # short sum of rank-one edge terms; A is linear so the check is exact
    g = Grid2D(nx=6, ny=6, Lx=1.0, Ly=1.0, accessible=(0.25, 0.75))
    r = 1.0 + rng.random(g.n_cells)
    op = assemble_operator_2d(ResistivityField(r, g), g)
    D, M = op.D, op.averaging
    k = 14
    rp = r.copy()
    rp[k] += 1.0
    A1 = assemble_operator_2d(ResistivityField(rp, g), g).A.toarray()
    expected = np.zeros_like(A1)
    col = M.getcol(k).toarray().ravel()
    for e in np.flatnonzero(col):
        d_e = D.getrow(int(e)).toarray().ravel()
        expected -= col[e] * np.outer(d_e, d_e)
    assert np.allclose(A1 - op.A.toarray(), expected, atol=1e-12)


def test_source_vector_1d():
    g = Grid1D(50)
    sv = source_vector(g)
    assert sv.b[0] == pytest.approx(1.0 / np.sqrt(g.spacing))
    assert np.count_nonzero(sv.b) == 1
    assert sv.b @ sv.b == pytest.approx(1.0 / g.spacing)


def test_source_segments_disjoint():
    g = Grid2D(nx=40, ny=10)
    segs = uniform_segments(g, 8)
    assert len(segs) == 8
    for i, s in enumerate(segs):
        for t in segs[i + 1:]:
            assert not s.overlaps(t)
    # floor(cells-per-unit / n) cells when the raster aligns
    sv = source_vector(g, segs[0])
    assert len(sv.support) >= 1


@pytest.mark.parametrize("n", [0, -2, 2.5])
def test_uniform_segments_needs_one_segment(n):
    with pytest.raises(InvalidGridError):
        uniform_segments(Grid2D(nx=40, ny=10), n)


def test_overlapping_segments_rejected():
    g = Grid2D(nx=40, ny=10)
    with pytest.raises(InvalidGridError):
        Grid2D(nx=40, ny=10, segments=(BoundarySegment(1.0, 1.3),
                                       BoundarySegment(1.2, 1.5)))
    del g


def test_segment_outside_accessible():
    g = Grid2D(nx=40, ny=10)
    with pytest.raises(InvalidGridError):
        source_vector(g, BoundarySegment(0.2, 0.4))


def test_2d_source_normalization_cross_grid():
    # same physical segment on two rasters gives nearby response functionals
    from romres.forward import transfer_eval

    seg = BoundarySegment(1.4, 1.6)
    vals = []
    for nx, ny in ((60, 20), (90, 30)):
        g = Grid2D(nx=nx, ny=ny, segments=(seg,))
        op = assemble_operator_2d(ResistivityField(np.ones(g.n_cells), g), g)
        b = source_vector(g, seg).b
        vals.append(transfer_eval(op, b, s=40.0)[0])
    assert vals[0] == pytest.approx(vals[1], rel=0.1)


def test_operator_checks_its_shapes():
    # n is D's column count: a 1D operator needs bands of shapes (n,) and
    # (n - 1,) with n >= 2, a 2D one an n x n A.  The 1 x 1 band operator
    # used to raise a bare ValueError from dpttrf on its first solve, and a
    # non-square A one from SuperLU
    D1, D3 = sp.csr_matrix([[1.0]]), sp.identity(3, format="csr")
    main, off = -np.ones(3), np.ones(2)
    bad = [dict(D=D1, bands=(np.array([-1.0]), np.zeros(0))),
           dict(D=D3, bands=(main, np.ones(3))), dict(D=D3, bands=(main[:2], off)),
           dict(D=D3, bands=(main, off, off)), dict(D=D3, bands=(main[:, None], off)),
           dict(D=D3, A=sp.eye(3, 4, format="csr"), averaging=D3),
           dict(D=sp.eye(4, 5, format="csr"), A=np.ones((2, 3)), averaging=D3),
           dict(D=D3, A=np.ones((4, 4)), averaging=D3)]
    for kwargs in bad:
        with pytest.raises(InvalidGridError, match="needs bands of shapes"):
            SystemOperator(**kwargs)
    for kwargs in (dict(D=D3), dict(A=np.ones((3, 3)), bands=(main, off)),
                   dict(D=D3, bands=(main, off), averaging=D3)):
        with pytest.raises(InvalidGridError, match="needs D and either"):
            SystemOperator(**kwargs)
    assert SystemOperator(D=D3, bands=(main, off)).shape == (3, 3)
    assert SystemOperator(D=D3, A=-sp.identity(3, format="csr"), averaging=D3).shape == (3, 3)


@pytest.mark.parametrize("build", [
    lambda: Grid2D(3, 3, accessible=("a", 2.0)), lambda: Grid2D(3, 3, accessible=(1.0, 2.0, 2.5)),
    lambda: Grid2D(3, 3, accessible=1.0), lambda: Grid2D(3, 3, segments=((1.0, 1.5),)),
    lambda: BoundarySegment("a", 1.0), lambda: BoundarySegment(0.0, np.inf),
    lambda: BoundarySegment(np.array([0.0]), 1.0),
])
def test_grid_scalars_refused(build):
    # each raised a bare TypeError, ValueError or AttributeError from a
    # comparison, an unpacking or a field read, or built a segment whose
    # midpoint is not finite
    with pytest.raises(InvalidGridError):
        build()


def test_grid2d_keeps_accessible_as_a_tuple():
    # a list or array pair is stored as a tuple, so grids still compare and hash
    g = Grid2D(3, 3, accessible=np.array([1.0, 2.0]))
    assert g.accessible == (1.0, 2.0) and g == Grid2D(3, 3) and hash(g) == hash(Grid2D(3, 3))


def test_assemble_operator_2d_refuses_another_grid():
    # a grid of as many cells used to build that grid's operator silently (a
    # 4 x 4 unit field with Lx = 6 gave an A off by up to 29.3), and one of
    # another count raised numpy's bare ValueError from the matmul
    g = Grid2D(4, 4)
    f = ResistivityField(np.ones(g.n_cells), g)
    for other in (Grid2D(4, 4, Lx=6.0), Grid2D(5, 4), replace(g, segments=uniform_segments(g, 2))):
        with pytest.raises(InvalidGridError, match="not the field's grid"):
            assemble_operator_2d(f, other)
    A = assemble_operator_2d(f).A
    assert (assemble_operator_2d(f, Grid2D(4, 4)).A != A).nnz == 0
