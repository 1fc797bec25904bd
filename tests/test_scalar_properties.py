"""Property test of the scalar settings of the grid, segment, time-series,
noise, Laplace, resolvent, ratfit, cfrac and inversion constructors and
entry points: a string, a complex number, NaN, an infinity or an array in
place of a real number, and a fraction, a string, a complex number, NaN,
None or an array in place of an integer, is refused with a RomresError
subclass where it enters, never with a numpy or Python error or warning,
and never with a fit-validity error."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from romres.cfrac import eval_cfrac, pole_residue_to_cfrac, solve_fd_scheme  # noqa: E402
from romres.errors import InvalidGridError, RomresError, _require_real  # noqa: E402
from romres.forward import NoiseModel, TimeSeries  # noqa: E402
from romres.grids import (BoundarySegment, Grid1D, Grid2D, ResistivityField,  # noqa: E402
                          assemble_operator, build_difference_1d, source_vector,
                          uniform_segments)
from romres.inversion import (_FIT_ERRORS, data_fitting_moments,  # noqa: E402
                              gauss_newton_step, relative_error)
from romres.laplace import laplace_moments  # noqa: E402
from romres.optgrid import reference_grid  # noqa: E402
from romres.ratfit import (NodeFamily, PoleResidue, fit_pade_toeplitz,  # noqa: E402
                           node_family, nodes_geometric, to_pole_residue)

_SETTINGS = settings(derandomize=True, deadline=None, database=None)

# the moments of 1/(s + 1) + 1/(s + 3) at s = 0, and a Gauss-Newton problem
# with a one-to-one J
_TAU = np.array([4.0 / 3.0, -10.0 / 9.0, 28.0 / 27.0, -82.0 / 81.0])
_J = np.array([[1.0, 0.5], [0.0, 2.0]])
# 1/(s + 1) + 1/(s + 3), its continued fraction, and a 1D operator and source
_PR = PoleResidue(np.array([1.0, 3.0]), np.ones(2))
_CF = pole_residue_to_cfrac(_PR)
_GRID = Grid1D(5)
_OP = assemble_operator(ResistivityField(np.ones(5), _GRID), build_difference_1d(_GRID))
_B = source_vector(_GRID).b

# where the scalar goes, and the error type that refuses it there
_SLOTS = {
    "Grid2D.Lx": (lambda v: Grid2D(3, 3, Lx=v), InvalidGridError),
    "Grid2D.Ly": (lambda v: Grid2D(3, 3, Ly=v), InvalidGridError),
    "Grid2D.accessible[0]": (lambda v: Grid2D(3, 3, accessible=(v, 2.0)), InvalidGridError),
    "Grid2D.accessible[1]": (lambda v: Grid2D(3, 3, accessible=(1.0, v)), InvalidGridError),
    "BoundarySegment.lo": (lambda v: BoundarySegment(v, 1.0), InvalidGridError),
    "BoundarySegment.hi": (lambda v: BoundarySegment(0.5, v), InvalidGridError),
    "TimeSeries.step": (lambda v: TimeSeries(np.ones(4), v), RomresError),
    "nodes_geometric.s1": (lambda v: nodes_geometric(3, v, 2.0), RomresError),
    "nodes_geometric.ratio": (lambda v: nodes_geometric(3, 2.0, v), RomresError),
    "node_family.s_hat": (lambda v: node_family("single-node", 2, s_hat=v), RomresError),
    "fit_pade_toeplitz.shift": (lambda v: fit_pade_toeplitz(_TAU, shift=v), RomresError),
    "fit_pade_toeplitz.scale": (lambda v: fit_pade_toeplitz(_TAU, scale=v), RomresError),
    "data_fitting_moments.s_hat": (lambda v: data_fitting_moments(_TAU, v, 2), RomresError),
    "gauss_newton_step.alpha": (
        lambda v: gauss_newton_step(np.ones(2), _J, np.ones(2), v, J_pinv=np.linalg.pinv(_J)),
        RomresError),
    "relative_error": (lambda v: relative_error([1.0, v], [1.0, 1.0]), RomresError),
    "reference_grid.n_fine": (lambda v: reference_grid(3, n_fine=v), InvalidGridError),
    "NoiseModel.level": (lambda v: NoiseModel(v), RomresError),
    "laplace_moments.s_hat": (lambda v: laplace_moments(TimeSeries(np.ones(4), 0.5), v, 2),
                              RomresError),
    "shifted_solver.solve.s": (lambda v: _OP.solver.solve(v, _B), RomresError),
    "eval_cfrac": (lambda v: eval_cfrac(_CF, v), RomresError),
    "PoleResidue": (lambda v: _PR(v), RomresError),
    "PoleResidue.derivative": (lambda v: _PR.derivative(v), RomresError),
    "solve_fd_scheme": (lambda v: solve_fd_scheme(_CF, v), RomresError),
}
# the slots that evaluate at an array of points as well as at one
_ARRAY_SLOTS = {"eval_cfrac", "PoleResidue", "PoleResidue.derivative"}

# where the integer goes, and the error type that refuses it there
_INTEGER_SLOTS = {
    "Grid1D": (lambda v: Grid1D(v), InvalidGridError),
    "Grid2D.nx": (lambda v: Grid2D(v, 3), InvalidGridError),
    "Grid2D.ny": (lambda v: Grid2D(3, v), InvalidGridError),
    "uniform_segments": (lambda v: uniform_segments(Grid2D(6, 3), v), InvalidGridError),
    "NodeFamily.multiplicities": (lambda v: NodeFamily(np.array([3.0]), [v]), RomresError),
    "reference_grid.m": (lambda v: reference_grid(v, n_fine=99), RomresError),
}

_NOT_A_REAL = st.one_of(st.text(max_size=3), st.complex_numbers(allow_nan=False),
                        st.sampled_from([np.nan, np.inf, -np.inf, None]),
                        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2).map(np.array),
                        st.just(np.array(2.0)))
_NOT_AN_INTEGER = st.one_of(st.sampled_from([2.5, "a", 1j, np.nan, None]),
                            st.text(max_size=3), st.floats(allow_nan=False),
                            st.lists(st.integers(2, 5), min_size=2, max_size=3).map(np.array))


def _call(slot, value, slots=_SLOTS):
    """The slot's result, or the RomresError it raised; no warning escapes."""
    call, _ = slots[slot]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(value)
            if slot.startswith("fit_pade_toeplitz"):
                out = to_pole_residue(out)
            return out
        except RomresError as exc:
            return exc


@_SETTINGS
@given(slot=st.sampled_from(sorted(_SLOTS)), value=_NOT_A_REAL)
def test_a_scalar_that_is_not_a_finite_real_is_refused_where_it_enters(slot, value):
    # a 0-d array is a real entry of relative_error's arrays
    assume(not (slot == "relative_error" and isinstance(value, np.ndarray) and value.ndim == 0))
    # an array of finite points is one evaluation per point
    assume(not (slot in _ARRAY_SLOTS and isinstance(value, np.ndarray)
                and np.all(np.isfinite(value))))
    result = _call(slot, value)
    assert isinstance(result, _SLOTS[slot][1]) and not isinstance(result, _FIT_ERRORS), \
        f"{slot}={value!r} gave {result!r}"


@_SETTINGS
@given(slot=st.sampled_from(sorted(_INTEGER_SLOTS)), value=_NOT_AN_INTEGER)
def test_a_value_that_is_not_an_integer_is_refused_where_it_enters(slot, value):
    result = _call(slot, value, _INTEGER_SLOTS)
    assert isinstance(result, _INTEGER_SLOTS[slot][1]) and not isinstance(result, _FIT_ERRORS), \
        f"{slot}={value!r} gave {result!r}"


# a float32 or float16 scalar once leaked numpy's overflow warning from the
# range check, which cast float_info.max down to its type
_A_REAL = st.one_of(st.floats(allow_nan=False),
                    st.floats(allow_nan=False, width=32).map(np.float32),
                    st.floats(allow_nan=False, width=16).map(np.float16))


@_SETTINGS
@given(slot=st.sampled_from(sorted(_SLOTS)), value=_A_REAL)
def test_any_finite_float_raises_only_romres_errors(slot, value):
    _call(slot, value)


def test_narrow_floats_widen_and_huge_integers_are_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (np.float32(1e-3), np.float16(2.0), np.float32(3.4e38)):
            x = _require_real("x", value)
            assert type(x) is float and x == float(value)
        assert NoiseModel(np.float32(1e-3)).level == float(np.float32(1e-3))
        for value in (10 ** 400, -10 ** 400, np.float32(np.inf), np.float16(-np.inf)):
            with pytest.raises(RomresError, match="x must be a finite real number"):
                _require_real("x", value)
