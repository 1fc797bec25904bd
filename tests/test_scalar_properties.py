"""Property test of the scalar settings of the grid, segment, time-series,
ratfit and inversion constructors and entry points: a string, a complex
number, NaN, an infinity or an array in place of a real number is refused
with a RomresError subclass where it enters, never with a numpy or Python
error or warning, and never with a fit-validity error."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from romres.errors import InvalidGridError, RomresError  # noqa: E402
from romres.forward import TimeSeries  # noqa: E402
from romres.grids import BoundarySegment, Grid2D  # noqa: E402
from romres.inversion import (_FIT_ERRORS, data_fitting_moments,  # noqa: E402
                              gauss_newton_step, relative_error)
from romres.optgrid import reference_grid  # noqa: E402
from romres.ratfit import (fit_pade_toeplitz, node_family, nodes_geometric,  # noqa: E402
                           to_pole_residue)

_SETTINGS = settings(derandomize=True, deadline=None, database=None)

# the moments of 1/(s + 1) + 1/(s + 3) at s = 0, and a Gauss-Newton problem
# with a one-to-one J
_TAU = np.array([4.0 / 3.0, -10.0 / 9.0, 28.0 / 27.0, -82.0 / 81.0])
_J = np.array([[1.0, 0.5], [0.0, 2.0]])

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
}

_NOT_A_REAL = st.one_of(st.text(max_size=3), st.complex_numbers(allow_nan=False),
                        st.sampled_from([np.nan, np.inf, -np.inf, None]),
                        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2).map(np.array),
                        st.just(np.array(2.0)))


def _call(slot, value):
    """The slot's result, or the RomresError it raised; no warning escapes."""
    call, _ = _SLOTS[slot]
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
    result = _call(slot, value)
    assert isinstance(result, _SLOTS[slot][1]) and not isinstance(result, _FIT_ERRORS), \
        f"{slot}={value!r} gave {result!r}"


@_SETTINGS
@given(slot=st.sampled_from(sorted(_SLOTS)), value=st.floats(allow_nan=False))
def test_any_finite_float_raises_only_romres_errors(slot, value):
    _call(slot, value)
