"""Exception types shared across the package, and the contract they keep.

The m-reduction and the Gauss-Newton loop decide what to do from an
exception's type, so a wrong type is a wrong decision.  Every public
function keeps this contract:

- An input error is refused where the input enters, at construction of the
  object that holds it or on entry to the function that takes it, before
  any work: with ``InvalidGridError`` for grids, segments, operators,
  sources and Krylov bases, ``PositivityError`` for resistivities, and
  ``RomresError`` itself for the other settings (time series, noise, fits,
  inversion and scenario settings).  A value is checked once, by the type
  that holds it, and a function that receives that type does not check it
  again.  The ``_require_*`` and ``_*_array`` parsers below are the only
  parse of a setting, flag or array from outside, and a type stores what
  its parser returns (an int, a float, a float or int array); so does
  ``ExperimentConfig``, which also keeps the objects it builds.
- The fit-validity errors are the three that reducing m can cure,
  ``SpectralValidityError``, ``AdmissibilityError`` and ``DegeneracyError``
  (``inversion._FIT_ERRORS``).  They report what a fit or the chain
  computed, never a caller's setting; a ``ContinuedFraction`` whose
  coefficients are not all positive and finite is inadmissible
  (``AdmissibilityError``), whoever built it.  The other subclasses report
  what a computation met: a collapsing basis, an indefinite projection, an
  exhausted step, a failed correction, data that no model fits.
- No numpy or scipy exception or warning escapes a public function, and no
  public function returns NaN for a non-finite input.
"""

import math
import numbers
import operator
import sys

import numpy as np


class RomresError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(RomresError):
    """Grid parameters, or a difference factor, operator or source vector on
    a grid, are inconsistent or too small; or an operator is of a raw kind."""


class PositivityError(RomresError):
    """A resistivity vector has entries that are not finite and positive."""


class SpectralValidityError(RomresError):
    """A fitted rational model has invalid poles or residues.

    Carries ``index``, the first offending pole/residue position (0-based),
    or -1 when the defect is global (e.g. complex roots).
    """

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


class AdmissibilityError(RomresError):
    """Continued-fraction coefficients are not all positive."""

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


class DegeneracyError(RomresError):
    """A computation hit coinciding poles / vanishing denominators."""


class BasisCollapseError(RomresError):
    """Snapshot matrix is numerically rank deficient; reduce m."""


class ProjectionError(RomresError):
    """Galerkin projection of the operator is not negative definite."""


class StepFailureError(RomresError):
    """Positivity guard exhausted while shortening a Gauss-Newton step."""


class RegularizationError(RomresError):
    """Null-space correction system could not be solved."""


class DataUnusableError(RomresError):
    """Model-size reduction reached m = 0 without an admissible fit."""


class AmbiguousFitWarning(UserWarning):
    """Trailing singular values nearly coincide; fitted model is not unique."""


def _require_integer(name: str, value, error=RomresError, low: int | None = None) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise error(f"{name} must be {bound}, got {value}")
    return value


def _require_real(name: str, value, error=RomresError, positive=False, nonnegative=False):
    """``value`` as a float if it is a finite real number, > 0 if ``positive`` and
    >= 0 if ``nonnegative``; ``error`` otherwise (a string, complex, NaN...)."""
    # float first: it holds np.float64 too, and the abstract-class test is ten times slower;
    # the bound is compared after float(): numpy casts it down, and overflows, for a float32
    try:
        x = float(value) if isinstance(value, (float, numbers.Real)) else math.nan
    except OverflowError:  # an integer past the float range
        raise error(f"{name} must be a finite real number, got {value!r}") from None
    if not (abs(x) <= sys.float_info.max and (x > 0 or not positive)
            and (x >= 0 or not nonnegative)):
        kind = ("positive and finite" if positive else
                "finite and nonnegative" if nonnegative else "finite")
        raise error(f"{name} must be a {kind} real number, got {value!r}")
    return x


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise RomresError(f"{name} must be true or false, got {value!r}")
    return value


def _real_array(name: str, value, error=RomresError, expected: str = "a real vector",
                dtype=float, finite=False) -> np.ndarray:
    """``value`` as a float (or ``dtype``) array, itself if it is one; ``error``,
    saying what is ``expected``, if it is ragged, its entries are not real numbers
    (integers for ``dtype=int``, so 2.0 is refused) or, if ``finite``, not finite."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged nested sequence
        raise error(f"{name} is not an array ({expected}): {exc}") from None
    if array.dtype.kind not in ("biuf" if dtype is float else "biu"):
        raise error(f"{name} of shape {array.shape} and dtype {array.dtype} does not match "
                    f"{expected}")
    if finite and not np.all(np.isfinite(array)):
        raise error(f"{name} is not finite ({expected})")
    return np.asarray(array, dtype=dtype)


def _integer_array(name: str, value, error=RomresError, expected: str = "an integer vector"):
    return _real_array(name, value, error, expected, dtype=int)
