"""Exception types shared across the package, and the contract they keep.

The m-reduction and the Gauss-Newton loop decide what to do from an
exception's type, so a wrong type is a wrong decision.  Every public
function keeps this contract:

- An input error is refused where the input enters, at construction of the
  object that holds it or on entry to the function that takes it, before
  any work: with ``InvalidGridError`` for grids, segments, operators,
  sources and Krylov bases, ``PositivityError`` for resistivities, and
  ``RomresError`` itself for the other settings (time series, noise, fits,
  inversion and scenario settings).  A scalar that must be a number is
  refused when it is a string, complex, an array, NaN or infinite.
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


def _require_integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise RomresError(f"{name} must be an integer, got {value!r}") from None


def _require_real(name: str, value, error=RomresError, positive: bool = False):
    """``value`` itself if it is a finite real number (and > 0 if
    ``positive``); ``error`` otherwise, for a string, a complex number, an
    array, NaN or an infinity alike."""
    if not (isinstance(value, numbers.Real) and -math.inf < value < math.inf
            and (value > 0 or not positive)):
        kind = "positive and finite" if positive else "finite"
        raise error(f"{name} must be a {kind} real number, got {value!r}")
    return value
