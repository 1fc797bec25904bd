"""Exception types shared across the package."""

import operator


class RomresError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(RomresError):
    """Grid parameters, or a difference factor, operator or source vector on
    a grid, are inconsistent or too small; or an operator is of a raw kind."""


class PositivityError(RomresError):
    """A resistivity vector has nonpositive entries."""


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
