"""Exception types shared across the package."""


class RomresError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(RomresError):
    """Grid parameters are inconsistent or too small."""


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


class StepFailureError(RomresError):
    """Positivity guard exhausted while shortening a Gauss-Newton step."""


class RegularizationError(RomresError):
    """Null-space correction system could not be solved."""


class DataUnusableError(RomresError):
    """Model-size reduction reached m = 0 without an admissible fit."""


class AmbiguousFitWarning(UserWarning):
    """Trailing singular values nearly coincide; fitted model is not unique."""
