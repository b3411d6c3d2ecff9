"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all package errors."""


class ParameterError(LabError, ValueError):
    """Invalid parameter combination (e.g. inflation with r > p)."""


class BoundaryError(LabError, ValueError):
    """A point required to lie on (or inside) the boundary does not."""


class DegenerateGradientError(LabError):
    """The defining-function gradient vanishes where it must not."""


class CapabilityError(LabError):
    """Requested computation is not available for this domain/measure."""


class NumericError(LabError):
    """A numeric evaluation produced NaN/Inf; carries the offending node if known."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SchemaError(LabError, ValueError):
    """Experiment configuration failed validation; message names the field."""
