"""Exception types shared across the package."""


class CondBandsError(Exception):
    """Base class for all library errors."""


class InsufficientLocalData(CondBandsError):
    """Raised when a local fit has no usable mass near the target point."""


class InvalidBandwidth(CondBandsError):
    """Raised when a bandwidth falls outside the open interval (0, 1)."""


class NoCrossing(CondBandsError):
    """Raised when a distribution curve never reaches the requested level."""


class YRangeViolation(CondBandsError):
    """Raised when responses fall outside the declared response interval."""


class ZeroJointDensity(CondBandsError):
    """Raised when a quantile band is requested at a point where the joint
    density estimate (or oracle) vanishes, or a density is not finite."""


class QuadratureFailure(CondBandsError):
    """Raised when adaptive quadrature cannot meet the requested tolerance."""


class ParseError(CondBandsError):
    """Raised on malformed input data; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyInput(CondBandsError):
    """Raised when an input file contains no data rows."""
