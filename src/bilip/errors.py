"""Exception types shared across the package."""


class BilipError(Exception):
    """Base class for all library errors."""


class InvalidMatrixError(BilipError, ValueError):
    """Matrix input is non-square or contains non-finite entries."""


class InvalidPlaneError(BilipError, ValueError):
    """Rotation plane indices are equal or out of range."""


class OffSphereError(BilipError, ValueError):
    """Point is farther than the tolerance from the unit sphere."""


class InvalidPointError(BilipError, ValueError):
    """Point input is malformed or contains non-finite entries."""


class DimensionMismatchError(BilipError, ValueError):
    """Operands have incompatible dimensions."""


class NotInvertibleError(BilipError, ValueError):
    """Map has no implemented or well-defined inverse."""


class SupportViolationError(BilipError, ValueError):
    """Compactly supported constructor received data that leaks support."""


class MonotonicityError(BilipError, ValueError):
    """Angle reparametrization parameter would break strict monotonicity."""


class EmptyGridError(BilipError, ValueError):
    """Triangulation resolution is zero."""


class OutOfDomainError(BilipError, ValueError):
    """Evaluation point lies outside the map's domain."""


class DegenerateSimplexError(BilipError, ValueError):
    """Simplex has (numerically) zero volume."""


class NotHomeomorphismError(BilipError, ValueError):
    """Piecewise-linear map fails the orientation (injectivity) check."""


class DisplacementTooLargeError(BilipError, ValueError):
    """Requested vertex displacement flips a simplex orientation."""


class InsufficientSamplesError(BilipError, RuntimeError):
    """Every sampled pair was degenerate; no estimate possible."""


class TrivialWitnessError(BilipError, ValueError):
    """Requested drift witnesses for a point fixed by the map."""


class NoWitnessError(BilipError, ValueError):
    """Profile has no detectable far-field rotation; no drift witnesses."""


class DisconnectedCloudError(BilipError, ValueError):
    """Neighborhood graph does not connect the point cloud."""


class EmptyRegionError(BilipError, ValueError):
    """Sampling region is empty."""


class MapFormatError(BilipError, ValueError):
    """Canonical map text could not be parsed."""


class ConfigError(BilipError, ValueError):
    """Scenario configuration file is malformed."""
