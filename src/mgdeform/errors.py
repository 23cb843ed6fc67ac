"""Exception types shared across the package."""


class MgError(Exception):
    """Base class for all package errors."""


class DegenerateMetricError(MgError):
    """Ambient metric is singular or not positive definite at a query point."""


class EmptyHistoryError(MgError):
    """A transport operation was asked to integrate over an empty path history."""


class GeometryError(MgError):
    """Surface data violates a positivity or orientation requirement."""


class CoordinateError(MgError):
    """Surface parameterization is not conjugate isothermal within tolerance."""


class BoundaryDegeneracyError(MgError):
    """Boundary tangent data degenerates against the surface."""


class UnderResolvedError(MgError):
    """Boundary symbol winds too fast for the sampling to resolve."""


class NearSingularDenominatorError(MgError):
    """A 1 + N0 style denominator came too close to zero."""


class NoContractionError(MgError):
    """Observed successive-approximation ratio is >= 1."""


class ConvergenceError(MgError):
    """An iteration exceeded its iteration budget without converging."""


class UnsolvableDataError(MgError):
    """Negative-index problem data violates its solvability conditions."""


class FormatError(MgError):
    """A problem or config file does not follow the documented format."""


class ConfigError(MgError):
    """Configuration text failed to parse or validate.

    Carries a list of (line, column, message) tuples in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}, col {col}: {msg}" for ln, col, msg in self.errors)
        super().__init__(lines)


class DegenerateCurvatureError(MgError):
    """The deformed second-form determinant lost positivity."""
