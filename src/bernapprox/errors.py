"""Exception hierarchy and warning categories shared across the package."""


class BernApproxError(Exception):
    """Base class for all package errors."""


class ParameterError(BernApproxError, ValueError):
    """An argument violates a documented precondition."""


class CatalogError(ParameterError):
    """Unknown catalog entry; the message lists the valid names."""


class DomainEvaluationError(BernApproxError):
    """A target-function evaluator returned a non-finite value.

    Carries the offending abscissa in ``x``.
    """

    def __init__(self, message: str, x=None):
        super().__init__(message)
        self.x = x


class InsufficientDataError(BernApproxError):
    """Required metadata (sup bound, profile coverage, usable rows) is missing."""


class ConfigError(ParameterError):
    """Config file or override violates the strict schema."""


class ReportIOError(BernApproxError):
    """Report I/O failure; the message carries path and cause."""


class GridResolutionWarning(UserWarning):
    """A grid-based supremum needed a monotonicity fix larger than its slack."""


class BoundaryWarning(UserWarning):
    """A maximizer landed on a search boundary; the cap may be too small."""


class DivergenceWarning(UserWarning):
    """A tail remainder is too large relative to the partial integral."""
