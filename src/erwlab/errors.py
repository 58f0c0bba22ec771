"""Exception types shared across the package."""


class ErwLabError(Exception):
    """Base class for the errors this package raises: refused arguments
    and numeric failures."""


class DomainError(ErwLabError, ValueError):
    """An argument outside the function's domain, or not a number of the
    kind it takes (a str, a float count, a number beyond the double
    range)."""


class QuadratureError(ErwLabError):
    """Adaptive quadrature did not reach the requested accuracy.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class BracketingError(ErwLabError):
    """No sign change found on the search interval."""


class ConsistencyError(ErwLabError):
    """Independent evaluation routes disagree beyond tolerance."""


class CancellationError(ErwLabError):
    """Alternating-series cancellation exceeded the precision budget.

    Evaluate again with ``precision_digits > 0`` to use the high-precision
    mode instead.
    """


class ConvergenceError(ErwLabError):
    """Series did not converge within the configured term budget."""


class SeriesOverflowError(ErwLabError):
    """Requested value exceeds the representable double range; use the
    log-scale variant of the operation."""
