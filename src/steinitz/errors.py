"""Exception types shared across the package, and the positive-integer guard."""


def _check_positive_int(x, what: str) -> None:
    """Raise InvalidArgumentError unless x is an int (not a bool) of at least 1."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise InvalidArgumentError(f"{what} must be a positive integer, got {x!r}")


class SteinitzError(Exception):
    """Base class for all library-specific errors."""


class InvalidArgumentError(SteinitzError, ValueError):
    """An argument lies outside the range an operation accepts.

    Still a ValueError, so library callers that catch ValueError keep working.
    """


class FactorizationError(SteinitzError):
    """An integer could not be factored within the configured trial bound."""


class NotPrimeError(SteinitzError):
    """A value that must be a prime number is not."""


class DenominatorDoesNotDivideError(SteinitzError):
    """Scaling by a rational would force a negative prime exponent."""


class RatioTooLargeError(SteinitzError):
    """A connecting ratio would exceed the supported size (MAX_RATIO_BITS)."""


class NotADivisorError(SteinitzError):
    """The requested matrix order does not divide the Steinitz number."""


class ZeroIdempotentError(SteinitzError):
    """The zero idempotent cuts out the zero corner, which has no matrix model."""


class SpanCapExceededError(SteinitzError):
    """A span computation was requested above the configured order cap."""


class ExpressionError(SteinitzError):
    """Base class for Steinitz expression text errors."""


class SteinitzSyntaxError(ExpressionError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DuplicatePrimeError(ExpressionError):
    """The same prime occurs in more than one term."""


class DuplicateRestError(ExpressionError):
    """More than one 'rest' term in a single expression."""
