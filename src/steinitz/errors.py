"""Exception types, how a message shows a value, and the one rule for each scalar argument."""

from fractions import Fraction

#: Longest number, in digits, that the expression text may contain.  Every finite exponent,
#: read from text, given to the constructor or computed by ``mul`` and ``scale``, is below
#: 10**MAX_NUMBER_DIGITS, so each value prints under CPython's 4300-digit int-to-str limit
#: as text that parses back.  Error messages show an int up to it.
MAX_NUMBER_DIGITS = 1000

#: 10**MAX_NUMBER_DIGITS: every finite exponent is below it, and an error message prints
#: an int below it in full.
_NUMBER_LIMIT = 10**MAX_NUMBER_DIGITS


def _shown(x) -> str:
    """A value the caller supplied, as an error message shows it: str for numbers, else repr.

    An int of more than MAX_NUMBER_DIGITS digits, alone or in a Fraction, is
    shown by its bit length: printing it could pass CPython's int-to-str
    limit, which raises a ValueError in place of the message.
    """
    if isinstance(x, Fraction):
        return _shown(x.numerator) + (f"/{_shown(x.denominator)}" if x.denominator > 1 else "")
    if isinstance(x, int) and abs(x) >= _NUMBER_LIMIT:
        return f"a {'negative ' * (x < 0)}{x.bit_length()}-bit number"
    return repr(x)


def _is_exact(x) -> bool:
    """Whether x is an exact rational: an int or a Fraction, not a bool."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _check_int(x, what: str) -> None:
    """Raise ArgumentTypeError unless x is an int (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ArgumentTypeError(f"{what} must be an int, got {x!r}")


def _check_positive_int(x, what: str) -> None:
    """Raise ArgumentTypeError unless x is an int, InvalidArgumentError if it is below 1."""
    _check_int(x, what)
    if x < 1:
        raise InvalidArgumentError(f"{what} must be a positive integer, got {_shown(x)}")


class SteinitzError(Exception):
    """Base class for all library-specific errors."""


class InvalidArgumentError(SteinitzError, ValueError):
    """An argument lies outside the range an operation accepts.

    Still a ValueError, so library callers that catch ValueError keep working.
    """


class ArgumentTypeError(InvalidArgumentError, TypeError):
    """A scalar argument of the wrong type, such as a float; also a TypeError."""


class FactorizationError(SteinitzError):
    """An integer could not be factored within the configured trial bound."""


class NotPrimeError(SteinitzError):
    """A value that must be a prime number is not."""


class DenominatorDoesNotDivideError(SteinitzError):
    """Scaling by a rational would force a negative prime exponent."""


class RatioTooLargeError(SteinitzError):
    """A connecting ratio or an exact integer would exceed MAX_RATIO_BITS bits."""


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
