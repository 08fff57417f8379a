"""Exception types shared across the package."""


class NonsieveError(Exception):
    """Base class for all errors raised by this package."""


class NonIntegerValuedError(NonsieveError):
    """A polynomial failed the positive-integer-valued check."""


class NotMonotoneError(NonsieveError):
    """A polynomial is not strictly increasing where an engine requires it."""


class ExactRationalUnsupportedError(NonsieveError):
    """Exact mode was requested with a non-integer exponent."""


class BoundViolationError(NonsieveError):
    """A computed residual escaped the open interval (-1, 0).

    Mathematically impossible for valid inputs, so this always signals a
    numerical or input fault.
    """


class LimitsTooLargeError(NonsieveError):
    """An exponential-cost oracle was asked to run outside its safe bounds."""


class OutOfRangeError(NonsieveError):
    """A value is outside the range the operation is certified for."""

