"""Exception types shared across the library."""


class TempfairError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(TempfairError):
    """Malformed instance or allocation data."""


class BufferViolation(ValidationError):
    """A good was placed outside its allowed delay window."""


class PreconditionError(TempfairError):
    """An algorithm was invoked on an instance outside its supported class."""


class SolverFailure(TempfairError):
    """An algorithm could not complete on an instance it nominally accepts.

    Raised instead of returning a wrong allocation; the message carries
    enough state to reproduce the dead end.
    """


class ShareCapExceeded(TempfairError):
    """Maximin share requested over a pool too large for exact search."""


class SearchCapExceeded(TempfairError):
    """Instance too large for exhaustive existence search."""
