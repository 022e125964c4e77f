"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class NotInvertible(ArithmeticError):
    """Matrix (or the standard part of a dual matrix) is singular."""


class IndexTooLarge(ValueError):
    """Operation requires an index-1 matrix but the index is larger."""


class DoesNotExist(ArithmeticError):
    """Requested inverse does not exist.

    ``witness`` carries the nonzero obstruction matrix whose vanishing
    would have been equivalent to existence.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Inconsistent(ArithmeticError):
    """Linear system has no solution."""


class InconsistentStandardPart(Inconsistent):
    """Standard part of the consistency condition fails."""


class InconsistentDualPart(Inconsistent):
    """Range-membership part of the consistency condition fails."""


class InternalInvariantViolation(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


class ParseError(ValueError):
    """Matrix document is malformed.  ``location`` points at the offender."""

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
