"""Exception types raised by the library.

Every domain error derives from :class:`SemigroupError` so callers can catch
the whole family with one clause.
"""


class SemigroupError(Exception):
    """Base class for all domain errors."""


class EmptyInputError(SemigroupError):
    """An operation received an empty collection where content is required."""


class NotCofiniteError(SemigroupError):
    """The generators have gcd > 1, so the complement in the naturals is infinite."""


class NotAMemberError(SemigroupError):
    """A modulus or element was required to belong to the semigroup but does not."""


class NoGapsError(SemigroupError):
    """The operation needs a gap (the semigroup is all of the naturals)."""


class NotInCovarietyError(SemigroupError):
    """The semigroup is not an Arf semigroup with the expected Frobenius number."""


class InvalidFrobeniusError(SemigroupError):
    """The requested Frobenius number is out of range."""


class InvalidSequenceError(SemigroupError):
    """The integer tuple violates the Arf-sequence axioms."""


class ScaleLimitError(SemigroupError):
    """The request exceeds the size bounds this implementation supports."""
