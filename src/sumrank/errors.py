"""Exception hierarchy.

Two top-level families matter to callers: ``UsageError`` covers bad inputs
and exceeded enumeration guards (CLI exit code 1), ``InvariantViolation``
covers contradictions of guaranteed identities (CLI exit code 2, always a
bug somewhere).  Three classes for bad argument values, ``UnknownChoice``,
``BadDegree`` and ``SingularFactor``, also derive from ``ValueError``, so
callers that catch ``ValueError`` still catch them; the others do not.
Each constructor checks the numbers it holds: one that is not an int in
range (a bool or a float included) is refused, never coerced.
"""

from __future__ import annotations

__all__ = [
    "SumrankError",
    "UsageError",
    "InvariantViolation",
    "NotPrime",
    "ReducibleModulus",
    "OrderTooLarge",
    "ContextMismatch",
    "DivideByZero",
    "ShapeMismatch",
    "AmbientMismatch",
    "EnumerationTooLarge",
    "TrivialCode",
    "ZeroMatrix",
    "DimensionMismatch",
    "DimensionTooSmall",
    "AInV",
    "SearchExhausted",
    "ClassificationNotApplicable",
    "RankOutOfRange",
    "UnequalRowDims",
    "NotLinearOverSubfield",
    "GammaNotBasis",
    "GroupTooLarge",
    "IllegalTranspose",
    "DimNotAdmissible",
    "ParseError",
    "UnknownChoice",
    "BadDegree",
    "SingularFactor",
]


class SumrankError(Exception):
    """Base class for every error raised by this package."""


class UsageError(SumrankError):
    """Bad input, unmet precondition, or exceeded enumeration guard."""


class InvariantViolation(SumrankError):
    """A guaranteed identity failed.  Never a legal outcome."""


class NotPrime(UsageError):
    pass


class ReducibleModulus(UsageError):
    pass


class OrderTooLarge(UsageError):
    pass


class ContextMismatch(UsageError):
    pass


class DivideByZero(UsageError):
    pass


class ShapeMismatch(UsageError):
    pass


class AmbientMismatch(UsageError):
    pass


class EnumerationTooLarge(UsageError):
    pass


class TrivialCode(UsageError):
    pass


class ZeroMatrix(UsageError):
    pass


class DimensionMismatch(UsageError):
    pass


class DimensionTooSmall(UsageError):
    pass


class AInV(UsageError):
    pass


class SearchExhausted(InvariantViolation):
    """A search with a guaranteed witness ran out of candidates."""


class ClassificationNotApplicable(UsageError):
    pass


class RankOutOfRange(UsageError):
    pass


class UnequalRowDims(UsageError):
    pass


class NotLinearOverSubfield(UsageError):
    pass


class GammaNotBasis(UsageError):
    pass


class GroupTooLarge(UsageError):
    pass


class IllegalTranspose(UsageError):
    pass


class DimNotAdmissible(UsageError):
    pass


class ParseError(UsageError):
    pass


class UnknownChoice(UsageError, ValueError):
    """An unknown variant, method or support kind."""


class BadDegree(UsageError, ValueError):
    """A field extension degree below 1."""


class SingularFactor(UsageError, ValueError):
    """An isometry factor that is not invertible."""
