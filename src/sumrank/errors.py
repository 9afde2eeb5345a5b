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


def _record(cls):
    """Class decorator: the record ``dataclass(frozen=True)`` would make,
    without importing ``dataclasses``, whose ``inspect`` and ``ast`` cost a
    CLI process milliseconds.  The fields are the class's own annotations, a
    class attribute being a field's default.  ``__init__``, ``__eq__`` and
    ``__hash__`` are compiled, as dataclass's are, so they run as fast.  A
    ``__post_init__`` sets a field through ``object.__setattr__``; a method
    the class defines itself stays.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    own = "".join(f"self.{name}, " for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    body += "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "\n    pass"

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}\n"
         f"def __eq__(self, other):\n    return ({own}) == ({own.replace('self.', 'other.')})"
         " if other.__class__ is self.__class__ else NotImplemented\n"
         f"def __hash__(self):\n    return hash(({own}))\n", {"_set": object.__setattr__}, methods)
    methods["__init__"].__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
