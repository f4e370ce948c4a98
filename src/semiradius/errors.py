"""Exception types raised by the semiradius package, and the integer check
of configuration counts."""

import operator

__all__ = [
    "SemiradiusError",
    "NotHermitian",
    "NotPSD",
    "NoConvergence",
    "NonSquare",
    "DimensionMismatch",
    "DegenerateSpace",
    "NotInBA",
    "NotABounded",
    "MembershipViolated",
    "PreconditionFailed",
    "UnknownCheck",
    "EmptyInput",
    "BadConfig",
    "ParseError",
    "integral",
]


class SemiradiusError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SemiradiusError):
    """Input matrix is not Hermitian within the allowed tolerance."""


class NotPSD(SemiradiusError):
    """Input matrix has an eigenvalue below the allowed negative tolerance."""


class NoConvergence(SemiradiusError):
    """The underlying eigenvalue or singular value iteration failed."""


class NonSquare(SemiradiusError):
    """A square matrix was required."""


class DimensionMismatch(SemiradiusError):
    """Operands have incompatible shapes."""


class DegenerateSpace(SemiradiusError):
    """The requested quantity is undefined when the seed matrix is zero."""


class NotInBA(SemiradiusError):
    """Operator has no adjoint with respect to the seed matrix."""


class NotABounded(SemiradiusError):
    """Operator is unbounded with respect to the seminorm."""


class MembershipViolated(SemiradiusError):
    """A check received an operand that fails its membership requirement."""


class PreconditionFailed(SemiradiusError):
    """A check's hypothesis does not hold for the supplied operands."""


class UnknownCheck(SemiradiusError):
    """No catalog entry exists for the requested check id."""


class EmptyInput(SemiradiusError):
    """A nonempty collection was required."""


class BadConfig(SemiradiusError):
    """Configuration values are out of range or inconsistent."""


class ParseError(SemiradiusError):
    """An instance document is malformed; the message names the bad field."""


def integral(name: str, value) -> int:
    """value as an int, for a configuration count: BadConfig unless it is an
    integer (numpy integers pass, floats such as 64.5 or 64.0 do not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadConfig(f"{name} must be an integer, got {value!r}") from None
