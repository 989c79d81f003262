"""Exception types raised by coupleclust.

Every error raised on purpose by this package derives from
:class:`CoupleclustError`, so callers can catch one type at the boundary.
Most subclasses also derive from :class:`ValueError` (bad inputs) or
:class:`RuntimeError` (algorithmic failure) to stay friendly to generic
handlers.
"""

from __future__ import annotations

__all__ = [
    "CoupleclustError",
    "NegativeEntry",
    "NonFiniteEntry",
    "SumNotOne",
    "ConditionHViolated",
    "DimensionMismatch",
    "NonPositiveDimension",
    "NotConverged",
    "NonPositiveEntry",
    "InconsistentTheorem",
    "NotEquivalenceRelation",
    "DegenerateDimensions",
    "EmptyGraph",
    "ZeroEps",
    "TooLarge",
    "EdgeListParseError",
]


class CoupleclustError(Exception):
    """Base class for all coupleclust errors."""


class NegativeEntry(CoupleclustError, ValueError):
    """A probability vector or matrix contains a negative entry."""


class NonFiniteEntry(CoupleclustError, ValueError):
    """A probability vector, joint or weight matrix contains a NaN or an
    infinite entry."""


class SumNotOne(CoupleclustError, ValueError):
    """A probability vector does not sum to 1 within tolerance."""


class ConditionHViolated(CoupleclustError, ValueError):
    """The additive coupling of these margins would have a negative cell.

    Raised when ``p * min(mu) + q * min(nu) < 1``, the feasibility condition
    for the indetermination coupling.
    """


class DimensionMismatch(CoupleclustError, ValueError):
    """Two arrays that must share a shape do not."""


class NonPositiveDimension(CoupleclustError, ValueError):
    """A dimension parameter must be a positive integer."""


class NotConverged(CoupleclustError, RuntimeError):
    """An iterative solver hit its iteration cap above tolerance.

    The partial :class:`~coupleclust.solvers.SolverReport` is attached as
    ``report`` for post-mortems.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NonPositiveEntry(CoupleclustError, ValueError):
    """A matrix that must be strictly positive has an entry <= 0."""


class InconsistentTheorem(CoupleclustError, RuntimeError):
    """Equivalent characterizations of a matrix class disagreed.

    This signals an implementation bug, not bad data: the checks compared
    are mathematically equivalent.
    """


class NotEquivalenceRelation(CoupleclustError, ValueError):
    """A 0/1 matrix is not symmetric, reflexive, and transitive."""


class DegenerateDimensions(CoupleclustError, ValueError):
    """An operation requires at least two rows and two columns."""


class EmptyGraph(CoupleclustError, ValueError):
    """The graph has zero total weight, so degree-normalized quantities
    are undefined."""


class ZeroEps(CoupleclustError, ValueError):
    """Edge probability eps = 0 leaves the multiplicative bias bound
    undefined."""


class TooLarge(CoupleclustError, ValueError):
    """Exhaustive partition enumeration is capped at n <= 10 nodes."""


class EdgeListParseError(CoupleclustError, ValueError):
    """An edge-list file line failed to parse; the message carries the
    1-based line number."""
