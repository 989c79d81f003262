"""Exception types raised by coupleclust.

Every error raised on purpose by this package derives from
:class:`CoupleclustError`, so callers can catch one type at the boundary.
Most subclasses also derive from :class:`ValueError` (bad inputs) or
:class:`RuntimeError` (algorithmic failure) to stay friendly to generic
handlers.
"""

from __future__ import annotations

import math
import operator
from numbers import Real

import numpy as np

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
    infinite entry, or one that is not a real number at all."""


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
    """A count parameter (a dimension, sample count, seed, ...) is not an
    integer, or is below its minimum."""


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
    """Edge probability eps = 0 leaves the multiplicative bias bound 1/eps
    undefined; so does an eps so small (below about 5.6e-309) that 1/eps
    overflows."""


class TooLarge(CoupleclustError, ValueError):
    """A size past a cap: exhaustive partition enumeration takes n <= 10
    nodes; a graph takes n <= 3037000499 nodes, so that its row-major pair
    codes ``i*n + j`` fit an int64; ``empirical_bias_samples`` takes
    n <= 4294967298, so that the ``C(n-2, 2)`` pairs among the other nodes
    fit one too."""


class EdgeListParseError(CoupleclustError, ValueError):
    """An edge-list file line failed to parse; the message carries the
    1-based line number."""


def _as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python int, if it is an integer of at least
    ``minimum``: a Python or numpy integer, as :func:`operator.index`
    accepts, not a float such as 3.0 and not a bool (which
    :func:`operator.index` reads as 0 or 1). Otherwise
    :class:`NonPositiveDimension` naming the parameter."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise NonPositiveDimension(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


def _as_generator(rng) -> np.random.Generator:
    """The generator a sampler draws from, given its ``rng`` argument:
    ``rng`` itself if it is a :class:`numpy.random.Generator`, a freshly
    seeded one if it is None, else one seeded with ``rng``, which must then
    be an integer >= 0 by :func:`_as_count` (so a float, a string or a
    negative number raises :class:`NonPositiveDimension`)."""
    if rng is None or isinstance(rng, np.random.Generator):
        return np.random.default_rng(rng)
    return np.random.default_rng(_as_count(rng, "rng", minimum=0))


def _as_tolerance(value, name: str = "tol", allow_zero: bool = True) -> float:
    """``value`` as a float, if it is a finite real number at least 0
    (above 0 unless ``allow_zero``), not a bool; otherwise
    :class:`ValueError`."""
    real = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    if not real or value < 0 or (value == 0 and not allow_zero):
        bound = ">=" if allow_zero else ">"
        raise ValueError(f"{name} must be a finite real number {bound} 0, got {value!r}")
    return float(value)


def _as_reals(values, what: str) -> np.ndarray:
    """``values`` as a float array, if it holds real numbers only: a numpy
    array of integer or float dtype, or a nest of Python or numpy reals.
    Strings, bools, complex numbers, other objects, a dict or a ragged nest
    of lists raise :class:`NonFiniteEntry`. Shape and finiteness are the
    caller's to check."""
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except ValueError:  # a nest of arrays numpy cannot shape: not numbers
        arr = np.array(None, dtype=object)
    numeric = arr.dtype.kind in "iuf" or (
        arr.dtype.kind == "O"
        and all(isinstance(x, Real) and not isinstance(x, bool) for x in arr.flat)
    )
    if not numeric:
        raise NonFiniteEntry(f"{what} must be finite real numbers, got {values!r:.80}")
    return arr.astype(float, copy=False)


def _as_finite_reals(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a float array, checked in this order: numbers only, as
    :func:`_as_reals` rules, nonempty with ``ndim`` dimensions
    (:class:`DimensionMismatch`), every entry finite
    (:class:`NonFiniteEntry`)."""
    arr = _as_reals(values, what)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatch(f"{what} must form a nonempty {ndim}-d array")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry(f"{what} must be finite")
    return arr


def _json_object(data, keys: tuple[str, ...], what: str) -> dict:
    """``data``, a decoded JSON value, if it is an object holding ``keys``;
    otherwise :class:`ValueError` naming ``what`` and the problem."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} must contain the keys {list(keys)}; missing {missing}")
    return data


def _as_integers(values, what: str) -> np.ndarray:
    """``values`` as an array, if its dtype is an integer type (an empty
    array passes whatever its dtype); otherwise :class:`ValueError`."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr
