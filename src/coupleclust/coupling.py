"""Canonical couplings of two fixed margins.

Given probability vectors ``mu`` (length p) and ``nu`` (length q), two joint
distributions on the p x q grid play a special role among all joints with
those margins:

* the *independence* coupling ``pi[u, v] = mu[u] * nu[v]``, which maximizes
  entropy, and
* the *indetermination* coupling
  ``pi[u, v] = mu[u] / q + nu[v] / p - 1 / (p * q)``, which minimizes the
  squared deviation from the uniform matrix.

The indetermination formula is only a probability when
``p * min(mu) + q * min(nu) >= 1`` (called Condition H here); otherwise some
cell goes negative and :func:`couple_indetermination` refuses.

The module also carries the two cost functionals, the expected squared
distance between the couplings under flat Dirichlet margins (closed form and
Monte Carlo), and JSON (de)serialization for the involved types. All types
are immutable; arrays handed out are marked read-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._record import Record
from .errors import (
    ConditionHViolated,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    SumNotOne,
    _as_count,
    _as_finite_reals,
    _as_generator,
    _json_object,
)

__all__ = [
    "Margin",
    "JointDistribution",
    "DeltaEstimate",
    "validate_margin",
    "uniform_margin",
    "couple_independence",
    "couple_indetermination",
    "indetermination_cells",
    "check_condition_h",
    "entropy_cost",
    "least_squares_cost",
    "squared_distance",
    "delta_closed_form",
    "sample_dirichlet",
    "delta_monte_carlo",
]

#: Tolerance for "sums to one" on user-provided margins.
MARGIN_SUM_TOL = 1e-9

#: Tolerance for internal margin-equality invariants.
MARGIN_EQ_TOL = 1e-12

#: Slack applied to Condition H and to cell nonnegativity, so exact-boundary
#: margins (minimum cell exactly 0) survive float rounding.
CONDITION_H_SLACK = 1e-12


def _probabilities(values, ndim: int, what: str, slack: float = 0.0) -> np.ndarray:
    """``values`` as a finite float array with ``ndim`` dimensions, as
    :func:`~coupleclust.errors._as_finite_reals` checks, then none below
    ``-slack``."""
    arr = _as_finite_reals(values, ndim, what)
    low = float(arr.min())
    if low < -slack:
        raise NegativeEntry(f"{what} must be nonnegative, got minimum {low!r}")
    return arr


@dataclass(frozen=True)
class Margin(Record):
    """A validated probability vector.

    Construct via :func:`validate_margin` (or :func:`sample_dirichlet`),
    which enforce nonnegativity and unit sum.

    Attributes
    ----------
    probs : numpy.ndarray
        Read-only vector of length ``p``; entries finite and >= 0, sums to
        1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        _probabilities(self.probs, 1, "margin entries")
        probs = self._own("probs")
        if abs(float(probs.sum()) - 1.0) > MARGIN_EQ_TOL:
            raise SumNotOne(f"margin sums to {float(probs.sum())!r}, expected 1")

    @property
    def p(self) -> int:
        return self.probs.size

    @classmethod
    def from_json_dict(cls, data: dict) -> "Margin":
        return validate_margin(_json_object(data, ("probs",), "margin")["probs"])

    @classmethod
    def from_json(cls, text: str) -> "Margin":
        return cls.from_json_dict(json.loads(text))


def validate_margin(probs: Sequence[float] | np.ndarray) -> Margin:
    """Validate and exactly renormalize a probability vector.

    Parameters
    ----------
    probs : array_like
        Candidate probabilities. Entries must be nonnegative and sum to 1
        within 1e-9; the vector is then renormalized by its float sum so the
        stored margin sums to 1 at machine precision.

    Returns
    -------
    Margin

    Raises
    ------
    NonFiniteEntry
        If any entry is NaN or infinite.
    NegativeEntry
        If any entry is negative.
    SumNotOne
        If the sum is off by more than 1e-9.
    """
    arr = _probabilities(probs, 1, "margin entries")
    total = float(arr.sum())
    if abs(total - 1.0) > MARGIN_SUM_TOL:
        raise SumNotOne(f"margin sums to {total!r}, expected 1 within {MARGIN_SUM_TOL}")
    return Margin(arr / total)


def uniform_margin(p: int) -> Margin:
    """The uniform margin of length ``p``."""
    p = _as_count(p, "p")
    return Margin(np.full(p, 1.0 / p))


@dataclass(frozen=True)
class JointDistribution(Record):
    """A p x q joint probability matrix with cached margins.

    Attributes
    ----------
    cells : numpy.ndarray
        Read-only (p, q) matrix; entries finite and >= 0, total 1 within
        1e-12.
    row_margin, col_margin : Margin
        Margins derived from ``cells`` (they match the row and column sums
        within 1e-12 by construction).
    """

    cells: np.ndarray
    row_margin: Margin
    col_margin: Margin

    def __post_init__(self):
        _probabilities(self.cells, 2, "joint cells")
        cells = self._own("cells")
        rows = cells.sum(axis=1)
        cols = cells.sum(axis=0)
        if (
            np.max(np.abs(rows - self.row_margin.probs)) > MARGIN_EQ_TOL
            or np.max(np.abs(cols - self.col_margin.probs)) > MARGIN_EQ_TOL
        ):
            raise DimensionMismatch("margins do not match cell sums")

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "JointDistribution":
        """Build a joint from raw cells, deriving both margins.

        Cells in ``[-1e-12, 0)`` are treated as rounding dust and clipped to
        exact 0; genuinely negative cells raise :class:`NegativeEntry`, NaN
        or infinite ones :class:`NonFiniteEntry`.
        """
        arr = _probabilities(cells, 2, "joint cells", slack=CONDITION_H_SLACK)
        arr = np.where(arr < 0, 0.0, arr)
        total = float(arr.sum())
        if abs(total - 1.0) > MARGIN_SUM_TOL:
            raise SumNotOne(f"cells sum to {total!r}, expected 1")
        arr = arr / total
        return cls(arr, Margin(arr.sum(axis=1)), Margin(arr.sum(axis=0)))

    @property
    def p(self) -> int:
        return self.cells.shape[0]

    @property
    def q(self) -> int:
        return self.cells.shape[1]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "cells": self.cells.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointDistribution":
        _json_object(data, ("p", "q", "cells"), "joint")
        pi = cls.from_cells(data["cells"])
        if pi.cells.shape != (_as_count(data["p"], "p"), _as_count(data["q"], "q")):
            raise DimensionMismatch(
                f"cells shape {pi.cells.shape} does not match p={data['p']}, q={data['q']}"
            )
        return pi

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        return cls.from_json_dict(json.loads(text))


def couple_independence(mu: Margin, nu: Margin) -> JointDistribution:
    """Outer-product coupling ``pi[u, v] = mu[u] * nu[v]``.

    This is the maximum-entropy joint among all joints with margins
    ``(mu, nu)``.
    """
    cells = np.outer(mu.probs, nu.probs)
    return JointDistribution(cells, mu, nu)


def indetermination_cells(mu: Margin, nu: Margin) -> np.ndarray:
    """Raw additive-coupling matrix ``mu[u]/q + nu[v]/p - 1/(p*q)``.

    No nonnegativity check is applied; callers that need a probability
    matrix should use :func:`couple_indetermination`. The unchecked form is
    what the Monte-Carlo distance estimator and the Monge cross-checks need.
    """
    p, q = mu.p, nu.p
    return mu.probs[:, None] / q + nu.probs[None, :] / p - 1.0 / (p * q)


def couple_indetermination(mu: Margin, nu: Margin) -> JointDistribution:
    """Additive coupling ``pi[u, v] = mu[u]/q + nu[v]/p - 1/(p*q)``.

    This is the joint with margins ``(mu, nu)`` closest to the uniform
    matrix in squared distance, provided it is nonnegative.

    Raises
    ------
    ConditionHViolated
        If some cell would be negative, i.e.
        ``p * min(mu) + q * min(nu) < 1``. Cells within 1e-12 below zero are
        rounding dust and are clipped to exact 0 instead.
    """
    cells = indetermination_cells(mu, nu)
    low = float(cells.min())
    if low < -CONDITION_H_SLACK:
        u, v = np.unravel_index(int(np.argmin(cells)), cells.shape)
        slack = float(mu.p * mu.probs.min() + nu.p * nu.probs.min())
        raise ConditionHViolated(
            f"cell ({u}, {v}) would be {low!r}; "
            f"p*min(mu) + q*min(nu) = {slack!r} < 1"
        )
    if low < 0:
        cells = np.where(cells < 0, 0.0, cells)
    return JointDistribution(cells, mu, nu)


def check_condition_h(mu: Margin, nu: Margin) -> bool:
    """Whether ``p * min(mu) + q * min(nu) >= 1`` (within 1e-12 slack).

    True exactly when the additive coupling of ``(mu, nu)`` is a genuine
    probability matrix.
    """
    score = mu.p * float(mu.probs.min()) + nu.p * float(nu.probs.min())
    return score >= 1.0 - CONDITION_H_SLACK


def entropy_cost(pi: JointDistribution) -> float:
    """Shannon entropy ``-sum(pi * log(pi))`` in nats, with 0*log(0) = 0."""
    cells = pi.cells
    mask = cells > 0
    return float(-(cells[mask] * np.log(cells[mask])).sum())


def least_squares_cost(pi: JointDistribution) -> float:
    """Squared deviation from the uniform matrix, ``sum((pi - 1/(p*q))**2)``.

    Equals ``sum(pi**2) - 1/(p*q)`` (the cross term telescopes), so
    minimizing it over fixed-margin joints is the same as minimizing the
    squared norm.
    """
    u = 1.0 / (pi.p * pi.q)
    return float(((pi.cells - u) ** 2).sum())


def squared_distance(a: JointDistribution, b: JointDistribution) -> float:
    """Cell-wise squared distance ``sum((a - b)**2)`` between two joints."""
    if a.cells.shape != b.cells.shape:
        raise DimensionMismatch(
            f"shapes {a.cells.shape} and {b.cells.shape} do not match"
        )
    return float(((a.cells - b.cells) ** 2).sum())


def delta_closed_form(p: int, q: int) -> float:
    """Expected squared distance between the two couplings of flat Dirichlet
    margins.

    For ``mu ~ Dirichlet(1, ..., 1)`` on p parts and ``nu`` likewise on q
    parts, independently,

    ``E[ sum((pi_independence - pi_indetermination)**2) ]
      = (1 / (p*q)) * ((p - 1) / (p + 1)) * ((q - 1) / (q + 1))``

    which is bounded by ``1 / (p*q)`` and vanishes when either dimension
    is 1.

    Raises
    ------
    NonPositiveDimension
        If ``p`` or ``q`` is not an integer >= 1.
    """
    p, q = _as_count(p, "p"), _as_count(q, "q")
    return (1.0 / (p * q)) * ((p - 1) / (p + 1)) * ((q - 1) / (q + 1))


def sample_dirichlet(p: int, rng: np.random.Generator | int | None = None) -> Margin:
    """Draw one flat-Dirichlet margin of length ``p``.

    Uses normalized independent unit-rate exponential draws, which is exact
    for the flat Dirichlet and trivially seedable.
    """
    p = _as_count(p, "p")
    rng = _as_generator(rng)
    e = rng.exponential(size=p)
    return Margin(e / e.sum())


@dataclass(frozen=True)
class DeltaEstimate(Record):
    """Monte-Carlo estimate of the expected coupling distance.

    Attributes
    ----------
    mean : float
        Sample mean of the squared distances (always finite and >= 0).
    std_error : float
        Sample standard deviation / sqrt(n_samples), finite and >= 0.
    n_samples : int
    """

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        _as_count(self.n_samples, "n_samples")
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise NonFiniteEntry("estimate fields must be finite")
        if self.mean < 0 or self.std_error < 0:
            raise NegativeEntry("estimate fields must be nonnegative")


# Margin entries drawn at once by _delta_stream.
_DRAW_CELLS = 1 << 16


def _delta_stream(p: int, q: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Squared coupling distances for ``m`` flat-Dirichlet margin pairs.

    Batched version of sampling each margin with :func:`sample_dirichlet`
    and evaluating ``squared_distance(independence, additive formula)``;
    the additive cells are used unchecked, so Condition H plays no role.
    The cell difference factorizes,
    ``mu_u nu_v - (mu_u/q + nu_v/p - 1/(pq)) = (mu_u - 1/p)(nu_v - 1/q)``,
    so the distance is ``sum_u (mu_u - 1/p)**2 * sum_v (nu_v - 1/q)**2``.

    All ``m`` margins ``mu`` are drawn first, then all ``nu``, each in
    chunks of rows of at most ``_DRAW_CELLS`` entries; a chunk is reduced
    to its factors at once. Both margins' chunks are drawn into one reused
    buffer (standard exponentials are the unit-scale exponentials, bit for
    bit). The two row sums of a chunk are one ``np.einsum("ij->i")`` each,
    which adds a row's cells in an order set by its length alone. Chunked
    draws consume the stream as one ``(m, p)`` and one ``(m, q)`` draw
    would, so the result is that of one whole-array pass to the last bit;
    the divide, centre and square are passes over the whole chunk.

    O(m (p + q)) time, mostly the exponential draws. Memory O(m) for the
    result, plus one chunk and one row sum per chunk row.
    """
    d2 = np.ones(m)
    chunk = np.empty(max(_DRAW_CELLS, p, q))
    for k in (p, q):
        step = max(1, _DRAW_CELLS // k)
        sums = np.empty(min(step, m))
        for lo in range(0, m, step):
            rows = min(step, m - lo)
            x = rng.standard_exponential(out=chunk[: rows * k].reshape(rows, k))
            s = np.einsum("ij->i", x, out=sums[:rows])
            x /= s[:, None]
            x -= 1.0 / k
            x *= x
            d2[lo : lo + rows] *= np.einsum("ij->i", x, out=s)
    return d2


def _delta_moments(
    p: int, q: int, m: int, rng: np.random.Generator
) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations from the mean of one
    stream's :func:`_delta_stream` samples. The mean is the array's own
    ``mean()``; the deviations are squared in place in the samples, so
    they take no memory of their own."""
    d2 = _delta_stream(p, q, m, rng)
    mean = float(d2.mean())
    d2 -= mean
    d2 *= d2
    return m, mean, float(d2.sum())


def delta_monte_carlo(
    p: int,
    q: int,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    n_streams: int = 1,
) -> DeltaEstimate:
    """Estimate the expected squared coupling distance by simulation.

    Draws ``n_samples`` independent flat-Dirichlet margin pairs and averages
    the squared distance between their independence coupling and the raw
    additive formula (no Condition-H filtering: the squared distance is
    well-defined for signed matrices, and the closed form integrates over
    all margins).

    Parameters
    ----------
    p, q : int
        Margin lengths, >= 1.
    n_samples : int
        Number of margin pairs, >= 1.
    rng : numpy.random.Generator or int, optional
        Random source or seed.
    n_streams : int
        Number of deterministic substreams the samples are split over
        (spawned from ``rng``); the result depends on (seed, n_streams)
        only. With two or more streams on two or more usable CPUs, each
        call starts a thread pool and joins it before it returns, a fixed
        cost that can exceed what the second stream saves: the bias
        sampler at ``(200, 0.3, 4096)`` took 1.33 ms with 2 streams
        against 0.93 ms with 1. See :mod:`coupleclust._mc`.

    Returns
    -------
    DeltaEstimate
        Each stream's samples are reduced on their own to a mean and a sum
        of squared deviations, and the streams are combined in stream order
        by the pairwise update of Chan et al., so no stream's samples are
        copied or concatenated. O(n_samples (p + q)) time; memory one
        float per sample plus one draw chunk and its row sums per stream.
        A sample's sums add its cells in an order set by p or q alone, so
        the result does not depend on how the draws are chunked.

    Raises
    ------
    NonPositiveDimension
        If ``p``, ``q`` or ``n_samples`` is not an integer >= 1.
    """
    p, q = _as_count(p, "p"), _as_count(q, "q")
    n_samples = _as_count(n_samples, "n_samples")
    from ._mc import run_streams

    moments = run_streams(
        lambda gen, m: _delta_moments(p, q, m, gen), n_samples, rng, n_streams
    )
    count, mean, sq_dev = moments[0]
    for m, stream_mean, stream_sq_dev in moments[1:]:
        # pairwise update of Chan, Golub & LeVeque (1979)
        total = count + m
        delta = stream_mean - mean
        mean += delta * m / total
        sq_dev += stream_sq_dev + delta * delta * count * m / total
        count = total
    if n_samples > 1:
        std_error = math.sqrt(sq_dev / (n_samples - 1)) / math.sqrt(n_samples)
    else:
        std_error = 0.0
    return DeltaEstimate(mean=mean, std_error=std_error, n_samples=n_samples)
