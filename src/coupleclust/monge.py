"""Monge-class predicates for real matrices.

A p x q matrix ``c`` is *Monge* when every 2 x 2 minor satisfies
``c[u, v] + c[u', v'] <= c[u', v] + c[u, v']`` for ``u < u'``, ``v < v'``,
*anti-Monge* with the reverse inequality, and *full-Monge* when equality
holds throughout. A strictly positive matrix whose entrywise log is
full-Monge is *full-log-Monge*.

Checking adjacent 2 x 2 blocks is enough: any minor's residual is a sum of
adjacent-block residuals over the spanned rectangle, so all predicates here
run in O(p*q). :func:`verify_monge_theorems` cross-checks the adjacent-block
route against the exhaustive minor sweep and against the margin-formula
characterizations (full-Monge joints are exactly the additive couplings of
their margins; full-log-Monge joints exactly the independence couplings),
raising :class:`InconsistentTheorem` if the equivalent routes ever disagree.

Every predicate and cross-check passes when its residual is at most ``tol``
plus the rounding floor ``64 * eps * max(1, max|x|)`` of the matrix ``x``
it reads (the cells, or their logs on the log route), so residue that
rounding alone leaves passes even at ``tol = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._record import Record
from .coupling import (
    JointDistribution,
    couple_independence,
    indetermination_cells,
)
from .errors import (
    InconsistentTheorem,
    NonPositiveEntry,
    _as_finite_reals,
    _as_tolerance,
)

__all__ = [
    "MongeReport",
    "TheoremReport",
    "adjacent_sum_residuals",
    "is_monge",
    "is_anti_monge",
    "is_full_monge",
    "is_full_log_monge",
    "monge_report",
    "verify_monge_theorems",
]

DEFAULT_TOL = 1e-10


def adjacent_sum_residuals(c) -> np.ndarray:
    """Residuals ``c[u,v] + c[u+1,v+1] - c[u+1,v] - c[u,v+1]``.

    Shape (p-1, q-1); empty when the matrix has a single row or column, in
    which case every Monge predicate holds vacuously.
    """
    arr = _as_finite_reals(c, 2, "matrix entries")
    return arr[:-1, :-1] + arr[1:, 1:] - arr[1:, :-1] - arr[:-1, 1:]


def _max_residual(c) -> tuple[float, float]:
    """(max positive residual, max negative magnitude) over adjacent blocks."""
    r = adjacent_sum_residuals(c)
    return max(0.0, float(r.max(initial=0.0))), max(0.0, float(-r.min(initial=0.0)))


def _cut(x, tol: float) -> float:
    """``tol`` plus the rounding floor of the matrix ``x``. Every predicate
    reads its tolerance through here, so this is where it is validated."""
    tol = _as_tolerance(tol)
    return tol + 64 * float(np.finfo(float).eps) * max(1.0, float(np.abs(x).max()))


def is_monge(c, tol: float = DEFAULT_TOL) -> bool:
    """Whether every adjacent 2 x 2 block satisfies the Monge inequality
    (diagonal sum <= anti-diagonal sum, within ``tol``)."""
    positive, _ = _max_residual(c)
    return positive <= _cut(c, tol)


def is_anti_monge(c, tol: float = DEFAULT_TOL) -> bool:
    """Whether every adjacent 2 x 2 block satisfies the reversed
    inequality within ``tol``."""
    _, negative = _max_residual(c)
    return negative <= _cut(c, tol)


def is_full_monge(c, tol: float = DEFAULT_TOL) -> bool:
    """Whether every adjacent 2 x 2 diagonal sum matches its anti-diagonal
    sum within ``tol`` (equivalently, both Monge and anti-Monge)."""
    r = adjacent_sum_residuals(c)
    return float(np.abs(r).max(initial=0.0)) <= _cut(c, tol)


def is_full_log_monge(c, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``log(c)`` is full-Monge; requires strictly positive entries.

    Raises
    ------
    NonPositiveEntry
        If any entry is <= 0 (the class is only defined for positive
        matrices).
    """
    arr = _as_finite_reals(c, 2, "matrix entries")
    if float(arr.min()) <= 0.0:
        raise NonPositiveEntry("full-log-Monge requires strictly positive entries")
    return is_full_monge(np.log(arr), tol)


@dataclass(frozen=True)
class MongeReport(Record):
    """All four class predicates for one matrix, plus the worst residual.

    ``is_full_log_monge`` is False (not an error) when the matrix has a
    nonpositive entry, matching the definition's positivity requirement;
    the bare predicate function raises instead.

    Invariant: ``is_full_monge == (is_monge and is_anti_monge)``.
    """

    is_monge: bool
    is_anti_monge: bool
    is_full_monge: bool
    is_full_log_monge: bool
    max_adjacent_residual: float


def monge_report(c, tol: float = DEFAULT_TOL) -> MongeReport:
    """Evaluate all four predicates on one matrix."""
    arr = _as_finite_reals(c, 2, "matrix entries")
    positive, negative = _max_residual(arr)
    cut = _cut(arr, tol)
    if float(arr.min()) > 0.0:
        log_full = is_full_monge(np.log(arr), tol)
    else:
        log_full = False
    return MongeReport(
        is_monge=positive <= cut,
        is_anti_monge=negative <= cut,
        is_full_monge=max(positive, negative) <= cut,
        is_full_log_monge=log_full,
        max_adjacent_residual=max(positive, negative),
    )


def _exhaustive_residuals(c: np.ndarray, product: bool) -> float:
    """Worst minor residual over all row and column pairs.

    ``product=False``: diagonal-sum residual. ``product=True``:
    diagonal-product residual ``c[u,v]*c[u',v'] - c[u',v]*c[u,v']``.
    Symmetric in (u, u') and (v, v') up to sign, so the full broadcast
    sweep is checked and its absolute maximum returned.
    """
    p, q = c.shape
    if p < 2 or q < 2:
        return 0.0
    if product:
        r = (
            c[:, None, :, None] * c[None, :, None, :]
            - c[None, :, :, None] * c[:, None, None, :]
        )
    else:
        r = (
            c[:, None, :, None]
            + c[None, :, None, :]
            - c[None, :, :, None]
            - c[:, None, None, :]
        )
    return float(np.abs(r).max())


@dataclass(frozen=True)
class TheoremReport(Record):
    """Cross-checked characterizations of one joint distribution.

    The additive group holds iff the joint is full-Monge iff it equals the
    additive coupling of its own margins iff every (not just adjacent) 2 x 2
    diagonal-sum minor vanishes. The multiplicative group (populated only
    for strictly positive joints) holds iff the joint is full-log-Monge iff
    it equals the independence coupling of its margins iff every
    diagonal-product minor vanishes.
    """

    additive_holds: bool
    residual_adjacent_sum: float
    residual_additive_formula: float
    residual_exhaustive_sum: float
    multiplicative_holds: bool | None
    residual_adjacent_log_sum: float | None
    residual_independence_formula: float | None
    residual_exhaustive_product: float | None


def verify_monge_theorems(pi: JointDistribution, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Run every equivalent characterization on one joint and cross-check.

    Parameters
    ----------
    pi : JointDistribution
    tol : float
        Absolute residual tolerance applied to each individual check, on
        top of the rounding floor (see the module docstring), so that the
        equivalent routes agree even at ``tol = 0``.

    Returns
    -------
    TheoremReport
        Residuals for all checks; multiplicative fields are None when the
        joint has a zero cell (the log route needs positivity).

    Raises
    ------
    InconsistentTheorem
        If checks inside one group disagree. The groups are mathematically
        equivalent, so disagreement beyond tolerance means a bug.
    """
    cells = pi.cells
    cut = _cut(cells, tol)
    positive, negative = _max_residual(cells)
    r_adjacent = max(positive, negative)
    additive_target = indetermination_cells(pi.row_margin, pi.col_margin)
    r_formula = float(np.abs(cells - additive_target).max())
    r_exhaustive = _exhaustive_residuals(cells, product=False)
    additive_votes = (r_adjacent <= cut, r_formula <= cut, r_exhaustive <= cut)
    if len(set(additive_votes)) != 1:
        raise InconsistentTheorem(
            "additive checks disagree: "
            f"adjacent={r_adjacent!r}, formula={r_formula!r}, "
            f"exhaustive={r_exhaustive!r} at tol={tol!r}"
        )

    if float(cells.min()) > 0.0:
        log_cells = np.log(cells)
        lp, ln = _max_residual(log_cells)
        r_log = max(lp, ln)
        independence_target = couple_independence(pi.row_margin, pi.col_margin)
        r_ind = float(np.abs(cells - independence_target.cells).max())
        r_prod = _exhaustive_residuals(cells, product=True)
        mult_votes = (r_log <= _cut(log_cells, tol), r_ind <= cut, r_prod <= cut)
        if len(set(mult_votes)) != 1:
            raise InconsistentTheorem(
                "multiplicative checks disagree: "
                f"log-adjacent={r_log!r}, formula={r_ind!r}, "
                f"exhaustive-product={r_prod!r} at tol={tol!r}"
            )
        multiplicative = mult_votes[0]
    else:
        r_log = r_ind = r_prod = None
        multiplicative = None

    return TheoremReport(
        additive_holds=additive_votes[0],
        residual_adjacent_sum=r_adjacent,
        residual_additive_formula=r_formula,
        residual_exhaustive_sum=r_exhaustive,
        multiplicative_holds=multiplicative,
        residual_adjacent_log_sum=r_log,
        residual_independence_formula=r_ind,
        residual_exhaustive_product=r_prod,
    )
