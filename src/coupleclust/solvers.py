"""Iterative reference solvers for the two margin-projection problems.

These solvers find, among all p x q joints with prescribed margins, the one
that maximizes entropy (:func:`solve_entropy_projection`, via iterative
proportional fitting) and the one closest to the uniform matrix in squared
distance (:func:`solve_least_squares_projection`, via Dykstra's alternating
projections). They never evaluate the closed-form couplings, so they serve
as independent numerical checks of those formulas.

Plain alternating projection would converge to a feasible point but not to
the least-squares projection once the nonnegativity constraint activates;
Dykstra's correction terms restore optimality, which is why the scheme here
cycles through the row-sum affine set, column-sum affine set, and
nonnegative orthant with per-set increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._record import Record
from .coupling import MARGIN_SUM_TOL, JointDistribution, Margin
from .errors import NotConverged, _as_count, _as_tolerance

__all__ = [
    "SolverConfig",
    "SolverReport",
    "solve_entropy_projection",
    "solve_least_squares_projection",
    "recover_lagrange_multipliers",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and convergence tolerance for both solvers.

    ``tolerance`` bounds the convergence metric: maximum absolute margin
    violation plus the magnitude of the most negative cell.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self):
        _as_tolerance(self.tolerance, "tolerance", allow_zero=False)
        _as_count(self.max_iterations, "max_iterations")


@dataclass(frozen=True)
class SolverReport(Record):
    """Outcome of a solver run.

    Attributes
    ----------
    solution : JointDistribution
        The converged joint (margins re-validated on construction).
    iterations : int
        Full cycles actually performed.
    final_violation : float
        Convergence metric at exit; <= tolerance whenever ``converged``.
    converged : bool
    """

    solution: JointDistribution
    iterations: int
    final_violation: float
    converged: bool


def _violation(x: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    margin = max(
        float(np.max(np.abs(x.sum(axis=1) - mu))),
        float(np.max(np.abs(x.sum(axis=0) - nu))),
    )
    negative = max(0.0, -float(x.min()))
    return margin + negative


def _outcome(
    name: str, x: np.ndarray, iterations: int, violation: float, converged: bool
) -> SolverReport:
    """The report of a finished run; raises :class:`NotConverged` carrying
    it when the run stopped at the iteration cap."""
    # Rounding dust from the last projection is clipped, and the joint's
    # margins are derived from the computed cells: at boundary targets the
    # iterate matches the requested margins only within the tolerance, and
    # final_violation is what records that gap. from_cells accepts a total
    # within MARGIN_SUM_TOL of 1; an iterate further off (a capped one, or
    # one stopped at a looser tolerance) is rescaled to total 1 first.
    cells = np.where(x < 0, 0.0, x)
    total = float(cells.sum())
    if abs(total - 1.0) > MARGIN_SUM_TOL:
        cells = cells / total
    report = SolverReport(JointDistribution.from_cells(cells), iterations, violation, converged)
    if not converged:
        raise NotConverged(
            f"{name} stopped after {iterations} iterations with violation {violation!r}",
            report=report,
        )
    return report


def solve_entropy_projection(
    mu: Margin, nu: Margin, cfg: SolverConfig | None = None
) -> SolverReport:
    """Maximum-entropy joint with margins ``(mu, nu)`` via IPF.

    Starts from the uniform matrix and alternately rescales rows and columns
    to match the target margins (iterative proportional fitting). One
    iteration is one full row-and-column sweep; convergence is declared when
    the maximum absolute margin violation drops to ``cfg.tolerance``.

    Raises
    ------
    NotConverged
        If the iteration cap is reached first (the partial report rides on
        the exception).
    """
    cfg = cfg or SolverConfig()
    p, q = mu.p, nu.p
    target_rows = mu.probs
    target_cols = nu.probs
    x = np.full((p, q), 1.0 / (p * q))
    for it in range(1, cfg.max_iterations + 1):
        rows = x.sum(axis=1)
        scale = np.divide(target_rows, rows, out=np.ones(p), where=rows > 0)
        x = x * scale[:, None]
        cols = x.sum(axis=0)
        scale = np.divide(target_cols, cols, out=np.ones(q), where=cols > 0)
        x = x * scale[None, :]
        violation = _violation(x, target_rows, target_cols)
        if violation <= cfg.tolerance:
            break
    return _outcome("IPF", x, it, violation, violation <= cfg.tolerance)


def _project_rows(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    q = x.shape[1]
    return x + (mu - x.sum(axis=1))[:, None] / q


def _project_cols(x: np.ndarray, nu: np.ndarray) -> np.ndarray:
    p = x.shape[0]
    return x + (nu - x.sum(axis=0))[None, :] / p


def _dykstra(
    mu: Margin, nu: Margin, cfg: SolverConfig
) -> tuple[SolverReport, list[np.ndarray]]:
    """Core Dykstra loop; returns the report and the three per-set
    correction matrices at exit, in projection order (rows, columns,
    orthant). Raises :class:`NotConverged` at the iteration cap.
    """
    p, q = mu.p, nu.p
    target_rows = mu.probs
    target_cols = nu.probs
    x = np.full((p, q), 1.0 / (p * q))
    increments = [np.zeros((p, q)) for _ in range(3)]
    projections = (
        lambda y: _project_rows(y, target_rows),
        lambda y: _project_cols(y, target_cols),
        lambda y: np.maximum(y, 0.0),
    )
    for it in range(1, cfg.max_iterations + 1):
        for k, project in enumerate(projections):
            shifted = x + increments[k]
            x = project(shifted)
            increments[k] = shifted - x
        violation = _violation(x, target_rows, target_cols)
        if violation <= cfg.tolerance:
            break
    return _outcome("Dykstra", x, it, violation, violation <= cfg.tolerance), increments


def solve_least_squares_projection(
    mu: Margin, nu: Margin, cfg: SolverConfig | None = None
) -> SolverReport:
    """Joint with margins ``(mu, nu)`` closest to uniform, via Dykstra.

    Euclidean projection of the uniform matrix onto the transportation
    polytope, computed by Dykstra's cyclic alternating projections with
    correction over the row-sum affine set, the column-sum affine set, and
    the nonnegative orthant. One iteration is one full three-set cycle.

    When the additive coupling of the margins is nonnegative it is the
    unique solution here; when it is not, the solver still converges, to the
    true projection on the boundary of the orthant.

    Raises
    ------
    NotConverged
        If the iteration cap is reached above tolerance.
    """
    return _dykstra(mu, nu, cfg or SolverConfig())[0]


def recover_lagrange_multipliers(
    mu: Margin, nu: Margin, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """First-order multipliers of the least-squares margin projection.

    Runs the Dykstra solver and reconstructs, from its affine-set correction
    terms, the Lagrange multipliers of::

        minimize   sum(pi**2)
        subject to row sums = mu, column sums = nu, total = 1

    under the usual gauge ``sum(omega) = 0``. Returns the pair
    ``(lambda + theta, omega)`` where ``lambda`` couples to rows, ``omega``
    to columns and ``theta`` to the total.

    Only meaningful when the nonnegativity constraint is inactive at the
    solution (its correction term is then ~0); margins violating that leave
    a nonzero orthant increment and the reconstruction is not a KKT
    certificate.

    Notes
    -----
    At the solution ``x*``, Dykstra's affine increments are exactly
    row-constant resp. column-constant, and
    ``x* = uniform - inc_rows - inc_cols - inc_orthant``. Writing
    ``x*[u, v] = 1/(p*q) + rho[u] + gamma[v]`` and matching the stationarity
    condition ``2 x* = (lambda + theta) (+) omega`` gives, with the gauge
    above::

        omega[v]            = 2 * (gamma[v] - mean(gamma))
        (lambda + theta)[u] = 2 * (1/(p*q) + rho[u] + mean(gamma))

    Raises
    ------
    NotConverged
        If the Dykstra run reaches the iteration cap above tolerance (its
        report rides on the exception).
    """
    _, increments = _dykstra(mu, nu, cfg or SolverConfig())
    p, q = mu.p, nu.p
    rho = -increments[0].mean(axis=1)
    gamma = -increments[1].mean(axis=0)
    gamma_bar = float(gamma.mean())
    omega = 2.0 * (gamma - gamma_bar)
    lambda_plus_theta = 2.0 * (1.0 / (p * q) + rho + gamma_bar)
    return lambda_plus_theta, omega
