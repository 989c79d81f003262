"""Tests pitting the iterative solvers against the closed-form couplings."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from conftest import h_valid_margin_pair


def test_ipf_recovers_independence():
    rng = np.random.default_rng(21)
    for p, q in [(2, 2), (3, 5), (6, 4)]:
        mu = cc.sample_dirichlet(p, rng)
        nu = cc.sample_dirichlet(q, rng)
        report = cc.solve_entropy_projection(mu, nu)
        assert report.converged
        closed = cc.couple_independence(mu, nu)
        npt.assert_allclose(report.solution.cells, closed.cells, atol=1e-10)


def test_ipf_one_step_from_uniform_start():
    # from the uniform start a single row-and-column sweep lands exactly on
    # the product coupling, so IPF reports one iteration
    rng = np.random.default_rng(4)
    mu = cc.sample_dirichlet(3, rng)
    nu = cc.sample_dirichlet(4, rng)
    report = cc.solve_entropy_projection(mu, nu)
    assert report.iterations == 1
    assert report.final_violation <= 1e-10


def test_dykstra_recovers_indetermination_when_h_holds():
    rng = np.random.default_rng(33)
    for p, q in [(2, 2), (3, 3), (4, 2)]:
        mu, nu = h_valid_margin_pair(p, q, rng)
        report = cc.solve_least_squares_projection(mu, nu)
        assert report.converged
        closed = cc.couple_indetermination(mu, nu)
        npt.assert_allclose(report.solution.cells, closed.cells, atol=1e-8)


def test_dykstra_interior_case_converges_immediately():
    # with the additive coupling strictly positive the orthant constraint
    # never activates and the two affine projections finish in one cycle
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    report = cc.solve_least_squares_projection(mu, nu)
    assert report.iterations == 1
    npt.assert_allclose(report.solution.cells, [[0.4, 0.3], [0.2, 0.1]], atol=1e-12)


def test_dykstra_boundary_projection():
    # margins violating the nonnegativity condition: the projection lands on
    # the orthant boundary, below the (infeasible) additive formula's cost
    # but above the independence coupling's
    mu = cc.validate_margin([0.9, 0.1])
    report = cc.solve_least_squares_projection(mu, mu, cc.SolverConfig(1e-10))
    assert report.converged
    npt.assert_allclose(
        report.solution.cells, [[0.8, 0.1], [0.1, 0.0]], atol=1e-6
    )
    cost = cc.least_squares_cost(report.solution)
    npt.assert_allclose(cost, 0.41, atol=1e-6)
    independence_cost = cc.least_squares_cost(cc.couple_independence(mu, mu))
    npt.assert_allclose(independence_cost, 0.4224, atol=1e-10)
    assert cost < independence_cost
    # the margins of the returned joint still match the request to tolerance
    npt.assert_allclose(report.solution.row_margin.probs, mu.probs, atol=1e-8)
    npt.assert_allclose(report.solution.col_margin.probs, mu.probs, atol=1e-8)


def test_ipf_not_converged_carries_partial_report():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    cfg = cc.SolverConfig(tolerance=1e-300, max_iterations=3)
    with pytest.raises(cc.NotConverged) as err:
        cc.solve_entropy_projection(mu, nu, cfg)
    report = err.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 3
    # the partial iterate is already essentially the answer
    npt.assert_allclose(
        report.solution.cells, np.outer(mu.probs, nu.probs), atol=1e-10
    )


def test_dykstra_not_converged_on_tiny_budget():
    mu = cc.validate_margin([0.9, 0.1])
    cfg = cc.SolverConfig(tolerance=1e-10, max_iterations=2)
    with pytest.raises(cc.NotConverged) as err:
        cc.solve_least_squares_projection(mu, mu, cfg)
    report = err.value.report
    assert report is not None
    assert report.iterations == 2
    assert report.final_violation > 1e-10


def test_multiplier_recovery_identities():
    # at an interior solution the multipliers are affine in the margins:
    # (lambda + theta)[u] = 2 mu[u] / q and omega[v] = 2 nu[v] / p - 2/(p q)
    rng = np.random.default_rng(8)
    for p, q in [(2, 3), (3, 3), (4, 5)]:
        mu, nu = h_valid_margin_pair(p, q, rng)
        lam_theta, omega = cc.recover_lagrange_multipliers(mu, nu)
        npt.assert_allclose(lam_theta, 2.0 * mu.probs / q, atol=1e-6)
        npt.assert_allclose(
            omega, 2.0 * nu.probs / p - 2.0 / (p * q), atol=1e-6
        )
        assert abs(float(omega.sum())) <= 1e-6


def test_multipliers_reproduce_solution_stationarity():
    rng = np.random.default_rng(12)
    mu, nu = h_valid_margin_pair(3, 4, rng)
    lam_theta, omega = cc.recover_lagrange_multipliers(mu, nu)
    x = cc.couple_indetermination(mu, nu).cells
    npt.assert_allclose(2.0 * x, lam_theta[:, None] + omega[None, :], atol=1e-6)


@pytest.mark.parametrize(
    "solve, margins, cfg",
    [
        (cc.solve_entropy_projection, ([0.7, 0.3], [0.6, 0.4]), cc.SolverConfig(1e-300, 3)),
        (cc.solve_least_squares_projection, ([0.9, 0.1], [0.9, 0.1]), cc.SolverConfig(1e-10, 2)),
        (cc.recover_lagrange_multipliers, ([0.9, 0.1], [0.9, 0.1]), cc.SolverConfig(1e-10, 2)),
    ],
)
def test_every_solver_raises_with_a_capped_report(solve, margins, cfg):
    mu, nu = (cc.validate_margin(m) for m in margins)
    with pytest.raises(cc.NotConverged) as err:
        solve(mu, nu, cfg)
    report = err.value.report
    assert isinstance(report, cc.SolverReport)
    assert report.converged is False
    assert report.iterations == cfg.max_iterations
    assert abs(report.solution.cells.sum() - 1.0) <= 1e-12


def test_loose_tolerance_on_the_boundary_still_reports():
    # stopped at 1e-6, the iterate's total is off 1 by more than a joint
    # accepts, and the report carries it rescaled
    mu = cc.validate_margin([0.9, 0.1])
    cfg = cc.SolverConfig(tolerance=1e-6)
    report = cc.solve_least_squares_projection(mu, mu, cfg)
    assert report.converged
    assert 1e-9 < report.final_violation <= 1e-6
    npt.assert_allclose(report.solution.cells, [[0.8, 0.1], [0.1, 0.0]], atol=1e-5)
    lam_theta, omega = cc.recover_lagrange_multipliers(mu, mu, cfg)
    assert np.isfinite(lam_theta).all() and np.isfinite(omega).all()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        cc.SolverConfig(tolerance=0.0)
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-3, "1e-3", None, True):
        with pytest.raises(ValueError, match="tolerance"):
            cc.SolverConfig(tolerance=bad)
    for bad in (0, 2.5, 3.0, "3", None):
        with pytest.raises(cc.NonPositiveDimension, match="max_iterations"):
            cc.SolverConfig(max_iterations=bad)
    assert cc.SolverConfig(max_iterations=np.int64(5)).max_iterations == 5


def test_solver_report_json():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    report = cc.solve_entropy_projection(mu, nu)
    data = json.loads(report.to_json())
    assert data["converged"] is True
    assert data["iterations"] == report.iterations
    npt.assert_allclose(
        np.asarray(data["solution"]["cells"]), report.solution.cells, atol=1e-15
    )
