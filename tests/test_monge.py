"""Tests for the Monge-class predicates and their cross-checked theorems."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from conftest import h_valid_margin_pair


def test_adjacent_sum_residuals_shape_and_values():
    c = np.array([[1.0, 2.0, 3.0], [3.0, 5.0, 6.0]])
    r = cc.adjacent_sum_residuals(c)
    assert r.shape == (1, 2)
    # left block: 1 + 5 - 3 - 2 = 1; right block: 2 + 6 - 5 - 3 = 0
    npt.assert_allclose(r, [[1.0, 0.0]])


def test_single_row_and_column_are_vacuously_everything():
    row = np.array([[1.0, 5.0, 2.0]])
    col = np.array([[1.0], [5.0], [2.0]])
    for c in (row, col):
        assert cc.adjacent_sum_residuals(c).size == 0
        assert cc.is_monge(c)
        assert cc.is_anti_monge(c)
        assert cc.is_full_monge(c)
        assert cc.is_full_log_monge(c)


def test_hand_built_monge_and_anti_monge():
    # c[u, v] = u * v is anti-Monge (supermodular, strict above tolerance)
    u = np.arange(3)[:, None]
    v = np.arange(4)[None, :]
    prod = (u * v).astype(float)
    assert cc.is_anti_monge(prod)
    assert not cc.is_monge(prod)
    assert not cc.is_full_monge(prod)
    # and its negation is Monge
    assert cc.is_monge(-prod)
    assert not cc.is_anti_monge(-prod)
    # c[u, v] = u + v is both at once
    both = (u + v).astype(float)
    assert cc.is_full_monge(both)
    assert cc.is_monge(both) and cc.is_anti_monge(both)


def test_indetermination_coupling_is_full_monge():
    rng = np.random.default_rng(2)
    for p, q in [(2, 2), (3, 4), (5, 3)]:
        mu, nu = h_valid_margin_pair(p, q, rng)
        pi = cc.couple_indetermination(mu, nu)
        assert cc.is_full_monge(pi.cells)
        # exhaustive diagonal-sum check over all 2x2 minors
        c = pi.cells
        for u in range(p):
            for uu in range(u + 1, p):
                for v in range(q):
                    for vv in range(v + 1, q):
                        res = c[u, v] + c[uu, vv] - c[uu, v] - c[u, vv]
                        assert abs(res) <= 1e-10


def test_independence_coupling_is_full_log_monge():
    rng = np.random.default_rng(3)
    for p, q in [(2, 3), (4, 4)]:
        mu = cc.sample_dirichlet(p, rng)
        nu = cc.sample_dirichlet(q, rng)
        pi = cc.couple_independence(mu, nu)
        assert cc.is_full_log_monge(pi.cells)
        # exhaustive diagonal-product check
        c = pi.cells
        for u in range(p):
            for uu in range(u + 1, p):
                for v in range(q):
                    for vv in range(v + 1, q):
                        res = c[u, v] * c[uu, vv] - c[uu, v] * c[u, vv]
                        assert abs(res) <= 1e-12


def test_full_log_monge_requires_positive_entries():
    # the boundary additive coupling has an exact zero cell
    mu = cc.validate_margin(np.array([9, 6, 3, 9]) / 27)
    nu = cc.validate_margin(np.array([9, 13, 5]) / 27)
    pi = cc.couple_indetermination(mu, nu)
    assert pi.cells.min() == 0.0
    with pytest.raises(cc.NonPositiveEntry):
        cc.is_full_log_monge(pi.cells)
    # the report flags it False instead of raising
    report = cc.monge_report(pi.cells)
    assert report.is_full_log_monge is False
    assert report.is_full_monge is True


def test_monge_report_invariant_and_json():
    rng = np.random.default_rng(6)
    c = rng.random((4, 5))
    report = cc.monge_report(c)
    assert report.is_full_monge == (report.is_monge and report.is_anti_monge)
    data = json.loads(report.to_json())
    assert set(data) == {
        "is_monge",
        "is_anti_monge",
        "is_full_monge",
        "is_full_log_monge",
        "max_adjacent_residual",
    }
    assert data["max_adjacent_residual"] >= 0


def test_verify_theorems_on_both_couplings():
    rng = np.random.default_rng(9)
    mu, nu = h_valid_margin_pair(3, 3, rng)
    t_add = cc.verify_monge_theorems(cc.couple_indetermination(mu, nu))
    assert t_add.additive_holds
    assert t_add.residual_additive_formula <= 1e-12
    assert t_add.residual_exhaustive_sum <= 1e-10
    # additive coupling of non-uniform margins is not the product coupling
    assert t_add.multiplicative_holds is False

    t_mul = cc.verify_monge_theorems(cc.couple_independence(mu, nu))
    assert t_mul.multiplicative_holds
    assert t_mul.residual_independence_formula <= 1e-12
    assert t_mul.residual_exhaustive_product <= 1e-12
    assert t_mul.additive_holds is False


def test_verify_theorems_on_random_positive_joints():
    # random joints are neither class; the point is that the equivalent
    # routes never disagree with each other
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        q = int(rng.integers(2, 6))
        cells = rng.random((p, q)) + 0.05
        cells /= cells.sum()
        report = cc.verify_monge_theorems(cc.JointDistribution.from_cells(cells))
        assert report.additive_holds is False
        assert report.multiplicative_holds is False


def test_verify_theorems_zero_cell_spares_log_route():
    mu = cc.validate_margin(np.array([9, 6, 3, 9]) / 27)
    nu = cc.validate_margin(np.array([9, 13, 5]) / 27)
    report = cc.verify_monge_theorems(cc.couple_indetermination(mu, nu))
    assert report.additive_holds
    assert report.multiplicative_holds is None
    assert report.residual_adjacent_log_sum is None
    assert report.residual_independence_formula is None
    assert report.residual_exhaustive_product is None
    # JSON keeps the None fields
    assert cc.TheoremReport.to_json_dict(report)["multiplicative_holds"] is None


def test_uniform_margins_satisfy_both_theorems_at_once():
    uni3 = cc.uniform_margin(3)
    uni4 = cc.uniform_margin(4)
    report = cc.verify_monge_theorems(cc.couple_independence(uni3, uni4))
    assert report.additive_holds and report.multiplicative_holds


def test_matrix_validation():
    with pytest.raises(cc.DimensionMismatch):
        cc.is_monge(np.array([1.0, 2.0]))
    with pytest.raises(cc.DimensionMismatch):
        cc.monge_report(np.zeros((0, 3)))


# Matrices no predicate may read: non-finite cells, bools read as 0/1, and
# numeric strings numpy would parse.
BAD_MATRICES = {
    "nan": [[np.nan, 1.0], [1.0, 1.0]],
    "inf": [[np.inf, 1.0], [1.0, 1.0]],
    "-inf": [[1.0, 1.0], [1.0, -np.inf]],
    "numpy-bool": np.array([[True, False], [False, True]]),
    "python-bool": [[True, 1.0], [1.0, 1.0]],
    "string": [["0.5", "1"], ["1", "1"]],
}
PREDICATES = [
    cc.adjacent_sum_residuals,
    cc.is_monge,
    cc.is_anti_monge,
    cc.is_full_monge,
    cc.is_full_log_monge,
    cc.monge_report,
]


@pytest.mark.parametrize("predicate", PREDICATES, ids=[f.__name__ for f in PREDICATES])
@pytest.mark.parametrize("matrix", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_predicates_reject_non_finite_and_non_numeric_matrices(predicate, matrix):
    with pytest.raises(cc.NonFiniteEntry, match="^matrix entries must be"):
        predicate(matrix)
