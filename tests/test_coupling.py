"""Tests for margins, the two closed-form couplings, and the mean gap."""

import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from coupleclust import _mc
from conftest import h_valid_margin_pair


def test_validate_margin_normalizes_and_freezes():
    # off by 3e-10: inside the 1e-9 entry tolerance, then renormalized exactly
    m = cc.validate_margin([0.5, 0.25, 0.25 + 3e-10])
    assert float(m.probs.sum()) == 1.0
    npt.assert_allclose(m.probs, [0.5, 0.25, 0.25], atol=1e-9)
    assert m.p == 3
    with pytest.raises(ValueError):
        m.probs[0] = 1.0


def test_validate_margin_rejections():
    with pytest.raises(cc.NegativeEntry):
        cc.validate_margin([0.5, -0.1, 0.6])
    with pytest.raises(cc.DimensionMismatch):
        cc.validate_margin([])
    with pytest.raises(cc.DimensionMismatch):
        cc.validate_margin([[0.5, 0.5]])
    with pytest.raises(cc.SumNotOne):
        cc.validate_margin([0.0, 0.0])


@pytest.mark.parametrize(
    "make, bad",
    [
        pytest.param(cc.validate_margin, np.nan, id="nan"),
        pytest.param(cc.validate_margin, np.inf, id="inf"),
        pytest.param(cc.validate_margin, -np.inf, id="-inf"),
        pytest.param(cc.Margin, np.nan, id="Margin-nan"),
        pytest.param(cc.Margin, np.inf, id="Margin-inf"),
    ],
)
def test_validate_margin_rejects_non_finite(make, bad):
    with pytest.raises(cc.NonFiniteEntry):
        make(np.array([bad, 1.0]))


def _joint_with_uniform_margins(cells):
    u = cc.uniform_margin(2)
    return cc.JointDistribution(cells, u, u)


@pytest.mark.parametrize(
    "make, bad",
    [
        pytest.param(cc.JointDistribution.from_cells, np.nan, id="nan"),
        pytest.param(cc.JointDistribution.from_cells, np.inf, id="inf"),
        pytest.param(_joint_with_uniform_margins, np.nan, id="direct-nan"),
        pytest.param(_joint_with_uniform_margins, np.inf, id="direct-inf"),
    ],
)
def test_from_cells_rejects_non_finite(make, bad):
    with pytest.raises(cc.NonFiniteEntry):
        make(np.array([[0.5, bad], [0.25, 0.25]]))


def test_margin_direct_constructor_is_strict():
    cc.Margin(np.array([0.5, 0.5]))
    with pytest.raises(cc.SumNotOne):
        cc.Margin(np.array([0.5, 0.501]))


def test_uniform_margin():
    m = cc.uniform_margin(4)
    npt.assert_array_equal(m.probs, np.full(4, 0.25))
    with pytest.raises(cc.NonPositiveDimension):
        cc.uniform_margin(0)


def test_independence_is_outer_product():
    rng = np.random.default_rng(7)
    mu = cc.sample_dirichlet(5, rng)
    nu = cc.sample_dirichlet(3, rng)
    pi = cc.couple_independence(mu, nu)
    npt.assert_allclose(pi.cells, np.outer(mu.probs, nu.probs), rtol=0, atol=0)
    npt.assert_allclose(pi.cells.sum(axis=1), mu.probs, atol=1e-15)
    npt.assert_allclose(pi.cells.sum(axis=0), nu.probs, atol=1e-15)


def test_indetermination_small_example():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    pi = cc.couple_indetermination(mu, nu)
    npt.assert_allclose(pi.cells, [[0.4, 0.3], [0.2, 0.1]], atol=1e-15)
    npt.assert_allclose(pi.cells.sum(axis=1), mu.probs, atol=1e-15)
    npt.assert_allclose(pi.cells.sum(axis=0), nu.probs, atol=1e-15)


def test_indetermination_requires_condition_h():
    mu = cc.validate_margin([0.9, 0.1])
    with pytest.raises(cc.ConditionHViolated) as err:
        cc.couple_indetermination(mu, mu)
    # the offending cell is the one pairing both smallest masses
    assert "(1, 1)" in str(err.value)
    assert not cc.check_condition_h(mu, mu)


def test_condition_h_boundary_margins_pass():
    # p*min(mu) + q*min(nu) = 4*(3/27) + 3*(5/27) = 1 exactly
    mu = cc.validate_margin(np.array([9, 6, 3, 9]) / 27)
    nu = cc.validate_margin(np.array([9, 13, 5]) / 27)
    assert cc.check_condition_h(mu, nu)
    pi = cc.couple_indetermination(mu, nu)
    assert pi.cells.min() == 0.0  # boundary cell clipped to exact zero
    npt.assert_allclose(pi.cells.sum(), 1.0, atol=1e-12)


def test_indetermination_cells_formula_is_raw():
    # the cell formula itself never checks nonnegativity
    mu = cc.validate_margin([0.9, 0.1])
    cells = cc.indetermination_cells(mu, mu)
    assert cells.min() < 0
    expected = (
        mu.probs[:, None] / 2 + mu.probs[None, :] / 2 - 1.0 / 4
    )
    npt.assert_allclose(cells, expected, atol=1e-15)


def test_entropy_ordering_of_the_two_couplings():
    rng = np.random.default_rng(11)
    mu, nu = h_valid_margin_pair(3, 4, rng)
    pi_x = cc.couple_independence(mu, nu)
    pi_p = cc.couple_indetermination(mu, nu)
    # independence maximizes entropy among couplings of (mu, nu)
    assert cc.entropy_cost(pi_x) >= cc.entropy_cost(pi_p) - 1e-12
    # indetermination minimizes squared deviation from uniform
    assert cc.least_squares_cost(pi_p) <= cc.least_squares_cost(pi_x) + 1e-12


def test_entropy_cost_handles_zero_cells():
    mu = cc.validate_margin(np.array([9, 6, 3, 9]) / 27)
    nu = cc.validate_margin(np.array([9, 13, 5]) / 27)
    pi = cc.couple_indetermination(mu, nu)  # has an exact zero cell
    value = cc.entropy_cost(pi)
    assert np.isfinite(value)
    # 0 * log 0 treated as 0: recompute on the nonzero cells only
    c = pi.cells[pi.cells > 0]
    npt.assert_allclose(value, -(c * np.log(c)).sum(), atol=1e-12)


def test_least_squares_cost_sum_of_squares_identity():
    rng = np.random.default_rng(5)
    mu = cc.sample_dirichlet(4, rng)
    nu = cc.sample_dirichlet(5, rng)
    pi = cc.couple_independence(mu, nu)
    # sum (pi - 1/pq)^2 = sum pi^2 - 1/pq
    direct = cc.least_squares_cost(pi)
    algebraic = (pi.cells**2).sum() - 1.0 / (pi.p * pi.q)
    npt.assert_allclose(direct, algebraic, atol=1e-14)


def test_squared_distance_example_and_zero_case():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    d = cc.squared_distance(
        cc.couple_independence(mu, nu), cc.couple_indetermination(mu, nu)
    )
    npt.assert_allclose(d, 0.0016, atol=1e-12)
    # one uniform margin makes the couplings coincide
    uni = cc.uniform_margin(2)
    d0 = cc.squared_distance(
        cc.couple_independence(uni, nu), cc.couple_indetermination(uni, nu)
    )
    assert d0 <= 1e-30


def test_squared_distance_dimension_mismatch():
    mu = cc.validate_margin([0.5, 0.5])
    nu = cc.validate_margin([0.4, 0.3, 0.3])
    with pytest.raises(cc.DimensionMismatch):
        cc.squared_distance(
            cc.couple_independence(mu, mu), cc.couple_independence(mu, nu)
        )


def test_delta_closed_form_values():
    npt.assert_allclose(cc.delta_closed_form(2, 2), 1.0 / 36, rtol=1e-15)
    npt.assert_allclose(cc.delta_closed_form(3, 4), 0.025, rtol=1e-12)
    assert cc.delta_closed_form(1, 7) == 0.0
    assert cc.delta_closed_form(7, 1) == 0.0
    with pytest.raises(cc.NonPositiveDimension):
        cc.delta_closed_form(0, 3)


@pytest.mark.parametrize(
    "p, q", [(3.5, 4), (3, 4.5), (3.0, 4), (3, "4"), (None, 4), (0, 4), (3, -1)]
)
def test_delta_rejects_non_integer_dimensions(p, q):
    with pytest.raises(cc.NonPositiveDimension):
        cc.delta_closed_form(p, q)
    with pytest.raises(cc.NonPositiveDimension):
        cc.delta_monte_carlo(p, q, 10, rng=0)


def test_delta_closed_form_paper_bound():
    for p in range(1, 13):
        for q in range(1, 13):
            assert cc.delta_closed_form(p, q) <= 1.0 / (p * q) + 1e-15


def test_delta_monte_carlo_matches_closed_form():
    est = cc.delta_monte_carlo(2, 3, 40_000, rng=2)
    closed = cc.delta_closed_form(2, 3)
    assert est.n_samples == 40_000
    assert abs(est.mean - closed) <= 4 * est.std_error
    assert est.std_error > 0


def test_delta_monte_carlo_p1_exactly_zero():
    est = cc.delta_monte_carlo(1, 6, 500, rng=0)
    assert est.mean <= 1e-30
    assert est.std_error <= 1e-30


@pytest.mark.parametrize("p, q", [(1, 6), (2, 2), (3, 4), (7, 1)])
def test_delta_stream_matches_cell_wise_distance(p, q):
    from coupleclust.coupling import _delta_stream

    m = 200
    d2 = _delta_stream(p, q, m, np.random.default_rng(17))
    # the same margins, re-drawn from an identically seeded generator
    rng = np.random.default_rng(17)
    mu = rng.exponential(size=(m, p))
    mu /= mu.sum(axis=1, keepdims=True)
    nu = rng.exponential(size=(m, q))
    nu /= nu.sum(axis=1, keepdims=True)
    cell_wise = []
    for a, b in zip(mu, nu):
        additive = cc.indetermination_cells(cc.Margin(a), cc.Margin(b))
        cell_wise.append(((np.outer(a, b) - additive) ** 2).sum())
    npt.assert_allclose(d2, cell_wise, rtol=0, atol=1e-15)
    if p == 1 or q == 1:
        assert np.all(d2 == 0.0)


def test_delta_monte_carlo_reproducible_per_seed_and_streams():
    a = cc.delta_monte_carlo(3, 3, 8_000, rng=9, n_streams=4)
    b = cc.delta_monte_carlo(3, 3, 8_000, rng=9, n_streams=4)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = cc.delta_monte_carlo(3, 3, 8_000, rng=9, n_streams=1)
    # different stream split, same law: close but not identical
    assert c.mean != a.mean
    assert abs(c.mean - a.mean) <= 5 * (a.std_error + c.std_error)


def test_delta_monte_carlo_thread_pool_matches_sequential(monkeypatch):
    for n_streams in (2, 3, 5):
        runs = []
        for cap in (1, 2):
            monkeypatch.setattr(_mc, "thread_cap", lambda: cap)
            runs.append(cc.delta_monte_carlo(4, 2, 6_000, rng=13, n_streams=n_streams))
        assert runs[0] == runs[1]


def batch_samples(p, q, m, seed, n_streams):
    """Reference: one (m, p) and one (m, q) Dirichlet draw per stream, the
    squared distances computed on the whole draws, concatenated in stream
    order. Row sums are the estimator's own reduction, which must not
    depend on how many rows it is handed at once."""
    from coupleclust._mc import run_streams

    def row_sums(x):
        return np.einsum("ij->i", x)

    def stream(rng, m):
        mu = rng.exponential(size=(m, p))
        mu /= row_sums(mu)[:, None]
        nu = rng.exponential(size=(m, q))
        nu /= row_sums(nu)[:, None]
        return row_sums((mu - 1.0 / p) ** 2) * row_sums((nu - 1.0 / q) ** 2)

    return np.concatenate(run_streams(stream, m, seed, n_streams))


@pytest.mark.parametrize(
    "p, q, m, seed, n_streams",
    [
        (3, 4, 200_000, 7, 1),
        (1, 1, 5, 0, 1),
        (10, 10, 200_001, 3, 2),
        (2, 9, 70_000, 11, 3),
        (1, 130, 1_001, 5, 1),
        (17, 8, 20_000, 13, 2),
        (140, 131, 3_001, 2, 2),
    ],
)
def test_delta_monte_carlo_chunked_draws_are_bit_identical(p, q, m, seed, n_streams):
    from coupleclust._mc import run_streams
    from coupleclust.coupling import _delta_stream

    d2 = batch_samples(p, q, m, seed, n_streams)
    chunked = run_streams(lambda gen, k: _delta_stream(p, q, k, gen), m, seed, n_streams)
    assert np.concatenate(chunked).tobytes() == d2.tobytes()
    # Each stream is reduced on its own, so one stream's mean is the mean of
    # the whole sample to the last bit; combining several by the pairwise
    # update agrees to rounding.
    est = cc.delta_monte_carlo(p, q, m, rng=seed, n_streams=n_streams)
    if n_streams == 1:
        assert est.mean == float(d2.mean())
    else:
        assert est.mean == pytest.approx(float(d2.mean()), rel=1e-12, abs=0)
    std_error = float(d2.std(ddof=1) / math.sqrt(m))
    assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)


# delta_monte_carlo(p, q, 200_000, rng=seed) as (mean, std_error) for seeds
# 0, 1 and 2, recorded while rows were summed in numpy's pairwise order.
PINNED_DELTA = {
    (3, 4): [
        (0.025033840308683625, 6.621323435195322e-05),
        (0.024977483017481733, 6.646720788179206e-05),
        (0.024921655868597917, 6.624015811417315e-05),
    ],
    (10, 10): [
        (0.006699519307265479, 1.2068433374220213e-05),
        (0.006688178926167707, 1.2075552008456383e-05),
        (0.006680940450347625, 1.204586456803012e-05),
    ],
}


@pytest.mark.parametrize("p, q", PINNED_DELTA)
def test_delta_monte_carlo_stream_is_pinned(p, q):
    # the random stream is fixed, so a change in how rows are summed moves
    # only the last bits; each estimate also lies within 5 standard errors
    # of the closed form
    closed = cc.delta_closed_form(p, q)
    for seed, (mean, std_error) in enumerate(PINNED_DELTA[p, q]):
        est = cc.delta_monte_carlo(p, q, 200_000, rng=seed)
        assert est.mean == pytest.approx(mean, rel=1e-13, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-13, abs=0)
        assert abs(est.mean - closed) <= 5 * est.std_error


def test_delta_monte_carlo_memory_is_bounded():
    # the samples alone take 8 MB; the whole (m, 10) draws would take 80 MB
    # each, and concatenating the streams and taking their std 24 MB
    for n_streams in (1, 2):
        tracemalloc.start()
        try:
            est = cc.delta_monte_carlo(10, 10, 1_000_000, rng=1, n_streams=n_streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(est.mean - cc.delta_closed_form(10, 10)) <= 5 * est.std_error
        assert peak <= 10e6


def test_sample_dirichlet_is_a_margin():
    rng = np.random.default_rng(3)
    m = cc.sample_dirichlet(6, rng)
    assert m.p == 6
    assert m.probs.min() >= 0
    npt.assert_allclose(m.probs.sum(), 1.0, atol=1e-12)


def test_dirichlet_first_coordinate_variance():
    # Var(X_1) = (p-1) / (p^2 (p+1)) under the flat Dirichlet
    rng = np.random.default_rng(17)
    p, n = 3, 40_000
    draws = np.array([cc.sample_dirichlet(p, rng).probs[0] for _ in range(n)])
    target = (p - 1) / (p**2 * (p + 1))
    s2 = draws.var(ddof=1)
    centered = draws - draws.mean()
    se = np.sqrt((np.mean(centered**4) - s2**2) / n)
    assert abs(s2 - target) <= 4 * se


def test_margin_json_round_trip():
    m = cc.validate_margin([0.2, 0.5, 0.3])
    again = cc.Margin.from_json(m.to_json())
    npt.assert_array_equal(again.probs, m.probs)


def test_joint_json_round_trip():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    pi = cc.couple_independence(mu, nu)
    again = cc.JointDistribution.from_json(pi.to_json())
    npt.assert_allclose(again.cells, pi.cells, atol=1e-15)
    data = json.loads(pi.to_json())
    data["p"] = 3
    with pytest.raises(cc.DimensionMismatch):
        cc.JointDistribution.from_json_dict(data)
    for bad in (2.5, 2.0, "2"):
        data["p"] = bad
        with pytest.raises(cc.NonPositiveDimension, match="^p must be an integer"):
            cc.JointDistribution.from_json_dict(data)


@pytest.mark.parametrize(
    "record, text, problem",
    [
        (cc.Margin, "{}", r"^margin must contain .*; missing \['probs'\]"),
        (cc.Margin, "5", "^margin must hold a JSON object, got int"),
        (cc.Margin, "[0.5, 0.5]", "^margin must hold a JSON object, got list"),
        (cc.JointDistribution, '"pqcells"', "^joint must hold a JSON object, got str"),
        (cc.JointDistribution, '{"q": 1, "cells": [[1.0]]}', r"^joint must .*; missing \['p'\]"),
    ],
)
def test_json_readers_want_an_object_holding_their_keys(record, text, problem):
    # not a KeyError or a TypeError from indexing the wrong JSON value
    with pytest.raises(ValueError, match=problem):
        record.from_json(text)


def test_from_cells_rejections_and_dust():
    with pytest.raises(cc.NegativeEntry):
        cc.JointDistribution.from_cells(np.array([[0.6, 0.5], [-0.1, 0.0]]))
    with pytest.raises(cc.SumNotOne):
        cc.JointDistribution.from_cells(np.array([[0.5, 0.4], [0.05, 0.0]]))
    pi = cc.JointDistribution.from_cells(np.array([[0.6, 0.4], [-1e-13, 0.0]]))
    assert pi.cells.min() == 0.0


def test_delta_estimate_validation():
    # a NaN or infinite field would reach to_json() as invalid JSON
    for error, mean, std_error in [
        (cc.NegativeEntry, -0.1, 0.0),
        (cc.NegativeEntry, 0.1, -0.1),
        (cc.NonFiniteEntry, np.nan, 0.0),
        (cc.NonFiniteEntry, np.inf, 0.0),
        (cc.NonFiniteEntry, 0.1, np.nan),
        (cc.NonFiniteEntry, 0.1, np.inf),
    ]:
        with pytest.raises(error):
            cc.DeltaEstimate(mean=mean, std_error=std_error, n_samples=10)
