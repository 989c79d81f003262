"""Tests for relational encodings, agreement counts, and the equilibrium
characterization of the additive coupling."""

import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from conftest import h_valid_margin_pair, skewed_margin


def balance_from_terms(terms: cc.AgreementCounts, p: int, q: int) -> float:
    """The weighted pair-comparison balance evaluated on expectation terms."""
    return (
        terms.agree_11 / (p * q)
        + terms.agree_00 / (p * (p - 1) * q * (q - 1))
        - terms.disagree_10 / (p * q * (q - 1))
        - terms.disagree_01 / (p * (p - 1) * q)
    )


def test_encode_decode_round_trip_is_canonical():
    labels = [2, 0, 2, 1]
    rel = cc.relational_encode(labels)
    decoded = cc.decode_partition(rel)
    npt.assert_array_equal(decoded, [0, 1, 0, 2])
    # canonical labels encode back to the same relation
    assert np.array_equal(cc.relational_encode(decoded).rel, rel.rel)


def test_encode_accepts_arbitrary_hashables():
    rel = cc.relational_encode(["b", "a", "b"])
    npt.assert_array_equal(rel.rel, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    npt.assert_array_equal(cc.decode_partition(rel), [0, 1, 0])


def test_relational_matrix_validation():
    cc.RelationalMatrix(np.eye(3, dtype=int))
    with pytest.raises(cc.NotEquivalenceRelation):
        # 0-1 and 1-2 related but 0-2 not: fails transitivity
        cc.RelationalMatrix(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    with pytest.raises(cc.NotEquivalenceRelation):
        cc.RelationalMatrix(np.array([[1, 1], [0, 1]]))  # asymmetric
    with pytest.raises(cc.NotEquivalenceRelation):
        cc.RelationalMatrix(np.array([[1, 0], [0, 0]]))  # irreflexive
    with pytest.raises(cc.NotEquivalenceRelation):
        cc.RelationalMatrix(np.array([[1, 2], [2, 1]]))  # not 0/1
    with pytest.raises(cc.NotEquivalenceRelation):
        cc.RelationalMatrix(np.ones((2, 3), dtype=int))  # not square


def is_equivalence_brute_force(mat: np.ndarray) -> bool:
    """Symmetry, reflexivity and transitivity checked entry by entry."""
    n = mat.shape[0]
    idx = range(n)
    return (
        all(mat[i, j] == mat[j, i] for i in idx for j in idx)
        and all(mat[i, i] == 1 for i in idx)
        and all(
            mat[i, k] == 1
            for i in idx
            for j in idx
            for k in idx
            if mat[i, j] == 1 and mat[j, k] == 1
        )
    )


def all_zero_one_matrices(n: int):
    for bits in itertools.product((0, 1), repeat=n * n):
        yield np.array(bits, dtype=np.int64).reshape(n, n)


def all_symmetric_reflexive_matrices(n: int):
    upper = np.triu_indices(n, k=1)
    for bits in itertools.product((0, 1), repeat=len(upper[0])):
        mat = np.eye(n, dtype=np.int64)
        mat[upper] = bits
        mat.T[upper] = bits
        yield mat


@pytest.mark.parametrize(
    "n, matrices",
    [(n, all_zero_one_matrices) for n in (1, 2, 3)]
    + [(n, all_symmetric_reflexive_matrices) for n in (4, 5)],
    ids=["all-1", "all-2", "all-3", "symmetric-reflexive-4", "symmetric-reflexive-5"],
)
def test_relational_matrix_accepts_exactly_the_equivalence_relations(n, matrices):
    accepted = 0
    for mat in matrices(n):
        if is_equivalence_brute_force(mat):
            rel = cc.RelationalMatrix(mat)
            npt.assert_array_equal(rel.rel, mat)
            accepted += 1
        else:
            with pytest.raises(cc.NotEquivalenceRelation):
                cc.RelationalMatrix(mat)
    # one equivalence relation per partition: the Bell numbers
    assert accepted == {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}[n]


def agreement_counts_reference(x, y) -> cc.AgreementCounts:
    """The four n x n products of the relations and their complements."""
    xf = x.rel.astype(np.int64)
    yf = y.rel.astype(np.int64)
    xc = 1 - xf
    yc = 1 - yf
    return cc.AgreementCounts(
        agree_11=float((xf * yf).sum()),
        agree_00=float((xc * yc).sum()),
        disagree_10=float((xf * yc).sum()),
        disagree_01=float((xc * yf).sum()),
    )


def random_labelings(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 7, size=n), rng.integers(0, 4, size=n)


@pytest.mark.parametrize("n", [1, 5, 40, 300])
def test_agreement_counts_match_the_matrix_products(n):
    for seed in range(5):
        a, b = random_labelings(n, seed)
        x, y = cc.relational_encode(a), cc.relational_encode(b)
        assert cc.agreement_counts(x, y) == agreement_counts_reference(x, y)


@pytest.mark.parametrize("n", [1, 5, 40, 300])
def test_agreement_counts_are_the_expected_terms_of_the_contingency_table(n):
    for seed in range(5):
        a, b = random_labelings(n, seed)
        counts = cc.agreement_counts(cc.relational_encode(a), cc.relational_encode(b))
        table = np.zeros((a.max() + 1, b.max() + 1))
        np.add.at(table, (a, b), 1.0)
        terms = cc.expected_agreement_terms(cc.JointDistribution.from_cells(table / n))
        for name in ("agree_11", "agree_00", "disagree_10", "disagree_01"):
            assert abs(getattr(counts, name) / n**2 - getattr(terms, name)) <= 1e-12


def test_agreement_counts_hand_example():
    x = cc.relational_encode([0, 0, 1])
    y = cc.relational_encode([0, 1, 1])
    counts = cc.agreement_counts(x, y)
    # ordered pairs, diagonal included: both matrices agree on the diagonal
    assert counts.agree_11 == 3.0  # (0,0), (1,1), (2,2)
    assert counts.disagree_10 == 2.0  # (0,1), (1,0)
    assert counts.disagree_01 == 2.0  # (1,2), (2,1)
    assert counts.agree_00 == 2.0  # (0,2), (2,0)
    assert counts.total == 9.0
    with pytest.raises(cc.DimensionMismatch):
        cc.agreement_counts(x, cc.relational_encode([0, 1]))


@pytest.mark.parametrize(
    "error, fields",
    [
        (cc.NegativeEntry, (3.0, 2.0, -1.0, 2.0)),
        (cc.NonFiniteEntry, (np.nan, 2.0, 2.0, 2.0)),
        (cc.NonFiniteEntry, (3.0, np.inf, 2.0, 2.0)),
        (cc.NonFiniteEntry, (3.0, 2.0, -np.inf, 2.0)),
        (cc.NonFiniteEntry, (3.0, 2.0, 2.0, np.nan)),
    ],
)
def test_agreement_counts_validation(error, fields):
    # a NaN or infinite field would reach to_json() as invalid JSON
    with pytest.raises(error):
        cc.AgreementCounts(*fields)


def test_expected_terms_sum_to_one_and_match_brute_force():
    rng = np.random.default_rng(10)
    mu = cc.sample_dirichlet(3, rng)
    nu = cc.sample_dirichlet(4, rng)
    pi = cc.couple_independence(mu, nu)
    terms = cc.expected_agreement_terms(pi)
    npt.assert_allclose(terms.total, 1.0, atol=1e-12)

    # brute force over two independent draws (u, v) and (u2, v2)
    a11 = a00 = d10 = d01 = 0.0
    c = pi.cells
    for u in range(pi.p):
        for v in range(pi.q):
            for u2 in range(pi.p):
                for v2 in range(pi.q):
                    w = c[u, v] * c[u2, v2]
                    if u == u2 and v == v2:
                        a11 += w
                    elif u == u2:
                        d10 += w
                    elif v == v2:
                        d01 += w
                    else:
                        a00 += w
    npt.assert_allclose(terms.agree_11, a11, atol=1e-12)
    npt.assert_allclose(terms.agree_00, a00, atol=1e-12)
    npt.assert_allclose(terms.disagree_10, d10, atol=1e-12)
    npt.assert_allclose(terms.disagree_01, d01, atol=1e-12)


def test_additive_coupling_is_the_balance_equilibrium():
    rng = np.random.default_rng(19)
    for p, q in [(2, 2), (3, 4), (5, 3)]:
        mu, nu = h_valid_margin_pair(p, q, rng)
        pi_plus = cc.couple_indetermination(mu, nu)
        terms = cc.expected_agreement_terms(pi_plus)
        assert abs(balance_from_terms(terms, p, q)) <= 1e-12


def test_independence_coupling_off_equilibrium_for_skewed_margins():
    rng = np.random.default_rng(23)
    for _ in range(10):
        mu = skewed_margin(3, rng)
        nu = skewed_margin(4, rng)
        pi_x = cc.couple_independence(mu, nu)
        terms = cc.expected_agreement_terms(pi_x)
        assert abs(balance_from_terms(terms, 3, 4)) > 1e-12
        assert cc.condorcet_residual(pi_x) > 1e-12


def test_condorcet_residual_values():
    mu = cc.validate_margin([0.7, 0.3])
    nu = cc.validate_margin([0.6, 0.4])
    npt.assert_allclose(
        cc.condorcet_residual(cc.couple_independence(mu, nu)), 0.0064, atol=1e-12
    )
    assert cc.condorcet_residual(cc.couple_indetermination(mu, nu)) <= 1e-12
    # scaling: residual = p*q*squared_distance(pi, additive(margins of pi))
    d = cc.squared_distance(
        cc.couple_independence(mu, nu), cc.couple_indetermination(mu, nu)
    )
    npt.assert_allclose(
        cc.condorcet_residual(cc.couple_independence(mu, nu)), 4 * d, atol=1e-14
    )


def test_condorcet_residual_degenerate_dimensions():
    pi = cc.JointDistribution.from_cells(np.array([[0.6, 0.4]]))
    with pytest.raises(cc.DegenerateDimensions):
        cc.condorcet_residual(pi)


def test_weighted_balance_residual_relational_inputs():
    x = cc.relational_encode([0, 0, 1, 1])
    y = cc.relational_encode([0, 0, 1, 1])
    # identical two-class partitions: counts a11=8, a00=8, d10=d01=0;
    # with p=q=2 the balance is 8/4 + 8/4 = 4
    npt.assert_allclose(cc.weighted_balance_residual(x, y, 2, 2), 4.0)
    with pytest.raises(cc.DegenerateDimensions):
        cc.weighted_balance_residual(x, y, 1, 2)


def test_sample_agreement_counts_matches_expectation():
    rng = np.random.default_rng(31)
    mu = cc.sample_dirichlet(3, rng)
    nu = cc.sample_dirichlet(3, rng)
    pi = cc.couple_independence(mu, nu)
    n_pairs = 20_000
    counts = cc.sample_agreement_counts(pi, n_pairs, rng=7)
    assert counts.total == n_pairs
    expected = cc.expected_agreement_terms(pi)
    for name in ("agree_11", "agree_00", "disagree_10", "disagree_01"):
        p_hat = getattr(counts, name) / n_pairs
        p_true = getattr(expected, name)
        se = np.sqrt(p_true * (1 - p_true) / n_pairs)
        assert abs(p_hat - p_true) <= 4 * se + 1e-12


def test_sample_agreement_counts_reproducible():
    pi = cc.couple_independence(
        cc.validate_margin([0.7, 0.3]), cc.validate_margin([0.6, 0.4])
    )
    a = cc.sample_agreement_counts(pi, 1000, rng=5)
    b = cc.sample_agreement_counts(pi, 1000, rng=5)
    assert a == b
    with pytest.raises(cc.NonPositiveDimension):
        cc.sample_agreement_counts(pi, 0)


def choice_agreement_counts(pi, n_pairs, rng):
    """Reference: both draws from ``Generator.choice`` with ``p``, decoded
    to rows and columns with ``divmod``."""
    flat = pi.cells.ravel()
    draws = rng.choice(flat.size, size=(2, n_pairs), p=flat)
    u, v = np.divmod(draws, pi.q)
    same_row, same_col = u[0] == u[1], v[0] == v[1]
    a11 = int(np.count_nonzero(same_row & same_col))
    d10 = int(np.count_nonzero(same_row & ~same_col))
    d01 = int(np.count_nonzero(~same_row & same_col))
    return cc.AgreementCounts(float(a11), float(n_pairs - a11 - d10 - d01), float(d10), float(d01))


def agreement_joints():
    rng = np.random.default_rng(3)
    tiny = np.full((3, 40), 1e-9)
    tiny[1, 7] += 1.0 - tiny.sum()
    last = np.full((2, 30), 1e-12)
    last[1, 29] += 1.0 - last.sum()
    return {
        "6x8": cc.couple_independence(cc.sample_dirichlet(6, rng), cc.sample_dirichlet(8, rng)),
        "1x1": cc.JointDistribution.from_cells([[1.0]]),
        "zero cells": cc.JointDistribution.from_cells([[0.0, 0.5, 0.0], [0.25, 0.0, 0.25]]),
        "1xq": cc.JointDistribution.from_cells(np.full((1, 200), 1 / 200)),
        "px1": cc.JointDistribution.from_cells([[0.1], [0.0], [0.6], [0.3]]),
        # cells far below one bucket of the guide table, many to a bucket
        "tiny cells": cc.JointDistribution.from_cells(tiny),
        "tiny cells first": cc.JointDistribution.from_cells(last),
        "17x16": cc.couple_independence(cc.sample_dirichlet(17, rng), cc.sample_dirichlet(16, rng)),
    }


@pytest.mark.parametrize("name", list(agreement_joints()))
def test_sample_agreement_counts_are_those_of_generator_choice(name):
    from coupleclust.relational import _AGREEMENT_CHUNK

    pi = agreement_joints()[name]
    for n_pairs in (1, 2, _AGREEMENT_CHUNK - 1, _AGREEMENT_CHUNK, _AGREEMENT_CHUNK + 1, 50_000):
        ours, reference = np.random.default_rng(n_pairs), np.random.default_rng(n_pairs)
        counts = cc.sample_agreement_counts(pi, n_pairs, rng=ours)
        assert counts == choice_agreement_counts(pi, n_pairs, reference)
        assert ours.bit_generator.state == reference.bit_generator.state


def test_sample_agreement_counts_memory_is_bounded():
    # one byte per pair for the first draws (two from 256 cell codes) and
    # a chunk's buffers; the draws of Generator.choice and their rows and
    # columns take 64 bytes per pair
    n_pairs = 2_000_000
    for name, itemsize in (("6x8", 1), ("17x16", 2)):
        pi = agreement_joints()[name]
        tracemalloc.start()
        try:
            counts = cc.sample_agreement_counts(pi, n_pairs, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.total == n_pairs
        assert peak <= n_pairs * itemsize + 1e6


def test_relational_matrix_json():
    rel = cc.relational_encode([0, 1, 0])
    data = rel.to_json_dict()
    assert data["n"] == 3
    assert data["rel"][0][2] == 1
