"""The JSON form of every result type: its keys, in order, and a faithful
``to_json``."""

import json

import numpy as np
import pytest

import coupleclust as cc

MU = cc.validate_margin([0.3, 0.3, 0.4])
NU = cc.validate_margin([0.2, 0.3, 0.25, 0.25])
REL = cc.relational_encode([0, 1, 0, 2])


def records():
    """One instance of every result type, with the keys its JSON form has."""
    yield cc.Partition.from_labels([2, 2, 0, 1]), ["labels", "k"]
    yield MU, ["probs"]
    yield cc.couple_indetermination(MU, NU), ["p", "q", "cells"]
    yield cc.delta_monte_carlo(3, 4, 50, rng=1), ["mean", "std_error", "n_samples"]
    for hist in cc.theoretical_bias_histograms(12, 0.3, bins=5):
        yield hist, ["which", "bin_edges", "counts"]
    yield cc.monge_report(np.array([[1.0, 2.0], [3.0, 4.5]])), [
        "is_monge", "is_anti_monge", "is_full_monge", "is_full_log_monge",
        "max_adjacent_residual",
    ]
    theorem_keys = [
        "additive_holds", "residual_adjacent_sum", "residual_additive_formula",
        "residual_exhaustive_sum", "multiplicative_holds", "residual_adjacent_log_sum",
        "residual_independence_formula", "residual_exhaustive_product",
    ]
    yield cc.verify_monge_theorems(cc.couple_independence(MU, NU)), theorem_keys
    zero_cell = cc.JointDistribution.from_cells(np.array([[0.5, 0.0], [0.25, 0.25]]))
    yield cc.verify_monge_theorems(zero_cell), theorem_keys
    solver_keys = ["solution", "iterations", "final_violation", "converged"]
    yield cc.solve_entropy_projection(MU, NU), solver_keys
    yield cc.solve_least_squares_projection(MU, NU), solver_keys
    yield REL, ["n", "rel"]
    yield cc.agreement_counts(REL, cc.relational_encode([0, 0, 1, 1])), [
        "agree_11", "agree_00", "disagree_10", "disagree_01",
    ]
    triangle = cc.WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    result = cc.louvain(triangle, cc.independence_criterion(), cc.LouvainConfig(restarts=1))
    yield result, ["labels", "k", "score", "criterion", "trace"]


CASES = list(records())


@pytest.mark.parametrize("record, keys", CASES, ids=[type(r).__name__ for r, _ in CASES])
def test_json_keys_in_order_and_to_json_agrees(record, keys):
    data = record.to_json_dict()
    assert list(data) == keys
    assert json.loads(record.to_json()) == data


def test_every_result_type_is_covered():
    covered = {type(r) for r, _ in CASES}
    assert covered == {
        cc.Partition, cc.Margin, cc.JointDistribution, cc.DeltaEstimate,
        cc.BiasHistogram, cc.MongeReport, cc.TheoremReport, cc.SolverReport,
        cc.RelationalMatrix, cc.AgreementCounts, cc.LouvainResult,
    }


def test_arrays_and_nested_records_become_plain_json():
    labels = cc.Partition.from_labels([1, 0, 1]).to_json_dict()["labels"]
    assert labels == [0, 1, 0] and all(type(x) is int for x in labels)
    assert all(type(x) is float for x in MU.to_json_dict()["probs"])
    report = cc.solve_entropy_projection(MU, NU)
    assert report.to_json_dict()["solution"] == report.solution.to_json_dict()
    result = CASES[-1][0]
    assert result.to_json_dict()["labels"] == result.partition.to_json_dict()["labels"]
    assert REL.to_json_dict()["rel"][0] == [1, 0, 1, 0]
