"""The package surface: every public name of every submodule, exported once,
and what importing the package loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import coupleclust as cc

SUBMODULES = ("coupling", "solvers", "monge", "relational", "graph", "louvain", "data", "errors")

PUBLIC = set(
    """
    AgreementCounts BiasHistogram ConditionHViolated CoupleclustError
    DegenerateDimensions DeltaEstimate DimensionMismatch EdgeListParseError
    EmptyGraph InconsistentTheorem JointDistribution LocalCriterion
    LouvainConfig LouvainResult Margin MongeReport NegativeEntry NonFiniteEntry
    NonPositiveDimension NonPositiveEntry NotConverged NotEquivalenceRelation
    Partition RelationalMatrix SolverConfig SolverReport SumNotOne
    TheoremReport TooLarge WeightedGraph ZeroEps __version__
    adjacent_sum_residuals agreement_counts bias_bin_edges bias_bounds
    bias_independence bias_indetermination check_condition_h
    condorcet_residual couple_independence couple_indetermination
    criterion_by_name decode_partition delta_closed_form delta_monte_carlo
    empirical_bias_difference_histogram empirical_bias_histogram
    empirical_bias_samples entropy_cost exhaustive_best_partition
    expected_agreement_terms gilbert gilbert_weighted global_score
    independence_criterion indetermination_cells indetermination_criterion
    is_anti_monge is_full_log_monge is_full_monge is_monge karate_path
    least_squares_cost load_edge_list load_karate local_independence_criterion
    local_indetermination_criterion louvain monge_report
    recover_lagrange_multipliers relational_encode sample_agreement_counts
    sample_dirichlet solve_entropy_projection solve_least_squares_projection
    squared_distance theoretical_bias_difference_distribution
    theoretical_bias_histograms theoretical_joint_pmf uniform_margin
    validate_margin verify_monge_theorems weighted_balance_residual
    """.split()
)


def test_public_names_are_listed_once_and_unchanged():
    assert len(cc.__all__) == len(set(cc.__all__))
    assert set(cc.__all__) == PUBLIC
    assert len(PUBLIC) == 84


def test_every_public_name_is_its_submodules_object():
    exported = {"__version__"}
    for sub in SUBMODULES:
        module = importlib.import_module(f"coupleclust.{sub}")
        for name in module.__all__:
            assert getattr(cc, name) is getattr(module, name), (sub, name)
        exported.update(module.__all__)
    assert exported == set(cc.__all__)
    # the function, not the submodule it shares a name with
    assert callable(cc.louvain)


GUARD = """
import json, sys
import coupleclust, coupleclust.cli
steps = ["scipy.stats" in sys.modules]
code = coupleclust.cli.main(["cluster", "--karate", "--out", sys.argv[1]])
steps.append("scipy.stats" in sys.modules)
times, plus = coupleclust.theoretical_bias_histograms(50, 0.3)
print(json.dumps({"code": code, "loaded": steps, "counts": [times.counts.tolist(), plus.counts.tolist()]}))
"""


def test_clustering_does_not_import_scipy_stats(tmp_path):
    """A fresh process imports the package and clusters karate without
    loading ``scipy.stats``, which only the exact bias laws use; this
    process already has it, so only a new interpreter can tell. The laws
    then load it on demand and give the same counts as here."""
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path / "labels.json")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["code"] == 0
    assert report["loaded"] == [False, False]
    assert (tmp_path / "labels.json").exists()
    times, plus = cc.theoretical_bias_histograms(50, 0.3)
    assert report["counts"] == [times.counts.tolist(), plus.counts.tolist()]
