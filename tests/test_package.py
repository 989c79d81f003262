"""The package surface: every public name of every submodule, exported once."""

import importlib

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
