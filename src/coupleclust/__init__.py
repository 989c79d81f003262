"""Couplings of probability margins and the graph criteria they induce.

Two canonical ways to couple a pair of discrete margins anchor everything
here: the independence coupling (product of margins, the maximum-entropy
choice) and the indetermination coupling (additive form, the minimum
squared deviation from uniform). The package provides

* exact constructors and cost functionals for both couplings, plus the
  iterative projections (iterative proportional fitting, Dykstra) that
  serve as independent numerical oracles for them
  (:mod:`coupleclust.coupling`, :mod:`coupleclust.solvers`);
* the Monge / log-Monge structure tests that characterize the two
  couplings row-by-row, with theorem cross-validation
  (:mod:`coupleclust.monge`);
* relational (pairwise-agreement) encodings of partitions and the
  agreement expectations a coupling induces
  (:mod:`coupleclust.relational`);
* weighted graphs viewed as joint distributions over node pairs: the two
  centered clustering criteria obtained by subtracting each coupling's
  null, their bias distributions on Gilbert random graphs, and greedy plus
  exhaustive partition search (:mod:`coupleclust.graph`,
  :mod:`coupleclust.louvain`);
* a ``coupleclust`` command-line tool wrapping all of the above with run
  manifests for provenance (:mod:`coupleclust.cli`).
"""

from .coupling import (
    DeltaEstimate,
    JointDistribution,
    Margin,
    check_condition_h,
    couple_independence,
    couple_indetermination,
    delta_closed_form,
    delta_monte_carlo,
    entropy_cost,
    indetermination_cells,
    least_squares_cost,
    sample_dirichlet,
    squared_distance,
    uniform_margin,
    validate_margin,
)
from .data import karate_path, load_karate
from .errors import (
    ConditionHViolated,
    CoupleclustError,
    DegenerateDimensions,
    DimensionMismatch,
    EdgeListParseError,
    EmptyGraph,
    InconsistentTheorem,
    NegativeEntry,
    NonFiniteEntry,
    NonPositiveDimension,
    NonPositiveEntry,
    NotConverged,
    NotEquivalenceRelation,
    SumNotOne,
    TooLarge,
    ZeroEps,
)
from .graph import (
    BiasHistogram,
    DENSE_CAP,
    WeightedGraph,
    bias_bin_edges,
    bias_bounds,
    bias_indetermination,
    bias_independence,
    empirical_bias_difference_histogram,
    empirical_bias_histogram,
    empirical_bias_samples,
    gilbert,
    gilbert_weighted,
    load_edge_list,
    local_indetermination_criterion,
    local_independence_criterion,
    theoretical_bias_difference_distribution,
    theoretical_bias_histograms,
    theoretical_joint_pmf,
)
from .louvain import (
    LocalCriterion,
    LouvainConfig,
    LouvainResult,
    Partition,
    criterion_by_name,
    exhaustive_best_partition,
    global_score,
    indetermination_criterion,
    independence_criterion,
    louvain,
)
from .monge import (
    MongeReport,
    TheoremReport,
    adjacent_sum_residuals,
    is_anti_monge,
    is_full_log_monge,
    is_full_monge,
    is_monge,
    monge_report,
    verify_monge_theorems,
)
from .relational import (
    AgreementCounts,
    RelationalMatrix,
    agreement_counts,
    condorcet_residual,
    decode_partition,
    expected_agreement_terms,
    relational_encode,
    sample_agreement_counts,
    weighted_balance_residual,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    recover_lagrange_multipliers,
    solve_entropy_projection,
    solve_least_squares_projection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coupling
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
    "delta_monte_carlo",
    "sample_dirichlet",
    # solvers
    "SolverConfig",
    "SolverReport",
    "solve_entropy_projection",
    "solve_least_squares_projection",
    "recover_lagrange_multipliers",
    # monge
    "MongeReport",
    "TheoremReport",
    "adjacent_sum_residuals",
    "is_monge",
    "is_anti_monge",
    "is_full_monge",
    "is_full_log_monge",
    "monge_report",
    "verify_monge_theorems",
    # relational
    "RelationalMatrix",
    "AgreementCounts",
    "relational_encode",
    "decode_partition",
    "agreement_counts",
    "weighted_balance_residual",
    "expected_agreement_terms",
    "condorcet_residual",
    "sample_agreement_counts",
    # graph
    "DENSE_CAP",
    "WeightedGraph",
    "BiasHistogram",
    "gilbert",
    "gilbert_weighted",
    "load_edge_list",
    "local_independence_criterion",
    "local_indetermination_criterion",
    "bias_independence",
    "bias_indetermination",
    "bias_bounds",
    "bias_bin_edges",
    "theoretical_joint_pmf",
    "theoretical_bias_difference_distribution",
    "theoretical_bias_histograms",
    "empirical_bias_samples",
    "empirical_bias_histogram",
    "empirical_bias_difference_histogram",
    # louvain
    "Partition",
    "LocalCriterion",
    "LouvainConfig",
    "LouvainResult",
    "independence_criterion",
    "indetermination_criterion",
    "criterion_by_name",
    "global_score",
    "louvain",
    "exhaustive_best_partition",
    # data
    "karate_path",
    "load_karate",
    # errors
    "CoupleclustError",
    "NegativeEntry",
    "NonFiniteEntry",
    "SumNotOne",
    "ConditionHViolated",
    "DimensionMismatch",
    "NonPositiveDimension",
    "NotConverged",
    "NonPositiveEntry",
    "InconsistentTheorem",
    "NotEquivalenceRelation",
    "DegenerateDimensions",
    "EmptyGraph",
    "ZeroEps",
    "TooLarge",
    "EdgeListParseError",
]
