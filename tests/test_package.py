"""The package surface: every public name of every submodule, exported once,
and what importing the package loads."""

import ast
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
diff = coupleclust.theoretical_bias_difference_distribution(50, 0.3)
mass = coupleclust.theoretical_joint_pmf(50, 0.3)
hist_code = coupleclust.cli.main(["bias-hist", "50", "0.3", "--theoretical", "--out", sys.argv[2]])
steps.append("scipy.stats" in sys.modules)
counts = [h.counts.tolist() for h in (times, plus, diff)]
print(json.dumps({"codes": [code, hist_code], "loaded": steps, "counts": counts, "mass": mass.sum()}))
"""


def test_clustering_does_not_import_scipy_stats(tmp_path):
    """A fresh process imports the package, clusters karate, and computes
    both exact bias laws, the joint degree law and a theoretical
    ``bias-hist`` without loading ``scipy.stats``: the binomial masses come
    from the package's own kernel. This process already has the module (the
    tests use it as a reference), so only a new interpreter can tell. The
    laws give the same counts there as here."""
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path / "labels.json"), str(tmp_path / "hist.csv")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    assert report["loaded"] == [False, False, False]
    assert (tmp_path / "labels.json").exists() and (tmp_path / "hist.csv").exists()
    assert abs(report["mass"] - 1.0) <= 1e-12
    times, plus = cc.theoretical_bias_histograms(50, 0.3)
    diff = cc.theoretical_bias_difference_distribution(50, 0.3)
    assert report["counts"] == [h.counts.tolist() for h in (times, plus, diff)]


def _imported_modules(tree: ast.AST):
    """Every module an ``import`` or ``from ... import`` statement names,
    counting each name ``from X import name`` takes as a possible
    submodule ``X.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_stats():
    """No statement anywhere in the package imports ``scipy.stats``, so
    paths the fresh-process guard does not run are covered too."""
    package = Path(cc.__file__).resolve().parent
    offenders = sorted(
        f"{path.relative_to(package)}: {name}"
        for path in package.rglob("*.py")
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name == "scipy.stats" or name.startswith("scipy.stats.")
    )
    assert not offenders, offenders
