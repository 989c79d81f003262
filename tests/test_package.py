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
from pathlib import Path
import coupleclust, coupleclust.cli
out = Path(sys.argv[1])
(out / "margins.json").write_text(json.dumps({"mu": [0.7, 0.3], "nu": [0.6, 0.4]}))
HEAVY = ("scipy.stats", "scipy.sparse")
loaded = {"import": [m for m in HEAVY if m in sys.modules]}
codes = {}
def run(stage, argv):
    codes[stage] = coupleclust.cli.main(argv + ["--out", str(out / stage)])
    loaded[stage] = [m for m in HEAVY if m in sys.modules]
run("cluster", ["cluster", "--karate"])
run("gilbert", ["gilbert", "8", "0.5", "--seed", "1"])
run("best-exhaustive", ["best-exhaustive", str(out / "gilbert")])
run("couple", ["couple", str(out / "margins.json")])
run("delta", ["delta", "3", "3", "--samples", "1000"])
times, plus = coupleclust.theoretical_bias_histograms(50, 0.3)
diff = coupleclust.theoretical_bias_difference_distribution(50, 0.3)
mass = coupleclust.theoretical_joint_pmf(50, 0.3)
loaded["laws"] = [m for m in HEAVY if m in sys.modules]
run("bias-hist", ["bias-hist", "50", "0.3", "--theoretical"])
counts = [h.counts.tolist() for h in (times, plus, diff)]
print(json.dumps({"codes": codes, "loaded": loaded, "counts": counts, "mass": mass.sum()}))
"""

STAGES = ("cluster", "gilbert", "best-exhaustive", "couple", "delta", "bias-hist")


def test_clustering_does_not_import_scipy_stats(tmp_path):
    """A fresh process imports the package, then runs ``cluster --karate``,
    ``gilbert``, ``best-exhaustive``, ``couple``, ``delta``, both exact
    bias laws, the joint degree law and a theoretical ``bias-hist``, and
    neither ``scipy.stats`` nor ``scipy.sparse`` is loaded after any stage:
    the binomial masses come from the package's own kernel, and graphs keep
    their CSR in numpy arrays. This process already has both modules (the
    tests use them as references), so only a new interpreter can tell. The
    laws give the same counts there as here."""
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == dict.fromkeys(STAGES, 0)
    assert report["loaded"] == dict.fromkeys(("import", *STAGES[:-1], "laws", "bias-hist"), [])
    assert all((tmp_path / stage).exists() for stage in STAGES)
    assert abs(report["mass"] - 1.0) <= 1e-12
    times, plus = cc.theoretical_bias_histograms(50, 0.3)
    diff = cc.theoretical_bias_difference_distribution(50, 0.3)
    assert report["counts"] == [h.counts.tolist() for h in (times, plus, diff)]


def _imported_modules(tree: ast.AST, import_time_only: bool = False):
    """Every module an ``import`` or ``from ... import`` statement names,
    counting each name ``from X import name`` takes as a possible
    submodule ``X.name``. With ``import_time_only``, statements inside a
    function body, which run only when the function is called, are
    skipped."""
    for node in _statements(tree, import_time_only):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _statements(node: ast.AST, skip_functions: bool):
    for child in ast.iter_child_nodes(node):
        if skip_functions and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _statements(child, skip_functions)


def _offenders(module: str, import_time_only: bool = False) -> list[str]:
    package = Path(cc.__file__).resolve().parent
    return sorted(
        f"{path.relative_to(package)}: {name}"
        for path in package.rglob("*.py")
        for name in _imported_modules(ast.parse(path.read_text(), str(path)), import_time_only)
        if name == module or name.startswith(f"{module}.")
    )


def test_no_module_imports_scipy_stats():
    """No statement anywhere in the package imports ``scipy.stats``, so
    paths the fresh-process guard does not run are covered too."""
    offenders = _offenders("scipy.stats")
    assert not offenders, offenders


def test_no_module_imports_scipy_sparse_at_import_time():
    """No module imports ``scipy.sparse`` when it is itself imported. The
    ``WeightedGraph.weights`` view imports it when first read, and only
    there; ``import scipy`` alone, as the CLI does for the manifest's
    version, loads no submodule."""
    offenders = _offenders("scipy.sparse", import_time_only=True)
    assert not offenders, offenders
    assert _offenders("scipy.sparse") == ["graph.py: scipy.sparse"]
