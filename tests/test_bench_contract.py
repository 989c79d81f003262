"""The library names the benchmark under ``perfbench/`` reads.

The benchmark imports each submodule with ``importlib.import_module`` and
reads these attributes from it, so a rename here breaks every bench run
while the rest of the suite still passes.
"""

import importlib

import pytest

READ_BY_BENCH = {
    "_mc": ["thread_cap", "run_streams"],
    "cli": ["main", "louvain", "exhaustive_best_partition", "load_edge_list"],
    "data": ["karate_path", "load_edge_list"],
    "graph": [
        "WeightedGraph.from_edges",
        "empirical_bias_histogram",
        "theoretical_bias_histograms",
        "theoretical_bias_difference_distribution",
        "gilbert",
    ],
    "coupling": [
        "delta_monte_carlo",
        "delta_closed_form",
        "validate_margin",
        "couple_independence",
        "couple_indetermination",
    ],
    "solvers": ["solve_entropy_projection", "solve_least_squares_projection"],
    "monge": ["verify_monge_theorems"],
    "relational": ["condorcet_residual", "sample_agreement_counts"],
    "louvain": ["criterion_by_name", "Partition", "global_score"],
}


@pytest.mark.parametrize("module", sorted(READ_BY_BENCH))
def test_bench_names_resolve(module):
    mod = importlib.import_module(f"coupleclust.{module}")
    missing = []
    for dotted in READ_BY_BENCH[module]:
        owner = mod
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if not callable(owner):
            missing.append(f"coupleclust.{module}.{dotted}")
    assert not missing, f"missing or not callable: {missing}"
