"""Tests for the coupleclust command line interface.

Every subcommand is exercised through ``main(argv)`` so the tests see
exactly what a shell user would: stdout payloads, ``--out`` files with
sibling manifests, and single-line JSON errors on stderr with exit
code 1. One test runs ``python -m coupleclust.cli`` as a separate process
to check the exit statuses across the process boundary.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coupleclust
from coupleclust import _mc, cli
from coupleclust.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def margins_file(tmp_path):
    path = tmp_path / "margins.json"
    path.write_text(json.dumps({"mu": [0.7, 0.3], "nu": [0.6, 0.4]}))
    return str(path)


@pytest.fixture
def two_triangles_file(tmp_path):
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    text = "".join(f"{i}\t{j}\t1.0\n" for i, j in edges)
    path = tmp_path / "triangles.tsv"
    path.write_text(text)
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "coupleclust" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_couple_stdout_embeds_manifest(capsys, margins_file):
    code, out, err = run_cli(
        capsys, ["couple", margins_file, "--kind", "indetermination"]
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["kind"] == "indetermination"
    np.testing.assert_allclose(
        payload["cells"], [[0.4, 0.3], [0.2, 0.1]], atol=1e-12
    )
    manifest = payload["manifest"]
    assert manifest["command"] == "couple"
    assert manifest["output_paths"] == ["-"]
    assert isinstance(manifest["tool_version"], str)


def test_couple_independence_is_outer_product(capsys, margins_file):
    code, out, _ = run_cli(capsys, ["couple", margins_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "independence"
    expected = np.outer([0.7, 0.3], [0.6, 0.4])
    np.testing.assert_allclose(payload["cells"], expected, atol=1e-12)


def test_couple_out_writes_payload_and_manifest(
    capsys, tmp_path, margins_file
):
    out_path = tmp_path / "joint.json"
    code, out, _ = run_cli(
        capsys, ["couple", margins_file, "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert "manifest" not in payload
    assert payload["p"] == 2 and payload["q"] == 2
    manifest = json.loads((tmp_path / "joint.json.manifest.json").read_text())
    assert manifest["command"] == "couple"
    assert manifest["seed"] is None
    assert manifest["output_paths"] == [
        str(out_path),
        str(out_path) + ".manifest.json",
    ]


def test_monge_check_on_indetermination_coupling(
    capsys, tmp_path, margins_file
):
    joint_path = tmp_path / "joint.json"
    run_cli(
        capsys,
        [
            "couple",
            margins_file,
            "--kind",
            "indetermination",
            "--out",
            str(joint_path),
        ],
    )
    code, out, _ = run_cli(capsys, ["monge-check", str(joint_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["tol"] == 1e-10
    assert payload["structure"]["is_full_monge"] is True
    assert payload["theorems"]["additive_holds"] is True


def test_monge_check_on_independence_coupling(capsys, tmp_path, margins_file):
    joint_path = tmp_path / "joint.json"
    run_cli(capsys, ["couple", margins_file, "--out", str(joint_path)])
    code, out, _ = run_cli(capsys, ["monge-check", str(joint_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["structure"]["is_full_log_monge"] is True
    assert payload["theorems"]["multiplicative_holds"] is True


@pytest.mark.parametrize(
    "kind, predicate, group",
    [
        ("independence", "is_full_log_monge", "multiplicative_holds"),
        ("indetermination", "is_full_monge", "additive_holds"),
    ],
)
def test_monge_check_at_zero_tolerance(
    capsys, tmp_path, margins_file, kind, predicate, group
):
    # the equivalent checks leave different rounding residue (0 and 5.6e-17
    # on the independence coupling), so tol = 0 needs a rounding floor, and
    # the structure predicates must agree with the theorem groups
    joint_path = tmp_path / "joint.json"
    run_cli(capsys, ["couple", margins_file, "--kind", kind, "--out", str(joint_path)])
    code, out, err = run_cli(capsys, ["monge-check", str(joint_path), "--tol", "0"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["tol"] == 0.0
    assert payload["structure"][predicate] is True
    assert payload["theorems"][group] is True


def test_condorcet_check_accepts_indetermination(
    capsys, tmp_path, margins_file
):
    joint_path = tmp_path / "joint.json"
    run_cli(
        capsys,
        [
            "couple",
            margins_file,
            "--kind",
            "indetermination",
            "--out",
            str(joint_path),
        ],
    )
    code, out, _ = run_cli(capsys, ["condorcet-check", str(joint_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-12
    assert payload["is_indetermination_coupling"] is True


def test_condorcet_check_rejects_independence(capsys, tmp_path, margins_file):
    joint_path = tmp_path / "joint.json"
    run_cli(capsys, ["couple", margins_file, "--out", str(joint_path)])
    code, out, _ = run_cli(capsys, ["condorcet-check", str(joint_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == pytest.approx(0.0064, abs=1e-12)
    assert payload["is_indetermination_coupling"] is False


def test_delta_closed_form_only(capsys):
    code, out, _ = run_cli(capsys, ["delta", "2", "2", "--samples", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(1.0 / 36.0, abs=1e-15)
    assert "monte_carlo" not in payload


def test_delta_with_monte_carlo(capsys):
    argv = ["delta", "3", "4", "--samples", "4000", "--seed", "7"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    est = payload["monte_carlo"]
    assert est["n_samples"] == 4000
    gap = abs(est["mean"] - payload["closed_form"])
    assert gap <= 5.0 * est["std_error"]
    assert payload["manifest"]["seed"] == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "2", "2", "--samples", "-5"],
        ["bias-hist", "20", "0.3", "--samples", "-1"],
        ["bias-hist", "20", "0.3", "--theoretical", "--samples", "-1"],
    ],
)
def test_negative_sample_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--samples: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["monge-check", "condorcet-check"])
def test_tolerance_must_be_finite_and_nonnegative(
    capsys, tmp_path, margins_file, command, tol
):
    joint_path = tmp_path / "joint.json"
    run_cli(capsys, ["couple", margins_file, "--out", str(joint_path)])
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(joint_path), "--tol", tol])
    assert excinfo.value.code == 2
    assert "--tol: must be finite and >= 0" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, [command, str(joint_path), "--tol", "1e-9"])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-9


def test_joint_file_dimensions_must_be_integers(capsys, tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"p": 2.5, "q": 2, "cells": [[0.25, 0.25], [0.25, 0.25]]}))
    code, out, err = run_cli(capsys, ["monge-check", str(path)])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "NonPositiveDimension")


@pytest.mark.parametrize("eps", ["1e-320", "5e-324"])
def test_bias_hist_refuses_an_eps_whose_reciprocal_overflows(capsys, eps):
    code, out, err = run_cli(capsys, ["bias-hist", "50", eps, "--theoretical"])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "ZeroEps")


def test_bias_hist_refuses_a_node_count_whose_pair_count_overflows(capsys):
    # C(n-2, 2), the pair count one binomial draw takes, fits an int64 up
    # to n = 2**32 + 2
    assert len(coupleclust.empirical_bias_samples(2**32 + 2, 0.5, 10, rng=0)[1]) == 10
    for n in (2**32 + 3, 10**20):
        with pytest.raises(coupleclust.TooLarge):
            coupleclust.empirical_bias_samples(n, 0.5, 10, rng=0)
        code, out, err = run_cli(capsys, ["bias-hist", str(n), "0.5", "--samples", "10"])
        assert code == 1
        assert out == ""
        assert_single_json_error(err, "TooLarge")


@pytest.mark.parametrize("n", [10**20, 4_000_000_000])
def test_gilbert_and_exact_laws_refuse_a_node_count_past_the_graph_cap(capsys, monkeypatch, n):
    # Graphs are capped at 3037000499 nodes; a Gilbert draw and the exact
    # bias laws must say so before they allocate anything per node. The
    # per-node work is patched to fail, so a missing check cannot allocate
    # here, and the traced peak shows that nothing large was allocated.
    graph = sys.modules["coupleclust.graph"]

    def allocates(*args, **kwargs):
        raise AssertionError("per-node work reached past the cap")

    monkeypatch.setattr(graph, "_upper_triangle_graph", allocates)
    monkeypatch.setattr(graph, "_binomial_row", allocates)
    laws = [
        lambda: coupleclust.gilbert(n, 0.0, rng=0),
        lambda: coupleclust.gilbert_weighted(n, 0.3, 2, rng=0),
        lambda: coupleclust.theoretical_joint_pmf(n, 0.3),
        lambda: coupleclust.theoretical_bias_histograms(n, 0.3),
        lambda: coupleclust.theoretical_bias_difference_distribution(n, 0.3),
    ]
    commands = [
        ["gilbert", str(n), "0.0"],
        ["gilbert", str(n), "0.3", "--max-weight", "2"],
        ["bias-hist", str(n), "0.3", "--theoretical"],
        ["bias-hist", str(n), "0.3", "--theoretical", "--which", "difference"],
    ]
    cli._parser()  # built once per process, outside the traced span
    tracemalloc.start()
    try:
        for law in laws:
            with pytest.raises(coupleclust.TooLarge, match="3037000499"):
                law()
        for argv in commands:
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (1, "")
            assert_single_json_error(err, "TooLarge")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("extra", [[], ["--theoretical"]])
def test_bias_hist_needs_a_node_pair(capsys, extra):
    code, out, err = run_cli(capsys, ["bias-hist", "1", "0.3"] + extra)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonPositiveDimension"


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "2", "2", "--samples", "10"],
        ["gilbert", "5", "0.3"],
        ["bias-hist", "5", "0.3", "--samples", "10"],
        ["cluster", "--karate"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_one_error_in_every_command(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "NonPositiveDimension")


def test_gilbert_deterministic_per_seed(capsys):
    args = ["gilbert", "12", "0.5", "--seed", "3"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    _, other, _ = run_cli(capsys, ["gilbert", "12", "0.5", "--seed", "4"])
    assert first == second
    assert first != other
    for line in first.strip().splitlines():
        i, j, w = line.split("\t")
        assert int(i) < int(j)
        assert float(w) == 1.0


def test_gilbert_weighted_edges(capsys, tmp_path):
    out_path = tmp_path / "graph.tsv"
    code, _, _ = run_cli(
        capsys,
        ["gilbert", "10", "0.8", "--max-weight", "4", "--out", str(out_path)],
    )
    assert code == 0
    weights = [
        float(line.split("\t")[2])
        for line in out_path.read_text().strip().splitlines()
    ]
    assert all(w == int(w) and 1 <= w <= 4 for w in weights)
    assert max(weights) > 1
    assert (tmp_path / "graph.tsv.manifest.json").exists()


def test_bias_hist_empirical_csv(capsys):
    argv = [
        "bias-hist",
        "8",
        "0.3",
        "--bins",
        "20",
        "--samples",
        "500",
        "--seed",
        "1",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) == 21
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == 500.0


def test_bias_hist_difference_and_theoretical_modes(capsys):
    argv = [
        "bias-hist",
        "8",
        "0.3",
        "--which",
        "difference",
        "--bins",
        "16",
        "--samples",
        "400",
        "--seed",
        "2",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 16
    assert sum(float(r.split(",")[2]) for r in rows) == 400.0

    argv = ["bias-hist", "8", "0.3", "--bins", "16", "--theoretical"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    mass = sum(float(r.split(",")[2]) for r in rows)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_bias_hist_expected_2m_changes_sample_means(capsys):
    base = ["bias-hist", "10", "0.4", "--bins", "30", "--samples", "300"]
    _, realized, _ = run_cli(capsys, base + ["--seed", "5"])
    _, expected, _ = run_cli(capsys, base + ["--seed", "5", "--expected-2m"])
    assert realized != expected


def test_cluster_karate(capsys):
    code, out, _ = run_cli(capsys, ["cluster", "--karate", "--seed", "0"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["labels"]) == 34
    assert 3 <= payload["k"] <= 5
    assert payload["score"] > 0.0
    assert payload["criterion"] == "independence"
    trace = payload["trace"]
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_cluster_edge_list_recovers_triangles(capsys, two_triangles_file):
    argv = ["cluster", two_triangles_file, "--criterion", "indetermination"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    labels = payload["labels"]
    assert payload["k"] == 2
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]


def test_best_exhaustive_matches_cluster_on_triangles(
    capsys, two_triangles_file
):
    code, out, _ = run_cli(capsys, ["best-exhaustive", two_triangles_file])
    assert code == 0
    exact = json.loads(out)
    _, out, _ = run_cli(capsys, ["cluster", two_triangles_file])
    greedy = json.loads(out)
    assert exact["k"] == 2
    assert greedy["score"] == pytest.approx(exact["score"], abs=1e-12)
    assert exact["criterion"] == "independence"


def assert_single_json_error(err, name):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == name
    assert record["message"]


def test_couple_condition_violation_reports_error(capsys, tmp_path):
    path = tmp_path / "margins.json"
    path.write_text(json.dumps({"mu": [0.9, 0.1], "nu": [0.9, 0.1]}))
    code, out, err = run_cli(
        capsys, ["couple", str(path), "--kind", "indetermination"]
    )
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "ConditionHViolated")


def test_couple_incomplete_margins_file(capsys, tmp_path):
    path = tmp_path / "margins.json"
    path.write_text(json.dumps({"mu": [0.5, 0.5]}))
    code, _, err = run_cli(capsys, ["couple", str(path)])
    assert code == 1
    assert_single_json_error(err, "ValueError")


@pytest.mark.parametrize(
    "command, data, error",
    [
        ("couple", 5, "ValueError"),
        ("monge-check", [1, 2], "ValueError"),
        ("condorcet-check", [1, 2], "ValueError"),
        ("couple", {"mu": {"a": 1}, "nu": [1.0]}, "NonFiniteEntry"),
        ("monge-check", {"p": 1, "q": 1, "cells": {"a": 1}}, "NonFiniteEntry"),
        ("monge-check", {"cells": [[1.0]]}, "ValueError"),
        ("monge-check", {"p": True, "q": 1, "cells": [[1.0]]}, "NonPositiveDimension"),
        ("couple", {"mu": ["0.5", "0.5"], "nu": [" 1e0 "]}, "NonFiniteEntry"),
        ("couple", {"mu": [True, False], "nu": [1.0]}, "NonFiniteEntry"),
    ],
)
def test_json_input_of_the_wrong_shape_reports_error(capsys, tmp_path, command, data, error):
    # a file that is not a JSON object, lacks a key, or whose arrays or
    # counts hold something other than numbers (strings, bools) fails with
    # one JSON line, not a traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, error)


def test_missing_input_file_reports_oserror(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["couple", str(tmp_path / "absent.json")])
    assert code == 1
    assert_single_json_error(err, "FileNotFoundError")


def test_cluster_rejects_both_input_and_karate(capsys, two_triangles_file):
    code, _, err = run_cli(capsys, ["cluster", two_triangles_file, "--karate"])
    assert code == 1
    assert_single_json_error(err, "ValueError")


def test_cluster_requires_some_input(capsys):
    code, _, err = run_cli(capsys, ["cluster"])
    assert code == 1
    assert_single_json_error(err, "ValueError")


def test_cluster_out_of_memory_reports_error(capsys, monkeypatch, two_triangles_file):
    # A graph too big for memory (the one edge line 0<TAB>100000<TAB>1 asks
    # the merge sweep for a dense k x k array) fails like any other error.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("coupleclust.cli.louvain", exhausted)
    code, out, err = run_cli(capsys, ["cluster", two_triangles_file])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "MemoryError")


@pytest.mark.parametrize(
    "line",
    [
        "0\t9223372036854775807\t1.0\n",  # the largest int64
        "1\t4611686018427387904\t1.0\n",  # 2**62
        "0\t12345678901234567890\t1.0\n",  # past the int64 range
    ],
)
def test_cluster_refuses_a_node_count_whose_pair_codes_overflow(capsys, tmp_path, line):
    # row-major pair codes i*n + j fit an int64 up to n = 3037000499
    path = tmp_path / "huge.tsv"
    path.write_text(line)
    with pytest.raises(coupleclust.TooLarge):
        coupleclust.load_edge_list(path)
    code, out, err = run_cli(capsys, ["cluster", str(path)])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "TooLarge")


def test_best_exhaustive_too_large(capsys, tmp_path):
    text = "".join(f"{i}\t{i + 1}\t1.0\n" for i in range(10))
    path = tmp_path / "chain.tsv"
    path.write_text(text)
    code, _, err = run_cli(capsys, ["best-exhaustive", str(path)])
    assert code == 1
    assert_single_json_error(err, "TooLarge")


def test_cluster_dead_restart_worker_reports_memory_error(capsys, monkeypatch, tmp_path):
    # A restart worker killed without a Python exception (as the OOM killer
    # kills) fails like any other error and leaves no child process.
    louvain_module = sys.modules["coupleclust.louvain"]
    g = coupleclust.gilbert(150, 0.1, rng=1)
    sg = louvain_module._SearchGraph(g, coupleclust.independence_criterion())
    if not louvain_module._can_fork(sg, min(8, _mc.thread_cap())):
        pytest.skip("restarts race in-process here")
    parent = os.getpid()

    def killed(*args):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("restart ran in the calling process")

    monkeypatch.setattr(louvain_module, "_single_run", killed)
    path = tmp_path / "gilbert.tsv"
    g.save_edge_list(path)
    code, out, err = run_cli(capsys, ["cluster", str(path)])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "MemoryError")
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("criterion", ["independence", "indetermination"])
def test_cluster_rejects_weights_whose_sums_overflow(capsys, tmp_path, criterion):
    path = tmp_path / "huge.tsv"
    path.write_text("0\t1\t1e308\n1\t2\t1e308\n")
    code, out, err = run_cli(capsys, ["cluster", str(path), "--criterion", criterion])
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "NonFiniteEntry")


@pytest.mark.parametrize("command", ["cluster", "best-exhaustive"])
@pytest.mark.parametrize("criterion", ["independence", "indetermination"])
@pytest.mark.parametrize("weight", ["1e200", "1e307"])
def test_criterion_overflow_reports_error(capsys, tmp_path, command, criterion, weight):
    path = tmp_path / "big.tsv"
    path.write_text("".join(f"{i}\t{i + 1}\t{weight}\n" for i in range(3)))
    code, out, err = run_cli(capsys, [command, str(path), "--criterion", criterion])
    if weight == "1e200" and criterion == "indetermination":
        assert code == 0
        assert json.loads(out)["labels"] == [0, 0, 1, 1]
        return
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "NonFiniteEntry")


@pytest.mark.parametrize("command", ["cluster", "best-exhaustive"])
@pytest.mark.parametrize("criterion", ["independence", "indetermination"])
def test_criterion_underflow_reports_error(capsys, tmp_path, command, criterion):
    path = tmp_path / "tiny.tsv"
    path.write_text("0\t1\t1e-300\n")
    code, out, err = run_cli(capsys, [command, str(path), "--criterion", criterion])
    if criterion == "indetermination":
        assert code == 0
        assert json.loads(out)["labels"] == [0, 0]
        return
    assert code == 1
    assert out == ""
    assert_single_json_error(err, "NonFiniteEntry")
    assert "too small" in err


def test_malformed_edge_list_reports_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\n")
    code, _, err = run_cli(capsys, ["cluster", str(path)])
    assert code == 1
    assert_single_json_error(err, "EdgeListParseError")


# (argv, expected manifest parameters, expected seed); ``{dir}`` is the
# test's tmp_path, where the margins_file and two_triangles_file fixtures
# write margins.json and triangles.tsv.
_MANIFEST_CASES = [
    (
        ["couple", "{dir}/margins.json", "--kind", "indetermination"],
        {"margins": "{dir}/margins.json", "kind": "indetermination"},
        None,
    ),
    (
        ["monge-check", "{dir}/joint.json"],
        {"joint": "{dir}/joint.json", "tol": 1e-10},
        None,
    ),
    (
        ["condorcet-check", "{dir}/joint.json", "--tol", "1e-9"],
        {"joint": "{dir}/joint.json", "tol": 1e-9},
        None,
    ),
    (
        ["delta", "3", "4", "--samples", "100", "--seed", "5", "--streams", "2"],
        {"p": 3, "q": 4, "samples": 100, "streams": 2},
        5,
    ),
    (
        ["gilbert", "6", "0.5", "--max-weight", "3", "--seed", "2"],
        {"n": 6, "eps": 0.5, "max_weight": 3},
        2,
    ),
    (
        ["bias-hist", "8", "0.3", "--bins", "10", "--theoretical"],
        {
            "n": 8,
            "eps": 0.3,
            "which": "indetermination",
            "bins": 10,
            "samples": 100_000,
            "theoretical": True,
            "expected_2m": False,
            "streams": 1,
        },
        0,
    ),
    (
        ["cluster", "--karate", "--criterion", "indetermination", "--seed", "4"],
        {"input": "karate", "criterion": "indetermination"},
        4,
    ),
    (
        ["best-exhaustive", "{dir}/triangles.tsv"],
        {"input": "{dir}/triangles.tsv", "criterion": "independence"},
        None,
    ),
]


@pytest.mark.parametrize(
    "argv, parameters, seed",
    _MANIFEST_CASES,
    ids=[argv[0] for argv, _, _ in _MANIFEST_CASES],
)
def test_manifest_records_parsed_arguments(
    capsys, tmp_path, margins_file, two_triangles_file, argv, parameters, seed
):
    joint = {"p": 2, "q": 2, "cells": [[0.42, 0.28], [0.18, 0.12]]}
    (tmp_path / "joint.json").write_text(json.dumps(joint))

    def expand(value):
        return value.format(dir=tmp_path) if isinstance(value, str) else value

    out_path = str(tmp_path / "result")
    argv = [expand(a) for a in argv] + ["--out", out_path]
    code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    manifest = json.loads((tmp_path / "result.manifest.json").read_text())
    assert list(manifest) == [
        "command",
        "parameters",
        "seed",
        "output_paths",
        "tool_version",
        "environment",
        "elapsed_s",
    ]
    assert manifest["command"] == argv[0]
    expected = {key: expand(value) for key, value in parameters.items()}
    assert list(manifest["parameters"].items()) == list(expected.items())
    assert manifest["seed"] == seed
    assert manifest["output_paths"] == [out_path, out_path + ".manifest.json"]
    assert sorted(manifest["environment"]) == ["numpy", "python", "scipy"]
    assert all(isinstance(v, str) for v in manifest["environment"].values())
    assert manifest["elapsed_s"] >= 0.0


def test_module_entry_point_exit_statuses(tmp_path):
    """``python -m coupleclust.cli`` as a separate process: exit 0 on
    success, 1 with one JSON line on stderr for a library error, 2 for a
    usage error."""
    env = dict(os.environ)
    src = str(Path(coupleclust.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "coupleclust.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )

    ok = run("delta", "2", "2", "--samples", "0")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["manifest"]["command"] == "delta"

    margins = {"mu": [0.9, 0.1], "nu": [0.9, 0.1]}
    (tmp_path / "margins.json").write_text(json.dumps(margins))
    failed = run("couple", "margins.json", "--kind", "indetermination")
    assert failed.returncode == 1
    assert failed.stdout == ""
    assert_single_json_error(failed.stderr, "ConditionHViolated")

    usage = run("delta", "2", "2", "--samples", "-5")
    assert usage.returncode == 2
    assert "--samples: must be >= 0" in usage.stderr


def _without_elapsed(out):
    """stdout of a JSON command with the manifest's wall time dropped;
    other output unchanged."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return out
    del payload["manifest"]["elapsed_s"]
    return payload


def test_main_reuses_one_parser_without_carrying_state(capsys, monkeypatch):
    """``main`` parses with one parser per process; calls in a row with other
    subcommands, flags or defaults print what a fresh parser's calls do."""
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    calls = [
        ["cluster", "--karate", "--criterion", "indetermination", "--seed", "3"],
        ["cluster", "--karate"],
        ["bias-hist", "50", "0.3", "--theoretical", "--bins", "20"],
        ["delta", "2", "3", "--samples", "100", "--seed", "1"],
        ["delta", "2", "3"],
    ]

    def outputs():
        return [_without_elapsed(run_cli(capsys, argv)[1]) for argv in calls]

    cached = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == outputs()


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["delta", "2", "2", "--samples", "-5"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, ["delta", "2", "2", "--samples", "10"])
    assert code == 0 and err == ""
    assert json.loads(out)["manifest"]["parameters"]["samples"] == 10
