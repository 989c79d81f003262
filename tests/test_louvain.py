"""Tests for partition scoring, the greedy search, and the exhaustive oracle."""

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from conftest import brute_force_score

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147}


def complete_graph(n: int) -> cc.WeightedGraph:
    return cc.WeightedGraph.from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    )


def test_partition_canonicalization():
    p = cc.Partition.from_labels([2, 0, 2, 1])
    npt.assert_array_equal(p.labels, [0, 1, 0, 2])
    assert p.k == 3
    npt.assert_array_equal(p.members(0), [0, 2])
    assert p.to_json_dict() == {"labels": [0, 1, 0, 2], "k": 3}
    with pytest.raises(ValueError):
        cc.Partition(np.array([1, 0]))  # first appearance must be class 0
    with pytest.raises(ValueError):
        cc.Partition(np.array([0, -1]))
    with pytest.raises(cc.DimensionMismatch):
        cc.Partition(np.array([], dtype=np.int64))
    # canonical input passes through unchanged
    q = cc.Partition(np.array([0, 1, 1, 2]))
    assert q.k == 3


def test_global_score_matches_brute_force():
    rng = np.random.default_rng(7)
    g = cc.gilbert_weighted(10, 0.5, 3, rng=rng)
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        for _ in range(5):
            labels = rng.integers(0, 3, size=10)
            part = cc.Partition.from_labels(labels)
            fast = cc.global_score(g, crit, part)
            slow = brute_force_score(g, crit, part.labels)
            npt.assert_allclose(fast, slow, atol=1e-10)


def test_global_score_partition_size_mismatch():
    g = complete_graph(4)
    with pytest.raises(cc.DimensionMismatch):
        cc.global_score(
            g, cc.independence_criterion(), cc.Partition.from_labels([0, 1])
        )


def test_triangle_pinned_score():
    g = complete_graph(3)
    part = cc.Partition.from_labels([0, 0, 1])
    score = cc.global_score(g, cc.indetermination_criterion(), part)
    npt.assert_allclose(score, -4.0 / 3.0, atol=1e-12)


def test_complete_graph_pinned_values():
    g = complete_graph(4)
    crit_x = cc.independence_criterion()
    crit_p = cc.indetermination_criterion()
    npt.assert_allclose(crit_x.evaluator(g, 0, 1), 1.0 / 48.0, atol=1e-15)
    npt.assert_allclose(crit_p.evaluator(g, 0, 1), 0.25, atol=1e-15)
    singletons = cc.Partition.from_labels(np.arange(4))
    npt.assert_allclose(cc.global_score(g, crit_x, singletons), -0.25, atol=1e-12)
    npt.assert_allclose(cc.global_score(g, crit_p, singletons), -3.0, atol=1e-12)
    # no split beats leaving a complete graph whole
    for crit in (crit_x, crit_p):
        part, score = cc.exhaustive_best_partition(g, crit)
        assert part.k == 1
        assert abs(score) <= 1e-12


def test_all_in_one_scores_zero():
    rng = np.random.default_rng(15)
    g = cc.gilbert(12, 0.4, rng=rng)
    one = cc.Partition.from_labels(np.zeros(12, dtype=int))
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        assert abs(cc.global_score(g, crit, one)) <= 1e-9


def test_two_cliques_recovered():
    edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j, 1.0) for i in range(5, 10) for j in range(i + 1, 10)]
    g = cc.WeightedGraph.from_edges(10, edges)
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        result = cc.louvain(g, crit)
        assert result.partition.k == 2
        npt.assert_array_equal(result.partition.labels, [0] * 5 + [1] * 5)
        _, opt = cc.exhaustive_best_partition(g, crit)
        npt.assert_allclose(result.score, opt, atol=1e-10)
    x_result = cc.louvain(g, cc.independence_criterion())
    npt.assert_allclose(x_result.score, 0.5, atol=1e-12)


def test_louvain_trace_and_trivial_partition_floor():
    rng = np.random.default_rng(29)
    for trial in range(5):
        g = cc.gilbert(20, 0.3, rng=rng)
        if g.total_weight_2m == 0:
            continue
        for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
            result = cc.louvain(g, crit, cc.LouvainConfig(seed=trial))
            trace = np.asarray(result.trace)
            assert np.all(np.diff(trace) >= -1e-10)
            npt.assert_allclose(result.trace[-1], result.score, atol=1e-12)
            singletons = cc.Partition.from_labels(np.arange(g.n))
            one = cc.Partition.from_labels(np.zeros(g.n, dtype=int))
            assert result.score >= cc.global_score(g, crit, singletons) - 1e-10
            assert result.score >= cc.global_score(g, crit, one) - 1e-10
            # reported score is the actual score of the reported partition
            npt.assert_allclose(
                result.score,
                cc.global_score(g, crit, result.partition),
                atol=1e-9,
            )


def test_louvain_deterministic_per_seed():
    g = cc.gilbert(25, 0.25, rng=3)
    crit = cc.independence_criterion()
    a = cc.louvain(g, crit, cc.LouvainConfig(seed=11))
    b = cc.louvain(g, crit, cc.LouvainConfig(seed=11))
    npt.assert_array_equal(a.partition.labels, b.partition.labels)
    assert a.score == b.score and a.trace == b.trace
    c = cc.louvain(g, crit, cc.LouvainConfig(seed=11, node_order="fixed"))
    assert c.score >= -1e-10  # different schedule, same guarantees


def test_louvain_karate():
    g = cc.load_karate()
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        result = cc.louvain(g, crit, cc.LouvainConfig(seed=0))
        assert 3 <= result.partition.k <= 5
        assert result.score > 0
    x_score = cc.louvain(
        g, cc.independence_criterion(), cc.LouvainConfig(seed=0)
    ).score
    npt.assert_allclose(x_score, 0.41979, atol=2e-3)


def test_louvain_empty_graph_errors():
    no_nodes = cc.WeightedGraph(np.zeros((0, 0)))
    with pytest.raises(cc.EmptyGraph):
        cc.louvain(no_nodes, cc.indetermination_criterion())
    no_edges = cc.WeightedGraph(np.zeros((3, 3)))
    with pytest.raises(cc.EmptyGraph):
        cc.louvain(no_edges, cc.independence_criterion())
    # the additive criterion tolerates an edgeless graph: everything is 0
    result = cc.louvain(no_edges, cc.indetermination_criterion())
    assert result.score == 0.0


def test_exhaustive_partition_counts_are_bell_numbers():
    # the oracle's enumeration must produce exactly the Bell numbers
    from coupleclust.louvain import _restricted_growth_strings

    for n, count in BELL.items():
        assert _restricted_growth_strings(n).shape[0] == count
    assert _restricted_growth_strings(10).shape[0] == 115975


def test_exhaustive_oracle_on_tiny_graphs():
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = cc.gilbert(6, 0.5, rng=rng)
        if g.total_weight_2m == 0:
            continue
        for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
            part, score = cc.exhaustive_best_partition(g, crit)
            assert score >= -1e-12
            npt.assert_allclose(
                score, brute_force_score(g, crit, part.labels), atol=1e-10
            )
            # oracle beats 50 random partitions
            for _ in range(50):
                labels = rng.integers(0, 4, size=6)
                rand = cc.Partition.from_labels(labels)
                assert cc.global_score(g, crit, rand) <= score + 1e-10


def test_exhaustive_ties_go_to_earliest_partition():
    # Several partitions of this graph share the optimum in exact
    # arithmetic, but their float sums differ in the last bits.
    from coupleclust.louvain import _restricted_growth_strings

    g = cc.WeightedGraph.from_edges(
        6, [(0, 1, 1.0), (0, 3, 1.0), (0, 4, 1.0), (2, 3, 1.0), (2, 4, 1.0), (4, 5, 1.0)]
    )
    rows = _restricted_growth_strings(g.n)
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        scores = np.array([brute_force_score(g, crit, row) for row in rows])
        top = scores.max()
        tied = np.flatnonzero(scores >= top - 1e-12 * max(1.0, abs(top)))
        assert tied.size > 1
        part, score = cc.exhaustive_best_partition(g, crit)
        npt.assert_array_equal(part.labels, rows[tied[0]])
        npt.assert_allclose(score, top, rtol=1e-12, atol=1e-12)


def test_exhaustive_size_cap():
    g = complete_graph(11)
    with pytest.raises(cc.TooLarge):
        cc.exhaustive_best_partition(g, cc.independence_criterion())


def test_louvain_close_to_exhaustive_on_small_graphs():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(5, 9))
        g = cc.gilbert(n, 0.5, rng=rng)
        if g.total_weight_2m == 0:
            continue
        for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
            result = cc.louvain(g, crit, cc.LouvainConfig(seed=1))
            _, opt = cc.exhaustive_best_partition(g, crit)
            assert result.score >= 0.95 * opt - 1e-12
            checked += 1
    assert checked >= 10


def test_louvain_groups_isolated_nodes_when_profitable():
    # nodes 1, 2 have no edges at all; the additive criterion still pays
    # 2M/n**2 per pair for grouping them, which only the class-merge phase
    # can discover (they are nobody's neighbors)
    g = cc.WeightedGraph.from_edges(
        6, [(0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0), (3, 4, 1.0)]
    )
    crit = cc.indetermination_criterion()
    result = cc.louvain(g, crit)
    _, opt = cc.exhaustive_best_partition(g, crit)
    npt.assert_allclose(result.score, opt, atol=1e-10)
    npt.assert_allclose(opt, 2.0, atol=1e-10)
    # isolated nodes 1 and 2 end up sharing a class
    assert result.partition.labels[1] == result.partition.labels[2]


def test_louvain_escapes_single_move_plateau():
    # from the plateau {0,2}{1,3}{4,5} no single move and no class merge
    # improves, yet {0,2,3}{1,4,5} scores higher; the forced-move escape
    # sequence finds it
    g = cc.WeightedGraph.from_edges(
        6, [(0, 2, 1.0), (0, 3, 1.0), (1, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0)]
    )
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        result = cc.louvain(g, crit, cc.LouvainConfig(seed=182))
        _, opt = cc.exhaustive_best_partition(g, crit)
        npt.assert_allclose(result.score, opt, atol=1e-10)


def test_criterion_by_name_and_config_validation():
    assert cc.criterion_by_name("independence").kind == "independence"
    assert cc.criterion_by_name("indetermination").kind == "indetermination"
    with pytest.raises(ValueError):
        cc.criterion_by_name("modularity")
    with pytest.raises(ValueError):
        cc.LouvainConfig(max_passes=0)
    with pytest.raises(ValueError):
        cc.LouvainConfig(min_gain=-1.0)
    with pytest.raises(ValueError):
        cc.LouvainConfig(node_order="sorted")
    with pytest.raises(ValueError):
        cc.LouvainConfig(restarts=0)


def test_louvain_result_json():
    g = complete_graph(4)
    result = cc.louvain(g, cc.indetermination_criterion())
    data = result.to_json_dict()
    assert data["criterion"] == "indetermination"
    assert data["k"] == result.partition.k
    assert data["trace"][-1] == result.score
