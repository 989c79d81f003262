"""Tests for partition scoring, the greedy search, and the exhaustive oracle."""

import faulthandler
import functools
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from coupleclust import _mc
from conftest import brute_force_score

# the submodule, which the package-level function of the same name shadows
louvain_module = sys.modules["coupleclust.louvain"]

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


def test_partition_label_contract():
    # from_labels takes any integers, however far apart or close to the
    # int64 and uint64 ends; Partition takes canonical labels only
    cases = [
        ([-5, 10**12, -5], [0, 1, 0]),
        (np.array([2**63 - 1, -(2**63)], dtype=np.int64), [0, 1]),
        (np.array([2**64 - 1, 0], dtype=np.uint64), [0, 1]),
    ]
    for labels, expected in cases:
        assert cc.Partition.from_labels(labels).labels.tolist() == expected
    for labels in ([-1, 0], [0, 2], [1, 0]):
        with pytest.raises(ValueError, match="not canonical"):
            cc.Partition(labels=np.array(labels))


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
    npt.assert_allclose(cc.local_independence_criterion(g, 0, 1), 1.0 / 48.0, atol=1e-15)
    npt.assert_allclose(cc.local_indetermination_criterion(g, 0, 1), 0.25, atol=1e-15)
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
    from coupleclust.louvain import _partition_level

    for n, count in BELL.items():
        assert _partition_level(n - 1)[0].shape[0] == count
    assert _partition_level(9)[0].shape[0] == 115975


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
    from coupleclust.louvain import _check_graph, _partition_level

    g = cc.WeightedGraph.from_edges(
        6, [(0, 1, 1.0), (0, 3, 1.0), (0, 4, 1.0), (2, 3, 1.0), (2, 4, 1.0), (4, 5, 1.0)]
    )
    rows = _partition_level(g.n - 1)[0]
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        scores = np.array([brute_force_score(g, crit, row) for row in rows])
        top = scores.max()
        tied = np.flatnonzero(scores >= top - _check_graph(g, crit))
        assert tied.size > 1
        part, score = cc.exhaustive_best_partition(g, crit)
        npt.assert_array_equal(part.labels, rows[tied[0]])
        npt.assert_allclose(score, top, rtol=1e-12, atol=1e-12)


def pairwise_rows(n: int) -> np.ndarray:
    """Reference enumeration of the oracle's partitions: each row set of
    n - 1 items extended by every class value, in blocks of increasing
    value, rebuilt from scratch for every n."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        maxes = rows.max(axis=1)
        blocks = []
        for v in range(int(maxes.max()) + 2):
            take = rows[maxes + 1 >= v]
            ext = np.full((take.shape[0], 1), v, dtype=np.int8)
            blocks.append(np.hstack([take, ext]))
        rows = np.vstack(blocks)
    return rows


def pairwise_exhaustive(g, crit, rows):
    """Reference oracle: each partition's score summed row-major over all
    ordered item pairs, one pass over every partition per pair, under the
    same tie rule. Returns the labels, the score and the tolerance."""
    from coupleclust.louvain import _check_graph

    tol = _check_graph(g, crit)
    d = g.degrees
    c = crit.block_evaluator(
        g.weights.toarray(), d[:, None], d[None, :], 1.0, 1.0, g.n, g.total_weight_2m
    )
    scores = np.zeros(rows.shape[0])
    for i in range(g.n):
        for j in range(g.n):
            scores += c[i, j] * (rows[:, i] == rows[:, j])
    best = int(np.flatnonzero(scores >= scores.max() - tol)[0])
    return rows[best], scores[best], tol


def oracle_pool():
    """Two graphs per size 1..10 and weight kind (unit, small integers,
    uniform floats), every other one with a self-loop on node 0."""
    rng = np.random.default_rng(20261019)
    draws = (
        lambda: 1.0,
        lambda: float(rng.integers(1, 6)),
        lambda: float(rng.uniform(0.1, 3.0)),
    )
    for n in range(1, 11):
        for weight in draws:
            for copy in range(2):
                edges = [
                    (i, j, weight())
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                ]
                if copy:
                    edges.append((0, 0, weight()))
                yield cc.WeightedGraph.from_edges(n, edges)


def test_exhaustive_matches_the_pairwise_reference():
    rows = {n: pairwise_rows(n) for n in range(1, 11)}
    for n in range(1, 11):
        assert np.array_equal(louvain_module._partition_level(n - 1)[0], rows[n])
    checked = 0
    for g in oracle_pool():
        for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
            if crit.needs_total_weight and g.total_weight_2m == 0:
                continue
            labels, ref, tol = pairwise_exhaustive(g, crit, rows[g.n])
            part, score = cc.exhaustive_best_partition(g, crit)
            assert np.array_equal(part.labels, labels)
            assert abs(score - ref) <= tol
            assert score >= 0.0
            checked += 1
    assert checked == 117


def test_exhaustive_optimum_is_never_negative():
    # the float sum of all pairs of this graph is -1.8e-15 under
    # indetermination, but the single class scores exactly 0
    g = cc.WeightedGraph.from_edges(
        4,
        [
            (0, 2, 1.5918967856193353),
            (0, 3, 1.0942038994257728),
            (1, 3, 2.374796069932907),
            (2, 3, 2.998080358375619),
        ],
    )
    part, score = cc.exhaustive_best_partition(g, cc.indetermination_criterion())
    npt.assert_array_equal(part.labels, [0, 0, 0, 0])
    assert score == 0.0


def test_partition_levels_are_built_once_for_every_size():
    level = louvain_module._partition_level
    level.cache_clear()
    graphs = {n: complete_graph(n) for n in range(4, 11)}
    crits = (cc.independence_criterion(), cc.indetermination_criterion())
    # the size order of the benchmark's small-graph cycle, three times over
    for _ in range(3):
        for n in range(4, 11):
            for crit in crits:
                cc.exhaustive_best_partition(graphs[n], crit)
    assert level.cache_info().misses <= 10


@pytest.mark.parametrize("search", ["louvain", "exhaustive_best_partition", "global_score"])
def test_criterion_given_by_name_is_rejected(search):
    g = complete_graph(4)
    extra = (cc.Partition.from_labels([0, 0, 1, 1]),) if search == "global_score" else ()
    with pytest.raises(ValueError, match="criterion_by_name"):
        getattr(cc, search)(g, "independence", *extra)


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


def test_louvain_isolated_nodes_cost_linear_memory():
    # 2999 isolated nodes reach the merge phase as singleton classes; they
    # all join one class, which must not take memory quadratic in their count
    g = cc.WeightedGraph.from_edges(3001, [(0, 3000, 1.0)])
    tracemalloc.start()
    try:
        result = cc.louvain(g, cc.indetermination_criterion(), cc.LouvainConfig(seed=0, restarts=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.partition.k == 2
    assert peak < 16 * 2**20


def test_search_graph_memory_per_stored_entry():
    # Without a self-loop the singleton level shares the graph's CSR
    # arrays, so the search object holds the scorer's row array and the
    # per-node lists, about 14 bytes per stored entry; a copy of the CSR or
    # a Python object per entry breaks the bound. Building it peaks at
    # about 33 bytes per entry, in the scorer's temporaries; sorting the
    # entries for the singleton level breaks that bound.
    g = cc.gilbert(20000, 5e-4, rng=1)
    tracemalloc.start()
    try:
        sg = louvain_module._SearchGraph(g, cc.indetermination_criterion())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sg.csr[1]) == g.indices.size  # a Gilbert graph has no self-loop
    assert held <= 24 * g.indices.size
    assert peak <= 48 * g.indices.size


def test_gain_screen_memory_per_node():
    # A screen holds three read-only float64 arrays and the must-visit
    # list, 32 bytes per node; a Python float list per bound held 104.
    g = cc.gilbert(30000, 4e-5, rng=1)
    sg = louvain_module._SearchGraph(g, cc.indetermination_criterion())
    level = louvain_module._Level.singletons(sg)
    tracemalloc.start()
    try:
        screen = louvain_module._Screen.build(sg, level)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert screen.cap.readonly and screen.wd.readonly and screen.ws.readonly
    assert len(screen.cap) == g.n
    assert held <= 40 * g.n


def test_singleton_level_is_the_graph_csr_without_its_diagonal():
    from coupleclust.louvain import _Level, _SearchGraph

    g = cc.WeightedGraph.from_edges(
        6, [(0, 0, 2.0), (0, 1, 1.5), (1, 3, 0.25), (3, 3, 1.0), (2, 4, 3.0), (4, 0, 0.1)]
    )
    sg = _SearchGraph(g, cc.indetermination_criterion())
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    off = rows != g.indices
    # the search object's singleton level, built from the graph's CSR, and
    # the class graph of the identity labels
    block = sg.criterion.block_evaluator
    for level in (_Level.singletons(sg), _Level.of_classes(sg, np.arange(g.n))):
        npt.assert_array_equal(level.indptr, np.searchsorted(rows[off], np.arange(g.n + 1)))
        npt.assert_array_equal(level.indices, g.indices[off])
        npt.assert_array_equal(level.data, g.data[off])
        assert level.indptr.readonly and level.indices.readonly and level.data.readonly
        assert level.labels == list(range(g.n))
        assert (level.deg, level.size) == (g.degrees.tolist(), [1.0] * g.n)
        # the kernel's coefficients, equal bit for bit to its three block
        # calls at unit arguments, whether held as arrays or as lists
        for coef, unit in zip((level.cw, level.cd, level.cs), np.eye(3).tolist()):
            w, dd, ss = unit
            expected = [block(w, d, dd, 1.0, ss, g.n, g.total_weight_2m) for d in g.degrees.tolist()]
            assert list(coef) == expected
    # from _COEF_ARRAY_MIN nodes on, read-only arrays with the same values
    big = cc.gilbert_weighted(louvain_module._COEF_ARRAY_MIN, 0.3, 3, rng=1)
    sg = _SearchGraph(big, cc.indetermination_criterion())
    level = _Level.singletons(sg)
    for coef, unit in zip((level.cw, level.cd, level.cs), np.eye(3).tolist()):
        w, dd, ss = unit
        assert isinstance(coef, memoryview) and coef.readonly
        expected = [
            sg.criterion.block_evaluator(w, d, dd, 1.0, ss, big.n, big.total_weight_2m)
            for d in big.degrees.tolist()
        ]
        assert coef.tolist() == expected


PLATEAU = cc.WeightedGraph.from_edges(
    6, [(0, 2, 1.0), (0, 3, 1.0), (1, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0)]
)


def test_louvain_escapes_single_move_plateau():
    # from the plateau {0,2}{1,3}{4,5} no single move and no class merge
    # improves, yet {0,2,3}{1,4,5} scores higher; the forced-move escape
    # sequence finds it
    g = PLATEAU
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        result = cc.louvain(g, crit, cc.LouvainConfig(seed=182))
        _, opt = cc.exhaustive_best_partition(g, crit)
        npt.assert_allclose(result.score, opt, atol=1e-10)


def test_criterion_by_name_and_config_validation():
    assert cc.criterion_by_name("independence").kind == "independence"
    assert cc.criterion_by_name("indetermination").kind == "indetermination"
    with pytest.raises(ValueError):
        cc.criterion_by_name("modularity")
    for restarts in (0, 2.5, 2.0, "3", None):
        with pytest.raises(cc.NonPositiveDimension, match="restarts"):
            cc.LouvainConfig(restarts=restarts)
    for seed in (-1, 2.5, 0.0, "0", None):
        with pytest.raises(cc.NonPositiveDimension, match="seed"):
            cc.LouvainConfig(seed=seed)
    assert cc.LouvainConfig(restarts=np.int64(3)).restarts == 3
    assert cc.LouvainConfig(seed=np.uint32(7)).seed == 7


PATH3 = [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("criterion", ["independence", "indetermination"])
def test_criterion_that_overflows_is_rejected(criterion):
    # under independence (2M)**2 overflows at 1e200, under indetermination
    # n * 2M does at 1e307; every weight, degree and 2M is finite
    crit = cc.criterion_by_name(criterion)
    huge = cc.WeightedGraph.from_edges(4, [(i, j, 1e307) for i, j in PATH3])
    single = cc.Partition.from_labels([0, 0, 0, 0])
    for search in (cc.louvain, cc.exhaustive_best_partition):
        with pytest.raises(cc.NonFiniteEntry, match="overflow"):
            search(huge, crit)
    with pytest.raises(cc.NonFiniteEntry, match="overflow"):
        cc.global_score(huge, crit, single)
    big = cc.WeightedGraph.from_edges(4, [(i, j, 1e200) for i, j in PATH3])
    if criterion == "independence":
        with pytest.raises(cc.NonFiniteEntry, match="overflow"):
            cc.louvain(big, crit)
        with pytest.raises(cc.NonFiniteEntry, match="overflow"):
            cc.global_score(big, crit, single)
    else:
        result = cc.louvain(big, crit)
        assert np.isfinite(result.score)
        assert result.score == cc.exhaustive_best_partition(big, crit)[1]


PAIR_CRITERIA = {
    "independence": cc.local_independence_criterion,
    "indetermination": cc.local_indetermination_criterion,
}


def test_criterion_that_underflows_is_rejected():
    # under independence (2M)**2 is 0 at 2M = 2e-300, and not a normal
    # float below about 1.5e-154; indetermination never squares 2M
    tiny = cc.WeightedGraph(np.array([[0.0, 1e-300], [1e-300, 0.0]]))
    crit = cc.independence_criterion()
    single = cc.Partition.from_labels([0, 0])
    for search in (cc.louvain, cc.exhaustive_best_partition):
        with pytest.raises(cc.NonFiniteEntry, match="too small"):
            search(tiny, crit)
    with pytest.raises(cc.NonFiniteEntry, match="too small"):
        cc.global_score(tiny, crit, single)
    for pair in (cc.local_independence_criterion, cc.bias_independence):
        with pytest.raises(cc.NonFiniteEntry, match="too small"):
            pair(tiny, 0, 1)
    # scaled weights give the unit weights' partitions, with independence
    # scores unchanged and indetermination scores scaled, down to 1e-150
    # under independence and to 1e-300 under indetermination
    unit = cc.WeightedGraph.from_edges(4, [(i, j, 1.0) for i, j in PATH3])
    for crit in CRITERIA:
        expected = cc.louvain(unit, crit)
        optimum = cc.exhaustive_best_partition(unit, crit)[1]
        for w in (1e-150,) if crit.kind == "independence" else (1e-150, 1e-300):
            g = cc.WeightedGraph.from_edges(4, [(i, j, w) for i, j in PATH3])
            scale = 1.0 if crit.kind == "independence" else w
            result = cc.louvain(g, crit)
            npt.assert_array_equal(result.partition.labels, expected.partition.labels)
            npt.assert_allclose(result.score, expected.score * scale, rtol=1e-9)
            npt.assert_allclose(cc.exhaustive_best_partition(g, crit)[1], optimum * scale, rtol=1e-9)
            pair = PAIR_CRITERIA[crit.kind]
            npt.assert_allclose(pair(g, 0, 1), pair(unit, 0, 1) * scale, rtol=1e-9)


def test_louvain_result_json():
    g = complete_graph(4)
    result = cc.louvain(g, cc.indetermination_criterion())
    data = result.to_json_dict()
    assert data["criterion"] == "indetermination"
    assert data["k"] == result.partition.k
    assert data["trace"][-1] == result.score


def random_level(rng, block, m=40, k=12):
    """A super-node level: float weights, self-loops, sizes 1..5 and
    labels drawn from ``k`` of the ``m`` class ids, so some classes are
    empty and a fresh class is available. Its coefficients are ``block``'s,
    with n and 2M the summed sizes and degree masses."""
    from coupleclust.louvain import _Level

    upper = np.triu(rng.uniform(0.1, 3.0, (m, m)) * (rng.random((m, m)) < 0.05), 1)
    a = upper + upper.T
    rows, cols = np.nonzero(a)
    csr = tuple(map(memoryview, (np.searchsorted(rows, np.arange(m + 1)), cols, a[rows, cols])))
    self_w = rng.uniform(0.0, 4.0, m).tolist()
    deg = (a.sum(axis=1) + self_w).tolist()
    size = rng.integers(1, 6, m).astype(float).tolist()
    n, two_m = int(sum(size)), float(sum(deg))
    coef = tuple(
        [block(w, d, dd, s, ss, n, two_m) for d, s in zip(deg, size)]
        for w, dd, ss in np.eye(3).tolist()
    )
    level = _Level(csr, deg, size, coef)
    level.labels = rng.choice(rng.permutation(m)[:k], size=m).tolist()
    level.cls_deg, level.cls_size = [0.0] * m, [0.0] * m
    for i, c in enumerate(level.labels):
        level.cls_deg[c] += level.deg[i]
        level.cls_size[c] += level.size[i]
    return level


def level_row(level, node):
    """The ``(neighbour, weight)`` pairs of ``node``'s row in the level's CSR."""
    lo, hi = level.indptr[node], level.indptr[node + 1]
    return zip(level.indices[lo:hi], level.data[lo:hi])


def reference_best_move(level, node, block, n, two_m, classes=None):
    """Every candidate priced with the block formula itself; the first
    maximum wins."""
    labels = level.labels
    a, d, s = labels[node], level.deg[node], level.size[node]
    w = {}
    for j, wj in level_row(level, node):
        w[labels[j]] = w.get(labels[j], 0.0) + wj
    base = block(w.get(a, 0.0), d, level.cls_deg[a] - d, s, level.cls_size[a] - s, n, two_m)
    if classes is None:
        best = (0.0, a)
        classes = sorted(w)
    else:
        best = (-np.inf, -1)
    for b in classes:
        if b != a:
            gain = 2 * (block(w.get(b, 0.0), d, level.cls_deg[b], s, level.cls_size[b], n, two_m) - base)
            if gain > best[0]:
                best = (gain, b)
    if level.cls_size[a] > s and 0.0 in level.cls_size:
        gain = 2 * (block(0.0, d, 0.0, s, 0.0, n, two_m) - base)
        if gain > best[0]:
            best = (gain, level.cls_size.index(0.0))
    return best


def reference_polish_gains(level, node, block, n, two_m):
    """The gain of every polish-mode candidate, priced with the block
    formula itself: staying put (0), every other nonempty class and, unless
    the node is alone, the fresh class."""
    labels = level.labels
    a, d, s = labels[node], level.deg[node], level.size[node]
    w = {}
    for j, wj in level_row(level, node):
        w[labels[j]] = w.get(labels[j], 0.0) + wj
    base = block(w.get(a, 0.0), d, level.cls_deg[a] - d, s, level.cls_size[a] - s, n, two_m)
    gains = {a: 0.0}
    for b, size in enumerate(level.cls_size):
        if size > 0 and b != a:
            gains[b] = 2 * (block(w.get(b, 0.0), d, level.cls_deg[b], s, size, n, two_m) - base)
    if level.cls_size[a] > s:
        gains[level.cls_size.index(0.0)] = 2 * (block(0.0, d, 0.0, s, 0.0, n, two_m) - base)
    return gains


@pytest.mark.parametrize("criterion", [cc.independence_criterion(), cc.indetermination_criterion()])
def test_best_move_matches_block_formula_reference(criterion):
    from coupleclust.louvain import _best_move

    rng = np.random.default_rng(5)
    block = criterion.block_evaluator
    moved = fresh = far = 0
    for _ in range(20):
        level = random_level(rng, block)
        n, two_m = int(sum(level.size)), float(sum(level.deg))
        nonempty = [c for c, size in enumerate(level.cls_size) if size > 0]
        tol = 1e-12 * abs(block(two_m, 0.0, 0.0, 0.0, 0.0, n, two_m))  # as _check_graph
        s_max = max(level.cls_size)
        for node in range(len(level.deg)):
            for classes in (None, nonempty):
                gain, b = _best_move(level, node, classes)
                ref_gain, ref_b = reference_best_move(level, node, block, n, two_m, classes)
                assert b == ref_b
                assert abs(gain - ref_gain) <= 1e-12 * max(1.0, abs(ref_gain))
                moved += b != level.labels[node]
                fresh += level.cls_size[b] == 0.0
            # Polish mode. A tolerance no gain exceeds forces the scan of every
            # class and s_max = inf disables its skip, so the kernel must find
            # the reference's best gain, at a class that ties with it.
            ref = reference_polish_gains(level, node, block, n, two_m)
            top = max(ref.values())
            close = 1e-12 * max(1.0, abs(top))
            last = nonempty[node % len(nonempty)]
            gain, b = _best_move(level, node, polish=(last, np.inf, np.finfo(float).max))
            assert abs(gain - top) <= close and abs(ref[b] - top) <= close
            # At the search tolerance the kernel may stop at any gaining
            # candidate, and may skip the scan only where no class gains.
            gain, b = _best_move(level, node, polish=(last, s_max, tol))
            assert (gain > tol) == (top > tol)
            assert gain <= top + close and abs(ref[b] - gain) <= close
            best = max(ref, key=ref.get)
            near = {level.labels[j] for j, _ in level_row(level, node)} | {last}
            far += top > tol and level.cls_size[best] > 0 and best not in near
    assert moved > 100 and fresh > 10
    assert far > 0 if criterion.kind == "indetermination" else far == 0


def in_process_runs(g, crit, cfg):
    """Every restart of ``louvain(g, crit, cfg)`` run here, one after
    another, in stream order; and the search tolerance."""
    sg = louvain_module._SearchGraph(g, crit)
    streams = np.random.default_rng(cfg.seed).spawn(cfg.restarts)
    return [louvain_module._single_run(sg, stream) for stream in streams], sg.tol


def race_winner(runs, tol):
    """The race's tie rule: the first run within ``tol`` of the best."""
    top = max(trace[-1] for _, trace in runs)
    return next(run for run in runs if run[1][-1] >= top - tol)


def assert_result_is_run(result, labels, trace):
    npt.assert_array_equal(result.partition.labels, cc.Partition.from_labels(labels).labels)
    assert result.score == trace[-1]
    assert result.trace == tuple(trace)


def test_restarts_tie_to_the_first_within_tolerance():
    # On karate several restarts reach the same partition score, some
    # differing in the last bits; the first restart within the search
    # tolerance of the best must win, as in the exhaustive search, not the
    # one that happens to round highest.
    g = cc.load_karate()
    cfg = cc.LouvainConfig(seed=0)
    rounded_apart = False
    for crit in (cc.independence_criterion(), cc.indetermination_criterion()):
        runs, tol = in_process_runs(g, crit, cfg)
        scores = np.array([trace[-1] for _, trace in runs])
        top = scores.max()
        tied = np.flatnonzero(scores >= top - tol)
        assert tied.size > 1
        rounded_apart |= scores[tied[0]] < top
        assert_result_is_run(cc.louvain(g, crit, cfg), *runs[tied[0]])
    assert rounded_apart


# The 10-node graph on which default restarts miss the modularity optimum
# for some seeds (ROADMAP item 5).
SHORTFALL = cc.WeightedGraph.from_edges(
    10,
    [
        (i, j, 1.0)
        for i, j in [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 9),
            (2, 3), (2, 4), (2, 8), (2, 9), (3, 8), (3, 9), (5, 8), (6, 9), (7, 8),
        ]
    ],
)


def escape_pool():
    """Graphs fixed in advance on which every restart runs the escape pass,
    each with its shuffle seeds: karate, the shortfall graph, the plateau
    graph, and sparse graphs with n = 4..40, unit and float weights."""
    yield cc.load_karate(), range(10)
    yield SHORTFALL, range(10)
    yield PLATEAU, (182,)
    rng = np.random.default_rng(20261019)
    for n in range(4, 41, 6):
        for weight in (lambda: 1.0, lambda: float(rng.uniform(0.1, 3.0))):
            p = min(0.6, 3.0 / n)
            edges = [(i, j, weight()) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            yield cc.WeightedGraph.from_edges(n, edges), (0, 1)


def test_escape_cache_changes_nothing():
    # The reference runs every restart on a search graph of its own, so no
    # settled partition is shared. The same streams then run on one search
    # graph per criterion, shared by all restarts and seeds, one after
    # another and raced; labels and traces must not change.
    search_graph = louvain_module._SearchGraph
    single_run = louvain_module._single_run
    checked = 0
    for g, seeds in escape_pool():
        for crit in CRITERIA:
            shared = search_graph(g, crit)
            for seed in seeds:
                alone = [
                    single_run(search_graph(g, crit), stream)
                    for stream in np.random.default_rng(seed).spawn(8)
                ]
                here = [single_run(shared, s) for s in np.random.default_rng(seed).spawn(8)]
                raced = louvain_module._race(shared, np.random.default_rng(seed).spawn(8))
                for runs in (here, raced):
                    assert [trace for _, trace in runs] == [trace for _, trace in alone]
                    for (labels, _), (expected, _) in zip(runs, alone):
                        npt.assert_array_equal(labels, expected)
                checked += 1
            assert shared.settled
    assert checked == 2 * (10 + 10 + 1 + 7 * 2 * 2)


def test_escape_pass_reuses_its_result(monkeypatch):
    g = cc.load_karate()
    crit = cc.indetermination_criterion()
    sg = louvain_module._SearchGraph(g, crit)
    escape = louvain_module._escape_pass
    labels = louvain_module._canonical(np.arange(g.n) % 3)
    first, improved = escape(sg, labels)
    assert not first.flags.writeable
    # the pass is pure: it records nothing, and the same start gives the
    # same result
    again, improved_again = escape(sg, labels.copy())
    npt.assert_array_equal(again, first)
    assert improved_again == improved and not sg.settled

    # an 8-restart race computes the pass once per settled partition, from
    # that partition, and keeps its result under it
    starts = []

    def tallied(search, start):
        assert search is sg
        starts.append(start.tobytes())
        return escape(search, start)

    monkeypatch.setattr(louvain_module, "_escape_pass", tallied)
    louvain_module._race(sg, np.random.default_rng(0).spawn(8))
    assert starts and sorted(starts) == sorted(sg.settled)
    for key, (result, improved) in sg.settled.items():
        expected, expected_improved = escape(sg, np.frombuffer(key, dtype=np.int64))
        npt.assert_array_equal(result, expected)
        assert improved == expected_improved


def small_pool(seed: int):
    """28 unit-weight graphs with n = 4 + k % 7 nodes and an edge
    probability from [0.2, 0.9] in four bands, each redrawn until its last
    node has an edge."""
    rng = np.random.default_rng([seed, 2])
    for k in range(28):
        eps = 0.2 + 0.7 * (k // 7 + rng.uniform()) / 4
        n = 4 + k % 7
        iu, iv = np.triu_indices(n, 1)
        while True:
            keep = rng.random(iu.size) < eps
            if keep[iv == n - 1].any():
                break
        edges = zip(iu[keep].tolist(), iv[keep].tolist())
        yield cc.WeightedGraph.from_edges(n, [(i, j, 1.0) for i, j in edges])


def test_settled_partitions_cut_the_move_phases(monkeypatch):
    # A work count, not a timing: the move phases two fixed pools run
    # under both criteria. Restarts stop at the partitions that an earlier
    # restart of their race settled at; without that the counts are 1029
    # and 2003.
    phases = []
    run_passes = louvain_module._run_passes

    def counted(*args):
        phases.append(1)
        return run_passes(*args)

    monkeypatch.setattr(louvain_module, "_run_passes", counted)
    karate = cc.load_karate()
    for crit in CRITERIA:
        for seed in range(10):
            cc.louvain(karate, crit, cc.LouvainConfig(seed=seed))
    assert len(phases) == 711
    phases.clear()
    for seed, g in enumerate(small_pool(31)):
        for crit in CRITERIA:
            cc.louvain(g, crit, cc.LouvainConfig(seed=seed))
    assert len(phases) == 946


def test_polish_runs_on_the_unmoved_last_level(monkeypatch):
    # A level phase that moved nothing leaves the class graph of the labels
    # the polish starts from, so the polish's first merge phase runs on it:
    # no class graph is built twice in a row for the same labels, and the
    # results are those of a polish that rebuilds it.
    built = []
    of_classes = louvain_module._Level.of_classes
    polish = louvain_module._polish

    def recorded(sg, labels):
        built.append(labels.tobytes())
        return of_classes(sg, labels)

    def rebuilding(sg, labels, rng, trace, classes=None):
        return polish(sg, labels, rng, trace)

    monkeypatch.setattr(louvain_module._Level, "of_classes", staticmethod(recorded))
    graphs = [cc.load_karate(), *small_pool(31)]
    runs = {}
    for reuse in (True, False):
        if not reuse:
            monkeypatch.setattr(louvain_module, "_polish", rebuilding)
        results, repeats = [], 0
        for g in graphs:
            for crit in CRITERIA:
                for seed in range(3):
                    built.clear()
                    sg = louvain_module._SearchGraph(g, crit)
                    labels, trace = louvain_module._single_run(sg, np.random.default_rng(seed))
                    results.append((labels.tobytes(), trace))
                    repeats += sum(a == b for a, b in zip(built, built[1:]))
        runs[reuse] = results, repeats
    assert runs[True][0] == runs[False][0]
    assert runs[True][1] == 0 < runs[False][1]


def planted_graph(n=500, blocks=5, p_in=0.05, p_out=0.02, seed=7):
    """A fixed planted-partition graph: ``blocks`` equal blocks, edge
    probability ``p_in`` inside a block and ``p_out`` across."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    same = iu * blocks // n == iv * blocks // n
    keep = rng.random(iu.size) < np.where(same, p_in, p_out)
    return cc.WeightedGraph.from_edges(n, [(i, j, 1.0) for i, j in zip(iu[keep].tolist(), iv[keep].tolist())])


@pytest.mark.parametrize("criterion", [cc.independence_criterion(), cc.indetermination_criterion()])
def test_gain_screen_cuts_refinement_visits(monkeypatch, criterion):
    # A work count, not a timing: the kernel calls that refinement phases
    # make, with the gain screen and with a screen that skips nothing, as
    # before it existed. The skipped visits move nothing, so the results are
    # equal; one restart keeps the runs in this process.
    g = planted_graph()
    assert g.indices.size >= louvain_module._SCREEN_MIN_ENTRIES
    calls = []
    refining = []
    best_move, run_passes = louvain_module._best_move, louvain_module._run_passes

    def counted_move(*args, **kwargs):
        calls.append(bool(refining))
        return best_move(*args, **kwargs)

    def flagged_passes(sg, level, node_map, rng, trace, polish=False):
        # refinement phases are the polish phases that shuffle their queue
        if polish and rng is not None:
            refining.append(True)
        try:
            return run_passes(sg, level, node_map, rng, trace, polish)
        finally:
            refining.clear()

    monkeypatch.setattr(louvain_module, "_best_move", counted_move)
    monkeypatch.setattr(louvain_module, "_run_passes", flagged_passes)
    cfg = cc.LouvainConfig(seed=3, restarts=1)
    screened = cc.louvain(g, criterion, cfg)
    screened_calls = sum(calls)
    calls.clear()
    monkeypatch.setattr(louvain_module._Screen, "skips", lambda self, node: False)
    plain = cc.louvain(g, criterion, cfg)
    plain_calls = sum(calls)
    npt.assert_array_equal(screened.partition.labels, plain.partition.labels)
    assert (screened.score, screened.trace) == (plain.score, plain.trace)
    assert plain_calls >= 2 * g.n  # at least two refinement phases ran
    assert screened_calls * 3 <= plain_calls


# Fixed Gilbert graphs around the stored-entry count from which the restarts
# race on forked workers: 2248 and 2186 entries, then 1874; and 2200
# entries on 64 nodes, few enough that the workers run the escape pass.
RACE_GRAPHS = {
    "above-150": (lambda: cc.gilbert(150, 0.1, rng=1), True),
    "above-300": (lambda: cc.gilbert(300, 0.025, rng=4), True),
    "below-200": (lambda: cc.gilbert(200, 0.05, rng=6), False),
    "escape-64": (lambda: cc.gilbert(64, 0.55, rng=0), True),
}


def forks(g, restarts: int) -> bool:
    """Whether ``louvain`` races ``restarts`` restarts on ``g`` on forked
    workers here: the graph is big enough and the host can."""
    workers = min(restarts, _mc.thread_cap())
    sg = louvain_module._SearchGraph(g, cc.independence_criterion())
    return louvain_module._can_fork(sg, workers)


def test_gilbert_draw_leaves_no_thread_behind(monkeypatch):
    # the threaded Gilbert draw joins its pool, so the restarts may still
    # race on forked workers right after it
    monkeypatch.setattr(_mc, "thread_cap", lambda: 2)
    before = threading.active_count()
    g = cc.gilbert(3000, 0.003, rng=1)
    assert threading.active_count() == before == 1
    sg = louvain_module._SearchGraph(g, cc.independence_criterion())
    assert louvain_module._can_fork(sg, 2) == ("fork" in multiprocessing.get_all_start_methods())


@pytest.fixture
def runs_here(monkeypatch):
    """Process ids of the restarts run in this process: a forked restart
    runs in a worker and leaves no entry."""
    pids = []
    single_run = louvain_module._single_run

    def recorded(*args):
        pids.append(os.getpid())
        return single_run(*args)

    monkeypatch.setattr(louvain_module, "_single_run", recorded)
    return pids


@pytest.mark.parametrize("graph", sorted(RACE_GRAPHS))
def test_forked_race_equals_in_process_race(graph, runs_here):
    build, above = RACE_GRAPHS[graph]
    g = build()
    assert (g.weights.nnz >= louvain_module._FORK_MIN_ENTRIES) == above
    for crit in CRITERIA:
        sg = louvain_module._SearchGraph(g, crit)
        for seed in range(5):
            cfg = cc.LouvainConfig(seed=seed, restarts=3)
            runs, tol = in_process_runs(g, crit, cfg)
            # every run, not just the winner, comes back in stream order
            streams = np.random.default_rng(seed).spawn(cfg.restarts)
            raced = louvain_module._race(sg, streams)
            assert [trace for _, trace in raced] == [trace for _, trace in runs]
            for (labels, _), (expected, _) in zip(raced, runs):
                npt.assert_array_equal(labels, expected)
            runs_here.clear()
            assert_result_is_run(cc.louvain(g, crit, cfg), *race_winner(runs, tol))
            assert len(runs_here) == (0 if forks(g, cfg.restarts) else cfg.restarts)


def test_single_restart_runs_in_process(runs_here):
    # the all-in-one fallback reuses the only stream after its run, so a
    # single restart never forks, however big the graph
    g = RACE_GRAPHS["above-150"][0]()
    for crit in CRITERIA:
        sg = louvain_module._SearchGraph(g, crit)
        labels, trace = louvain_module._single_run(sg, np.random.default_rng(3))
        runs_here.clear()
        assert_result_is_run(cc.louvain(g, crit, cc.LouvainConfig(seed=3, restarts=1)), labels, trace)
        assert len(runs_here) == 1


def test_live_thread_keeps_the_race_in_process(runs_here):
    g = RACE_GRAPHS["above-300"][0]()
    crit = cc.indetermination_criterion()
    cfg = cc.LouvainConfig(seed=1, restarts=3)
    winner = race_winner(*in_process_runs(g, crit, cfg))
    release = threading.Event()
    parked = threading.Thread(target=release.wait)
    parked.start()
    try:
        runs_here.clear()
        result = cc.louvain(g, crit, cfg)
    finally:
        release.set()
        parked.join(timeout=10)
    assert not parked.is_alive()
    assert len(runs_here) == cfg.restarts
    assert_result_is_run(result, *winner)


def test_dead_worker_raises_memory_error(monkeypatch):
    g = RACE_GRAPHS["above-150"][0]()
    if not forks(g, cc.LouvainConfig().restarts):
        pytest.skip("restarts race in-process here")
    parent = os.getpid()

    def killed(*args):
        # a worker dies without a Python exception, as the OOM killer leaves it
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("restart ran in the calling process")

    monkeypatch.setattr(louvain_module, "_single_run", killed)
    # a hang here would block the whole run: dump the stacks and exit instead
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        start = time.perf_counter()
        with pytest.raises(MemoryError, match="died"):
            cc.louvain(g, cc.independence_criterion())
        assert time.perf_counter() - start < 60
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert not multiprocessing.active_children()


def test_louvain_modularity_not_below_networkx():
    # 30 Gilbert graphs fixed in advance: eps uniform in [0.01, 0.05] and
    # the graph seeds drawn from one stream; run k uses seed k on both sides.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2024)
    ours, theirs = [], []
    for k in range(30):
        eps = rng.uniform(0.01, 0.05)
        g = cc.gilbert(300, eps, rng=int(rng.integers(2**32)))
        result = cc.louvain(g, cc.independence_criterion(), cc.LouvainConfig(seed=k))
        nxg = nx.from_scipy_sparse_array(g.weights)
        classes = nx.community.louvain_communities(nxg, seed=k)
        ours.append(result.score)
        theirs.append(nx.community.modularity(nxg, classes))
    ours, theirs = np.array(ours), np.array(theirs)
    assert ours.mean() >= theirs.mean()
    assert np.all(ours >= theirs - 0.01), np.flatnonzero(ours < theirs - 0.01)


# Scaling by a power of two scales every weight, gain and the search
# tolerance exactly, so the search must take the same path in any unit.
UNIT_SCALES = (2.0**-50, 2.0**-43, 2.0**40)
CRITERIA = (cc.independence_criterion(), cc.indetermination_criterion())


def in_unit(g: cc.WeightedGraph, c: float) -> cc.WeightedGraph:
    return cc.WeightedGraph(g.weights * c)


@functools.lru_cache(maxsize=None)
def unit_case(graph: str, kind: str):
    g = cc.load_karate() if graph == "karate" else cc.gilbert_weighted(300, 0.05, 5, rng=1)
    crit = cc.criterion_by_name(kind)
    return g, crit, cc.louvain(g, crit, cc.LouvainConfig(seed=0))


@pytest.mark.parametrize("c", UNIT_SCALES, ids=lambda c: f"2^{int(np.log2(c))}")
@pytest.mark.parametrize("kind", ["independence", "indetermination"])
@pytest.mark.parametrize("graph", ["karate", "gilbert300"])
def test_louvain_does_not_depend_on_the_weight_unit(graph, kind, c):
    g, crit, base = unit_case(graph, kind)
    result = cc.louvain(in_unit(g, c), crit, cc.LouvainConfig(seed=0))
    npt.assert_array_equal(result.partition.labels, base.partition.labels)
    assert result.score == (c * base.score if kind == "indetermination" else base.score)


def test_exhaustive_does_not_depend_on_the_weight_unit():
    # 20 weighted graphs with 4-9 nodes, fixed in advance
    rng = np.random.default_rng(8)
    c = 2.0**-43
    for k in range(20):
        n = 4 + k % 6
        iu = np.triu_indices(n, 1)
        keep = rng.uniform(size=iu[0].size) < rng.uniform(0.3, 0.9)
        keep[0] = True  # at least one edge
        w = rng.uniform(0.1, 3.0, size=int(keep.sum()))
        g = cc.WeightedGraph.from_edges(n, zip(iu[0][keep], iu[1][keep], w))
        for crit in CRITERIA:
            part, score = cc.exhaustive_best_partition(g, crit)
            scaled, _ = cc.exhaustive_best_partition(in_unit(g, c), crit)
            npt.assert_array_equal(scaled.labels, part.labels, err_msg=f"graph {k}, {crit.kind}")
