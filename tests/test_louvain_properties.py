"""Property tests for partition scoring and the greedy search.

The aggregate scorer is checked against independent oracles: the O(n**2)
sum of the pair criterion over same-class ordered pairs, and, for the
independence criterion, Newman modularity as computed by networkx. The
greedy search is checked for the optimality its docstring promises: no
single-node move and no merge of two classes gains more than the search
tolerance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

import coupleclust as cc
from coupleclust.louvain import (
    _ESCAPE_CAP,
    _Level,
    _SearchGraph,
    _check_graph,
    _score_labels,
    _stored_entries,
)
from conftest import brute_force_score

CRITERIA = (cc.independence_criterion(), cc.indetermination_criterion())
PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_n=12, self_loops=True):
    """A small weighted graph: a drawn number of upper-triangle entries
    (the diagonal included when ``self_loops``) carry a positive weight,
    the rest are 0, so sparse graphs with isolated nodes come up as often
    as dense ones."""
    n = draw(st.integers(1, max_n))
    iu = np.triu_indices(n, 0 if self_loops else 1)
    m = draw(st.integers(0, iu[0].size))
    weight = st.one_of(st.just(1.0), st.floats(0.05, 4.0))
    upper = np.zeros(iu[0].size)
    upper[draw(st.permutations(range(iu[0].size)))[:m]] = draw(
        st.lists(weight, min_size=m, max_size=m)
    )
    a = np.zeros((n, n))
    a[iu] = upper
    return cc.WeightedGraph(a + np.triu(a, 1).T)


@st.composite
def graphs_with_labels(draw, **kwargs):
    g = draw(graphs(**kwargs))
    labels = draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    return g, cc.Partition.from_labels(labels)


def assert_close(a, b, rel=1e-9):
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (a, b)


@PROPERTY
@given(graphs_with_labels(), st.sampled_from(CRITERIA))
def test_score_equals_pair_sum_oracle(case, criterion):
    g, part = case
    assume(g.total_weight_2m > 0)
    assert_close(
        cc.global_score(g, criterion, part),
        brute_force_score(g, criterion, part.labels),
    )


@PROPERTY
@given(graphs_with_labels(), st.sampled_from(CRITERIA), st.randoms(use_true_random=False))
def test_score_ignores_class_ids(case, criterion, random):
    # The search scores raw, non-canonical label arrays, so the scorer must
    # not depend on which ids the classes carry, gaps included.
    g, part = case
    assume(g.total_weight_2m > 0)
    entries = _stored_entries(g)
    new_ids = np.array(random.sample(range(3 * g.n), part.k))
    assert_close(
        _score_labels(g, criterion, new_ids[part.labels], entries),
        _score_labels(g, criterion, part.labels, entries),
        rel=1e-12,
    )


@PROPERTY
@given(graphs_with_labels(self_loops=False))
def test_independence_score_is_networkx_modularity_dense(case):
    nx = pytest.importorskip("networkx")
    g, part = case
    assume(g.total_weight_2m > 0)
    assert sparse.issparse(g.weights)
    classes = [set(part.members(c).tolist()) for c in range(part.k)]
    q = nx.community.modularity(nx.from_numpy_array(g.weights.toarray()), classes)
    assert_close(cc.global_score(g, CRITERIA[0], part), q)


def test_independence_score_is_networkx_modularity_csr():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    n = 2100
    i = rng.integers(0, n, size=6000)
    j = rng.integers(0, n, size=6000)
    keep = i != j
    w = rng.uniform(0.5, 2.0, size=keep.sum())
    a = sparse.coo_array((w, (i[keep], j[keep])), shape=(n, n)).tocsr()
    g = cc.WeightedGraph(a + a.T)
    assert sparse.issparse(g.weights)
    part = cc.Partition.from_labels(rng.integers(0, 40, size=n))
    classes = [set(part.members(c).tolist()) for c in range(part.k)]
    q = nx.community.modularity(nx.from_scipy_sparse_array(g.weights), classes)
    assert_close(cc.global_score(g, CRITERIA[0], part), q)


@PROPERTY
@given(graphs_with_labels(), st.sampled_from(CRITERIA), st.randoms(use_true_random=False))
def test_score_ignores_node_relabelling(case, criterion, random):
    g, part = case
    assume(g.total_weight_2m > 0)
    perm = np.array(random.sample(range(g.n), g.n))
    a = np.zeros((g.n, g.n))
    a[np.ix_(perm, perm)] = g.weights.toarray()
    labels = np.empty(g.n, dtype=np.int64)
    labels[perm] = part.labels
    assert_close(
        cc.global_score(cc.WeightedGraph(a), criterion, cc.Partition.from_labels(labels)),
        cc.global_score(g, criterion, part),
    )


@PROPERTY
@given(graphs_with_labels())
def test_class_graph_matches_pair_loop(case):
    # The level builder against a plain loop over the stored pairs: every
    # class a lone super-node, the weight between distinct classes, and the
    # class degree mass and size.
    g, part = case
    labels = part.labels.tolist()
    a = g.weights.toarray()
    adj = [{} for _ in range(part.k)]
    deg, size = [0.0] * part.k, [0.0] * part.k
    for i, c in enumerate(labels):
        deg[c] += g.degrees[i]
        size[c] += 1.0
        for j, e in enumerate(labels):
            if a[i, j] and c != e:
                adj[c][e] = adj[c].get(e, 0.0) + a[i, j]
    # the level builder reads no criterion; indetermination, unlike
    # independence, also accepts the edgeless graphs drawn
    level = _Level.of_classes(_SearchGraph(g, cc.indetermination_criterion()), part.labels)
    assert level.labels == list(range(part.k))
    assert (level.deg, level.size) == (deg, size)
    assert [sorted(row) for row in level.adj] == [sorted(row) for row in adj]
    for got, want in zip(level.adj, adj):
        for e, w in want.items():
            assert abs(got[e] - w) <= 1e-12 * w


@PROPERTY
@given(graphs(), st.sampled_from(CRITERIA), st.integers(0, 2**32 - 1))
def test_louvain_trace_never_decreases(g, criterion, seed):
    assume(g.total_weight_2m > 0)
    result = cc.louvain(g, criterion, cc.LouvainConfig(seed=seed, restarts=2))
    trace = result.trace
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-12 * max(1.0, abs(before)), trace
    assert trace[-1] == result.score
    assert_close(result.score, cc.global_score(g, criterion, result.partition))


def one_node_moves(labels, k):
    """Every labelling that moves one node to another class, or alone into
    a fresh class ``k`` when it has company."""
    for node, own in enumerate(labels.tolist()):
        alone = np.count_nonzero(labels == own) == 1
        for dst in range(k + (0 if alone else 1)):
            if dst != own:
                moved = labels.copy()
                moved[node] = dst
                yield moved


def two_class_merges(labels, k):
    """Every labelling that unites two classes."""
    for a in range(k):
        for b in range(a + 1, k):
            yield np.where(labels == b, a, labels)


def assert_no_neighbour_gains(g, criterion, seed, neighbours):
    assume(g.total_weight_2m > 0)
    cfg = cc.LouvainConfig(seed=seed, restarts=2)
    result = cc.louvain(g, criterion, cfg)
    score = cc.global_score(g, criterion, result.partition)
    # the score is recomputed in another summation order, so allow for
    # rounding on top of the search tolerance
    bound = score + _check_graph(g, criterion) + 1e-12 * max(1.0, abs(score))
    labels = result.partition.labels
    for other in neighbours(labels, result.partition.k):
        moved = cc.global_score(g, criterion, cc.Partition.from_labels(other))
        assert moved <= bound, (labels, other, moved, score)


@PROPERTY
@given(graphs(max_n=10), st.sampled_from(CRITERIA), st.integers(0, 2**32 - 1))
def test_louvain_result_is_single_node_optimal(g, criterion, seed):
    assert_no_neighbour_gains(g, criterion, seed, one_node_moves)


@PROPERTY
@given(graphs(max_n=10), st.sampled_from(CRITERIA), st.integers(0, 2**32 - 1))
def test_louvain_result_is_merge_stable(g, criterion, seed):
    assert_no_neighbour_gains(g, criterion, seed, two_class_merges)


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.kind)
def test_louvain_optimality_above_escape_cap(criterion):
    # Above _ESCAPE_CAP no escape pass runs, so single-node optimality rests
    # on the last refinement phase alone: it queued every node and moved none.
    # In gilbert(300, 0.02, rng=3) a node gains by joining a class it has no
    # edge to under indetermination, so that phase must price such classes.
    for g in (cc.gilbert(200, 0.03, rng=11), cc.gilbert(300, 0.02, rng=3)):
        assert g.n > _ESCAPE_CAP
        cfg = cc.LouvainConfig(seed=0, restarts=2)
        part = cc.louvain(g, criterion, cfg).partition
        score = cc.global_score(g, criterion, part)
        bound = score + _check_graph(g, criterion) + 1e-12 * max(1.0, abs(score))
        for neighbours in (one_node_moves, two_class_merges):
            for other in neighbours(part.labels, part.k):
                moved = cc.global_score(g, criterion, cc.Partition.from_labels(other))
                assert moved <= bound, (g.n, other, moved, score)
