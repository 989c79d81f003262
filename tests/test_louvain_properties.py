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
    _Screen,
    _SearchGraph,
    _best_move,
    _canonical,
    _check_graph,
    _move,
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
    # each CSR row holds its neighbour classes in ascending order
    got = [
        dict(zip(level.indices[lo:hi], level.data[lo:hi]))
        for lo, hi in zip(level.indptr, level.indptr[1:])
    ]
    assert [list(row) for row in got] == [sorted(row) for row in adj]
    for row, want in zip(got, adj):
        for e, w in want.items():
            assert abs(row[e] - w) <= 1e-12 * w


@PROPERTY
@given(
    st.integers(2, 40),
    st.floats(0.02, 0.6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_criteria_differ_by_a_rank_one_term(n, eps, max_weight, seed, data):
    # From the two block formulas alone, with d̄ = 2M/n, every partition P
    # has indet(P) = 2M*indep(P) + sum_C (D_C - S_C*d̄)**2 / 2M, where D_C
    # is class C's degree mass and S_C its size; each pair has
    # b_x - b_+ = (d_i - d̄)(d_j - d̄) / 2M. An oracle for both scoring
    # paths that uses neither.
    g = cc.gilbert_weighted(n, eps, max_weight, rng=seed)
    two_m = g.total_weight_2m
    assume(two_m > 0)
    part = cc.Partition.from_labels(
        data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    )
    indep, indet = (cc.global_score(g, criterion, part) for criterion in CRITERIA)
    excess = g.degrees - two_m / n
    term = (np.bincount(part.labels, weights=excess) ** 2).sum() / two_m
    assert abs(indet - (two_m * indep + term)) <= 1e-12 * two_m
    for _ in range(3):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        b_x, b_plus = cc.bias_independence(g, i, j), cc.bias_indetermination(g, i, j)
        assert_close(b_x - b_plus, excess[i] * excess[j] / two_m, rel=1e-12)


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


@PROPERTY
@given(st.integers(1, 4000), st.data())
def test_canonical_relabels_like_a_sort(n, data):
    # The lookup-table relabeling against a sort-based reference, on labels
    # in [0, n): k classes with ids spread over the whole range.
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(n)[:k][rng.integers(0, k, size=n)]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    expected = np.argsort(np.argsort(first))[inverse]
    got = _canonical(labels)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(_canonical(labels.tolist()), expected)


def best_polish_gain(level, node):
    """The best gain of any polish candidate of ``node``, each priced with
    the kernel's expression: every other nonempty class, and a fresh class
    unless the node is alone; -inf if there is none."""
    labels, cls_deg, cls_size = level.labels, level.cls_deg, level.cls_size
    a = labels[node]
    cw, cd, cs = level.cw[node], level.cd[node], level.cs[node]
    w = {}
    lo, hi = level.indptr[node], level.indptr[node + 1]
    for j, wj in zip(level.indices[lo:hi], level.data[lo:hi]):
        w[labels[j]] = w.get(labels[j], 0.0) + wj
    base = cw * w.get(a, 0.0) + cd * (cls_deg[a] - level.deg[node]) + cs * (cls_size[a] - level.size[node])
    gains = [
        2.0 * (cw * w.get(b, 0.0) + cd * cls_deg[b] + cs * size - base)
        for b, size in enumerate(cls_size)
        if size > 0.0 and b != a
    ]
    if cls_size[a] > level.size[node]:
        gains.append(-2.0 * base)
    return max(gains, default=-np.inf)


def assert_screen_sound(sg, level, screen, last, s_max):
    """Every node the screen does not mark is within its widened bound, and
    the kernel gains at most ``tol`` wherever the screen skips."""
    for node in range(len(level.labels)):
        if not screen.must[node]:
            bound = screen.cap[node] + screen.wd[node] * screen.sum_d + screen.ws[node] * screen.sum_s
            assert best_polish_gain(level, node) <= bound
        if screen.skips(node):
            assert _best_move(level, node, polish=(last, s_max, sg.tol))[0] <= sg.tol


@PROPERTY
@given(graphs_with_labels(max_n=14), st.sampled_from(CRITERIA), st.data())
def test_gain_screen_bounds_every_polish_gain(case, criterion, data):
    # Random partitions and random move sequences, including moves into
    # classes with no edge to the node, into singleton classes and into a
    # fresh class, updated as a polish phase updates its screen.
    g, part = case
    assume(g.total_weight_2m > 0)
    sg = _SearchGraph(g, criterion)
    level = _Level.from_partition(sg, part.labels)
    screen = _Screen.build(sg, level)
    assert screen is not None  # cd <= 0 under both criteria
    last, s_max = -1, max(level.cls_size)
    assert_screen_sound(sg, level, screen, last, s_max)
    for _ in range(data.draw(st.integers(0, 6))):
        node = data.draw(st.integers(0, g.n - 1))
        a = level.labels[node]
        lo, hi = level.indptr[node], level.indptr[node + 1]
        near = {level.labels[j] for j in level.indices[lo:hi]}
        live = [c for c, size in enumerate(level.cls_size) if size > 0.0 and c != a]
        fresh = level.cls_size.index(0.0) if 0.0 in level.cls_size else len(level.cls_size)
        targets = {
            "any": live,
            "no edge": [c for c in live if c not in near],
            "singleton": [c for c in live if level.cls_size[c] == 1.0],
            "fresh": [fresh] if level.cls_size[a] > 1.0 else [],
        }[data.draw(st.sampled_from(["any", "no edge", "singleton", "fresh"]))]
        if not targets:
            continue
        dst = data.draw(st.sampled_from(targets))
        _move(level, node, dst)
        screen.moved(level, node)
        last, s_max = dst, max(s_max, level.cls_size[dst])
        assert_screen_sound(sg, level, screen, last, s_max)


def test_gain_screen_sees_the_fresh_class_a_join_opens():
    # Node 0 is alone, and no move of it gains. Node 1, which has no edge to
    # it, joins its class: now node 0 gains by leaving for a fresh class, a
    # candidate it did not have, and the screen must not skip it.
    g = cc.WeightedGraph.from_edges(5, [(0, 4, 1.0), (1, 4, 2.0), (2, 4, 2.0)])
    sg = _SearchGraph(g, cc.indetermination_criterion())
    level = _Level.from_partition(sg, np.array([0, 1, 2, 1, 2]))
    screen = _Screen.build(sg, level)
    assert screen.skips(0)
    assert _best_move(level, 0, polish=(-1, 2.0, sg.tol))[0] <= sg.tol
    _move(level, 1, 0)
    screen.moved(level, 1)
    gain, b = _best_move(level, 0, polish=(0, 2.0, sg.tol))
    assert gain > sg.tol and b == 3  # the fresh slot past the last class
    assert not screen.skips(0)
    assert_screen_sound(sg, level, screen, 0, 2.0)
