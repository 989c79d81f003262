"""Property tests for partition scoring and the greedy search.

The aggregate scorer is checked against independent oracles: the O(n**2)
sum of the pair criterion over same-class ordered pairs, and, for the
independence criterion, Newman modularity as computed by networkx.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

import coupleclust as cc
from coupleclust.louvain import _score_labels, _stored_entries
from conftest import brute_force_score

CRITERIA = (cc.independence_criterion(), cc.indetermination_criterion())
PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_n=12, self_loops=True):
    """A small dense weighted graph: each upper-triangle entry is 0 or a
    positive weight, the diagonal included when ``self_loops``."""
    n = draw(st.integers(1, max_n))
    iu = np.triu_indices(n, 0 if self_loops else 1)
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 4.0))
    upper = draw(st.lists(weight, min_size=iu[0].size, max_size=iu[0].size))
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
    classes = [set(part.members(c).tolist()) for c in range(part.k)]
    q = nx.community.modularity(nx.from_numpy_array(g.weights), classes)
    assert_close(cc.global_score(g, CRITERIA[0], part), q)


def test_independence_score_is_networkx_modularity_csr():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    n = cc.DENSE_CAP + 52
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
@given(graphs(), st.sampled_from(CRITERIA), st.integers(0, 2**32 - 1))
def test_louvain_trace_never_decreases(g, criterion, seed):
    assume(g.total_weight_2m > 0)
    result = cc.louvain(g, criterion, cc.LouvainConfig(seed=seed, restarts=2))
    trace = result.trace
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-12 * max(1.0, abs(before)), trace
    assert trace[-1] == result.score
    assert_close(result.score, cc.global_score(g, criterion, result.partition))
