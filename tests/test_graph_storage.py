"""Property tests for the graph storage: the CSR arrays a graph keeps, built
in numpy, are scipy's canonical CSR of the same input, whichever way the
input comes (a dense matrix, a scipy sparse matrix with duplicates and
explicit zeros, or an edge list), and bad input raises the package error it
always raised.

scipy sums duplicate entries in an order its sort leaves unspecified, and so
does the graph, so duplicated weights here are whole numbers: their sums are
exact in any order. Weights stored once are any finite floats."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

import coupleclust as cc

PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

WEIGHT = st.one_of(
    st.integers(1, 4).map(float),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def symmetric_entries(draw, max_n=12):
    """``(n, edges)``: each undirected pair ``i <= j`` at most once, with a
    positive weight, so sparse and dense graphs and isolated nodes all come
    up."""
    n = draw(st.integers(1, max_n))
    iu = list(zip(*np.triu_indices(n)))
    pairs = draw(st.lists(st.sampled_from(iu), unique=True, max_size=len(iu)))
    weights = draw(st.lists(WEIGHT, min_size=len(pairs), max_size=len(pairs)))
    return n, [(int(i), int(j), w) for (i, j), w in zip(pairs, weights)]


def dense_of(n, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = a[j, i] = w
    return a


@st.composite
def scattered(draw, n, edges):
    """The matrix of ``edges`` as unsorted coordinate triples: whole weights
    split into unit duplicates, plus explicit zeros, some on stored
    positions and some not."""
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        for r, c in {(i, j), (j, i)}:
            parts = int(w) if w == int(w) and draw(st.booleans()) else 1
            rows += [r] * parts
            cols += [c] * parts
            vals += [w / parts] * parts
    zeros = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    rows += [r for r, _ in zeros]
    cols += [c for _, c in zeros]
    vals += [0.0] * len(zeros)
    order = np.array(draw(st.permutations(range(len(vals)))), dtype=np.int64)
    return np.array(rows, dtype=np.int64)[order], np.array(cols, dtype=np.int64)[order], np.array(vals)[order]


def canonical(mat) -> sparse.csr_array:
    ref = sparse.csr_array(mat, dtype=float, copy=True)
    ref.sum_duplicates()
    ref.eliminate_zeros()
    return ref


def assert_stores(g: cc.WeightedGraph, ref: sparse.csr_array):
    degrees = np.asarray(ref.sum(axis=1), dtype=float).ravel()
    assert g.n == ref.shape[0]
    for mine, theirs in ((g.indptr, ref.indptr), (g.indices, ref.indices), (g.data, ref.data)):
        assert np.array_equal(mine, theirs)
        assert not mine.flags.writeable
    assert np.array_equal(g.degrees, degrees)
    assert g.total_weight_2m == float(degrees.sum())
    view = g.weights
    assert type(view) is sparse.csr_array and view.shape == ref.shape
    assert np.array_equal(view.indptr, ref.indptr)
    assert np.array_equal(view.indices, ref.indices)
    assert np.array_equal(view.data, ref.data)
    assert view is g.weights


@PROPERTY
@given(symmetric_entries(), st.data())
def test_every_input_form_stores_scipys_canonical_csr(graph, data):
    n, edges = graph
    dense = dense_of(n, edges)
    assert_stores(cc.WeightedGraph(dense), canonical(dense))
    rows, cols, vals = data.draw(scattered(n, edges))
    coo = sparse.coo_array((vals, (rows, cols)), shape=(n, n))
    assert_stores(cc.WeightedGraph(coo), canonical(coo))
    assert_stores(cc.WeightedGraph(coo.tocsr()), canonical(coo))
    assert coo.nnz == vals.size  # the caller's matrix is left as given
    both = edges + [(j, i, w) for i, j, w in edges if i != j]
    r, c, v = (np.array([e[k] for e in both], dtype=dtype) for k, dtype in enumerate((int, int, float)))
    mirrored = sparse.coo_array((v, (r, c)), shape=(n, n))
    assert_stores(cc.WeightedGraph.from_edges(n, edges), canonical(mirrored))


@PROPERTY
@given(symmetric_entries(), st.sampled_from(["asymmetric", "negative", "nan", "inf"]), st.data())
def test_bad_input_raises_the_same_error_in_every_form(graph, fault, data):
    n, edges = graph
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if fault == "asymmetric":
        assume(n > 1)  # a single node has no pair to make asymmetric
        j = (i + 1) % n if i == j else j
    a = dense_of(n, edges)
    if fault == "asymmetric":
        a[i, j] += 1.0
        error = cc.DimensionMismatch
    else:
        a[i, j] = a[j, i] = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[fault]
        error = cc.NegativeEntry if fault == "negative" else cc.NonFiniteEntry
    with pytest.raises(error):
        cc.WeightedGraph(a)
    with pytest.raises(error):
        cc.WeightedGraph(sparse.csr_array(a))
    if fault != "asymmetric":  # an edge list is symmetrized, never asymmetric
        upper = [(r, c, a[r, c]) for r, c in zip(*np.nonzero(a)) if r <= c]
        with pytest.raises(error):
            cc.WeightedGraph.from_edges(n, upper)
