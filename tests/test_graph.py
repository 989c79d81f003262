"""Tests for graphs, the two local criteria, and the bias distributions."""

import importlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.stats import binom, chisquare

import coupleclust as cc
from coupleclust import _mc
from coupleclust.graph import _binomial_row, _degree_rows

graph_module = importlib.import_module("coupleclust.graph")


def star3() -> cc.WeightedGraph:
    """Center 0 joined to leaves 1 and 2."""
    return cc.WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])


def test_weighted_graph_validation():
    with pytest.raises(cc.DimensionMismatch):
        cc.WeightedGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cc.WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        cc.WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # sparse input: symmetric pattern with asymmetric values, then an
    # asymmetric pattern
    with pytest.raises(ValueError):
        cc.WeightedGraph(sparse.csr_array(np.array([[0.0, 1.0], [2.0, 0.0]])))
    with pytest.raises(ValueError):
        cc.WeightedGraph(sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError, match="integers"):
        cc.WeightedGraph.from_edges(3, [(1.9, 2, 1.0)])


GRAPH_ERRORS = {
    "negative-weight": (
        lambda: cc.WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]])), cc.NegativeEntry, "nonnegative"
    ),
    "asymmetric-dense": (
        lambda: cc.WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]])), cc.DimensionMismatch, "symmetric"
    ),
    "asymmetric-sparse": (
        lambda: cc.WeightedGraph(sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))),
        cc.DimensionMismatch,
        "symmetric",
    ),
    "index-above-n": (
        lambda: cc.WeightedGraph.from_edges(2, [(0, 5, 1.0)]),
        cc.DimensionMismatch,
        r"node index 5 is outside \[0, n\) for n = 2",
    ),
    "index-equal-n": (
        lambda: cc.WeightedGraph.from_edges(2, [(2, 1, 1.0)]),
        cc.DimensionMismatch,
        r"node index 2 is outside \[0, n\) for n = 2",
    ),
    "index-below-0": (
        lambda: cc.WeightedGraph.from_edges(2, [(0, -1, 1.0)]),
        cc.DimensionMismatch,
        r"node index -1 is outside \[0, n\) for n = 2",
    ),
}


@pytest.mark.parametrize("build, error, message", GRAPH_ERRORS.values(), ids=GRAPH_ERRORS.keys())
def test_graph_construction_raises_package_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weighted_graph_rejects_non_finite_weights(bad):
    a = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(cc.NonFiniteEntry):
        cc.WeightedGraph(a)
    with pytest.raises(cc.NonFiniteEntry):
        cc.WeightedGraph(sparse.csr_array(a))
    with pytest.raises(cc.NonFiniteEntry):
        cc.WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, bad)])
    with pytest.raises(cc.NonFiniteEntry):
        cc.WeightedGraph.from_edges(3000, [(0, 2999, bad)])


NOT_REAL = {
    "string": "1",
    "bool": True,
    "complex": 1 + 1j,
    "object": object(),
}


@pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_weights_must_be_real_numbers(bad):
    nest = [[0, bad], [bad, 0]]
    mixed = [[0.0, 1.0, bad], [1.0, 0.0, 0.0], [bad, 0.0, 0.0]]
    typed = np.array([[bad] * 2] * 2)  # of dtype str, bool, complex or object
    for dense in (nest, mixed, typed, np.array(mixed, dtype=object)):
        with pytest.raises(cc.NonFiniteEntry, match="real numbers"):
            cc.WeightedGraph(dense)
    for edges in ([(0, 1, bad)], [(0, 1, 1.0), (1, 2, bad)]):
        with pytest.raises(cc.NonFiniteEntry, match="real numbers"):
            cc.WeightedGraph.from_edges(3, edges)
    if isinstance(bad, (bool, complex)):  # the dtypes scipy.sparse can hold
        with pytest.raises(cc.NonFiniteEntry, match="real numbers"):
            cc.WeightedGraph(sparse.csr_array(typed))


def test_integer_weights_are_real_numbers():
    a = np.array([[0, 2], [2, 0]])
    for g in (
        cc.WeightedGraph(a),
        cc.WeightedGraph(a.tolist()),
        cc.WeightedGraph(sparse.csr_array(a)),
        cc.WeightedGraph.from_edges(2, [(0, 1, 2)]),
        cc.WeightedGraph.from_edges(2, [(0, 1, np.int64(2))]),
    ):
        assert g.data.dtype == float and g.weight(0, 1) == 2.0


@pytest.mark.parametrize("bad", [-1, 3, 7, np.int64(-1), 1.0, True, "0", None])
def test_node_indices_are_integers_in_range(bad):
    g = star3()
    calls = (
        lambda: g.neighbors(bad),
        lambda: g.weight(bad, 0),
        lambda: g.weight(0, bad),
        lambda: cc.local_independence_criterion(g, bad, 0),
        lambda: cc.local_indetermination_criterion(g, 0, bad),
        lambda: cc.bias_independence(g, bad, 0),
        lambda: cc.bias_indetermination(g, 0, bad),
    )
    for call in calls:
        with pytest.raises(cc.DimensionMismatch, match=r"is not an integer in \[0, n\) for n = 3"):
            call()
    assert g.weight(np.int32(0), np.int64(2)) == 1.0
    npt.assert_array_equal(g.neighbors(np.uint8(1))[0], [0])


def test_weighted_graph_rejects_weights_whose_sums_overflow():
    # every weight is finite, but node 1's degree and 2M are not
    with pytest.raises(cc.NonFiniteEntry, match="overflow"):
        cc.WeightedGraph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    # finite degrees whose sum, 2M, overflows
    with pytest.raises(cc.NonFiniteEntry, match="overflow"):
        cc.WeightedGraph.from_edges(4, [(0, 1, 1e308), (2, 3, 1e308)])
    g = cc.WeightedGraph.from_edges(3, [(0, 1, 1e307), (1, 2, 1e307)])
    assert np.isfinite(g.total_weight_2m)


def test_weighted_graph_basic_accessors():
    g = cc.WeightedGraph.from_edges(
        4, [(0, 1, 2.0), (1, 2, 1.0), (3, 3, 5.0)]
    )
    assert g.n == 4
    npt.assert_array_equal(g.degrees, [2.0, 3.0, 1.0, 5.0])
    assert g.total_weight_2m == 11.0
    assert g.weight(0, 1) == 2.0 and g.weight(1, 0) == 2.0
    assert g.weight(3, 3) == 5.0
    idx, w = g.neighbors(1)
    npt.assert_array_equal(idx, [0, 2])
    npt.assert_array_equal(w, [2.0, 1.0])


@pytest.mark.parametrize("n", [5, 3000])
def test_zero_weight_entries_are_not_stored(n):
    g = cc.WeightedGraph.from_edges(n, [(0, 1, 0.0), (1, 2, 1.0)])
    idx, w = g.neighbors(0)
    assert idx.size == 0 and w.size == 0
    idx, w = g.neighbors(1)
    npt.assert_array_equal(idx, [2])
    npt.assert_array_equal(w, [1.0])
    assert g.weights.nnz == 2
    # explicit zeros in sparse input are dropped too, without editing it
    a = sparse.csr_array(
        (np.array([0.0, 0.0, 1.0, 1.0]), ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(n, n)
    )
    assert cc.WeightedGraph(a).weights.nnz == 2
    assert a.nnz == 4


def test_from_edges_refuses_a_node_count_whose_pair_codes_overflow():
    # row-major pair codes i*n + j fit an int64 up to n = 3037000499
    for n in (3037000500, 2**62):
        with pytest.raises(cc.TooLarge):
            cc.WeightedGraph.from_edges(n, [(0, 1, 1.0)])


def test_sparse_input_matches_dense():
    rng = np.random.default_rng(1)
    a = np.triu(rng.random((12, 12)) < 0.4, 1).astype(float)
    a = a + a.T
    dense = cc.WeightedGraph(a)
    sp = cc.WeightedGraph(sparse.csr_array(a))
    assert sp.n == dense.n
    npt.assert_allclose(sp.degrees, dense.degrees)
    assert sp.total_weight_2m == dense.total_weight_2m
    assert sp.weight(0, 1) == dense.weight(0, 1)


def test_edge_list_round_trip(tmp_path):
    # gilbert(100, 0.01, rng=6) has an isolated last node, which the file
    # must keep.
    g = cc.WeightedGraph.from_edges(
        5, [(0, 1, 1.5), (1, 4, 2.0), (2, 2, 0.25)]
    )
    for g in (g, cc.gilbert(100, 0.01, rng=6)):
        path = tmp_path / "g.tsv"
        g.save_edge_list(path)
        again = cc.load_edge_list(path)
        assert again.n == g.n
        npt.assert_allclose(again.weights.toarray(), g.weights.toarray())


def test_edge_list_text_format():
    text = star3().edge_list_text()
    assert text == "0\t1\t1.0\n0\t2\t1.0\n"


def test_load_edge_list_errors(tmp_path):
    cases = [
        ("0\t1\n", "line 1: expected"),
        ("0\t1\t1.0\nx\t2\t1.0\n", "line 2:"),
        ("0\t1\tnope\n", "line 1:"),
        ("\n\n0\t-1\t1.0\n", "line 3: negative node index"),
        ("0\t1\t-2.0\n", "line 1: negative weight"),
        ("0\t1\t1.0\n1\t2\tnan\n", "line 2: non-finite weight"),
        ("0\t1\tinf\n", "line 1: non-finite weight"),
        ("0\t1\t-inf\n", "line 1: non-finite weight"),
        ("0\t1\t1.0\n1\t0\t2.0\n", "line 2: duplicate edge"),
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(cc.EdgeListParseError) as err:
            cc.load_edge_list(path)
        assert fragment in str(err.value)


def test_load_edge_list_blank_lines_and_empty_file(tmp_path):
    path = tmp_path / "ok.tsv"
    path.write_text("\n0\t1\t1.0\n\n2\t0\t3.0\n")
    g = cc.load_edge_list(path)
    assert g.n == 3
    assert g.weight(0, 2) == 3.0
    path.write_text("")
    empty = cc.load_edge_list(path)
    assert empty.n == 0


def load_both_ways(path, monkeypatch):
    """``load_edge_list(path)`` as it runs, and with its numpy reader
    switched off, so that the line loop reads every file; each an edge
    list's graph or the ``EdgeListParseError`` message."""
    results = []
    for fast in (True, False):
        with monkeypatch.context() as patch:
            if not fast:
                patch.setattr(graph_module, "_plain_edges", lambda text: None)
            try:
                results.append(cc.load_edge_list(path))
            except cc.EdgeListParseError as exc:
                results.append(str(exc))
    return results


def assert_same_load(path, monkeypatch):
    """Both ways of :func:`load_both_ways` give the same graph, array for
    array in value and dtype, or the same error message."""
    got, loop = load_both_ways(path, monkeypatch)
    if isinstance(loop, str):
        assert got == loop
    else:
        assert got.n == loop.n
        for name in ("indptr", "indices", "data", "degrees"):
            npt.assert_array_equal(getattr(got, name), getattr(loop, name))
            assert getattr(got, name).dtype == getattr(loop, name).dtype
        assert got.total_weight_2m == loop.total_weight_2m


@pytest.mark.parametrize(
    "text, fast",
    [
        ("0\t1\t1.0\n1\t2\t2.5\n", True),
        ("0\t1\t1e0\n2\t1\t+1.5E-1", True),  # exponents, signs, no final line break
        ("007\t1\t0.0\n3\t3\t-0.0\n", True),  # leading zeros, zero weights, a self-loop
        ("+3\t1\t1.0\n", True),
        (" 3\t1\t1.0\n", True),
        ("1_0\t1\t1.0\n", False),
        ("0\t1\t1_0\n", False),
        ("0 1 1.0\n", False),  # space separated: the loop rejects it
        ("0\t1\t1.0 \n", True),
        ("0\t1\t1.0\r\n2\t1\t1.0\r\n", True),  # read in text mode, as line breaks
        ("0\t1\t1.0\n\n2\t1\t1.0\n", True),
        ("0\t1\t1.0\n2\t1\t1.0\n1\t0\t2.0\n", False),  # a duplicate pair
        ("0\t1\t1e999\n", False),
        ("0\t1\t-2.0\n", False),
        ("0\t1\t1.2.3\n", False),
        ("0\t1\t\n", False),
        ("0\t1\n", False),
        ("0\t1\t1.0\t\n", False),
        ("\u0663\t1\t1.0\n", False),  # a non-ASCII digit, which int() reads
        ("0\t1\f\t1.0\n", False),  # a line break to the loop, a space to numpy
        ("0\t1\u2028\t1.0\n", False),  # the same, outside ASCII
        ("0\t1\x1f\t1.0\n", False),  # a space to numpy, which int() refuses
    ],
)
def test_load_edge_list_fast_path_agrees_with_the_loop(tmp_path, monkeypatch, text, fast):
    # numpy's reader takes the files it reads as the loop does; every other
    # file goes to the line loop, so both ways give the same graph or the
    # same error at the same line.
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8")
    assert (graph_module._plain_edges(path.read_text()) is not None) == fast
    assert_same_load(path, monkeypatch)


# Texts over a small alphabet of the characters the reader and the loop
# might read differently. The form feed and the line separator U+2028 end a
# line for the loop but are spaces to the reader, and so is the unit
# separator 0x1f, which int refuses; U+0663 is a digit to int.
EDGE_TEXT_ALPHABET = "0123456789+-.eE_\t \n\f\x1f\u2028\u0663"
SPACES = "\t \n\f\x1f\u2028"


@st.composite
def edge_list_texts(draw):
    """A valid edge list of up to four lines, then one to three characters
    of the alphabet, each put in, or over the character there, at a random
    place or next to a separator: files a character or two away from valid,
    which the reader and the loop must both take or both refuse."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4))
    weight = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    text = "".join(f"{i}\t{j}\t{w!r}\n" for (i, j), w in zip(pairs, weights))
    for _ in range(draw(st.integers(1, 3))):
        near = [0] + [k + side for k, c in enumerate(text) if c in "\t\n" for side in (0, 1)]
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(near)))
        over = draw(st.integers(0, 1))
        char = draw(st.one_of(st.sampled_from(SPACES), st.sampled_from(EDGE_TEXT_ALPHABET)))
        text = text[:at] + char + text[at + over :]
    return text


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.one_of(edge_list_texts(), st.text(EDGE_TEXT_ALPHABET, max_size=30)))
def test_load_edge_list_reader_agrees_with_the_loop_on_random_texts(tmp_path, monkeypatch, text):
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8")
    assert_same_load(path, monkeypatch)


def test_load_edge_list_reads_long_plain_files_in_numpy(tmp_path, monkeypatch):
    # Files from save_edge_list are plain, and numpy's reader takes them
    # whatever their length, with the loop's graph: karate's file has 717
    # characters.
    g = cc.gilbert_weighted(200, 0.05, 3, rng=2)
    path = tmp_path / "edges.tsv"
    g.save_edge_list(path)
    karate = cc.karate_path()
    assert len(karate.read_text()) == 717
    for source in (path, karate):
        assert graph_module._plain_edges(source.read_text()) is not None
        assert_same_load(source, monkeypatch)
    for h in load_both_ways(path, monkeypatch):
        for name in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(h, name), getattr(g, name))


def test_load_edge_list_reader_memory():
    # The reader keeps the text once more and three columns, not a Python
    # object per field: 8 MB traced on this 99887-line file.
    text = cc.gilbert(20000, 5e-4, rng=1).edge_list_text()
    tracemalloc.start()
    try:
        parsed = graph_module._plain_edges(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed is not None and parsed[1].size == 99887
    assert peak < 16 * 2**20


def test_karate_data():
    g = cc.load_karate()
    assert g.n == 34
    assert g.total_weight_2m == 156.0  # 78 unit edges
    assert cc.karate_path().name.endswith(".tsv")


def test_gilbert_statistics():
    g = cc.gilbert(40, 0.3, rng=5)
    w = g.weights.toarray()
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0)
    edges = g.total_weight_2m / 2
    n_pairs = 40 * 39 // 2
    sd = np.sqrt(n_pairs * 0.3 * 0.7)
    assert abs(edges - n_pairs * 0.3) <= 5 * sd
    assert cc.gilbert(5, 0.0, rng=1).total_weight_2m == 0.0
    assert cc.gilbert(5, 1.0, rng=1).total_weight_2m == 20.0


def test_gilbert_weighted_statistics():
    n, eps, cap = 100, 0.5, 4
    g = cc.gilbert_weighted(n, eps, cap, rng=9)
    n_pairs = n * (n - 1) // 2
    mean_w = g.total_weight_2m / 2 / n_pairs
    se = np.sqrt(cap * eps * (1 - eps) / n_pairs)
    assert abs(mean_w - cap * eps) <= 5 * se
    # max_weight=1 draws from the same edge law as the unweighted model
    e1 = cc.gilbert(60, 0.4, rng=2).total_weight_2m / 2
    e2 = cc.gilbert_weighted(60, 0.4, 1, rng=3).total_weight_2m / 2
    n_pairs = 60 * 59 // 2
    sd = np.sqrt(n_pairs * 0.4 * 0.6)
    assert abs(e1 - e2) <= 5 * np.sqrt(2) * sd


def test_gilbert_seed_to_graph_mapping_is_pinned():
    # one draw per pair in upper-triangle row-major order; changing that
    # order changes every seeded graph (and the criteria runs built on them)
    assert cc.gilbert(8, 0.5, rng=0).edge_list_text() == (
        "0\t2\t1.0\n0\t3\t1.0\n0\t4\t1.0\n1\t6\t1.0\n2\t3\t1.0\n2\t5\t1.0\n"
        "3\t4\t1.0\n3\t5\t1.0\n3\t6\t1.0\n3\t7\t1.0\n5\t6\t1.0\n"
    )
    assert cc.gilbert_weighted(6, 0.5, 3, rng=0).edge_list_text() == (
        "0\t1\t2.0\n0\t2\t1.0\n0\t5\t2.0\n1\t2\t3.0\n1\t3\t2.0\n1\t4\t2.0\n"
        "1\t5\t2.0\n2\t3\t3.0\n2\t4\t2.0\n3\t4\t2.0\n4\t5\t2.0\n"
    )
    # reference: one draw over all pairs at once
    for n in (1, 2, 5, 40):
        iu, iv = np.triu_indices(n, 1)
        for eps in (0.0, 0.3, 1.0):
            for graph, draw in (
                (cc.gilbert(n, eps, rng=3), lambda r: r.random(iu.size) < eps),
                (
                    cc.gilbert_weighted(n, eps, 4, rng=3),
                    lambda r: r.binomial(4, eps, iu.size),
                ),
            ):
                upper = np.zeros((n, n))
                upper[iu, iv] = draw(np.random.default_rng(3))
                npt.assert_array_equal(graph.weights.toarray(), upper + upper.T)


def row_loop_gilbert(n, draw):
    """Reference: the Gilbert upper triangle drawn one row at a time, row i
    holding its n-1-i pairs (i, i+1), ..., (i, n-1)."""
    rows, cols, vals = [], [], []
    for i in range(n):
        w = draw(n - 1 - i)
        nz = np.flatnonzero(w)
        rows.append(np.full(nz.size, i))
        cols.append(nz + (i + 1))
        vals.append(w[nz])
    return cc.WeightedGraph._from_arrays(n, *map(np.concatenate, (rows, cols, vals)))


@pytest.mark.parametrize("n", [1, 2, 3, 400, 1000])
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_gilbert_blocks_match_the_row_loop(n, eps):
    # n = 400 has 79800 pairs, so its draw spans two blocks
    for seed in (0, 1, 2):
        for sample, draw in (
            (lambda r: cc.gilbert(n, eps, rng=r), lambda r: lambda k: r.random(k) < eps),
            (
                lambda r: cc.gilbert_weighted(n, eps, 4, rng=r),
                lambda r: lambda k: r.binomial(4, eps, size=k),
            ),
        ):
            got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = sample(got).weights, row_loop_gilbert(n, draw(ref)).weights
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
            # the stream is left where one draw over all pairs leaves it
            assert got.bit_generator.state == ref.bit_generator.state


SEEKABLE = (np.random.PCG64, np.random.PCG64DXSM)


def one_draw_gilbert(n, eps, rng):
    """Reference: the Gilbert graph of one ``random`` draw over all pairs."""
    iu, iv = np.triu_indices(n, 1)
    edge = rng.random(iu.size) < eps
    return cc.WeightedGraph._from_arrays(n, iu[edge], iv[edge], edge[edge])


@pytest.fixture
def segments(monkeypatch):
    """The segment count of every Gilbert draw."""
    counts = []
    starmap = _mc._starmap

    def recorded(fn, args):
        counts.append(len(args))
        return starmap(fn, args)

    monkeypatch.setattr(_mc, "_starmap", recorded)
    return counts


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize(
    "bit_generator",
    [*SEEKABLE, np.random.MT19937, np.random.Philox, np.random.SFC64],
    ids=lambda b: b.__name__,
)
def test_threaded_gilbert_is_one_draw(monkeypatch, segments, cap, block, bit_generator):
    # Pair counts 0, 1, 3, 28 (four blocks of 7), 435 and 8128 (127 blocks
    # of 64) put segment and block edges everywhere. Segments draw from
    # their own offsets on PCG64 and PCG64DXSM streams only; every other
    # bit generator runs as one segment on the calling thread.
    monkeypatch.setattr(_mc, "thread_cap", lambda: cap)
    monkeypatch.setattr(graph_module, "_PAIR_BLOCK", block)
    for n in (1, 2, 3, 8, 30, 128):
        full_blocks = n * (n - 1) // 2 // block
        # a drawn 32-bit integer leaves half of a 64-bit output buffered,
        # which a draw of doubles keeps
        for buffered in (False, True):
            got, ref = (np.random.Generator(bit_generator(n)) for _ in range(2))
            if buffered:
                for rng in (got, ref):
                    rng.integers(0, 7, dtype=np.uint32)
            segments.clear()
            a, b = cc.gilbert(n, 0.4, rng=got), one_draw_gilbert(n, 0.4, ref)
            threaded = bit_generator in SEEKABLE and full_blocks >= 2
            assert segments == [min(cap, full_blocks) if threaded else 1]
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
            # MT19937, Philox and SFC64 states hold arrays
            npt.assert_equal(got.bit_generator.state, ref.bit_generator.state)


def test_weighted_gilbert_draws_one_segment(monkeypatch, segments):
    # a binomial draw takes a variable number of outputs, so no pair's
    # offset is known in advance
    monkeypatch.setattr(_mc, "thread_cap", lambda: 3)
    monkeypatch.setattr(graph_module, "_PAIR_BLOCK", 7)
    iu, iv = np.triu_indices(40, 1)
    got, ref = np.random.default_rng(2), np.random.default_rng(2)
    w = ref.binomial(4, 0.3, iu.size)
    a = cc.gilbert_weighted(40, 0.3, 4, rng=got)
    b = cc.WeightedGraph._from_arrays(40, iu[w > 0], iv[w > 0], w[w > 0])
    assert segments == [1]
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
    assert got.bit_generator.state == ref.bit_generator.state


def test_local_criteria_against_direct_formulas():
    rng = np.random.default_rng(3)
    g = cc.gilbert_weighted(12, 0.5, 3, rng=rng)
    two_m = g.total_weight_2m
    n = g.n
    for i in range(n):
        for j in range(n):
            w = g.weight(i, j)
            di, dj = g.degrees[i], g.degrees[j]
            npt.assert_allclose(
                cc.local_independence_criterion(g, i, j),
                w / two_m - di * dj / two_m**2,
                atol=1e-14,
            )
            npt.assert_allclose(
                cc.local_indetermination_criterion(g, i, j),
                w - di / n - dj / n + two_m / n**2,
                atol=1e-14,
            )
            npt.assert_allclose(
                cc.bias_independence(g, i, j), di * dj / two_m, atol=1e-14
            )
            npt.assert_allclose(
                cc.bias_indetermination(g, i, j),
                di / n + dj / n - two_m / n**2,
                atol=1e-14,
            )


def test_star_pinned_bias_values():
    g = star3()
    npt.assert_allclose(cc.bias_independence(g, 1, 2), 0.25)
    npt.assert_allclose(cc.bias_indetermination(g, 1, 2), 2.0 / 9.0)


def test_cycle_biases_coincide():
    # on a 2-regular graph both null values equal 2/n for every pair
    n = 6
    g = cc.WeightedGraph.from_edges(
        n, [(i, (i + 1) % n, 1.0) for i in range(n)]
    )
    for i, j in [(0, 1), (0, 3), (2, 5)]:
        npt.assert_allclose(cc.bias_independence(g, i, j), 1.0 / 3.0)
        npt.assert_allclose(cc.bias_indetermination(g, i, j), 1.0 / 3.0)


def test_criteria_sum_to_zero_over_all_ordered_pairs():
    rng = np.random.default_rng(11)
    g = cc.gilbert(15, 0.4, rng=rng)
    s_x = sum(
        cc.local_independence_criterion(g, i, j)
        for i in range(g.n)
        for j in range(g.n)
    )
    s_p = sum(
        cc.local_indetermination_criterion(g, i, j)
        for i in range(g.n)
        for j in range(g.n)
    )
    assert abs(s_x) <= 1e-9
    assert abs(s_p) <= 1e-9


def test_empty_graph_behavior():
    g = cc.WeightedGraph(np.zeros((4, 4)))
    with pytest.raises(cc.EmptyGraph):
        cc.local_independence_criterion(g, 0, 1)
    with pytest.raises(cc.EmptyGraph):
        cc.bias_independence(g, 0, 1)
    # the additive criterion stays finite without edges
    assert cc.local_indetermination_criterion(g, 0, 1) == 0.0
    assert cc.bias_indetermination(g, 0, 1) == 0.0


def test_bias_bounds():
    (plo, phi), (tlo, thi) = cc.bias_bounds(0.3, 50)
    npt.assert_allclose([plo, phi], [-0.3, 1.7])
    npt.assert_allclose([tlo, thi], [0.0, 1.0 / 0.3])
    with pytest.raises(cc.ZeroEps):
        cc.bias_bounds(0.0, 50)
    with pytest.raises(cc.NonPositiveDimension):
        cc.bias_bounds(0.3, 0)
    with pytest.raises(ValueError):
        cc.bias_bounds(1.2, 5)


def test_bias_bin_edges_kinds():
    edges = cc.bias_bin_edges(0.5, 10, "plus")
    npt.assert_allclose(edges[[0, -1]], [-0.5, 1.5])
    edges = cc.bias_bin_edges(0.5, 10, "times")
    npt.assert_allclose(edges[[0, -1]], [0.0, 2.0])
    edges = cc.bias_bin_edges(0.5, 10, "difference")
    npt.assert_allclose(edges[[0, -1]], [-2.5, 1.5])
    edges = cc.bias_bin_edges(0.5, 10, "common")
    npt.assert_allclose(edges[[0, -1]], [-0.5, 2.0])
    with pytest.raises(ValueError):
        cc.bias_bin_edges(0.5, 10, "bogus")
    with pytest.raises(cc.NonPositiveDimension):
        cc.bias_bin_edges(0.5, 0, "plus")


def test_bias_histogram_validation_and_json():
    with pytest.raises(cc.DimensionMismatch):
        cc.BiasHistogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]), "x")
    # a NaN or infinite entry would reach to_json() as invalid JSON
    for edges, counts in [
        ([0.0, 1.0], [np.nan]),
        ([0.0, 1.0], [np.inf]),
        ([0.0, np.inf], [1.0]),
        ([np.nan, 1.0], [1.0]),
    ]:
        with pytest.raises(cc.NonFiniteEntry):
            cc.BiasHistogram(np.array(edges), np.array(counts), "x")
    h = cc.BiasHistogram(np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0]), "x")
    assert h.total == 4.0
    npt.assert_allclose(h.mean(), (0.5 * 3 + 1.5 * 1) / 4)
    rows = h.csv_rows()
    assert rows[0] == (0.0, 1.0, 3.0)
    data = h.to_json_dict()
    assert data["which"] == "x"
    assert data["counts"] == [3.0, 1.0]


def test_theoretical_pmf_sums_to_one():
    for n in (1, 2, 3, 7, 25, 60):
        for eps in (0.1, 0.5, 0.9, 1.0):
            mass = cc.theoretical_joint_pmf(n, eps)
            assert mass.shape == (2, n + 1, n + 1)
            npt.assert_allclose(mass.sum(), 1.0, atol=1e-12)
    with pytest.raises(cc.ZeroEps):
        cc.theoretical_joint_pmf(5, 0.0)
    with pytest.raises(cc.NonPositiveDimension):
        cc.theoretical_joint_pmf(0, 0.5)


KERNEL_P = (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.999, 1.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 15, 16, 36, 81, 500, 1999, 100000])
def test_binomial_kernel_matches_scipy(n):
    # the point masses, modes at either end of the row and inside it, and
    # k = -1 and k = n+1 as zero padding (as _degree_rows pads the row)
    k = np.arange(-1, n + 2)
    for p in KERNEL_P:
        ours = np.concatenate(([0.0], _binomial_row(n, p), [0.0]))
        reference = binom.pmf(k, n, p)
        big = reference >= 1e-280
        rel = np.abs(ours[big] - reference[big]) / reference[big]
        assert rel.max() <= 1e-11, (p, k[big][rel.argmax()], rel.max())
        assert np.all((ours[~big] >= 0.0) & (ours[~big] <= 1e-280)), p
        assert abs(ours.sum() - 1.0) <= 1e-12, p


@pytest.mark.parametrize("n", [1, 2, 7, 50, 300])
def test_binomial_kernel_matches_exact_masses(n):
    # exact rational masses of the float p = a/b, so no scipy in the oracle:
    # C(n, k) a**k (b-a)**(n-k) / b**n, correctly rounded by int division
    for p in KERNEL_P[:-1]:
        a, b = p.as_integer_ratio()
        exact = np.array(
            [math.comb(n, k) * a**k * (b - a) ** (n - k) / b**n for k in range(n + 1)]
        )
        big = exact >= 1e-280
        rel = np.abs(_binomial_row(n, p)[big] - exact[big]) / exact[big]
        assert rel.max() <= 1e-13, (p, rel.argmax(), rel.max())


@pytest.mark.parametrize("n, eps", [(1, 0.3), (2, 1.0), (50, 0.01), (2000, 0.3)])
def test_degree_rows_shift_one_binomial_row(n, eps):
    # the b = 1 row is the b = 0 row one degree up, with a 0 at each free end
    row0, row1 = _degree_rows(n, eps)
    assert row0.shape == row1.shape == (n + 1,)
    assert row0[-1] == 0.0 and row1[0] == 0.0
    npt.assert_array_equal(row1[1:], row0[:-1])
    npt.assert_array_equal(row0[:-1], _binomial_row(n - 1, eps))


def test_theoretical_pmf_n2_values():
    eps = 0.3
    mass = cc.theoretical_joint_pmf(2, eps)
    # pair present and both degrees 1: no other edges at either endpoint
    npt.assert_allclose(mass[1, 1, 1], eps * (1 - eps) ** 2, atol=1e-15)
    npt.assert_allclose(mass[0, 0, 0], (1 - eps) ** 3, atol=1e-15)
    mass_half = cc.theoretical_joint_pmf(2, 0.5)
    nz = mass_half[mass_half > 0]
    assert nz.size == 8
    npt.assert_allclose(nz, 0.125, atol=1e-15)


def test_theoretical_pmf_mean_identities():
    # closed-form means under the 2M = n**2 eps convention:
    # E[b_+] = eps, E[b_x] = eps + (1-eps)/n**2, E[b_+ - b_x] = -(1-eps)/n**2
    for n, eps in [(2, 0.5), (10, 0.3), (37, 0.8), (50, 0.3)]:
        mass = cc.theoretical_joint_pmf(n, eps)
        weights = mass[0] + mass[1]
        d = np.arange(n + 1, dtype=float)
        b_plus = d[:, None] / n + d[None, :] / n - eps
        b_times = d[:, None] * d[None, :] / (n * n * eps)
        e_plus = float((weights * b_plus).sum())
        e_times = float((weights * b_times).sum())
        npt.assert_allclose(e_plus, eps, atol=1e-12)
        npt.assert_allclose(e_times, eps + (1 - eps) / n**2, atol=1e-12)
        npt.assert_allclose(e_plus - e_times, -(1 - eps) / n**2, atol=1e-12)


def test_theoretical_difference_enumeration_n2():
    # n=2, eps=1/2: the difference takes value -1/2 with mass 2/8 (empty
    # graph, or complete graph with the pair drawn) and 0 with mass 6/8
    mass = cc.theoretical_joint_pmf(2, 0.5)
    weights = mass[0] + mass[1]
    d = np.arange(3, dtype=float)
    diff = (d[:, None] / 2 + d[None, :] / 2 - 0.5) - d[:, None] * d[None, :] / 2
    at_half = weights[np.abs(diff + 0.5) < 1e-12].sum()
    at_zero = weights[np.abs(diff) < 1e-12].sum()
    npt.assert_allclose(at_half, 0.25, atol=1e-12)
    npt.assert_allclose(at_zero, 0.75, atol=1e-12)
    # the binned distribution carries the same two atoms
    hist = cc.theoretical_bias_difference_distribution(2, 0.5, bins=8)
    npt.assert_allclose(hist.total, 1.0, atol=1e-12)
    assert hist.counts.max() == pytest.approx(0.75, abs=1e-12)


def test_theoretical_difference_concentrates_near_zero():
    # at n=50 the difference is O(1/n): nearly all mass within 0.1 of 0
    hist = cc.theoretical_bias_difference_distribution(50, 0.3, bins=200)
    mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    core = hist.counts[np.abs(mids) <= 0.1].sum()
    assert core >= 0.99


def test_theoretical_bias_histograms_share_grid_and_mass():
    times, plus = cc.theoretical_bias_histograms(20, 0.4, bins=100)
    npt.assert_array_equal(times.bin_edges, plus.bin_edges)
    npt.assert_allclose(times.total, 1.0, atol=1e-12)
    npt.assert_allclose(plus.total, 1.0, atol=1e-12)
    assert times.which == "independence"
    assert plus.which == "indetermination"


def lattice_bias_laws(n, eps, bins):
    """Reference: every (d_i, d_j) lattice point, binned with np.histogram
    after clipping into the grid, as the laws were first computed. Returns
    ``{which: (values, weights, edges, counts)}``."""
    mass = cc.theoretical_joint_pmf(n, eps)
    weights = (mass[0] + mass[1]).ravel()
    d = np.arange(n + 1, dtype=float)
    b_plus = (d[:, None] / n + d[None, :] / n - eps).ravel()
    b_times = (d[:, None] * d[None, :] / (n * n * eps)).ravel()
    common = cc.bias_bin_edges(eps, bins, "common")
    laws = {
        "independence": (b_times, common),
        "indetermination": (b_plus, common),
        "difference": (b_plus - b_times, cc.bias_bin_edges(eps, bins, "difference")),
    }
    out = {}
    for which, (values, edges) in laws.items():
        clipped = np.clip(values, edges[0], edges[-1])
        counts, _ = np.histogram(clipped, bins=edges, weights=weights)
        out[which] = (values, weights, edges, counts)
    return out


@pytest.mark.parametrize(
    "n, eps, bins",
    [
        (2, 0.5, 8),
        (2, 1.0, 200),
        (7, 0.5, 200),
        (50, 0.3, 200),
        (123, 0.77, 200),
        (300, 0.01, 200),
        (500, 0.5, 200),
        (1000, 0.9, 200),
        (2000, 0.3, 200),
        (30, 0.3, 48),
    ],
)
def test_exact_bias_laws_match_lattice_reference(n, eps, bins):
    # A lattice value on a bin edge falls on either side depending on
    # rounding, so the CDFs may differ at an edge by the reference mass
    # lying within 1e-9 relative of it, and elsewhere only by rounding.
    times, plus = cc.theoretical_bias_histograms(n, eps, bins)
    diff = cc.theoretical_bias_difference_distribution(n, eps, bins)
    reference = lattice_bias_laws(n, eps, bins)
    for hist in (times, plus, diff):
        values, weights, edges, counts = reference[hist.which]
        npt.assert_array_equal(hist.bin_edges, edges)
        assert abs(hist.total - 1.0) <= 1e-12
        assert hist.counts.min() >= 0.0
        inner = edges[1:-1]
        tol = 1e-9 * np.maximum(1.0, np.abs(inner))
        order = np.argsort(values)
        below = np.concatenate(([0.0], np.cumsum(weights[order])))
        sorted_values = values[order]
        tie = (
            below[np.searchsorted(sorted_values, inner + tol, side="right")]
            - below[np.searchsorted(sorted_values, inner - tol, side="left")]
        )
        gap = np.abs(np.cumsum(hist.counts)[:-1] - np.cumsum(counts)[:-1])
        assert np.all(gap <= tie + 1e-12), (hist.which, (gap - tie).max())


def test_exact_bias_laws_build_no_lattice():
    # at n = 2000 one (n+1)**2 float lattice alone takes 32 MB
    tracemalloc.start()
    try:
        times, plus = cc.theoretical_bias_histograms(2000, 0.3)
        diff = cc.theoretical_bias_difference_distribution(2000, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(times.total - 1.0) <= 1e-12 and abs(diff.total - 1.0) <= 1e-12
    assert peak < 24 * 2**20


@pytest.mark.parametrize(
    "law",
    [cc.theoretical_bias_histograms, cc.theoretical_bias_difference_distribution],
    ids=["histograms", "difference"],
)
def test_exact_bias_laws_validate_n_then_eps_then_bins(law):
    cases = [
        ((1, float("nan"), 0), cc.NonPositiveDimension),
        ((5, float("nan"), 0), ValueError),
        ((5, 1.5, 0), ValueError),
        ((5, -0.1, 200), ValueError),
        ((5, 0.0, 0), cc.ZeroEps),
        # 1/eps overflows: the bias bound and the bin edges would be inf
        ((50, 1e-320, 200), cc.ZeroEps),
        ((50, 5e-324, 200), cc.ZeroEps),
        ((5, 0.5, 0), cc.NonPositiveDimension),
    ]
    for args, error in cases:
        with pytest.raises(error) as info:
            law(*args)
        assert type(info.value) is error, (args, info.value)


@pytest.mark.parametrize("eps", [1e-300, 1e-307, 6e-309])
def test_exact_bias_laws_at_the_smallest_eps(eps, recwarn):
    # the smallest eps whose reciprocal is a float still gives whole laws
    # on finite bin edges, without warnings
    times, plus = cc.theoretical_bias_histograms(50, eps)
    diff = cc.theoretical_bias_difference_distribution(50, eps)
    for h in (times, plus, diff):
        assert np.isfinite(h.bin_edges).all()
        assert abs(h.total - 1.0) <= 1e-12
    assert not recwarn.list


def test_empirical_bias_samples_shapes_and_determinism():
    t1, p1, d1 = cc.empirical_bias_samples(8, 0.4, 500, rng=3, n_streams=2)
    t2, p2, d2 = cc.empirical_bias_samples(8, 0.4, 500, rng=3, n_streams=2)
    npt.assert_array_equal(t1, t2)
    npt.assert_array_equal(p1, p2)
    npt.assert_array_equal(d1, d2)
    assert p1.size == 500
    assert t1.size == d1.size
    t3, _, _ = cc.empirical_bias_samples(8, 0.4, 500, rng=3, n_streams=5)
    assert not np.array_equal(t1, t3)


def test_empirical_bias_mean_offsets():
    # no-self-loop sampling shifts the additive mean below the idealized
    # eps: to eps*(1 - 1/n) with realized totals, eps*(1 - 2/n) with the
    # n**2 eps convention
    n, eps, samples = 30, 0.3, 40_000
    _, plus_r, _ = cc.empirical_bias_samples(n, eps, samples, rng=4)
    target = eps * (1 - 1 / n)
    se = plus_r.std(ddof=1) / np.sqrt(samples)
    assert abs(plus_r.mean() - target) <= 5 * se
    _, plus_e, _ = cc.empirical_bias_samples(
        n, eps, samples, rng=4, use_realized_2m=False
    )
    target = eps * (1 - 2 / n)
    se = plus_e.std(ddof=1) / np.sqrt(samples)
    assert abs(plus_e.mean() - target) <= 5 * se


def test_empirical_bias_respects_bounds_under_fixed_convention():
    n, eps = 12, 0.4
    times, plus, _ = cc.empirical_bias_samples(
        n, eps, 5_000, rng=8, use_realized_2m=False
    )
    (plo, phi), (tlo, thi) = cc.bias_bounds(eps, n)
    assert plus.min() >= plo - 1e-12 and plus.max() <= phi + 1e-12
    assert times.min() >= tlo - 1e-12 and times.max() <= thi + 1e-12


def test_empirical_bias_histogram_totals():
    times, plus = cc.empirical_bias_histogram(10, 0.5, 2_000, bins=40, rng=6)
    assert plus.total == 2_000
    assert times.total == 2_000  # empty graphs are essentially impossible here
    npt.assert_array_equal(times.bin_edges, plus.bin_edges)


def test_empirical_bias_eps_zero():
    times, plus = cc.empirical_bias_histogram(5, 0.0, 300, bins=10, rng=2)
    assert times.total == 0.0  # every graph empty: all ratio samples dropped
    assert plus.total == 300
    # every sample is exactly 0; all land in the bin whose left edge is 0
    zero_bin = np.searchsorted(plus.bin_edges, 0.0, side="right") - 1
    assert plus.counts[zero_bin] == 300


def test_empirical_difference_matches_theory_binwise():
    # Realized-total sampling against the fixed-convention exact law. At
    # bins=48 each occupied bin is wide enough to absorb the convention
    # gap; finer grids slice the near-zero atom across bin edges and the
    # comparison breaks down (max deviation ~35 se at bins=200).
    n, eps, samples, bins = 30, 0.3, 100_000, 48
    emp = cc.empirical_bias_difference_histogram(n, eps, samples, bins=bins, rng=0)
    theo = cc.theoretical_bias_difference_distribution(n, eps, bins=bins)
    npt.assert_array_equal(emp.bin_edges, theo.bin_edges)
    total = emp.total
    p = theo.counts
    focus = p >= 0.01
    # the law is tightly concentrated: the two heavy bins carry ~99% of it
    assert focus.sum() >= 2
    assert p[focus].sum() >= 0.98
    se = np.sqrt(total * p[focus] * (1 - p[focus]))
    dev = np.abs(emp.counts[focus] - total * p[focus]) / se
    assert dev.max() < 5.0


def test_empirical_shapes_of_the_two_bias_laws_agree():
    # The two bias distributions nearly coincide at n=50: their means sit
    # (1-eps)/n**2 apart and the bulk shapes track each other. The product
    # form keeps visibly more skew than the additive one at any finite n,
    # so the bin-level comparison uses a 20% relative allowance on the
    # heavy bins rather than a Monte-Carlo-error bound.
    n, eps, samples = 50, 0.3, 100_000
    times, plus = cc.empirical_bias_histogram(n, eps, samples, bins=60, rng=1)
    t_samp, p_samp, _ = cc.empirical_bias_samples(n, eps, samples, rng=1)
    se_mean = (t_samp.std(ddof=1) + p_samp.std(ddof=1)) / np.sqrt(samples)
    assert abs(t_samp.mean() - p_samp.mean()) <= (1 - eps) / n**2 + 3 * se_mean
    assert abs(t_samp.std(ddof=1) - p_samp.std(ddof=1)) <= 0.03 * p_samp.std(
        ddof=1
    )
    heavy = (times.counts >= 0.02 * samples) & (plus.counts >= 0.02 * samples)
    assert heavy.sum() >= 5
    rel = np.abs(times.counts[heavy] - plus.counts[heavy]) / plus.counts[heavy]
    assert rel.max() <= 0.20


def _exact_bias_law(n, eps, use_realized_2m):
    """Law of (b_x, b_+) for the ordered pair (0, 1), by enumerating every
    Gilbert(n, eps) graph; an empty graph (no b_x) is the key ``"empty"``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    law = {}
    for mask in range(2 ** len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        d0 = sum(0 in p for p in edges)
        d1 = sum(1 in p for p in edges)
        two_m = 2.0 * len(edges) if use_realized_2m else n * n * eps
        prob = eps ** len(edges) * (1 - eps) ** (len(pairs) - len(edges))
        plus = d0 / n + d1 / n - two_m / (n * n)
        key = _bias_key(d0 * d1 / two_m, plus) if two_m else "empty"
        law[key] = law.get(key, 0.0) + prob
    return law


def _bias_key(times, plus):
    return (round(float(times), 9), round(float(plus), 9))


@pytest.mark.parametrize("use_realized_2m", [True, False])
def test_empirical_bias_samples_follow_the_exact_law(use_realized_2m):
    # chi-square goodness of fit of the sampled (b_x, b_+) pairs against
    # the law of a whole Gilbert graph, enumerated at n=5. Threshold fixed
    # in advance.
    n, eps, samples = 5, 0.4, 20_000
    law = _exact_bias_law(n, eps, use_realized_2m)
    times, plus, diff = cc.empirical_bias_samples(
        n, eps, samples, rng=11, use_realized_2m=use_realized_2m
    )
    observed = {"empty": plus.size - times.size}
    for key in map(_bias_key, times, times + diff):
        observed[key] = observed.get(key, 0) + 1
    assert set(observed) - {"empty"} <= set(law)
    keys = sorted(law, key=law.get)
    expected = np.array([samples * law[k] for k in keys])
    counts = np.array([observed.get(k, 0) for k in keys])
    assert expected.min() >= 5  # every category is large enough for chi-square
    assert chisquare(counts, expected).pvalue > 1e-3


def test_empirical_bias_input_validation():
    with pytest.raises(cc.NonPositiveDimension):
        cc.empirical_bias_samples(1, 0.5, 10)
    with pytest.raises(cc.NonPositiveDimension):
        cc.empirical_bias_samples(5, 0.5, 0)
    with pytest.raises(ValueError):
        cc.empirical_bias_samples(5, 1.5, 10)


@pytest.mark.parametrize(
    "law",
    [cc.theoretical_bias_histograms, cc.theoretical_bias_difference_distribution],
    ids=["histograms", "difference"],
)
def test_theoretical_bias_laws_need_a_node_pair(law):
    # the same check as the empirical sampler's
    with pytest.raises(cc.NonPositiveDimension):
        law(1, 0.3)
    law(2, 0.3)
    # the degree-model pmf itself is defined from one node on
    assert cc.theoretical_joint_pmf(1, 0.3).shape == (2, 2, 2)
