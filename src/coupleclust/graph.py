"""Weighted graphs, Gilbert generators, and local coupling criteria.

An undirected weighted graph on n nodes is summarized by its weight matrix
``a`` (symmetric, nonnegative), degrees ``a_i = sum_j a[i, j]`` and total
weight ``2M = sum_ij a[i, j]``. Normalizing ``a / 2M`` as a joint
distribution over ordered node pairs, the two canonical couplings of its
margins yield two local null models and hence two centered criteria:

* independence:    ``m_x(i, j)  = a[i, j]/2M - a_i * a_j / (2M)**2``
* indetermination: ``m_+(i, j)  = a[i, j] - a_i/n - a_j/n + 2M/n**2``

whose subtracted biases are ``b_x = a_i * a_j / 2M`` and
``b_+ = a_i/n + a_j/n - 2M/n**2``. Both criteria sum to zero over all
ordered pairs. On Gilbert (Bernoulli edge) graphs the biases concentrate
around the edge probability ``eps``; this module carries the exact joint
law of ``(a_ij, a_i, a_j)`` under the idealized degree model, histogram
builders for the bias distributions (theoretical and sampled), and the
``eps``-parametrized bias ranges.

Each criterion is written once, as its block (class-aggregate) formula
over node sets I, J; the pair value is that formula on two singletons.
Every graph, whatever its size, is stored as canonical CSR in three
read-only numpy arrays, built and checked in numpy, so criterion evaluation
never materializes an n x n criterion matrix and no code path but the
``WeightedGraph.weights`` view loads ``scipy.sparse``.
"""

from __future__ import annotations

import io
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from ._record import Record
from .errors import (
    DimensionMismatch,
    EdgeListParseError,
    EmptyGraph,
    NegativeEntry,
    NonFiniteEntry,
    TooLarge,
    ZeroEps,
    _as_count,
    _as_generator,
    _as_integers,
    _as_reals,
)

__all__ = [
    "WeightedGraph",
    "BiasHistogram",
    "gilbert",
    "gilbert_weighted",
    "local_independence_criterion",
    "local_indetermination_criterion",
    "bias_independence",
    "bias_indetermination",
    "bias_bounds",
    "bias_bin_edges",
    "theoretical_joint_pmf",
    "theoretical_bias_difference_distribution",
    "theoretical_bias_histograms",
    "empirical_bias_samples",
    "empirical_bias_histogram",
    "empirical_bias_difference_histogram",
    "load_edge_list",
]


# The largest node count whose row-major pair codes i*n + j fit an int64.
_MAX_NODES = math.isqrt(2**63)


def _summed_entries(n: int, rows, cols, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``vals`` at ``(rows, cols)`` of an n x n matrix as
    row-major codes ``i*n + j``, ascending, with their weights: duplicates
    summed and zeros dropped, then every weight checked finite and
    nonnegative, in that order."""
    codes = rows.astype(np.int64) * n + cols
    if (codes[1:] > codes[:-1]).all():
        # already ascending without duplicates, as a Gilbert draw or a dense
        # matrix's nonzeros come
        vals = vals.copy()
    else:
        order = np.argsort(codes)
        codes, vals = codes[order], vals[order]
        first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        if first.size < codes.size:
            codes, vals = codes[first], np.add.reduceat(vals, first)
    live = vals != 0.0
    if not live.all():
        codes, vals = codes[live], vals[live]
    if not np.isfinite(vals).all():
        raise NonFiniteEntry("weights must be finite")
    if vals.size and vals.min() < 0:
        raise NegativeEntry("weights must be nonnegative")
    return codes, vals


def _stable_order(keys: np.ndarray, n: int) -> np.ndarray:
    """The stable sorting permutation of integers ``keys`` in ``[0, n)``:
    one pass per 16-bit digit, lowest first, each numpy's stable sort of
    16-bit integers, a radix sort, so O(len(keys)) per pass."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while n > 1 << shift:
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


class WeightedGraph:
    """Symmetric nonnegative weight matrix with cached degree data.

    The weights are stored as canonical CSR in three read-only numpy
    arrays: row ``i`` holds the columns ``indices[indptr[i]:indptr[i+1]]``,
    ascending, with weights ``data`` at the same positions. Duplicate
    entries are summed and zeros dropped, so every stored entry is an edge.
    :attr:`weights` is the same matrix as a ``scipy.sparse.csr_array``,
    built over these arrays on first access; nothing else loads
    ``scipy.sparse``.

    Parameters
    ----------
    weights : numpy.ndarray or scipy.sparse matrix
        Square symmetric matrix of finite nonnegative reals (integers or
        floats; strings, bools and complex numbers raise
        :class:`NonFiniteEntry`). The caller's matrix is never modified.

    Attributes
    ----------
    n : int
    indptr, indices, data : numpy.ndarray
        The canonical CSR arrays (read-only).
    degrees : numpy.ndarray
        Row sums (read-only).
    total_weight_2m : float
        Sum of all entries, i.e. 2M.
    """

    __slots__ = ("n", "indptr", "indices", "data", "degrees", "total_weight_2m", "_weights")

    def __init__(self, weights):
        # a scipy.sparse matrix can only exist once its module is loaded
        sparse = sys.modules.get("scipy.sparse")
        if sparse is not None and sparse.issparse(weights):
            if weights.dtype.kind not in "iuf":
                raise NonFiniteEntry(f"weights must be finite real numbers, got dtype {weights.dtype}")
            shape = weights.shape
        else:
            weights = _as_reals(weights, "weights")
            shape = weights.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        if isinstance(weights, np.ndarray):
            rows, cols = np.nonzero(weights)
            vals = weights[rows, cols]
        else:
            coo = weights.tocoo()
            rows, cols, vals = coo.row, coo.col, coo.data.astype(float, copy=False)
        n = shape[0]
        codes, vals = _summed_entries(n, rows, cols, vals)
        rows, cols = np.divmod(codes, max(n, 1))
        mirror = cols * n + rows
        back = np.argsort(mirror)
        if not (np.array_equal(mirror[back], codes) and np.array_equal(vals[back], vals)):
            raise DimensionMismatch("weights must be symmetric")
        self._store(n, np.bincount(rows, minlength=n), cols, vals)

    def _store(self, n: int, counts: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Keep the canonical CSR of the symmetric n x n matrix whose
        entries, in row-major order without duplicates or zeros, are
        ``vals`` at columns ``cols``, ``counts[i]`` of them in row ``i``;
        its degrees and 2M must be finite."""
        # scipy's index dtype, so the `weights` view shares these arrays
        index = np.int32 if max(n, vals.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(counts, out=indptr[1:])
        # Row sums as scipy's csr sum(axis=1) takes them, one add.reduceat
        # over the nonempty rows, so they match it to the last bit. Finite
        # weights can still sum past the float range; the degrees are
        # nonnegative, so one infinite degree makes 2M infinite too.
        degrees = np.zeros(n)
        full = np.flatnonzero(counts)
        with np.errstate(over="ignore"):
            if full.size:
                degrees[full] = np.add.reduceat(vals, indptr[full])
            two_m = float(degrees.sum())
        if not math.isfinite(two_m):
            raise NonFiniteEntry("degrees and total weight overflow: the weights are too large")
        self.n = n
        self.indptr, self.indices, self.data = indptr, cols.astype(index), vals
        self.degrees = degrees
        for arr in (self.indptr, self.indices, self.data, self.degrees):
            arr.flags.writeable = False
        self.total_weight_2m = two_m
        self._weights = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """Build from an iterable of ``(i, j, weight)`` triples.

        Each undirected edge appears once; the matrix is symmetrized. Each
        weight must be a real number: strings, bools and complex numbers
        raise :class:`NonFiniteEntry`.
        """
        rows, cols, vals = [], [], []
        for i, j, w in edges:
            rows.append(i)
            cols.append(j)
            vals.append(w)
        return cls._from_arrays(n, rows, cols, _as_reals(vals, "weights"))

    @classmethod
    def _from_arrays(cls, n: int, rows, cols, vals) -> "WeightedGraph":
        """Build from index and weight arrays, each undirected edge once;
        off-diagonal entries are mirrored here. Node indices must be
        integers in ``[0, n)``, and ``n`` at most ``_MAX_NODES``, else
        :class:`TooLarge`; the weights are cast to float unchecked, so
        callers pass numeric arrays (a Gilbert draw may be bools)."""
        n = _as_count(n, "n", minimum=0)
        if n > _MAX_NODES:
            raise TooLarge(f"graphs are capped at {_MAX_NODES} nodes, got n = {n}")
        rows, cols = (
            _as_integers(a, "node indices").astype(np.int64, copy=False) for a in (rows, cols)
        )
        ends = np.concatenate([rows, cols])
        outside = ends[(ends < 0) | (ends >= n)]
        if outside.size:
            raise DimensionMismatch(f"node index {outside[0]} is outside [0, n) for n = {n}")
        # Sum the duplicates of each unordered pair before mirroring, so the
        # two triangles hold one value: the matrix is symmetric by
        # construction, whatever order its duplicates are summed in.
        codes, vals = _summed_entries(
            n, np.minimum(rows, cols), np.maximum(rows, cols), np.asarray(vals, dtype=float)
        )
        rows, cols = np.divmod(codes, max(n, 1))
        # Row r holds the mirrors (r, i) of the entries (i, r), i < r, then
        # its own entries, whose columns are at least r. Sorted stably by
        # row, the mirrors keep the ascending i of the row-major entries,
        # so each entry's place is its row's start plus its rank there.
        off = np.flatnonzero(rows != cols)
        mirrors = off[_stable_order(cols[off], n)]
        low = np.bincount(cols[off], minlength=n)
        own = np.bincount(rows, minlength=n)
        start = np.cumsum(low + own) - low - own
        place = np.arange(codes.size) + (start + low - np.cumsum(own) + own)[rows]
        mirror_rows = cols[mirrors]
        mirror_place = np.arange(mirrors.size) + (start - np.cumsum(low) + low)[mirror_rows]
        full_cols = np.empty(codes.size + mirrors.size, dtype=np.int64)
        full_vals = np.empty(full_cols.size)
        full_cols[place], full_vals[place] = cols, vals
        full_cols[mirror_place], full_vals[mirror_place] = rows[mirrors], vals[mirrors]
        g = cls.__new__(cls)
        g._store(n, low + own, full_cols, full_vals)
        return g

    @property
    def weights(self):
        """The stored matrix as a read-only canonical
        ``scipy.sparse.csr_array`` (sorted indices, no explicit zeros) over
        the graph's own arrays, built and cached on first access. Use
        ``.toarray()`` for a dense copy."""
        if self._weights is None:
            from scipy import sparse

            mat = sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))
            mat.has_canonical_format = True
            self._weights = mat
        return self._weights

    def _node(self, i) -> int:
        """``i`` as a node index: an integer (not a bool) in ``[0, n)``,
        else :class:`DimensionMismatch`."""
        try:
            k = None if isinstance(i, bool) else operator.index(i)
        except TypeError:
            k = None
        if k is None or not 0 <= k < self.n:
            raise DimensionMismatch(f"node index {i!r} is not an integer in [0, n) for n = {self.n}")
        return k

    def weight(self, i: int, j: int) -> float:
        i, j = self._node(i), self._node(j)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + int(np.searchsorted(self.indices[lo:hi], j))
        return float(self.data[k]) if k < hi and self.indices[k] == j else 0.0

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices (ascending) and weights of nodes with nonzero weight to
        ``i``."""
        i = self._node(i)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def edge_list_text(self) -> str:
        """Tab-separated ``i j weight`` lines, each undirected edge once
        (upper triangle plus any diagonal), LF terminated. If the last node
        has no edge, a final ``n-1 n-1 0.0`` line keeps the node count,
        which :func:`load_edge_list` reads as the largest index plus one."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows <= self.indices
        lines = [
            f"{i}\t{j}\t{w!r}"
            for i, j, w in zip(
                rows[upper].tolist(), self.indices[upper].tolist(), self.data[upper].tolist()
            )
        ]
        if self.n and self.degrees[-1] == 0.0:
            lines.append(f"{self.n - 1}\t{self.n - 1}\t0.0")
        return "\n".join(lines) + ("\n" if lines else "")

    def save_edge_list(self, path) -> None:
        """Write :meth:`edge_list_text` to ``path``."""
        Path(path).write_text(self.edge_list_text())


def load_edge_list(path) -> WeightedGraph:
    """Load a tab-separated ``i j weight`` edge list.

    Indices are 0-based; each undirected edge is listed once and the loader
    symmetrizes. The node count is the largest index plus one. Blank lines
    are ignored; anything else malformed raises
    :class:`EdgeListParseError` with its 1-based line number. Duplicate
    unordered pairs are rejected rather than summed; an index of 3037000499
    or more raises :class:`TooLarge`. numpy's text reader reads the file
    first; the files it declines go to a loop over the lines, which gives
    the same graphs and reports the first bad line.
    """
    text = Path(path).read_text()
    fast = _plain_edges(text)
    if fast is not None:
        return WeightedGraph._from_arrays(*fast)
    rows, cols, vals = [], [], []
    seen: set[tuple[int, int]] = set()
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise EdgeListParseError(
                f"line {lineno}: expected 'i<TAB>j<TAB>weight', got {raw!r}"
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise EdgeListParseError(f"line {lineno}: {exc}") from exc
        if i < 0 or j < 0:
            raise EdgeListParseError(f"line {lineno}: negative node index")
        if not math.isfinite(w):
            raise EdgeListParseError(f"line {lineno}: non-finite weight {w!r}")
        if w < 0:
            raise EdgeListParseError(f"line {lineno}: negative weight {w!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise EdgeListParseError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        rows.append(i)
        cols.append(j)
        vals.append(w)
        n = max(n, i + 1, j + 1)
    # parsed floats need no per-weight check, which from_edges would make
    return WeightedGraph._from_arrays(n, rows, cols, vals)


def _plain_edges(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """``(n, rows, cols, weights)`` of an edge list as numpy's text reader
    reads it, where :func:`load_edge_list`'s line loop would give the same
    graph; else None. The reader converts fields as ``int`` and ``float``
    do, but strips as spaces the line breaks other than LF, where the loop
    splits lines, and ``\\x1f``, which ``int`` refuses; so it declines text
    that holds one of these or any non-ASCII character."""
    if not text.isascii() or any(c in text for c in "\r\v\f\x1c\x1d\x1e\x1f"):
        return None
    try:
        # a text with no rows, and in older numpy an index spelled 1.0, only warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = np.loadtxt(io.StringIO(text), "i8,i8,f8", comments=None, delimiter="\t", ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    i, j, w = edges["f0"], edges["f1"], edges["f2"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    n = int(hi.max()) + 1
    if lo.min() < 0 or not (np.isfinite(w).all() and (w >= 0.0).all()) or n > _MAX_NODES:
        return None
    pairs = np.sort(lo * n + hi)
    return None if (pairs[1:] == pairs[:-1]).any() else (n, i, j, w)


def _check_eps(eps: float, allow_zero: bool = True) -> None:
    if isinstance(eps, bool) or not (isinstance(eps, Real) and 0.0 <= eps <= 1.0):
        raise ValueError(f"eps must be a real number in [0, 1], got {eps!r}")
    # Where eps divides, 1/eps (the multiplicative bias bound) must be a
    # float: below about 5.6e-309 it overflows, and the laws' bin edges and
    # thresholds would turn to NaN.
    if not allow_zero and (eps == 0.0 or math.isinf(1.0 / float(eps))):
        raise ZeroEps(f"eps = {eps!r} leaves the multiplicative bias bound 1/eps unbounded")


# pairs drawn per call when a Gilbert graph is sampled
_PAIR_BLOCK = 1 << 16


def gilbert(
    n: int, eps: float, rng: np.random.Generator | int | None = None
) -> WeightedGraph:
    """Gilbert random graph: each of the n(n-1)/2 node pairs carries an
    edge of weight 1 independently with probability ``eps``. No self-loops.

    One uniform is drawn per pair in upper-triangle row-major order, which
    fixes the seed-to-graph mapping. On a PCG64 or PCG64DXSM generator (the
    :func:`numpy.random.default_rng` type) the pairs are split into one
    contiguous segment per usable CPU, and each segment draws on its own
    thread from its own offset of the same stream, so the graph and the
    generator's final state are those of one sequential draw whatever the
    thread count. Uniforms are drawn in fixed-size blocks into one reused
    buffer per thread, so memory is O(n + m + threads * _PAIR_BLOCK) for
    m edges.
    """
    n = _as_count(n, "n")
    _check_eps(eps)
    rng = _as_generator(rng)
    return _upper_triangle_graph(n, rng, lambda gen, u: gen.random(out=u) < eps, seekable=True)


def gilbert_weighted(
    n: int,
    eps: float,
    max_weight: int,
    rng: np.random.Generator | int | None = None,
) -> WeightedGraph:
    """Integer-weighted Gilbert graph: each pair's weight is an independent
    Binomial(``max_weight``, ``eps``) draw.

    ``max_weight=1`` reduces to the same edge distribution as
    :func:`gilbert` (though the two consume the random stream differently).
    Pairs are drawn in the same order and blocks as in :func:`gilbert`, on
    the calling thread (a binomial draw takes a variable number of outputs,
    so no pair's offset in the stream is known in advance); a seed always
    gives the same graph, and memory is O(n + m + _PAIR_BLOCK) for m edges.
    """
    n, max_weight = _as_count(n, "n"), _as_count(max_weight, "max_weight")
    _check_eps(eps)
    rng = _as_generator(rng)
    return _upper_triangle_graph(n, rng, lambda gen, u: gen.binomial(max_weight, eps, size=u.size))


def _upper_triangle_graph(
    n: int, rng: np.random.Generator, draw, seekable: bool = False
) -> WeightedGraph:
    """Graph whose pair (i, j), i < j, has weight ``v[p]`` at the pair's
    index ``p`` in upper-triangle row-major order, where ``v`` is the
    concatenation of ``draw(rng, u)`` over blocks of ``len(u) <=
    _PAIR_BLOCK`` pairs (``u`` is a float scratch block the draw may fill).
    Consecutive draws of sizes a and b consume the stream exactly as one
    draw of size a + b (true of ``Generator.random`` and
    ``Generator.binomial``), so the graph, and where ``rng`` is left, are
    those of one draw over all pairs, without its O(n**2) arrays. Each
    nonzero's row is found by one ``searchsorted`` on the row start offsets
    ``i(n-1) - i(i-1)/2``.

    The pairs are cut into ``min(thread_cap(), full blocks)`` contiguous
    segments of whole blocks (the last takes the partial block) when
    ``seekable`` says a draw takes exactly one 64-bit output per pair and
    ``rng`` is a PCG64 or PCG64DXSM stream, whose ``advance(d)`` skips
    exactly d outputs; otherwise there is one segment, drawn from ``rng``
    itself. A segment from pair ``lo`` draws from a copy of ``rng``'s bit
    generator advanced by ``lo``, on its own thread, into its own reused
    scratch block; the segments are joined in order, so memory is
    O(n + m + segments * _PAIR_BLOCK) for m edges."""
    from ._mc import _starmap, split_counts, thread_cap

    i = np.arange(n, dtype=np.int64)
    starts = i * (n - 1) - i * (i - 1) // 2
    pairs = n * (n - 1) // 2
    bg = rng.bit_generator
    seek = seekable and isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM))
    blocks = split_counts(pairs // _PAIR_BLOCK, thread_cap() if seek else 1)
    bounds = (np.cumsum([0, *blocks]) * _PAIR_BLOCK).tolist()
    bounds[-1] = pairs

    def segment(gen: np.random.Generator, lo: int, hi: int):
        u = np.empty(min(_PAIR_BLOCK, hi - lo))
        rows, cols, vals = [], [], []
        # an empty segment (n <= 1) still makes one empty draw, so the
        # lists are never empty
        for a in range(lo, max(hi, lo + 1), _PAIR_BLOCK):
            w = draw(gen, u[: min(_PAIR_BLOCK, hi - a)])
            nz = np.flatnonzero(w)
            flat = nz + a
            row = np.searchsorted(starts, flat, side="right") - 1
            rows.append(row)
            cols.append(flat - starts[row] + row + 1)
            vals.append(w[nz])
        return rows, cols, vals

    gens = [rng]
    if len(bounds) > 2:
        gens = [_advanced(bg, lo) for lo in bounds[:-1]]
        # leave rng where one draw leaves it: `advance` also drops the
        # buffered 32-bit half, which a draw of doubles keeps
        half = {key: bg.state[key] for key in ("has_uint32", "uinteger")}
        bg.state = {**bg.advance(pairs).state, **half}
    parts = _starmap(segment, list(zip(gens, bounds, bounds[1:])))
    return WeightedGraph._from_arrays(
        n, *(np.concatenate([a for part in parts for a in part[c]]) for c in range(3))
    )


def _advanced(bg, offset: int) -> np.random.Generator:
    """A generator on a copy of bit generator ``bg`` moved ``offset``
    outputs ahead; ``bg`` itself does not move."""
    copy = type(bg)()
    copy.state = bg.state
    return np.random.Generator(copy.advance(offset))


def _require_edges(g: WeightedGraph) -> float:
    """2M, for the independence formulas, which divide a degree product by
    2M or by (2M)**2. An edgeless graph raises :class:`EmptyGraph`, and
    one whose (2M)**2 is below the smallest normal float (2M below about
    1.5e-154) raises :class:`NonFiniteEntry`: the degree products then lose
    their precision, and below about 1e-162 (2M)**2 is 0."""
    two_m = g.total_weight_2m
    if two_m <= 0.0:
        raise EmptyGraph("graph has zero total weight")
    if two_m * two_m < sys.float_info.min:
        raise NonFiniteEntry(
            "the independence criterion underflows on this graph: the weights are too small"
        )
    return two_m


def independence_block(w_sum, deg_i, deg_j, size_i, size_j, n, two_m):
    """Independence criterion summed over node blocks I x J:
    ``w_IJ/2M - D_I * D_J / (2M)**2``, from the total I-J weight ``w_sum``
    and the degree masses ``deg_*``. Works elementwise on arrays; the sizes
    and ``n`` are unused but keep one signature for both criteria."""
    return w_sum / two_m - deg_i * deg_j / (two_m * two_m)


def indetermination_block(w_sum, deg_i, deg_j, size_i, size_j, n, two_m):
    """Indetermination criterion summed over node blocks I x J:
    ``w_IJ - (|J| D_I + |I| D_J)/n + |I| |J| 2M/n**2``, from the total I-J
    weight, the degree masses and the node counts ``size_*``. Works
    elementwise on arrays."""
    return (
        w_sum
        - (size_j * deg_i + size_i * deg_j) / n
        + size_i * size_j * two_m / (n * n)
    )


def local_independence_criterion(g: WeightedGraph, i: int, j: int) -> float:
    """Centered edge evidence against the independence null,
    ``a[i,j]/2M - a_i * a_j / (2M)**2``: :func:`independence_block` on the
    singletons {i}, {j}."""
    two_m = _require_edges(g)
    return independence_block(
        g.weight(i, j), g.degrees[i], g.degrees[j], 1, 1, g.n, two_m
    )


def local_indetermination_criterion(g: WeightedGraph, i: int, j: int) -> float:
    """Centered edge evidence against the indetermination null,
    ``a[i,j] - a_i/n - a_j/n + 2M/n**2``: :func:`indetermination_block` on
    the singletons {i}, {j}."""
    return indetermination_block(
        g.weight(i, j), g.degrees[i], g.degrees[j], 1, 1, g.n, g.total_weight_2m
    )


def bias_independence(g: WeightedGraph, i: int, j: int) -> float:
    """The independence null value ``a_i * a_j / 2M`` for pair (i, j)."""
    i, j = g._node(i), g._node(j)
    two_m = _require_edges(g)
    return g.degrees[i] * g.degrees[j] / two_m


def bias_indetermination(g: WeightedGraph, i: int, j: int) -> float:
    """The indetermination null value ``a_i/n + a_j/n - 2M/n**2``."""
    i, j = g._node(i), g._node(j)
    n = g.n
    return g.degrees[i] / n + g.degrees[j] / n - g.total_weight_2m / (n * n)


def bias_bounds(eps: float, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Attainable ranges of the two biases under the ``2M = n**2 * eps``
    convention.

    Returns ``((plus_low, plus_high), (times_low, times_high))`` =
    ``((-eps, 2 - eps), (0, 1/eps))``. The additive range is width 2
    regardless of ``eps``; the multiplicative range blows up as ``eps``
    shrinks, which is why ``eps = 0`` is rejected.

    Raises
    ------
    ZeroEps
        If ``eps == 0``.
    """
    _as_count(n, "n")
    _check_eps(eps, allow_zero=False)
    return ((-eps, 2.0 - eps), (0.0, 1.0 / eps))


def bias_bin_edges(eps: float, bins: int, which: str) -> np.ndarray:
    """Uniform bin edges spanning a theoretical bias range.

    ``which`` is one of ``"plus"``, ``"times"``, ``"difference"`` (for
    ``b_+ - b_x``) or ``"common"`` (union of the plus and times ranges, the
    grid both empirical histograms share so their shapes can be compared).
    """
    bins = _as_count(bins, "bins")
    (plo, phi), (tlo, thi) = bias_bounds(eps, 2)
    spans = {
        "plus": (plo, phi),
        "times": (tlo, thi),
        "difference": (plo - thi, phi - tlo),
        "common": (min(plo, tlo), max(phi, thi)),
    }
    try:
        lo, hi = spans[which]
    except KeyError:
        raise ValueError(f"unknown histogram kind {which!r}") from None
    return np.linspace(lo, hi, bins + 1)


@dataclass(frozen=True)
class BiasHistogram(Record):
    """A binned bias distribution.

    ``counts`` are sample counts for empirical histograms and probability
    masses for theoretical ones; ``which`` tags the quantity binned
    (``"independence"``, ``"indetermination"`` or ``"difference"``).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    which: str

    def __post_init__(self):
        edges, counts = self._own("bin_edges"), self._own("counts")
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise DimensionMismatch("need len(bin_edges) == len(counts) + 1")

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def mean(self) -> float:
        """Mass-weighted mean of bin midpoints."""
        mids = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        total = self.total
        if total == 0:
            return float("nan")
        return float((mids * self.counts).sum() / total)

    def csv_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(lo), float(hi), float(c))
            for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts)
        ]

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
        }


def _binomial_row(n: int, p: float) -> np.ndarray:
    """``P(K = k)`` for ``K ~ Binomial(n, p)`` and ``k = 0..n``.

    The mode ``m = floor((n+1) p)`` gets unnormalized mass 1; the other
    masses are cumulative products of the ratios ``P(k+1)/P(k) = (n-k)/(k+1)
    * p/(1-p)`` upward from the mode and of their inverses downward, so
    every factor is at most 1 and nothing overflows. Dividing by the sum
    normalizes the row. ``p = 0`` and ``p = 1`` are point masses."""
    if p in (0.0, 1.0):
        return (np.arange(n + 1) == (n if p == 1.0 else 0)).astype(float)
    k = np.arange(n)
    ratio = (n - k) / (k + 1) * (p / (1.0 - p))
    m = min(n, int((n + 1) * p))
    down = np.cumprod(1.0 / ratio[:m][::-1])[::-1]  # P(k)/P(m), k = 0..m-1
    up = np.cumprod(ratio[m:])  # P(k)/P(m), k = m+1..n
    row = np.concatenate((down, [1.0], up))
    return row / row.sum()


def _degree_rows(n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Degree law of one endpoint under the idealized degree model, given
    the pair value ``b = 0`` and ``b = 1``: ``P(d | b) = C(n-1, d-b)
    eps**(d-b) (1-eps)**(n-1-d+b)`` over ``d = 0..n``, after validating
    the model's ``n`` and ``eps``. Both are one Binomial(n-1, eps) row
    from :func:`_binomial_row`, the ``b = 1`` row shifted up by one degree.

    Measured relative error wherever the mass is at least 1e-280 (smaller
    masses underflow towards 0): at most 1.6e-13 against exact rational
    masses (``math.comb`` and the binary value of ``eps``) for n up to 5000
    and seven eps from 1e-6 to 0.999; at most 2.0e-12 against 40-digit
    mpmath at k up to 37 standard deviations from the mean, n up to 1e6,
    about as scipy's ``binom.pmf``. Each row sums to 1 within 1e-15."""
    n = _as_count(n, "n")
    _check_eps(eps, allow_zero=False)
    row = _binomial_row(n - 1, eps)
    return np.append(row, 0.0), np.insert(row, 0, 0.0)


def theoretical_joint_pmf(n: int, eps: float) -> np.ndarray:
    """Joint law of ``(a_ij, a_i, a_j)`` under the idealized degree model.

    Under that model, given the pair value ``b = a_ij``, each endpoint's
    degree is ``b`` plus an independent Binomial(n-1, eps) count::

        P(b, d_i, d_j) = eps**b * (1-eps)**(1-b)
                         * C(n-1, d_i-b) eps**(d_i-b) (1-eps)**(n-1-d_i+b)
                         * C(n-1, d_j-b) eps**(d_j-b) (1-eps)**(n-1-d_j+b)

    Degrees range over ``b..n`` here, one more than a loop-free graph
    realizes (its degrees stop at n-1); the formula is implemented exactly
    as stated and the off-by-one is a documented approximation of the
    sampled model.

    Returns
    -------
    numpy.ndarray
        Read-only array of shape (2, n+1, n+1); ``[b, d_i, d_j]`` indexes
        the mass. Sums to 1.
    """
    row0, row1 = _degree_rows(n, eps)
    mass = np.stack(
        [(1.0 - eps) * np.outer(row0, row0), eps * np.outer(row1, row1)]
    )
    mass.flags.writeable = False
    return mass


# Lattice cells (row x threshold) evaluated at once by _affine_law. At 2**14
# each float temporary of a block stays under 128 KiB, glibc's default mmap
# threshold, so it is reused from the heap; at 2**16 every temporary was a
# fresh mapping, and its page faults (about 1250 per law at n = 2000, 200
# bins) took a third of the time of both laws.
_BLOCK_CELLS = 1 << 14


def _affine_law(
    rows: tuple[np.ndarray, np.ndarray],
    eps: float,
    slope: np.ndarray,
    offset: np.ndarray,
    edges: np.ndarray,
    which: str,
) -> BiasHistogram:
    """Exact binned law of ``v = slope[d_i] * d_j + offset[d_i]`` when
    ``(d_i, d_j)`` follows :func:`theoretical_joint_pmf` summed over ``b``,
    without its (n+1)**2 lattice.

    That law is ``(1-eps) p0[d_i] p0[d_j] + eps p1[d_i] p1[d_j]`` with
    ``(p0, p1) = rows`` from :func:`_degree_rows`. In row ``d_i`` the set
    ``{d_j : v < e}`` is a prefix of ``0..n`` (slope > 0), a suffix
    (slope < 0) or all or nothing (slope 0), so its mass is one entry of a
    prefix or suffix sum of ``p0`` and of ``p1``. Bins are half-open,
    ``[e_k, e_{k+1})``, as in ``np.histogram``; values below the first or
    above the last edge fall in the end bins. O(n * bins) time; memory
    O(n + bins) plus one block of ``_BLOCK_CELLS`` cells.
    """
    size = rows[0].size  # n + 1 degrees
    weights = ((1.0 - eps) * rows[0], eps * rows[1])
    # per component: P(d_j < k) for k = 0..n+1, then P(d_j >= k)
    tables = [
        np.concatenate(([0.0], np.cumsum(p), np.cumsum(p[::-1])[::-1], [0.0]))
        for p in rows
    ]
    cuts = np.concatenate(([-np.inf], edges[1:-1], [np.inf]))
    live = np.flatnonzero(weights[0] + weights[1])  # rows without mass add 0
    counts = np.zeros(edges.size - 1)
    step = max(1, _BLOCK_CELLS // cuts.size)
    for lo in range(0, live.size, step):
        r = live[lo : lo + step]
        a, c = slope[r, None], offset[r, None]
        flat = a == 0.0
        # a tiny slope sends thresholds past the float range, and an
        # infinite one clips to the end of its row like any other
        with np.errstate(over="ignore"):
            t = (cuts - c) / np.where(flat, 1.0, a)
        # prefix rows count d_j < t, suffix rows d_j <= t; flat rows all or none
        k = np.where(a > 0.0, np.ceil(t), np.floor(t) + 1.0)
        k = np.where(flat, (c < cuts) * float(size), np.clip(k, 0.0, size))
        idx = k.astype(np.intp) + np.where(a < 0.0, size + 1, 0)
        for w, table in zip(weights, tables):
            counts += w[r] @ np.diff(table[idx], axis=1)
    return BiasHistogram(bin_edges=edges, counts=counts, which=which)


def _law_inputs(n: int, eps: float, bins: int, which: str):
    """Validated inputs of the exact laws: the degree rows, the degree grid
    ``0..n`` and the bin edges; a law needs a node pair, so n >= 2."""
    n = _as_count(n, "n", minimum=2)
    rows = _degree_rows(n, eps)
    return rows, np.arange(n + 1, dtype=float), bias_bin_edges(eps, bins, which)


def _mass_histogram(values: np.ndarray, edges: np.ndarray, which: str) -> BiasHistogram:
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return BiasHistogram(bin_edges=edges, counts=counts, which=which)


def theoretical_bias_difference_distribution(
    n: int, eps: float, bins: int = 200
) -> BiasHistogram:
    """Exact distribution of ``b_+ - b_x`` under the idealized degree model
    with the ``2M = n**2 * eps`` convention, binned on the theoretical
    difference range.

    The difference collapses to ``-x*y / (n**2 * eps)`` with ``x, y`` the
    centered degrees, so its mass concentrates near 0 at rate 1/n.

    Computed row by row of the degree lattice (see :func:`_affine_law`):
    O(n * bins) time and memory bounded whatever ``n``; no (n+1)**2 array
    is built. Bins are half-open ``[e_k, e_{k+1})``, the last one closed,
    out-of-range mass goes to the end bins; a value lying on an edge up
    to rounding may land on either side of it.
    """
    rows, d, edges = _law_inputs(n, eps, bins, "difference")
    slope = (n * eps - d) / (n * n * eps)  # exactly 0 on the row d_i = n eps
    return _affine_law(rows, eps, slope, d / n - eps, edges, "difference")


def theoretical_bias_histograms(
    n: int, eps: float, bins: int = 200
) -> tuple[BiasHistogram, BiasHistogram]:
    """Marginal distributions of ``b_x`` and ``b_+`` under the idealized
    degree model, binned on the shared grid.

    Returns ``(times_hist, plus_hist)``. Cost and tie rule as in
    :func:`theoretical_bias_difference_distribution`: O(n * bins) time,
    bounded memory, no (n+1)**2 lattice.
    """
    rows, d, edges = _law_inputs(n, eps, bins, "common")
    times = _affine_law(
        rows, eps, d / (n * n * eps), np.zeros_like(d), edges, "independence"
    )
    plus = _affine_law(
        rows, eps, np.full_like(d, 1.0 / n), d / n - eps, edges, "indetermination"
    )
    return times, plus


def _bias_stream(
    n: int,
    eps: float,
    m: int,
    rng: np.random.Generator,
    use_realized_2m: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``m`` (b_x, b_+, b_+ - b_x) triples, each for a random ordered
    pair (i, j) of a fresh Gilbert graph, from the joint law of the only
    numbers the biases read: ``a_ij ~ Bern(eps)``, ``a_i = a_ij + X_i``,
    ``a_j = a_ij + X_j`` and ``2M = 2(a_ij + X_i + X_j + R)``, with
    independent ``X_i, X_j ~ Bin(n-2, eps)`` (edges to the other n-2 nodes)
    and ``R ~ Bin(C(n-2, 2), eps)`` (edges among them). Samples whose graph
    came up empty are dropped from the ``b_x`` and difference arrays (the
    ratio is undefined there)."""
    a_ij = (rng.random(m) < eps).astype(float)
    x_i = rng.binomial(n - 2, eps, size=m)
    x_j = rng.binomial(n - 2, eps, size=m)
    rest = rng.binomial((n - 2) * (n - 3) // 2, eps, size=m)
    d_i = a_ij + x_i
    d_j = a_ij + x_j
    edges = a_ij + x_i + x_j + rest
    m2 = 2.0 * edges if use_realized_2m else np.full(m, n * n * eps)
    plus = d_i / n + d_j / n - m2 / (n * n)
    nonempty = m2 > 0
    times = d_i[nonempty] * d_j[nonempty] / m2[nonempty]
    return times, plus, plus[nonempty] - times


def empirical_bias_samples(
    n: int,
    eps: float,
    samples: int,
    rng: np.random.Generator | int | None = None,
    use_realized_2m: bool = True,
    n_streams: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled bias values over fresh Gilbert graphs.

    For each of ``samples`` independent Gilbert(n, eps) graphs, one ordered
    node pair (i, j), i != j, is drawn uniformly and both biases recorded.
    No graph is built: the edge ``a_ij``, the two degrees and ``2M`` are
    drawn from their exact joint law, O(1) per sample whatever ``n``.

    Parameters
    ----------
    n : int
        Node count, from 2 to 4294967298 (else :class:`TooLarge`).
    eps : float
        Edge probability in [0, 1].
    samples : int
        Number of graphs (one pair each).
    rng : numpy.random.Generator or int, optional
    use_realized_2m : bool
        With True (default) biases use each graph's realized total weight;
        with False they use the ``n**2 * eps`` convention of the
        theoretical formulas.
    n_streams : int
        Deterministic substream count (see :mod:`coupleclust._mc`).

    Returns
    -------
    (b_times, b_plus, b_diff) : tuple of numpy.ndarray
        ``b_plus`` has length ``samples``; ``b_times`` omits samples whose
        graph had zero weight (its denominator), so it may be shorter, and
        ``b_diff`` is the paired ``b_plus - b_times`` over those same
        retained samples.
    """
    n, samples = _as_count(n, "n", minimum=2), _as_count(samples, "samples")
    if n > 2**32 + 2:
        # past it, C(n-2, 2), the count R's binomial draw takes, overflows int64
        raise TooLarge(f"bias samples are capped at n = {2**32 + 2}, got n = {n}")
    _check_eps(eps)
    from ._mc import run_streams

    chunks = run_streams(
        lambda gen, m: _bias_stream(n, eps, m, gen, use_realized_2m),
        samples,
        rng,
        n_streams,
    )
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def empirical_bias_histogram(
    n: int,
    eps: float,
    samples: int,
    bins: int = 200,
    rng: np.random.Generator | int | None = None,
    use_realized_2m: bool = True,
    n_streams: int = 1,
) -> tuple[BiasHistogram, BiasHistogram]:
    """Histograms of sampled ``b_x`` and ``b_+`` on their shared bin grid.

    Returns ``(times_hist, plus_hist)``; see :func:`empirical_bias_samples`
    for the sampling scheme. The grid spans the union of the two theoretical
    ranges; out-of-range samples (possible for ``b_x`` under the
    realized-2M convention when a graph comes up sparse) are clipped into
    the edge bins so no mass is dropped. ``eps = 0`` yields an all-zero
    ``b_x`` histogram: every graph is empty, so every sample is dropped.
    """
    if eps == 0.0:
        # Degenerate but well-defined: b_+ is identically 0; use the
        # narrowest nonempty grid around it.
        edges = np.linspace(-1.0, 1.0, _as_count(bins, "bins") + 1)
    else:
        edges = bias_bin_edges(eps, bins, "common")
    times, plus, _ = empirical_bias_samples(
        n, eps, samples, rng, use_realized_2m, n_streams
    )
    times_hist = _mass_histogram(times, edges, "independence")
    plus_hist = _mass_histogram(plus, edges, "indetermination")
    return times_hist, plus_hist


def empirical_bias_difference_histogram(
    n: int,
    eps: float,
    samples: int,
    bins: int = 200,
    rng: np.random.Generator | int | None = None,
    use_realized_2m: bool = True,
    n_streams: int = 1,
) -> BiasHistogram:
    """Histogram of the paired sampled difference ``b_+ - b_x``.

    Sampling matches :func:`empirical_bias_samples`; samples whose graph
    came up empty are dropped (``b_x`` is undefined there). Binned on the
    theoretical difference range, out-of-range values clipped into the edge
    bins. The realized-2M convention (the default) makes this an
    approximation of :func:`theoretical_bias_difference_distribution`,
    which fixes ``2M = n**2 * eps``.
    """
    edges = bias_bin_edges(eps, bins, "difference")
    _, _, diff = empirical_bias_samples(
        n, eps, samples, rng, use_realized_2m, n_streams
    )
    return _mass_histogram(diff, edges, "difference")
