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
Every graph is stored as one canonical CSR matrix, whatever its size, so
criterion evaluation never materializes an n x n criterion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np
from scipy import sparse

from ._record import Record
from .errors import (
    DimensionMismatch,
    EdgeListParseError,
    EmptyGraph,
    NegativeEntry,
    NonFiniteEntry,
    ZeroEps,
    _as_count,
    _as_generator,
    _as_integers,
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


class WeightedGraph:
    """Symmetric nonnegative weight matrix with cached degree data.

    The weights are stored as one read-only canonical CSR matrix: column
    indices sorted within each row and no explicit zeros, so every stored
    entry is an edge.

    Parameters
    ----------
    weights : numpy.ndarray or scipy.sparse matrix
        Square symmetric matrix of finite nonnegative reals. Dense input is
        converted to CSR; the caller's matrix is never modified.

    Attributes
    ----------
    n : int
    degrees : numpy.ndarray
        Row sums (read-only).
    total_weight_2m : float
        Sum of all entries, i.e. 2M.
    """

    __slots__ = ("_csr", "n", "degrees", "total_weight_2m")

    def __init__(self, weights):
        mat = weights if sparse.issparse(weights) else np.asarray(weights, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        mat = sparse.csr_array(mat, dtype=float, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        if not np.isfinite(mat.data).all():
            raise NonFiniteEntry("weights must be finite")
        if mat.nnz and mat.data.min() < 0:
            raise NegativeEntry("weights must be nonnegative")
        t = mat.T.tocsr()  # canonical too, so equal arrays mean equal matrices
        pairs = zip((mat.indptr, mat.indices, mat.data), (t.indptr, t.indices, t.data))
        if not all(np.array_equal(x, y) for x, y in pairs):
            raise DimensionMismatch("weights must be symmetric")
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        self._csr = mat
        self.n = mat.shape[0]
        # finite weights can still sum past the float range; the degrees are
        # nonnegative, so one infinite degree makes 2M infinite too
        with np.errstate(over="ignore"):
            degrees = np.asarray(mat.sum(axis=1), dtype=float).ravel()
            two_m = float(degrees.sum())
        if not np.isfinite(two_m):
            raise NonFiniteEntry("degrees and total weight overflow: the weights are too large")
        degrees.flags.writeable = False
        self.degrees = degrees
        self.total_weight_2m = two_m

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        """Build from an iterable of ``(i, j, weight)`` triples.

        Each undirected edge appears once; the matrix is symmetrized.
        """
        rows, cols, vals = [], [], []
        for i, j, w in edges:
            rows.append(i)
            cols.append(j)
            vals.append(w)
        return cls._from_arrays(n, rows, cols, vals)

    @classmethod
    def _from_arrays(cls, n: int, rows, cols, vals) -> "WeightedGraph":
        """Build from index and weight arrays, each undirected edge once;
        off-diagonal entries are mirrored here. Node indices must be
        integers in ``[0, n)``."""
        n = _as_count(n, "n", minimum=0)
        rows, cols = (
            _as_integers(a, "node indices").astype(np.int64, copy=False) for a in (rows, cols)
        )
        ends = np.concatenate([rows, cols])
        outside = ends[(ends < 0) | (ends >= n)]
        if outside.size:
            raise DimensionMismatch(f"node index {outside[0]} is outside [0, n) for n = {n}")
        vals = np.asarray(vals, dtype=float)
        off = rows != cols
        i, j = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        data = np.concatenate([vals, vals[off]])
        return cls(sparse.coo_array((data, (i, j)), shape=(n, n)))

    @property
    def weights(self) -> sparse.csr_array:
        """The stored matrix, as canonical CSR (sorted indices, no explicit
        zeros). Use ``.toarray()`` for a dense copy."""
        return self._csr

    def weight(self, i: int, j: int) -> float:
        return float(self._csr[i, j])

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices (ascending) and weights of nodes with nonzero weight to
        ``i``."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]

    def edge_list_text(self) -> str:
        """Tab-separated ``i j weight`` lines, each undirected edge once
        (upper triangle plus any diagonal), LF terminated. If the last node
        has no edge, a final ``n-1 n-1 0.0`` line keeps the node count,
        which :func:`load_edge_list` reads as the largest index plus one."""
        lines = []
        coo = sparse.triu(self._csr).tocoo()
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            lines.append(f"{i}\t{j}\t{float(w)!r}")
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
    unordered pairs are rejected rather than summed.
    """
    edges = []
    seen: set[tuple[int, int]] = set()
    n = 0
    text = Path(path).read_text()
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
        edges.append((i, j, w))
        n = max(n, i + 1, j + 1)
    return WeightedGraph.from_edges(n, edges)


def _check_eps(eps: float, allow_zero: bool = True) -> None:
    if not (isinstance(eps, Real) and 0.0 <= eps <= 1.0):
        raise ValueError(f"eps must be a real number in [0, 1], got {eps!r}")
    if not allow_zero and eps == 0.0:
        raise ZeroEps("eps = 0 leaves the multiplicative bias unbounded")


# pairs drawn per call when a Gilbert graph is sampled
_PAIR_BLOCK = 1 << 16


def gilbert(
    n: int, eps: float, rng: np.random.Generator | int | None = None
) -> WeightedGraph:
    """Gilbert random graph: each of the n(n-1)/2 node pairs carries an
    edge of weight 1 independently with probability ``eps``. No self-loops.

    One uniform is drawn per pair in upper-triangle row-major order, which
    fixes the seed-to-graph mapping. The uniforms are drawn in fixed-size
    blocks of pairs, so memory is O(n + m) for m edges.
    """
    n = _as_count(n, "n")
    _check_eps(eps)
    rng = _as_generator(rng)
    return _upper_triangle_graph(n, lambda k: rng.random(k) < eps)


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
    Pairs are drawn in the same order and blocks as in :func:`gilbert`, so
    a seed always gives the same graph; memory is O(n + m) for m edges.
    """
    n, max_weight = _as_count(n, "n"), _as_count(max_weight, "max_weight")
    _check_eps(eps)
    rng = _as_generator(rng)
    return _upper_triangle_graph(n, lambda k: rng.binomial(max_weight, eps, size=k))


def _upper_triangle_graph(n: int, draw) -> WeightedGraph:
    """Graph whose pair (i, j), i < j, has weight ``v[p]`` at the pair's
    index ``p`` in upper-triangle row-major order, where ``v`` is the
    concatenation of ``draw(k)`` over blocks of ``k <= _PAIR_BLOCK`` pairs.
    Consecutive draws of sizes a and b consume the stream exactly as one
    draw of size a + b (true of ``Generator.random`` and
    ``Generator.binomial``), so the graph is that of one draw over all
    pairs, without its O(n**2) arrays: memory is O(n + m + _PAIR_BLOCK) for
    m edges. Each nonzero's row is found by one ``searchsorted`` on the row
    start offsets ``i(n-1) - i(i-1)/2``."""
    i = np.arange(n, dtype=np.int64)
    starts = i * (n - 1) - i * (i - 1) // 2
    pairs = n * (n - 1) // 2
    rows, cols, vals = [], [], []
    # the range includes `pairs`, so n = 1 still makes one empty draw and
    # the lists are never empty
    for lo in range(0, pairs + 1, _PAIR_BLOCK):
        w = draw(min(_PAIR_BLOCK, pairs - lo))
        nz = np.flatnonzero(w)
        flat = nz + lo
        row = np.searchsorted(starts, flat, side="right") - 1
        rows.append(row)
        cols.append(flat - starts[row] + row + 1)
        vals.append(w[nz])
    return WeightedGraph._from_arrays(n, *map(np.concatenate, (rows, cols, vals)))


def _require_edges(g: WeightedGraph) -> float:
    if g.total_weight_2m <= 0.0:
        raise EmptyGraph("graph has zero total weight")
    return g.total_weight_2m


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
    two_m = _require_edges(g)
    return g.degrees[i] * g.degrees[j] / two_m


def bias_indetermination(g: WeightedGraph, i: int, j: int) -> float:
    """The indetermination null value ``a_i/n + a_j/n - 2M/n**2``."""
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


def _degree_rows(n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Degree law of one endpoint under the idealized degree model, given
    the pair value ``b = 0`` and ``b = 1``: ``P(d | b) = C(n-1, d-b)
    eps**(d-b) (1-eps)**(n-1-d+b)`` over ``d = 0..n``, after validating
    the model's ``n`` and ``eps``."""
    n = _as_count(n, "n")
    _check_eps(eps, allow_zero=False)
    # imported here, not at module level: scipy.stats takes most of a fresh
    # import of the package, and only the exact bias laws need it
    from scipy.stats import binom

    k = np.arange(n + 1)
    return binom.pmf(k, n - 1, eps), binom.pmf(k - 1, n - 1, eps)


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


# Lattice cells (row x threshold) evaluated at once by _affine_law.
_BLOCK_CELLS = 1 << 16


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
        Node count, >= 2.
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
