"""Seeded benchmark inputs, generated with plain numpy.

The library's own samplers (``gilbert``, ``sample_dirichlet``) are not used
here: their seed-to-output mapping may change, and the benchmark's inputs
must stay identical for a given seed across versions of the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EdgeGraph:
    """Undirected simple graph with unit weights, edges as ``i < j`` rows."""

    n: int
    edges: np.ndarray  # shape (m, 2), int64, i < j, no duplicates

    def write(self, path: Path) -> None:
        """Write the ``i<TAB>j<TAB>weight`` edge list the CLI reads."""
        path.write_text("".join(f"{i}\t{j}\t1.0\n" for i, j in self.edges.tolist()))

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(float)


def read_edge_list(path: Path) -> EdgeGraph:
    """Read a unit-weight ``i<TAB>j<TAB>weight`` file, such as the bundled
    karate club graph."""
    rows = np.loadtxt(path, delimiter="\t", ndmin=2)
    if not np.all(rows[:, 2] == 1.0):
        raise ValueError(f"{path}: expected unit weights")
    pairs = rows[:, :2].astype(np.int64)
    return _from_pairs(int(pairs.max()) + 1, pairs)


def _from_pairs(n: int, pairs: np.ndarray) -> EdgeGraph:
    pairs = np.sort(pairs, axis=1)
    pairs = np.unique(pairs, axis=0)
    return EdgeGraph(n=n, edges=pairs.astype(np.int64))


def block_sizes(n: int, blocks: int, min_size: int) -> np.ndarray:
    """Heavy-tailed block sizes: ``min_size`` plus a share of the rest in
    proportion to evenly spaced quantiles of a Pareto law (shape 1.5).

    The sizes are fixed by ``(n, blocks, min_size)`` rather than drawn, so
    the seed moves edges only and every seed asks for a similar amount of
    work."""
    u = (np.arange(blocks) + 0.5) / blocks
    weights = (1.0 - u) ** (-1.0 / 1.5)
    spare = n - blocks * min_size
    sizes = min_size + np.floor(spare * weights / weights.sum()).astype(np.int64)
    sizes[-1] += n - int(sizes.sum())
    return sizes


def planted_partition(
    rng: np.random.Generator,
    n: int = 2500,
    blocks: int = 25,
    deg_in: float = 10.0,
    deg_out: float = 4.0,
    min_size: int = 20,
) -> EdgeGraph:
    """Planted-partition graph: expected degree ``deg_in`` inside each block
    and ``deg_out`` across blocks; every node gets at least one edge, so the
    edge list spans all ``n`` nodes."""
    sizes = block_sizes(n, blocks, min_size)
    labels = np.repeat(np.arange(blocks), sizes)
    parts = []
    start = 0
    for size in sizes.tolist():
        iu, iv = np.triu_indices(size, 1)
        keep = rng.random(iu.size) < deg_in / (size - 1)
        parts.append(np.column_stack([iu[keep], iv[keep]]) + start)
        start += size
    # Cross-block edges: uniform node pairs, resampled until distinct blocks.
    n_out = rng.binomial(n * (n - 1) // 2, deg_out / n)
    ends = rng.integers(0, n, size=(2 * n_out, 2))
    ends = ends[labels[ends[:, 0]] != labels[ends[:, 1]]][:n_out]
    parts.append(ends)
    pairs = np.concatenate(parts)
    isolated = np.setdiff1d(np.arange(n), pairs.ravel())
    if isolated.size:
        first = np.searchsorted(labels, labels[isolated])
        mate = np.where(isolated == first, isolated + 1, first)
        parts.append(np.column_stack([isolated, mate]))
        pairs = np.concatenate(parts)
    return _from_pairs(n, pairs)


def bernoulli_graph(rng: np.random.Generator, n: int, eps: float) -> EdgeGraph:
    """Gilbert-style graph on ``n`` nodes; redrawn until node ``n - 1`` has an
    edge, so an edge-list file of it spans all ``n`` nodes."""
    iu, iv = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < eps
        if keep[iv == n - 1].any():
            return EdgeGraph(n=n, edges=np.column_stack([iu[keep], iv[keep]]).astype(np.int64))


def condition_h_pairs(
    rng: np.random.Generator, p: int, q: int, count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``count`` flat-Dirichlet margin pairs conditioned on Condition H
    (``p * min(mu) + q * min(nu) >= 1``), by vectorized rejection; those
    pairs have a nonnegative indetermination coupling."""
    found: list[tuple[np.ndarray, np.ndarray]] = []
    while len(found) < count:
        mu = rng.exponential(size=(65536, p))
        mu /= mu.sum(axis=1, keepdims=True)
        nu = rng.exponential(size=(65536, q))
        nu /= nu.sum(axis=1, keepdims=True)
        ok = p * mu.min(axis=1) + q * nu.min(axis=1) >= 1.0
        found += list(zip(mu[ok], nu[ok]))
    return found[:count]
