"""Partition search maximizing a summed local coupling criterion.

A node partition is scored by summing a local pair criterion over all
ordered within-class pairs (diagonal included)::

    score(P) = sum_C sum_{i, j in C} m(i, j)

with ``m`` one of the two centered criteria of :mod:`coupleclust.graph`.
Because both criteria sum to zero over all ordered pairs, the single-class
partition always scores exactly 0 and an optimal partition never scores
below 0.

Two search routines are provided. :func:`louvain` is the greedy
move-and-aggregate heuristic: nodes move to the neighboring (or a fresh)
class while the score gain exceeds a threshold, classes collapse into
super-nodes, and the cycle repeats. Each run then alternates whole-class
merge sweeps with single-node refinement at the original resolution until
neither finds a gain; the merge sweep matters because both criteria can
reward uniting classes that share no edge (low-degree nodes sit above the
additive null, for instance), a move the neighbor-restricted pass never
proposes. Several such runs with different shuffle streams are raced and
the best kept, so the returned partition is single-node locally optimal,
pairwise-merge stable, and never scores below either trivial partition
(all singletons or all-in-one; a final fallback enforces the latter).
:func:`exhaustive_best_partition` scores every partition (Bell-number
many cached restricted-growth strings, so it is capped at 10 nodes) and is
the oracle the heuristic is measured against.

Both criteria are additive in their block arguments, which lets move gains
and global scores be computed from per-class aggregates (internal weight,
degree mass, size) without touching individual pairs; the
``block_evaluator`` field of :class:`LocalCriterion` is that aggregate
form. Scoring a partition is a few vectorized passes over the nnz stored
weights and the n nodes, O(nnz + n log n) with no per-class Python loop.
Local moving is queue-driven: after the first visit of every node, only
the neighbours of moved nodes are visited again. One visit costs a dict
pass over the node's neighbours, three block calls that give the node's
linear coefficients, and a few multiply-adds per neighbouring class.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyGraph, TooLarge
from .graph import (
    WeightedGraph,
    indetermination_block,
    independence_block,
    local_indetermination_criterion,
    local_independence_criterion,
)

__all__ = [
    "Partition",
    "LocalCriterion",
    "independence_criterion",
    "indetermination_criterion",
    "criterion_by_name",
    "LouvainConfig",
    "LouvainResult",
    "global_score",
    "louvain",
    "exhaustive_best_partition",
]


@dataclass(frozen=True)
class Partition:
    """Node partition in canonical labeling.

    ``labels[i]`` is the class of node ``i``; class ids are consecutive
    integers numbered by order of first appearance, so two equal partitions
    always carry identical labels.
    """

    labels: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise DimensionMismatch("labels must be a nonempty 1-d array")
        if labels.min() < 0:
            raise ValueError("class ids must be nonnegative")
        k = int(labels.max()) + 1
        # canonical means ids appear in first-appearance order 0, 1, 2, ...
        order = []
        seen = set()
        for lab in labels.tolist():
            if lab not in seen:
                seen.add(lab)
                order.append(lab)
        if order != list(range(k)):
            raise ValueError(
                "labels are not canonical: use Partition.from_labels to relabel"
            )
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Canonicalize arbitrary hashable-int labels."""
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("labels must be a nonempty 1-d array")
        _, first_idx, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        rank = np.argsort(np.argsort(first_idx))
        return cls(labels=rank[inverse])

    @property
    def n(self) -> int:
        return self.labels.size

    def members(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]

    def to_json_dict(self) -> dict:
        return {"labels": [int(x) for x in self.labels], "k": self.k}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class LocalCriterion:
    """A local pair criterion, defined by its class-aggregate form.

    ``block_evaluator(w_sum, deg_i, deg_j, size_i, size_j, n, two_m)``
    returns ``sum_{i in I, j in J} m(i, j)`` for node blocks I, J from
    aggregate data only (``w_sum`` the total I-J weight, ``deg_*`` the
    degree masses, ``size_*`` the node counts); it must be additive in the
    J-side arguments, which both built-in criteria are, and work
    elementwise on arrays. ``evaluator(g, i, j)`` returns the pair value;
    for the built-in criteria it is the block formula on two singletons,
    not a second copy of it. ``needs_total_weight`` marks criteria whose
    formulas divide by 2M, so an edgeless graph is rejected up front.
    """

    kind: str
    evaluator: Callable[[WeightedGraph, int, int], float]
    block_evaluator: Callable[..., float]
    needs_total_weight: bool = False


def independence_criterion() -> LocalCriterion:
    """The criterion subtracting the independence null (degree product)."""
    return LocalCriterion(
        kind="independence",
        evaluator=local_independence_criterion,
        block_evaluator=independence_block,
        needs_total_weight=True,
    )


def indetermination_criterion() -> LocalCriterion:
    """The criterion subtracting the indetermination null (degree sum)."""
    return LocalCriterion(
        kind="indetermination",
        evaluator=local_indetermination_criterion,
        block_evaluator=indetermination_block,
        needs_total_weight=False,
    )


_CRITERIA = {
    "independence": independence_criterion,
    "indetermination": indetermination_criterion,
}


def criterion_by_name(name: str) -> LocalCriterion:
    try:
        factory = _CRITERIA[name]
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; expected one of {sorted(_CRITERIA)}"
        ) from None
    return factory()


@dataclass(frozen=True)
class LouvainConfig:
    """Search knobs.

    ``seed`` drives the node-order shuffles (and nothing else), so results
    are reproducible per seed. ``min_gain`` is the strict score improvement
    a move must exceed; ``max_passes`` caps each local-move phase at
    ``max_passes * m`` node visits, ``m`` nodes at that level (the work of
    that many full sweeps).
    ``node_order`` is ``"shuffled"`` or ``"fixed"`` (index order).
    ``restarts`` races that many independent shuffle streams and keeps the
    best result; with ``"fixed"`` order every restart would replay the same
    moves, so a single run is performed.
    """

    seed: int = 0
    max_passes: int = 100
    min_gain: float = 1e-12
    node_order: str = "shuffled"
    restarts: int = 8

    def __post_init__(self):
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")
        if self.node_order not in ("shuffled", "fixed"):
            raise ValueError("node_order must be 'shuffled' or 'fixed'")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class LouvainResult:
    partition: Partition
    score: float
    trace: tuple[float, ...]
    criterion: str

    def to_json_dict(self) -> dict:
        return {
            "labels": [int(x) for x in self.partition.labels],
            "k": self.partition.k,
            "score": self.score,
            "criterion": self.criterion,
            "trace": list(self.trace),
        }


def _check_graph(g: WeightedGraph, criterion: LocalCriterion) -> None:
    if g.n == 0:
        raise EmptyGraph("graph has no nodes")
    if criterion.needs_total_weight and g.total_weight_2m <= 0.0:
        raise EmptyGraph("graph has zero total weight")


def _stored_entries(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and weight of every stored entry, row by row in the order
    :meth:`WeightedGraph.neighbors` yields them (both triangles, diagonal
    included)."""
    w = g.weights
    return np.repeat(np.arange(g.n), np.diff(w.indptr)), w.indices, w.data


def _score_labels(
    g: WeightedGraph,
    criterion: LocalCriterion,
    labels: np.ndarray,
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """Partition score from per-class aggregates in O(nnz + n log n).

    By additivity each node contributes ``block(w_i, d_i, D_C, 1, S_C)``,
    its pairs with every member of its class C: ``w_i`` is the weight it
    stores to C (diagonal included), ``D_C`` and ``S_C`` are the degree mass
    and size of C. The terms are accumulated one by one in (class, node)
    order: restarts are raced on these rounded sums, and a fixed order keeps
    exact ties resolving the same way. Class ids need not be consecutive.
    """
    rows, cols, vals = entries
    labels = np.asarray(labels)
    n = g.n
    same = labels[rows] == labels[cols]
    w_own = np.bincount(rows[same], weights=vals[same], minlength=n)
    cls_deg = np.bincount(labels, weights=g.degrees)
    cls_size = np.bincount(labels).astype(float)
    order = np.argsort(labels, kind="stable")
    cls = labels[order]
    terms = criterion.block_evaluator(
        w_own[order], g.degrees[order], cls_deg[cls], 1.0, cls_size[cls], n, g.total_weight_2m
    )
    return float(np.cumsum(terms)[-1])


def global_score(
    g: WeightedGraph, criterion: LocalCriterion, partition: Partition
) -> float:
    """Sum of the criterion over all ordered within-class pairs."""
    _check_graph(g, criterion)
    if partition.n != g.n:
        raise DimensionMismatch(
            f"partition covers {partition.n} nodes, graph has {g.n}"
        )
    return _score_labels(g, criterion, partition.labels, _stored_entries(g))


class _SearchGraph:
    """The original graph as the search reads it.

    Built once per :func:`louvain` call and shared, never mutated, by every
    restart, refinement level and the fallback: the stored entries as flat
    arrays for scoring, and per-node adjacency dicts (self-loops split off)
    plus degree list for the move passes.
    """

    __slots__ = ("g", "entries", "adj", "self_w", "deg")

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.entries = _stored_entries(g)
        self.adj: list[dict[int, float]] = [{} for _ in range(g.n)]
        self.self_w = [0.0] * g.n
        for i, j, w in zip(*(a.tolist() for a in self.entries)):
            if i == j:
                self.self_w[i] = w
            else:
                self.adj[i][j] = w
        self.deg: list[float] = g.degrees.tolist()

    def score(self, criterion: LocalCriterion, labels) -> float:
        return _score_labels(self.g, criterion, labels, self.entries)


class _Level:
    """Mutable quotient-graph state for one aggregation level, as plain
    Python lists.

    Super-node attributes (degree mass, size) are sums over the original
    nodes they contain; ``n`` and ``two_m`` always refer to the original
    graph, since the criteria normalize by them. ``adj``, ``self_w``,
    ``deg`` and ``size`` are read-only; the passes update ``labels``,
    ``cls_deg`` and ``cls_size``.
    """

    __slots__ = ("adj", "self_w", "deg", "size", "labels", "cls_deg", "cls_size")

    def __init__(self, adj, self_w, deg, size):
        self.adj: list[dict[int, float]] = adj
        self.self_w: list[float] = self_w
        self.deg: list[float] = deg
        self.size: list[float] = size
        self.labels = list(range(len(adj)))
        self.cls_deg = list(deg)
        self.cls_size = list(size)

    @classmethod
    def from_graph(cls, sg: _SearchGraph) -> "_Level":
        return cls(sg.adj, sg.self_w, sg.deg, [1.0] * sg.g.n)

    @classmethod
    def from_partition(cls, sg: _SearchGraph, labels: np.ndarray) -> "_Level":
        """Original-resolution state with a given starting assignment."""
        level = cls.from_graph(sg)
        level.labels = np.asarray(labels, dtype=np.int64).tolist()
        level.cls_deg = [0.0] * sg.g.n
        level.cls_size = [0.0] * sg.g.n
        for i, c in enumerate(level.labels):
            level.cls_deg[c] += level.deg[i]
            level.cls_size[c] += level.size[i]
        return level

    def aggregate(self) -> tuple["_Level", np.ndarray]:
        """Collapse classes to super-nodes; returns the new level and the
        node -> super-node map."""
        old_to_new = Partition.from_labels(self.labels).labels
        new_of = old_to_new.tolist()
        k = max(new_of) + 1
        new_adj: list[dict[int, float]] = [{} for _ in range(k)]
        new_self = [0.0] * k
        new_deg = [0.0] * k
        new_size = [0.0] * k
        for i, row in enumerate(self.adj):
            a = new_of[i]
            new_deg[a] += self.deg[i]
            new_size[a] += self.size[i]
            new_self[a] += self.self_w[i]
            row_a = new_adj[a]
            for j, w in row.items():
                b = new_of[j]
                if b == a:
                    new_self[a] += w
                else:
                    row_a[b] = row_a.get(b, 0.0) + w
        return _Level(new_adj, new_self, new_deg, new_size), old_to_new


def _best_move(
    level: _Level,
    node: int,
    block: Callable[..., float],
    n: int,
    two_m: float,
    classes: list[int] | None = None,
) -> tuple[float, int]:
    """The move-gain kernel: the best class for ``node`` and the gain of
    moving it there.

    Moving the node (degree mass ``d``, size ``s``) from class ``a`` to
    class ``b`` gains ``2 * (block(w_b, d, D_b, s, S_b) - base)``, where
    ``base = block(w_a, d, D_a - d, s, S_a - s)`` is its stay term, ``w_c``
    its weight to class ``c`` and ``D_c``, ``S_c`` the class degree mass
    and size (``n`` and ``two_m`` are passed on to ``block``). The block is
    additive in ``(w, D, S)`` and 0 at the origin, so for a fixed node it
    is ``cw*w + cd*D + cs*S``: three block calls at unit arguments price
    every candidate with a few multiply-adds.

    Candidates are ``classes`` in the given order, then a fresh class if
    the node is not alone; the first best one wins. Without ``classes``
    the candidates are the node's neighbour classes in ascending order and
    staying put (gain 0, class ``a``) is the move to beat; with ``classes``
    the best move is returned whatever the sign of its gain, or
    ``(-inf, -1)`` if there is no candidate.
    """
    labels = level.labels
    cls_deg, cls_size = level.cls_deg, level.cls_size
    a = labels[node]
    d = level.deg[node]
    s = level.size[node]
    w_by_class: dict[int, float] = {}
    get = w_by_class.get
    for j, w in level.adj[node].items():
        c = labels[j]
        w_by_class[c] = get(c, 0.0) + w
    cw = block(1.0, d, 0.0, s, 0.0, n, two_m)
    cd = block(0.0, d, 1.0, s, 0.0, n, two_m)
    cs = block(0.0, d, 0.0, s, 1.0, n, two_m)
    base = cw * get(a, 0.0) + cd * (cls_deg[a] - d) + cs * (cls_size[a] - s)
    if classes is None:
        classes = sorted(w_by_class)
        best_gain, best_class = 0.0, a
    else:
        best_gain, best_class = -math.inf, -1
    for b in classes:
        if b == a:
            continue
        gain = 2.0 * (cw * get(b, 0.0) + cd * cls_deg[b] + cs * cls_size[b] - base)
        if gain > best_gain:
            best_gain, best_class = gain, b
    # A fresh class is a candidate unless the node is alone (moving it to a
    # new empty class would be a no-op); the O(k) search for an empty class
    # runs only when the fresh class wins.
    if cls_size[a] > s:
        gain = -2.0 * base
        if gain > best_gain and 0.0 in cls_size:
            best_gain, best_class = gain, cls_size.index(0.0)
    return best_gain, best_class


def _move(level: _Level, node: int, dst: int) -> int:
    """Reassign ``node`` to class ``dst``; returns its former class. An
    emptied class gets degree mass exactly 0, free of rounding residue."""
    src = level.labels[node]
    d = level.deg[node]
    s = level.size[node]
    level.labels[node] = dst
    level.cls_size[src] -= s
    level.cls_deg[src] = level.cls_deg[src] - d if level.cls_size[src] else 0.0
    level.cls_deg[dst] += d
    level.cls_size[dst] += s
    return src


def _run_passes(
    sg: _SearchGraph,
    criterion: LocalCriterion,
    level: _Level,
    node_map: np.ndarray,
    cfg: LouvainConfig,
    rng: np.random.Generator,
    trace: list[float],
) -> int:
    """One queue-driven local-move phase at one level (the fast local move
    of Traag, Waltman & van Eck, Sci. Rep. 9, 5233, 2019).

    Every node is queued once, in shuffled or index order. A visited node
    moves if its best gain exceeds ``cfg.min_gain``; a move queues the
    node's neighbours that are neither queued nor in its new class, whose
    class weights it changed. The phase ends when the queue is empty or
    after ``cfg.max_passes * m`` visits (``m`` nodes at this level). If
    anything moved, the trace gets the composed original-level score.
    Returns the number of moves.

    An empty queue does not prove stability, since a move also changes the
    class totals that non-neighbours price; a phase that moves nothing
    does, since it visited every node.
    """
    m = len(level.adj)
    g = sg.g
    block = criterion.block_evaluator
    labels = level.labels
    order = rng.permutation(m) if cfg.node_order == "shuffled" else np.arange(m)
    queue = deque(order.tolist())
    queued = [True] * m
    moves = 0
    for _ in range(cfg.max_passes * m):
        if not queue:
            break
        node = queue.popleft()
        queued[node] = False
        # staying put prices at 0 and min_gain >= 0, so a gain above it
        # is a move to another class
        gain, b = _best_move(level, node, block, g.n, g.total_weight_2m)
        if gain > cfg.min_gain:
            _move(level, node, b)
            moves += 1
            for j in level.adj[node]:
                if not queued[j] and labels[j] != b:
                    queued[j] = True
                    queue.append(j)
    if moves:
        trace.append(sg.score(criterion, np.asarray(labels)[node_map]))
    return moves


def _merge_classes(
    sg: _SearchGraph,
    criterion: LocalCriterion,
    labels: np.ndarray,
    min_gain: float,
) -> tuple[np.ndarray, int]:
    """Greedily merge whole classes while some pairwise merge gains.

    Operates on class aggregates only (cross weight, degree mass, size), so
    it can unite classes with no connecting edge; the single-node pass never
    proposes those. Returns canonical labels and the merge count.
    """
    part = Partition.from_labels(labels)
    k = part.k
    labels = part.labels.copy()
    if k == 1:
        return labels, 0
    g = sg.g
    n = g.n
    two_m = g.total_weight_2m
    block = criterion.block_evaluator

    cls_deg = np.bincount(labels, weights=g.degrees, minlength=k)
    cls_size = np.bincount(labels, minlength=k).astype(float)
    rows, cols, vals = sg.entries
    w = np.bincount(
        labels[rows] * k + labels[cols], weights=vals, minlength=k * k
    ).reshape(k, k)

    def pair_gains(row_w, deg_a, size_a):
        return 2.0 * block(row_w, deg_a, cls_deg, size_a, cls_size, n, two_m)

    gains = pair_gains(w, cls_deg[:, None], cls_size[:, None])
    mask = np.ones((k, k), dtype=bool)
    np.fill_diagonal(mask, False)

    merges = 0
    while True:
        masked = np.where(mask, gains, -np.inf)
        flat = int(np.argmax(masked))
        a, b = divmod(flat, k)
        if masked[a, b] <= min_gain:
            break
        # merge b into a
        labels[labels == b] = a
        w[a] += w[b]
        w[:, a] += w[:, b]
        cls_deg[a] += cls_deg[b]
        cls_size[a] += cls_size[b]
        mask[b, :] = False
        mask[:, b] = False
        gains[a] = pair_gains(w[a], cls_deg[a], cls_size[a])
        gains[:, a] = gains[a]  # both criteria are symmetric in the blocks
        merges += 1

    if merges:
        labels = Partition.from_labels(labels).labels.copy()
    return labels, merges


# Node count up to which the plateau-escape pass runs; its cost is
# O(n**2 * classes) per attempt, so it is reserved for small graphs, where
# single-move plateaus between the greedy result and the optimum are both
# most common and most visible.
_ESCAPE_CAP = 128


def _escape_pass(
    sg: _SearchGraph,
    criterion: LocalCriterion,
    labels: np.ndarray,
    min_gain: float,
) -> tuple[np.ndarray, bool]:
    """One sequence of forced best moves, keeping the best prefix.

    Plateaus where only a coordinated group of moves gains are invisible to
    the greedy pass. Here every step applies the best available single-node
    move even when its gain is negative, locks the node, and the overall
    best prefix of the sequence is kept (the classic Kernighan-Lin device).
    Deterministic: nodes and classes are scanned in index order. Returns
    canonical labels and whether the kept prefix improved the score.
    """
    level = _Level.from_partition(sg, Partition.from_labels(labels).labels)
    cls_size = level.cls_size
    n = sg.g.n
    two_m = sg.g.total_weight_2m
    block = criterion.block_evaluator
    locked = [False] * n
    applied: list[tuple[int, int, int]] = []
    cum = 0.0
    best_cum = 0.0
    best_len = 0

    for _ in range(n):
        best_gain = -math.inf
        best_node = -1
        best_class = -1
        nonempty = [c for c, size_c in enumerate(cls_size) if size_c > 0.0]
        for node in range(n):
            if locked[node]:
                continue
            gain, b = _best_move(level, node, block, n, two_m, nonempty)
            if gain > best_gain:
                best_gain = gain
                best_node = node
                best_class = b
        if best_node < 0:
            break
        a = _move(level, best_node, best_class)
        locked[best_node] = True
        applied.append((best_node, a, best_class))
        cum += best_gain
        if cum > best_cum + min_gain:
            best_cum = cum
            best_len = len(applied)

    for node, src, _dst in reversed(applied[best_len:]):
        _move(level, node, src)
    return Partition.from_labels(level.labels).labels.copy(), best_cum > min_gain


def _polish(
    sg: _SearchGraph,
    criterion: LocalCriterion,
    labels: np.ndarray,
    cfg: LouvainConfig,
    rng: np.random.Generator,
    trace: list[float],
) -> np.ndarray:
    """Alternate whole-class merges with single-node refinement at the
    original resolution (plus the escape pass on small graphs) until no
    phase gains: the last refinement phase visited every node and moved
    none, so the result is single-node locally optimal and merge-stable."""
    identity = np.arange(sg.g.n)
    while True:
        labels, merges = _merge_classes(sg, criterion, labels, cfg.min_gain)
        if merges:
            trace.append(sg.score(criterion, labels))
        refine = _Level.from_partition(sg, labels)
        moves = _run_passes(sg, criterion, refine, identity, cfg, rng, trace)
        labels = np.asarray(refine.labels)
        if merges == 0 and moves == 0:
            if sg.g.n <= _ESCAPE_CAP:
                labels, improved = _escape_pass(sg, criterion, labels, cfg.min_gain)
                if improved:
                    trace.append(sg.score(criterion, labels))
                    continue
            return labels


def _single_run(
    sg: _SearchGraph,
    criterion: LocalCriterion,
    cfg: LouvainConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """One full search: level loop, then :func:`_polish`."""
    level = _Level.from_graph(sg)
    node_map = np.arange(sg.g.n)
    trace = [sg.score(criterion, node_map)]

    while True:
        _run_passes(sg, criterion, level, node_map, cfg, rng, trace)
        next_level, old_to_new = level.aggregate()
        if len(next_level.adj) == len(level.adj):
            break
        node_map = old_to_new[node_map]
        level = next_level

    labels = Partition.from_labels(np.asarray(level.labels)[node_map]).labels.copy()
    return _polish(sg, criterion, labels, cfg, rng, trace), trace


def louvain(
    g: WeightedGraph,
    criterion: LocalCriterion,
    cfg: LouvainConfig | None = None,
) -> LouvainResult:
    """Greedy move-and-aggregate maximization of the partition score.

    Runs ``cfg.restarts`` independent searches (deterministic substreams of
    ``cfg.seed``) and keeps the first whose final score is within
    ``1e-12 * max(1, |best|)`` of the best, the tie rule of
    :func:`exhaustive_best_partition`. The returned partition is single-node
    locally optimal at the original resolution (no one-node move can raise
    the score by more than ``cfg.min_gain``), stable under whole-class
    pairwise merges, and scores at least as well as both trivial partitions
    (all singletons and all-in-one). The trace records the winning run's
    global score before any move and after every phase that changed
    something; it is non-decreasing.

    Raises
    ------
    EmptyGraph
        If the graph has no nodes, or has zero total weight under the
        independence criterion.
    """
    cfg = cfg if cfg is not None else LouvainConfig()
    _check_graph(g, criterion)
    sg = _SearchGraph(g)
    master = np.random.default_rng(cfg.seed)
    n_runs = cfg.restarts if cfg.node_order == "shuffled" else 1
    streams = master.spawn(n_runs) if n_runs > 1 else [master]

    runs = [_single_run(sg, criterion, cfg, stream) for stream in streams]
    top = max(run_trace[-1] for _, run_trace in runs)
    labels, trace = next(
        run for run in runs if run[1][-1] >= top - 1e-12 * max(1.0, abs(top))
    )
    score = trace[-1]

    # The single-class partition scores exactly 0; greedy descent from
    # singletons can stall below it, so fall back when it wins, polishing
    # it to the same guarantees.
    all_in_one = np.zeros(g.n, dtype=np.int64)
    score_one = sg.score(criterion, all_in_one)
    if score_one > score:
        trace.append(score_one)
        labels = _polish(sg, criterion, all_in_one, cfg, master, trace)
        score = trace[-1]

    part = Partition.from_labels(labels)
    return LouvainResult(
        partition=part, score=float(score), trace=tuple(trace), criterion=criterion.kind
    )


@lru_cache(maxsize=4)
def _restricted_growth_strings(n: int) -> np.ndarray:
    """All set partitions of n items as canonical label rows, first row the
    single-class partition."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        maxes = rows.max(axis=1)
        blocks = []
        for v in range(int(maxes.max()) + 2):
            take = rows[maxes + 1 >= v]
            ext = np.full((take.shape[0], 1), v, dtype=np.int8)
            blocks.append(np.hstack([take, ext]))
        rows = np.vstack(blocks)
        # blocks[0] extends every row with 0, so by induction the first row
        # stays the all-zero (single-class) partition.
    return rows


def exhaustive_best_partition(
    g: WeightedGraph, criterion: LocalCriterion
) -> tuple[Partition, float]:
    """Score every partition and return an optimum.

    Intended as the small-graph oracle: the partition count is the Bell
    number (115975 at n = 10), so graphs beyond 10 nodes are rejected with
    :class:`TooLarge`. Ties go to the earliest partition in restricted-
    growth order, whose first entry is the single-class partition; since
    that partition scores 0, the optimum is never negative. Scores within
    ``1e-12 * max(1, |best|)`` of the best count as tied: equal optima
    can differ in the last bits, since each partition sums its pairs in
    its own order.
    """
    _check_graph(g, criterion)
    if g.n > 10:
        raise TooLarge(f"exhaustive search capped at 10 nodes, got {g.n}")
    n = g.n
    d = g.degrees
    c = criterion.block_evaluator(
        g.weights.toarray(), d[:, None], d[None, :], 1.0, 1.0, n, g.total_weight_2m
    )
    rows = _restricted_growth_strings(n)
    scores = np.zeros(rows.shape[0])
    for i in range(n):
        for j in range(n):
            scores += c[i, j] * (rows[:, i] == rows[:, j])
    top = scores.max()
    best = int(np.flatnonzero(scores >= top - 1e-12 * max(1.0, abs(top)))[0])
    return Partition.from_labels(rows[best].astype(np.int64)), float(scores[best])
