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
class while the score gain exceeds a tolerance, classes collapse into
super-nodes, and the cycle repeats. Each run then alternates merges, which
are local moves on the class graph, with single-node refinement at the
original resolution until neither finds a gain. Both also price classes
with no edge to the node, because both criteria can reward uniting
classes that share no edge (low-degree nodes sit above the additive null,
for instance), a move the neighbor-restricted pass never proposes. Several
such runs with different shuffle streams are raced and the best kept, so
the returned partition is single-node locally optimal, pairwise-merge
stable, and never scores below either trivial partition (all singletons
or all-in-one; a final fallback enforces the latter). One search object
per call holds the graph, the criterion and the rounding tolerance derived
from both; every run, phase and the fallback read it. On graphs of at most
``_ESCAPE_CAP`` nodes the polish also runs a Kernighan-Lin-style escape
pass, O(n**2 * k) for k classes per distinct settled partition per race.
The search object records each partition at which the polish settled (no
merge and no single-node move gains) with its escape result, and a restart
that reaches a recorded partition whose escape pass does not improve stops
there, as every further phase would move nothing. On a graph with at least
``_FORK_MIN_ENTRIES`` stored entries and more than one usable CPU, the
runs go to forked worker processes, which inherit the search object; each
run stays sequential and the results are raced in stream order, so the
labels, score and trace are identical to those of the in-process loop.
:func:`exhaustive_best_partition` scores every partition, Bell-number
many, so it is capped at 10 nodes, and is the oracle the heuristic is
measured against. It extends the scores of the partitions of the first
t items to those of the first t + 1, over partition levels cached once
for every graph size.

Both criteria are additive in their block arguments, which lets move gains
and global scores be computed from per-class aggregates (internal weight,
degree mass, size) without touching individual pairs; the
``block_evaluator`` field of :class:`LocalCriterion` is that aggregate
form. Scoring a partition is a few vectorized passes over the nnz stored
weights and the n nodes, O(nnz + n log n) with no per-class Python loop;
building a level, the class graph of a partition, is one sort of the nnz
class-pair codes into CSR arrays, the graph's own format, 16 bytes per
stored entry. Local moving is queue-driven: after the first visit of every
node, only the neighbours of moved nodes are visited again. One visit
costs a pass over the node's CSR row, three block calls that give the
node's linear coefficients, and a few multiply-adds per neighbouring
class. A merge or refinement visit at which no neighbouring class gains
may also scan all k classes, O(k), unless an exact bound shows that no
class without an edge to the node can gain (under independence, always).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ._mc import _substreams, thread_cap
from ._record import Record
from .errors import (
    DimensionMismatch, EmptyGraph, NonFiniteEntry, TooLarge, _as_count, _as_integers
)
from .graph import WeightedGraph, _require_edges, indetermination_block, independence_block

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
class Partition(Record):
    """Node partition in canonical labeling.

    ``labels[i]`` is the class of node ``i``; class ids are consecutive
    integers numbered by order of first appearance, so two equal partitions
    always carry identical labels.
    """

    labels: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        _as_integers(self.labels, "class labels")
        labels = self._own("labels", np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise DimensionMismatch("labels must be a nonempty 1-d array")
        k = int(labels.max()) + 1
        # canonical labels lie in [0, n), the domain of _canonical
        if labels.min() < 0 or k > labels.size or not np.array_equal(_canonical(labels), labels):
            raise ValueError(
                "labels are not canonical: use Partition.from_labels to relabel"
            )
        object.__setattr__(self, "k", k)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Canonicalize arbitrary integer labels."""
        arr = _as_integers(labels, "class labels")
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("labels must be a nonempty 1-d array")
        # compressed to [0, k) first, the domain of _canonical
        return cls(labels=_canonical(np.unique(arr, return_inverse=True)[1]))

    @property
    def n(self) -> int:
        return self.labels.size

    def members(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]


@dataclass(frozen=True)
class LocalCriterion:
    """A local pair criterion, defined by its class-aggregate form.

    ``block_evaluator(w_sum, deg_i, deg_j, size_i, size_j, n, two_m)``
    returns ``sum_{i in I, j in J} m(i, j)`` for node blocks I, J from
    aggregate data only (``w_sum`` the total I-J weight, ``deg_*`` the
    degree masses, ``size_*`` the node counts); it must be additive in the
    J-side arguments, which both built-in criteria are, and work
    elementwise on arrays. The pair value is the block formula on two
    singletons (:func:`~coupleclust.graph.local_independence_criterion`
    and :func:`~coupleclust.graph.local_indetermination_criterion`).
    ``needs_total_weight`` marks criteria whose formulas divide by 2M and
    its square, so an edgeless graph, or one whose (2M)**2 underflows, is
    rejected up front.
    """

    kind: str
    block_evaluator: Callable[..., float]
    needs_total_weight: bool = False


def independence_criterion() -> LocalCriterion:
    """The criterion subtracting the independence null (degree product)."""
    return LocalCriterion(
        kind="independence",
        block_evaluator=independence_block,
        needs_total_weight=True,
    )


def indetermination_criterion() -> LocalCriterion:
    """The criterion subtracting the indetermination null (degree sum)."""
    return LocalCriterion(
        kind="indetermination",
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
    """Search settings.

    ``seed`` drives the node-order shuffles (and nothing else), so results
    are reproducible per seed. ``restarts`` races that many independent
    shuffle streams and keeps the best result.
    """

    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        _as_count(self.seed, "seed", minimum=0)
        _as_count(self.restarts, "restarts")


@dataclass(frozen=True)
class LouvainResult(Record):
    partition: Partition
    score: float
    trace: tuple[float, ...]
    criterion: str

    def to_json_dict(self) -> dict:
        return {
            **self.partition.to_json_dict(),
            "score": self.score,
            "criterion": self.criterion,
            "trace": list(self.trace),
        }


def _check_graph(g: WeightedGraph, criterion: LocalCriterion) -> float:
    """Reject a graph the criterion cannot score; return ``tol``, the
    search's rounding tolerance on it. Gains and scores scale with the
    weights as ``tol`` does, so the search does not depend on their unit;
    an edgeless graph under indetermination gets 0, and every gain is 0.

    Every block the search evaluates has ``w_sum`` and degree masses at most
    2M and sizes at most n, so if the block with all of them at their bound
    is finite (in Python floats, which warn of nothing), no intermediate
    product overflows; otherwise the graph is rejected, as it is under a
    criterion that divides by (2M)**2 if that square underflows (see
    :func:`~coupleclust.graph._require_edges`). A criterion that is
    not a :class:`LocalCriterion` (a name, say) raises :class:`ValueError`."""
    if not isinstance(criterion, LocalCriterion):
        raise ValueError(
            f"criterion must be a LocalCriterion, got {criterion!r}; "
            "use criterion_by_name() to look one up by name"
        )
    if g.n == 0:
        raise EmptyGraph("graph has no nodes")
    two_m = g.total_weight_2m
    if criterion.needs_total_weight:
        _require_edges(g)
    if not math.isfinite(criterion.block_evaluator(two_m, two_m, two_m, g.n, g.n, g.n, two_m)):
        raise NonFiniteEntry(
            f"the {criterion.kind} criterion overflows on this graph: the weights are too large"
        )
    return 1e-12 * abs(criterion.block_evaluator(two_m, 0.0, 0.0, 0.0, 0.0, g.n, two_m))


def _stored_entries(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and weight of every stored entry, row by row in the order
    :meth:`WeightedGraph.neighbors` yields them (both triangles, diagonal
    included)."""
    return np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices, g.data


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
    """One :func:`louvain` call's graph under one criterion, as the search
    reads it.

    Built once per call and shared by every restart, level and the
    fallback: the criterion, the rounding tolerance ``tol`` that
    :func:`_check_graph` derives here (so a graph the criterion cannot
    score raises here), the stored entries as flat arrays for scoring, the
    singleton level's CSR (``csr``) and lists for the move phases, and the
    singletons' score, where every run's trace starts. None of these is
    ever mutated; the one exception is ``settled``, which fills as the
    restarts run (each forked worker fills its own copy). Its keys are the
    canonical labels of the partitions at which a :func:`_polish`
    iteration's merge and refinement phases both moved nothing; each value
    is the :func:`_escape_pass` result from there, ``(labels, improved)``,
    or ``(labels, False)`` on a graph above ``_ESCAPE_CAP`` nodes, where no
    escape pass runs.
    """

    __slots__ = ("g", "criterion", "tol", "entries", "csr", "deg", "size", "lone_score", "settled")

    def __init__(self, g: WeightedGraph, criterion: LocalCriterion):
        self.tol = _check_graph(g, criterion)
        self.g = g
        self.criterion = criterion
        self.entries = _stored_entries(g)
        # the singleton level is the graph's CSR without its diagonal; the
        # graph's own read-only arrays when it has no self-loop
        rows, cols, vals = self.entries
        csr = g.indptr, g.indices, g.data
        off = rows != cols
        if not off.all():
            csr = np.searchsorted(rows[off], np.arange(g.n + 1)), cols[off], vals[off]
            for arr in csr:
                arr.flags.writeable = False
        self.csr = tuple(map(memoryview, csr))
        self.deg, self.size = self.class_totals(np.arange(g.n))
        self.lone_score = self.score(np.arange(g.n))
        self.settled: dict[bytes, tuple[np.ndarray, bool]] = {}

    def score(self, labels) -> float:
        return _score_labels(self.g, self.criterion, labels, self.entries)

    def class_totals(self, labels: np.ndarray) -> tuple[list[float], list[float]]:
        """Degree mass and size of each class of canonical ``labels``."""
        deg = np.bincount(labels, weights=self.g.degrees)
        return deg.tolist(), np.bincount(labels).astype(float).tolist()


def _canonical(labels) -> np.ndarray:
    """Relabel classes 0, 1, 2, ... by first appearance, as int64.

    ``labels`` (an integer array or list) must lie in [0, n) for n labels,
    as every label the search makes does: a lookup table indexed by label
    maps each class to its rank of first appearance, with no sort."""
    labels = np.asarray(labels)
    first = list(dict.fromkeys(labels.tolist()))
    lookup = np.empty(labels.size, dtype=np.int64)
    lookup[first] = np.arange(len(first))
    return lookup[labels]


class _Level:
    """Mutable state of one move phase.

    Super-node attributes (degree mass, size) are sums over the original
    nodes they contain; ``n`` and ``two_m`` always refer to the original
    graph, since the criteria normalize by them. ``indptr``, ``indices``
    and ``data`` hold the super-node graph as CSR, rows ascending, between
    distinct super-nodes only (a super-node carries its inner pairs wherever
    it moves): memoryviews of read-only arrays, whose row slices copy
    nothing and yield Python ints and floats. They, ``deg`` and ``size`` are
    read-only; the phases update ``labels`` and the per-class lists
    ``cls_deg`` and ``cls_size``, which grow by a slot when a node opens a
    fresh class.
    """

    __slots__ = ("indptr", "indices", "data", "deg", "size", "labels", "cls_deg", "cls_size")

    def __init__(self, csr, deg, size):
        self.indptr, self.indices, self.data = csr
        self.deg: list[float] = deg
        self.size: list[float] = size
        self.labels = list(range(len(deg)))
        self.cls_deg = list(deg)
        self.cls_size = list(size)

    @classmethod
    def from_partition(cls, sg: _SearchGraph, labels: np.ndarray) -> "_Level":
        """Original-resolution state starting from canonical ``labels``."""
        level = cls(sg.csr, sg.deg, sg.size)
        level.labels = labels.tolist()
        level.cls_deg, level.cls_size = sg.class_totals(labels)
        return level

    @classmethod
    def of_classes(cls, sg: _SearchGraph, labels: np.ndarray) -> "_Level":
        """The class graph of canonical ``labels``, every class a lone
        super-node: the weight between two classes is the sum of the stored
        entries between them, in O(nnz log nnz). For the identity labels
        that is the graph's own CSR without its diagonal."""
        k = int(labels.max()) + 1
        rows, cols, vals = sg.entries
        a, b = labels[rows], labels[cols]
        off = a != b
        codes, pair = np.unique(a[off] * k + b[off], return_inverse=True)
        w = np.bincount(pair, weights=vals[off], minlength=codes.size)
        csr = np.searchsorted(codes, np.arange(k + 1) * k), codes % k, w
        for arr in csr:
            arr.flags.writeable = False
        return cls(tuple(map(memoryview, csr)), *sg.class_totals(labels))


def _best_move(
    level: _Level,
    node: int,
    block: Callable[..., float],
    n: int,
    two_m: float,
    classes: list[int] | None = None,
    polish: tuple[int, float, float] | None = None,
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
    the node is not alone (the first empty slot, or a new one past the
    last); the first best one wins. Without ``classes`` the candidates are
    the node's neighbour classes in ascending order and staying put (gain
    0, class ``a``) is the move to beat; with ``classes`` the best move is
    returned whatever the sign of its gain, or ``(-inf, -1)`` if there is
    no candidate.

    ``polish = (last, s_max, tol)`` adds classes the node has no edge to,
    which price at ``2 * (cd*D_b + cs*S_b - base)``: ``last`` (the class
    the phase last moved a node into, or -1) after the neighbour classes,
    then, if no candidate gains more than ``tol``, every nonempty class in
    index order, an O(k) scan of the k class slots. The scan is skipped
    when ``cd <= 0`` and ``2 * (cs*s_max - base) <= tol`` (``s_max`` bounds
    every class size), since then no such class gains more than ``tol``.
    So a returned gain of at most ``tol`` proves that no class gains more.
    """
    labels = level.labels
    cls_deg, cls_size = level.cls_deg, level.cls_size
    a = labels[node]
    d = level.deg[node]
    s = level.size[node]
    w_by_class: dict[int, float] = {}
    get = w_by_class.get
    lo, hi = level.indptr[node], level.indptr[node + 1]
    for j, w in zip(level.indices[lo:hi], level.data[lo:hi]):
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
    if polish is not None:
        last, s_max, tol = polish
        if last >= 0 and cls_size[last] > 0.0:
            classes.append(last)
    for b in classes:
        if b == a:
            continue
        gain = 2.0 * (cw * get(b, 0.0) + cd * cls_deg[b] + cs * cls_size[b] - base)
        if gain > best_gain:
            best_gain, best_class = gain, b
    # A fresh class is a candidate unless the node is alone (moving it to a
    # new empty class would be a no-op); the O(k) search for an empty slot
    # runs only when the fresh class wins.
    if cls_size[a] > s:
        gain = -2.0 * base
        if gain > best_gain:
            best_gain = gain
            best_class = cls_size.index(0.0) if 0.0 in cls_size else len(cls_size)
    if (
        polish is not None
        and best_gain <= tol
        and (cd > 0.0 or (cs > 0.0 and 2.0 * (cs * s_max - base) > tol))
    ):
        for b, size_b in enumerate(cls_size):
            if size_b > 0.0 and b != a:
                gain = 2.0 * (cw * get(b, 0.0) + cd * cls_deg[b] + cs * size_b - base)
                if gain > best_gain:
                    best_gain, best_class = gain, b
    return best_gain, best_class


def _move(level: _Level, node: int, dst: int) -> int:
    """Reassign ``node`` to class ``dst``, opening a slot if ``dst`` is
    one past the last; returns its former class. An emptied class gets
    degree mass exactly 0, free of rounding residue."""
    src = level.labels[node]
    d = level.deg[node]
    s = level.size[node]
    if dst == len(level.cls_size):
        level.cls_deg.append(0.0)
        level.cls_size.append(0.0)
    level.labels[node] = dst
    level.cls_size[src] -= s
    level.cls_deg[src] = level.cls_deg[src] - d if level.cls_size[src] else 0.0
    level.cls_deg[dst] += d
    level.cls_size[dst] += s
    return src


def _run_passes(
    sg: _SearchGraph,
    level: _Level,
    node_map: np.ndarray,
    rng: np.random.Generator | None,
    trace: list[float],
    polish: bool = False,
) -> int:
    """One queue-driven local-move phase at one level (the fast local move
    of Traag, Waltman & van Eck, Sci. Rep. 9, 5233, 2019).

    Every node is queued once, in shuffled order (index order if ``rng`` is
    None). A visited node moves if its best gain exceeds ``sg.tol``; a move
    queues the node's neighbours that are neither queued nor in its new
    class, whose class weights it changed. The phase ends when the queue is
    empty or after ``_MAX_SWEEPS * m`` visits (``m`` nodes at this level),
    the cap that guarantees termination. If anything moved, the trace gets
    the composed original-level score. Returns the number of moves.

    A ``polish`` phase also prices the classes a node has no edge to (see
    :func:`_best_move`): on the class graph its moves are merges, and at
    the original resolution they are the moves no neighbour proposes; a
    visit may then scan all k class slots, O(k). An empty queue does not
    prove stability, since a move also changes the class totals that
    non-neighbours price; a polish phase that moves nothing does, since it
    visited every node and priced every class.
    """
    m = len(level.deg)
    g = sg.g
    block = sg.criterion.block_evaluator
    tol = sg.tol
    labels = level.labels
    cls_size = level.cls_size
    queue = deque(range(m) if rng is None else rng.permutation(m).tolist())
    queued = [True] * m
    moves = 0
    last = -1
    s_max = max(cls_size)
    for _ in range(_MAX_SWEEPS * m):
        if not queue:
            break
        node = queue.popleft()
        queued[node] = False
        # staying put prices at 0 and tol >= 0, so a gain above it is a
        # move to another class
        scan = (last, s_max, tol) if polish else None
        gain, b = _best_move(level, node, block, g.n, g.total_weight_2m, polish=scan)
        if gain > tol:
            _move(level, node, b)
            moves += 1
            last = b
            s_max = max(s_max, cls_size[b])
            for j in level.indices[level.indptr[node] : level.indptr[node + 1]]:
                if not queued[j] and labels[j] != b:
                    queued[j] = True
                    queue.append(j)
    if moves:
        trace.append(sg.score(np.asarray(labels)[node_map]))
    return moves


# Node visits a local-move phase may make, in sweeps of its level: the cap
# that guarantees termination.
_MAX_SWEEPS = 100

# Node count up to which the plateau-escape pass runs; its cost is
# O(n**2 * k) for k classes per distinct starting partition per race, so it
# is reserved for small graphs, where single-move plateaus between the
# greedy result and the optimum are both most common and most visible.
_ESCAPE_CAP = 128


def _escape_pass(sg: _SearchGraph, start: np.ndarray) -> tuple[np.ndarray, bool]:
    """One sequence of forced best moves, keeping the best prefix.

    Plateaus where only a coordinated group of moves gains are invisible to
    the greedy pass. Here every step applies the best available single-node
    move even when its gain is negative, locks the node, and the overall
    best prefix of the sequence is kept (the classic Kernighan-Lin device).
    Deterministic: nodes and classes are scanned in index order. Returns
    canonical labels, read-only, and whether the kept prefix improved the
    score.

    A pass costs O(n**2 * k) for k classes. ``sg`` fixes the criterion and
    ``tol``, so the result is a function of the canonical ``start`` labels
    alone: :func:`_polish` keeps it in ``sg.settled`` under them, and runs
    the pass once per distinct settled partition per race.
    """
    level = _Level.from_partition(sg, start)
    cls_size = level.cls_size
    n = sg.g.n
    two_m = sg.g.total_weight_2m
    block = sg.criterion.block_evaluator
    tol = sg.tol
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
        if cum > best_cum + tol:
            best_cum = cum
            best_len = len(applied)

    for node, src, _dst in reversed(applied[best_len:]):
        _move(level, node, src)
    result = _canonical(level.labels)
    result.flags.writeable = False
    return result, best_cum > tol


def _polish(
    sg: _SearchGraph,
    labels: np.ndarray,
    rng: np.random.Generator,
    trace: list[float],
) -> np.ndarray:
    """Alternate a merge phase with single-node refinement at the original
    resolution (plus the escape pass on small graphs) until neither gains,
    starting from canonical ``labels``; returns canonical labels.

    The merge phase runs on the class graph, every class a lone super-node
    visited in index order (no draw from ``rng``), so its moves are merges,
    adjacent or not. Both are polish phases: a visit may scan all k
    classes, O(k), and when neither phase moves anything, no whole-class
    merge and no single-node move gains more than ``sg.tol``.

    Such a settled partition goes into ``sg.settled`` with its escape
    result, and an iteration that starts at a settled partition whose
    escape pass does not improve returns it at once, as the phases would
    move nothing again: the merge phase is deterministic, and a refinement
    phase that moves nothing prices every node at one state, so it moves
    nothing in any visiting order. The permutation it would draw from
    ``rng`` goes unread, as no caller draws from ``rng`` after the polish.
    From a settled partition whose escape
    pass improves, the phases run, since later shuffles read their draws.
    """
    identity = np.arange(sg.g.n)
    while True:
        key = labels.tobytes()
        settled = sg.settled.get(key)
        if settled is not None and not settled[1]:
            return settled[0]
        classes = _Level.of_classes(sg, labels)
        merges = _run_passes(sg, classes, labels, None, trace, True)
        refine = _Level.from_partition(sg, _canonical(np.asarray(classes.labels)[labels]))
        moves = _run_passes(sg, refine, identity, rng, trace, True)
        if merges or moves:
            labels = _canonical(refine.labels)
            continue
        if settled is None:
            settled = _escape_pass(sg, labels) if sg.g.n <= _ESCAPE_CAP else (labels, False)
            sg.settled[key] = settled
        labels, improved = settled
        if not improved:
            return labels
        trace.append(sg.score(labels))


def _single_run(sg: _SearchGraph, rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """One full search: level loop, then :func:`_polish`. Each level is the
    class graph of the last, built from the original entries. The loop also
    ends at a partition of ``sg.settled`` whose escape pass does not
    improve: the next level's phase prices a subset of the candidates that
    the merge phase found no gain in, so it would move nothing, and the
    polish returns there at once."""
    level = _Level(sg.csr, sg.deg, sg.size)
    node_map = np.arange(sg.g.n)
    trace = [sg.lone_score]

    while True:
        _run_passes(sg, level, node_map, rng, trace)
        labels = _canonical(np.asarray(level.labels)[node_map])
        settled = sg.settled.get(labels.tobytes())
        if labels.max() + 1 == len(level.deg) or (settled is not None and not settled[1]):
            break
        node_map = labels
        level = _Level.of_classes(sg, node_map)
    return _polish(sg, labels, rng, trace), trace


# Stored entries from which the restarts of a race run on forked workers.
# A process pool costs about 16 ms per call; below about 1000 entries that
# is more than it saves, and from 1300 on the forked race was faster on
# every graph measured (crossover table in CHANGES.md).
_FORK_MIN_ENTRIES = 2048

# What the forked workers of a race read: ``(sg, streams)``, set just
# before the fork so that nothing but stream indices and results is
# pickled, and cleared after it. Only a process with a single thread
# forks, so no other caller can see it set.
_race_state: tuple | None = None


def _forked_run(i: int) -> tuple[np.ndarray, list[float]]:
    sg, streams = _race_state
    return _single_run(sg, streams[i])


def _can_fork(sg: _SearchGraph, workers: int) -> bool:
    """Whether a race on ``workers`` forked processes pays and is safe:
    two or more workers, a graph big enough to repay the pool, the ``fork``
    start method, and no other live thread (forking a process with threads
    can deadlock the child)."""
    if workers < 2 or sg.entries[2].size < _FORK_MIN_ENTRIES or threading.active_count() > 1:
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _race(
    sg: _SearchGraph, streams: list[np.random.Generator]
) -> list[tuple[np.ndarray, list[float]]]:
    """One :func:`_single_run` per stream, returned in stream order.

    The runs go to ``min(len(streams), thread_cap())`` forked worker
    processes when :func:`_can_fork` allows, else they run here one after
    another. Forked, not spawned: a worker inherits ``sg``, the graph with
    its criterion and ``tol``, through ``_race_state`` instead of importing
    the package and unpickling it. A run is the same deterministic
    computation either way, so the results are identical
    (each worker fills its own copy of ``sg.settled``, whose entries
    change no result). The streams are not advanced here when the runs
    are forked, so a caller must not draw from them afterwards; with one
    stream the race never forks. Every worker is joined before this
    returns; one that dies without a Python exception (most likely killed
    for lack of memory) is reported as :class:`MemoryError`.
    """
    workers = min(len(streams), thread_cap())
    if not _can_fork(sg, workers):
        return [_single_run(sg, stream) for stream in streams]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _race_state
    _race_state = (sg, streams)
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            return list(pool.map(_forked_run, range(len(streams))))
    except BrokenProcessPool as exc:
        raise MemoryError(
            "a restart worker process died without an exception (out of memory?)"
        ) from exc
    finally:
        _race_state = None


def louvain(
    g: WeightedGraph,
    criterion: LocalCriterion,
    cfg: LouvainConfig | None = None,
) -> LouvainResult:
    """Greedy move-and-aggregate maximization of the partition score.

    Every rounding decision compares with one tolerance
    ``tol = 1e-12 * |block(2M, 0, 0, 0, 0, n, 2M)|``, the criterion's value
    of all the weight with no null subtracted (1e-12 under independence,
    1e-12 * 2M under indetermination), so the labels do not depend on the
    weight unit; it is derived once per call, as the search object is
    built, by the checks that raise below. Runs ``cfg.restarts``
    independent searches (deterministic substreams of ``cfg.seed``) and
    keeps the first whose final score is within ``tol`` of the best, the tie
    rule of :func:`exhaustive_best_partition`. The returned partition is
    single-node locally optimal at the original resolution (no one-node
    move can raise the score by more than ``tol``), stable under
    whole-class pairwise merges (none gains more than ``tol``), and scores
    at least as well as both trivial partitions (all singletons and
    all-in-one). The trace records the winning run's global score before
    any move and after every phase that changed something; it is
    non-decreasing.

    With two or more restarts, a graph of at least ``_FORK_MIN_ENTRIES``
    stored entries, more than one usable CPU, the ``fork`` start method and
    no other live thread, the restarts run on forked worker processes, one
    per usable CPU up to the restart count, all joined before this returns.
    The labels, score and trace are identical to those of the in-process
    loop, which runs otherwise.

    Raises
    ------
    EmptyGraph
        If the graph has no nodes, or has zero total weight under the
        independence criterion.
    NonFiniteEntry
        If the weights are so large that the criterion overflows, or, under
        the independence criterion, so small that (2M)**2 underflows.
    MemoryError
        If a restart worker process dies without a Python exception, most
        likely killed for lack of memory.
    """
    cfg = cfg if cfg is not None else LouvainConfig()
    sg = _SearchGraph(g, criterion)
    master = np.random.default_rng(cfg.seed)
    streams = _substreams(master, cfg.restarts)

    runs = _race(sg, streams)
    top = max(run_trace[-1] for _, run_trace in runs)
    labels, trace = next(run for run in runs if run[1][-1] >= top - sg.tol)
    score = trace[-1]

    # The single-class partition scores exactly 0. It exceeds the winner's
    # score by the sum of the k(k-1)/2 pairwise merge gains of the winner's
    # k classes, each at most tol after the polish, so the winner can sit
    # below 0 only by rounding, at most k(k-1)/2 * tol. The test is strict,
    # not within tol: it enforces the exact floor of 0, and the fallback is
    # polished to the same guarantees.
    all_in_one = np.zeros(g.n, dtype=np.int64)
    score_one = sg.score(all_in_one)
    if score_one > score:
        trace.append(score_one)
        labels = _polish(sg, all_in_one, master, trace)
        score = trace[-1]

    part = Partition.from_labels(labels)
    return LouvainResult(
        partition=part, score=float(score), trace=tuple(trace), criterion=criterion.kind
    )


@lru_cache(maxsize=None)
def _partition_level(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Level ``t``: every set partition of items 0..t as a canonical int8
    label row, and the int32 index of each row's parent in level ``t - 1``
    (the row with its last item dropped; 0 for level 0's single row). The
    rows are stored column by column, since the scorer compares whole
    columns.

    Level ``t``'s rows are level ``t - 1``'s extended by one class value
    ``v``, taken in blocks of increasing ``v`` and parent order within a
    block, which is restricted-growth order. A level does not depend on the
    number of items being partitioned, so every graph size shares the
    cache, which holds at most the 10 levels the oracle allows."""
    if t == 0:
        rows, parent = np.zeros((1, 1), dtype=np.int8), np.zeros(1, dtype=np.int32)
    else:
        prev, _ = _partition_level(t - 1)
        maxes = prev.max(axis=1)
        blocks = [np.flatnonzero(maxes + 1 >= v) for v in range(int(maxes.max()) + 2)]
        parent = np.concatenate(blocks).astype(np.int32)
        rows = np.empty((parent.size, t + 1), dtype=np.int8, order="F")
        rows[:, :t] = prev[parent]
        rows[:, t] = np.repeat(np.arange(len(blocks), dtype=np.int8), [b.size for b in blocks])
        # blocks[0] extends every row with 0, so by induction the first row
        # stays the all-zero (single-class) partition.
    rows.flags.writeable = False
    parent.flags.writeable = False
    return rows, parent


def exhaustive_best_partition(
    g: WeightedGraph, criterion: LocalCriterion
) -> tuple[Partition, float]:
    """Score every partition and return an optimum.

    Intended as the small-graph oracle: the partition count is the Bell
    number (115975 at n = 10), so graphs beyond 10 nodes are rejected with
    :class:`TooLarge`. Ties go to the earliest partition in restricted-
    growth order, whose first entry is the single-class partition; since
    that partition scores 0, the optimum is never negative. Scores within
    ``tol`` of the best (as in :func:`louvain`) count as tied: equal optima
    can differ in the last bits, since each partition sums its pairs in
    its own order.

    The scores are built item by item over the cached partition levels: a
    partition of items 0..t scores as its parent on items 0..t-1, plus
    ``m(t, t)``, plus ``2 m(i, t)`` for each ``i < t`` in its class, added
    in increasing ``i``. That is one pass over a level per item pair, with
    no temporary larger than one level's scores.
    """
    tol = _check_graph(g, criterion)
    if g.n > 10:
        raise TooLarge(f"exhaustive search capped at 10 nodes, got {g.n}")
    n = g.n
    d = g.degrees
    stored_rows, stored_cols, stored = _stored_entries(g)
    a = np.zeros((n, n))
    a[stored_rows, stored_cols] = stored
    c = criterion.block_evaluator(a, d[:, None], d[None, :], 1.0, 1.0, n, g.total_weight_2m)
    scores = np.full(1, c[0, 0])
    for t in range(1, n):
        rows, parent = _partition_level(t)
        scores = scores[parent] + c[t, t]
        for i in range(t):
            np.add(scores, 2.0 * c[i, t], out=scores, where=rows[:, i] == rows[:, t])
    # Row 0, the single class, sums every pair: exactly 0 by the zero-sum
    # identity, where the float sum leaves rounding noise of either sign.
    scores[0] = 0.0
    rows = _partition_level(n - 1)[0]
    top = scores.max()
    best = int(np.flatnonzero(scores >= top - tol)[0])
    return Partition.from_labels(rows[best].astype(np.int64)), float(scores[best])
