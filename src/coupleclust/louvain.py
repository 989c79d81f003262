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
node, only the neighbours of moved nodes are visited again. Each level
computes its nodes' linear block coefficients once, so one visit costs a
pass over the node's CSR row and a few multiply-adds per neighbouring
class. A merge or refinement visit at which no neighbouring class gains
may also scan all k classes, O(k), unless an exact bound shows that no
class without an edge to the node can gain (under independence, always).
On a level of at least ``_SCREEN_MIN_ENTRIES`` stored entries a merge or
refinement phase first bounds every node's best gain in numpy, in
O(nnz log nnz + n log k), and skips in O(1) the visits whose bound, widened
by the moves made since and a rounding margin, proves that the node cannot
move: those visits would move nothing, so every result is unchanged.
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

    __slots__ = (
        "g", "criterion", "tol", "entries", "csr", "deg", "size", "coef", "lone_score", "settled"
    )

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
        self.coef = self.coefficients(self.deg, self.size)
        self.lone_score = self.score(np.arange(g.n))
        self.settled: dict[bytes, tuple[np.ndarray, bool]] = {}

    def score(self, labels) -> float:
        return _score_labels(self.g, self.criterion, labels, self.entries)

    def class_totals(self, labels: np.ndarray) -> tuple[list[float], list[float]]:
        """Degree mass and size of each class of canonical ``labels``."""
        deg = np.bincount(labels, weights=self.g.degrees)
        return deg.tolist(), np.bincount(labels).astype(float).tolist()

    def coefficients(self, deg: list[float], size: list[float]) -> tuple:
        """The coefficients ``(cw, cd, cs)`` of the nodes of degree masses
        ``deg`` and sizes ``size``: the block of a node with one class is
        ``cw*w + cd*D + cs*S`` (see :func:`_best_move`). Three lists, from
        one block call per node each; from ``_COEF_ARRAY_MIN`` nodes on,
        three memoryviews of read-only float64 arrays, as compact as the
        CSR, from one block call on arrays each, equal bit for bit."""
        block = self.criterion.block_evaluator
        n, two_m = self.g.n, self.g.total_weight_2m
        if len(deg) < _COEF_ARRAY_MIN:
            return tuple(
                [block(w, d, dd, s, ss, n, two_m) for d, s in zip(deg, size)]
                for w, dd, ss in _UNITS
            )
        deg, size = np.array(deg), np.array(size)
        coef = []
        for w, dd, ss in _UNITS:
            arr = np.array(np.broadcast_to(block(w, deg, dd, size, ss, n, two_m), deg.shape), float)
            arr.flags.writeable = False
            coef.append(memoryview(arr))
        return tuple(coef)


# The unit ``(w, D, S)`` arguments whose block values are ``cw, cd, cs``.
_UNITS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# Nodes from which a level's coefficients are computed on arrays: below it
# a block call per node is faster than numpy's fixed cost per call.
_COEF_ARRAY_MIN = 32


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
    nothing and yield Python ints and floats. ``cw``, ``cd`` and ``cs`` are
    each node's block coefficients (:meth:`_SearchGraph.coefficients`),
    computed once per level and read by every visit and by the gain screen.
    They, ``deg`` and ``size`` are read-only; the phases update
    ``labels`` and the per-class lists ``cls_deg`` and ``cls_size``, which
    grow by a slot when a node opens a fresh class.
    """

    __slots__ = (
        "indptr", "indices", "data", "deg", "size", "cw", "cd", "cs", "labels", "cls_deg", "cls_size"
    )

    def __init__(self, csr, deg, size, coef):
        self.indptr, self.indices, self.data = csr
        self.deg: list[float] = deg
        self.size: list[float] = size
        self.cw, self.cd, self.cs = coef
        self.labels = list(range(len(deg)))
        self.cls_deg = list(deg)
        self.cls_size = list(size)

    @classmethod
    def singletons(cls, sg: _SearchGraph) -> "_Level":
        """The original graph, every node alone in its class."""
        return cls(sg.csr, sg.deg, sg.size, sg.coef)

    @classmethod
    def from_partition(cls, sg: _SearchGraph, labels: np.ndarray) -> "_Level":
        """Original-resolution state starting from canonical ``labels``."""
        level = cls.singletons(sg)
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
        deg, size = sg.class_totals(labels)
        return cls(tuple(map(memoryview, csr)), deg, size, sg.coefficients(deg, size))


def _best_move(
    level: _Level,
    node: int,
    classes: list[int] | None = None,
    polish: tuple[int, float, float] | None = None,
) -> tuple[float, int]:
    """The move-gain kernel: the best class for ``node`` and the gain of
    moving it there.

    Moving the node (degree mass ``d``, size ``s``) from class ``a`` to
    class ``b`` gains ``2 * (block(w_b, d, D_b, s, S_b) - base)``, where
    ``base = block(w_a, d, D_a - d, s, S_a - s)`` is its stay term, ``w_c``
    its weight to class ``c`` and ``D_c``, ``S_c`` the class degree mass
    and size. The block is additive in ``(w, D, S)`` and 0 at the origin,
    so for a fixed node it is ``cw*w + cd*D + cs*S``, with the node's
    coefficients read from the level: every candidate prices with a few
    multiply-adds.

    Candidates are ``classes`` in the given order, then a fresh class if
    the node is not alone (the first empty slot, or a new one past the
    last); the first best one wins. Without ``classes`` the candidates are
    the node's neighbour classes, the smallest class id winning a tie
    among them, and staying put (gain 0, class ``a``) is the move to beat,
    which a tie does not displace; with ``classes`` the best move is
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
    A polish phase on a large level calls the kernel only for the nodes
    that its :class:`_Screen` cannot rule out this way in O(1).
    """
    labels = level.labels
    cls_deg, cls_size = level.cls_deg, level.cls_size
    a = labels[node]
    d = level.deg[node]
    s = level.size[node]
    cw, cd, cs = level.cw[node], level.cd[node], level.cs[node]
    w_by_class: dict[int, float] = {}
    get = w_by_class.get
    lo, hi = level.indptr[node], level.indptr[node + 1]
    for j, w in zip(level.indices[lo:hi], level.data[lo:hi]):
        c = labels[j]
        w_by_class[c] = get(c, 0.0) + w
    base = cw * get(a, 0.0) + cd * (cls_deg[a] - d) + cs * (cls_size[a] - s)
    if classes is None:
        # neighbour classes in first-seen order; a tie goes to the smaller
        # class id, as in an ascending scan, but never displaces staying put
        best_gain, best_class = 0.0, a
        for b, w in w_by_class.items():
            if b != a:
                gain = 2.0 * (cw * w + cd * cls_deg[b] + cs * cls_size[b] - base)
                if gain > best_gain or (gain == best_gain and a != best_class > b):
                    best_gain, best_class = gain, b
        classes = []
    else:
        best_gain, best_class = -math.inf, -1
    if polish is not None:
        last, s_max, tol = polish
        if last >= 0 and cls_size[last] > 0.0:
            classes = [*classes, last]
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


class _Screen:
    """An upper bound on every node's best polish gain at one level, so that
    a polish phase skips in O(1) the visits that cannot move a node: the
    incremental gain bound of Fiduccia & Mattheyses (DAC 1982) on the queue
    of :func:`_run_passes`.

    :meth:`build` prices every candidate of every node at once, in numpy,
    from the level's own lists. A node's weights to its neighbour classes
    are one ``bincount`` over its CSR row in row order, and its gains to
    them, to a fresh class and its stay term are the kernel's expressions
    in the kernel's order, so they equal :func:`_best_move`'s bit for bit.
    The fresh-class gain ``-2*base`` counts even for a node alone in its
    class, which a later move into that class would make a candidate. The
    classes a node has no edge to price at ``2*(cd*D_b + cs*S_b - base)``;
    for ``cd <= 0`` (both built-in criteria; a level with ``cd > 0`` gets
    no screen) their best is the least degree mass among the classes of
    each size, and over the sizes it is a query on the upper envelope of
    the lines ``t -> S*t - D`` at ``t = cs/|cd|``, O(log k) per node. Under
    independence ``cs = 0``, so that is the class of least degree mass.
    ``cap[i]`` is node i's best gain plus a rounding margin of
    ``_SCREEN_ULP * (|cw|*d + |cd|*2M + |cs|*n)``, some 500 units in the
    last place of the largest term any of its gains sums.

    A move of node v changes the weights of v and of its neighbours to two
    classes, and they are marked ``must`` visit. For every other node it
    changes only the degree mass and size of two classes, by v's ``d`` and
    ``s``; each candidate's gain and the stay term move by at most
    ``|cd|*d + |cs|*s``, so the node's best gain rises by at most
    ``4*(|cd|*d + |cs|*s)``, and a class that v opens prices within
    ``2*(|cd|*d + |cs|*s)`` of the fresh class. Each move also adds
    ``_SCREEN_ULP * 2M`` to the summed degree mass, more than the rounding
    of the two class totals it updates. :meth:`skips` is then exact: a node
    that is not marked and whose widened bound is at most ``tol`` has no
    move gaining more than ``tol``, so its visit would move nothing.

    ``cap`` and the widening rates ``wd = 4*|cd|`` and ``ws = 4*|cs|`` are
    memoryviews of read-only float64 arrays, as compact as the level's
    coefficients, whose items are the Python floats the checks compare.
    """

    __slots__ = ("cap", "wd", "ws", "tol", "slack", "must", "sum_d", "sum_s")

    def __init__(self, cap: np.ndarray, wd: np.ndarray, ws: np.ndarray, tol: float, slack: float):
        for arr in (cap, wd, ws):
            arr.flags.writeable = False
        self.cap, self.wd, self.ws = memoryview(cap), memoryview(wd), memoryview(ws)
        self.tol = tol
        self.slack = slack
        self.must = [False] * len(cap)
        self.sum_d = self.sum_s = 0.0

    @classmethod
    def build(cls, sg: _SearchGraph, level: _Level) -> "_Screen | None":
        cw, cd, cs = (np.asarray(c, dtype=float) for c in (level.cw, level.cd, level.cs))
        if (cd > 0.0).any():
            return None
        n, two_m = sg.g.n, sg.g.total_weight_2m
        labels = np.array(level.labels)
        cls_deg, cls_size = np.array(level.cls_deg), np.array(level.cls_size)
        deg, size = np.asarray(level.deg, dtype=float), np.asarray(level.size, dtype=float)
        m, k = labels.size, cls_size.size
        indptr = np.asarray(level.indptr)
        rows = np.repeat(np.arange(m), np.diff(indptr))
        # one bin per (node, neighbour class), summed in row order
        keys, pair = np.unique(rows * k + labels[np.asarray(level.indices)], return_inverse=True)
        w = np.bincount(pair, weights=np.asarray(level.data), minlength=keys.size)
        row, c = np.divmod(keys, k)
        own = c == labels[row]
        w_own = np.zeros(m)
        w_own[row[own]] = w[own]
        base = cw * w_own + cd * (cls_deg[labels] - deg) + cs * (cls_size[labels] - size)
        best = np.maximum(-2.0 * base, 2.0 * (_far_classes(cd, cs, cls_deg, cls_size) - base))
        row, c, w = row[~own], c[~own], w[~own]
        if row.size:
            gain = 2.0 * (cw[row] * w + cd[row] * cls_deg[c] + cs[row] * cls_size[c] - base[row])
            first = np.flatnonzero(np.diff(row, prepend=-1))
            best[row[first]] = np.maximum(best[row[first]], np.maximum.reduceat(gain, first))
        cd, cs = np.abs(cd), np.abs(cs)
        best += _SCREEN_ULP * (np.abs(cw) * deg + cd * two_m + cs * n)
        return cls(best, 4.0 * cd, 4.0 * cs, sg.tol, _SCREEN_ULP * two_m)

    def skips(self, node: int) -> bool:
        """Whether a visit of ``node`` provably moves nothing."""
        return (
            not self.must[node]
            and self.cap[node] + self.wd[node] * self.sum_d + self.ws[node] * self.sum_s <= self.tol
        )

    def moved(self, level: _Level, node: int) -> None:
        """Account for the move of ``node`` just made on ``level``."""
        must = self.must
        must[node] = True
        for j in level.indices[level.indptr[node] : level.indptr[node + 1]]:
            must[j] = True
        self.sum_d += level.deg[node] + self.slack
        self.sum_s += level.size[node]


def _far_classes(cd: np.ndarray, cs: np.ndarray, cls_deg: np.ndarray, cls_size: np.ndarray) -> np.ndarray:
    """Per node, ``max_b cd*D_b + cs*S_b`` over the nonempty classes ``b``,
    up to rounding, for coefficients ``cd <= 0``.

    Of the classes of one size, the one of least degree mass is the best.
    For ``cd < 0`` the value is ``|cd| * (t*S - D)`` with ``t = cs/|cd|``,
    so the best size is the line ``t -> S*t - D`` on top at ``t``: the
    upper envelope of those lines, slopes ascending, is built once and
    each node's line found by ``searchsorted`` on its breakpoints. The
    lines next to it are priced too, so a breakpoint rounded to the wrong
    side costs nothing. For ``cd = 0``, ``t = +-inf`` picks the largest or
    smallest size by the sign of ``cs``."""
    live = cls_size > 0.0
    sizes, degs = cls_size[live], cls_deg[live]
    order = np.lexsort((degs, sizes))
    sizes, degs = sizes[order], degs[order]
    first = np.flatnonzero(np.diff(sizes, prepend=-1.0))
    sizes, degs = sizes[first].tolist(), degs[first].tolist()
    hull: list[int] = []
    for j in range(len(sizes)):
        # line hull[-1] is never on top once line j crosses hull[-2] first
        while len(hull) >= 2 and (
            (degs[j] - degs[hull[-2]]) * (sizes[hull[-1]] - sizes[hull[-2]])
            <= (degs[hull[-1]] - degs[hull[-2]]) * (sizes[j] - sizes[hull[-2]])
        ):
            hull.pop()
        hull.append(j)
    top_s = np.array([sizes[j] for j in hull])
    top_d = np.array([degs[j] for j in hull])
    breaks = np.diff(top_d) / np.diff(top_s)
    t = np.where(cs > 0.0, math.inf, -math.inf)
    with np.errstate(over="ignore"):  # a ratio past the float range is an end line's
        np.divide(cs, -cd, out=t, where=cd < 0.0)
    at = np.searchsorted(breaks, t)
    last = top_s.size - 1
    return np.maximum.reduce(
        [cd * top_d[j] + cs * top_s[j] for j in (np.maximum(at - 1, 0), at, np.minimum(at + 1, last))]
    )


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

    On a level of at least ``_SCREEN_MIN_ENTRIES`` stored entries a polish
    phase first builds a :class:`_Screen`, O(nnz log nnz + m log k), and a
    dequeued node that it proves cannot gain more than ``tol`` is not
    priced. Such a visit would move nothing, so the queue, the visit count
    and every move are those of the unscreened phase.
    """
    m = len(level.deg)
    tol = sg.tol
    labels = level.labels
    cls_size = level.cls_size
    queue = deque(range(m) if rng is None else rng.permutation(m).tolist())
    queued = [True] * m
    moves = 0
    last = -1
    s_max = max(cls_size)
    screen = (
        _Screen.build(sg, level) if polish and len(level.indices) >= _SCREEN_MIN_ENTRIES else None
    )
    misses = 0
    for _ in range(_MAX_SWEEPS * m):
        if not queue:
            break
        node = queue.popleft()
        queued[node] = False
        if screen is not None:
            if screen.skips(node):
                continue
            if screen.sum_s:
                # rebuilt once its bounds, widened by the moves since it was
                # built, let m / 4 visits through; a build costs about m / 8
                misses += 1
                if misses > m >> 2:
                    screen, misses = _Screen.build(sg, level), 0
                    if screen.skips(node):
                        continue
        # staying put prices at 0 and tol >= 0, so a gain above it is a
        # move to another class
        scan = (last, s_max, tol) if polish else None
        gain, b = _best_move(level, node, polish=scan)
        if gain > tol:
            _move(level, node, b)
            moves += 1
            last = b
            s_max = max(s_max, cls_size[b])
            for j in level.indices[level.indptr[node] : level.indptr[node + 1]]:
                if not queued[j] and labels[j] != b:
                    queued[j] = True
                    queue.append(j)
            if screen is not None:
                screen.moved(level, node)
    if moves:
        trace.append(sg.score(np.asarray(labels)[node_map]))
    return moves


# Stored entries of a level from which its polish phases build a _Screen.
# A build costs some 30 numpy calls and a pass over the entries; on Gilbert
# graphs of up to about 2400 entries that was more than the visits it saved,
# and from about 2600 on the screened searches were faster (crossover table
# in CHANGES.md).
_SCREEN_MIN_ENTRIES = 2600

# Relative rounding margin of a _Screen bound: 2**-44 is 512 units in the
# last place.
_SCREEN_ULP = 2.0**-44

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
            gain, b = _best_move(level, node, nonempty)
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
    classes: _Level | None = None,
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

    ``classes``, if given, is the class graph of ``labels`` in the state
    :meth:`_Level.of_classes` builds, which the first merge phase then
    runs on.
    """
    identity = np.arange(sg.g.n)
    while True:
        key = labels.tobytes()
        settled = sg.settled.get(key)
        if settled is not None and not settled[1]:
            return settled[0]
        if classes is None:
            classes = _Level.of_classes(sg, labels)
        merges = _run_passes(sg, classes, labels, None, trace, True)
        refine = _Level.from_partition(sg, _canonical(np.asarray(classes.labels)[labels]))
        classes = None
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
    polish returns there at once.

    A last level phase that moved nothing leaves its level as
    :meth:`_Level.of_classes` builds it for the returned labels (the
    singleton level is the class graph of the identity labels), so the
    polish's first merge phase runs on it rather than on a rebuilt copy."""
    level = _Level.singletons(sg)
    node_map = np.arange(sg.g.n)
    trace = [sg.lone_score]

    while True:
        if not _run_passes(sg, level, node_map, rng, trace):
            return _polish(sg, node_map, rng, trace, level), trace
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
