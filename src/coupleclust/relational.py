"""Pairwise-agreement view of partitions and its coupling expectations.

A partition of n items is encoded as the n x n 0/1 matrix
``X[i, j] = 1 iff i and j share a class`` (an equivalence relation,
checked by one O(n**2) comparison). Comparing two partitions reduces to
four agreement counts, quadratic sums of their contingency table N that take
O(n log n) once both are decoded; a weighted balance of those counts
characterizes pair-comparison equilibrium.

When item classes are drawn from a joint distribution ``pi``, the expected
normalized agreement terms have closed forms in ``pi`` and its margins;
:func:`condorcet_residual` measures how far ``pi`` sits from the additive
coupling of its own margins, which is the exact equilibrium point of the
weighted balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._record import Record
from .coupling import JointDistribution, indetermination_cells
from .errors import (
    DegenerateDimensions,
    DimensionMismatch,
    NegativeEntry,
    NotEquivalenceRelation,
    _as_count,
    _as_generator,
)

__all__ = [
    "RelationalMatrix",
    "AgreementCounts",
    "relational_encode",
    "decode_partition",
    "agreement_counts",
    "weighted_balance_residual",
    "expected_agreement_terms",
    "condorcet_residual",
    "sample_agreement_counts",
]


@dataclass(frozen=True)
class RelationalMatrix(Record):
    """An n x n 0/1 equivalence-relation matrix, stored read-only as uint8.

    A 0/1 matrix is an equivalence relation exactly when it equals the
    relation "same first related index" its rows induce: one O(n**2) check.
    """

    rel: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rel)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise NotEquivalenceRelation("matrix must be square and nonempty")
        rel = self._own("rel", bool).view(np.uint8)
        if not np.array_equal(rel, arr):
            raise NotEquivalenceRelation("entries must be 0 or 1")
        first = rel.argmax(axis=1)
        if not np.array_equal(rel, first[:, None] == first[None, :]):
            raise NotEquivalenceRelation("not symmetric, reflexive, transitive")
        object.__setattr__(self, "rel", rel)

    @property
    def n(self) -> int:
        return self.rel.shape[0]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rel": self.rel.tolist()}


def relational_encode(labels) -> RelationalMatrix:
    """Encode class labels as an equivalence-relation matrix.

    ``rel[i, j] = 1`` exactly when ``labels[i] == labels[j]``; labels may be
    any hashable values (ints, strings, ...).
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch("labels must be a nonempty 1-d sequence")
    return RelationalMatrix(arr[:, None] == arr[None, :])


def decode_partition(x: RelationalMatrix) -> np.ndarray:
    """Recover canonical class labels from an equivalence-relation matrix.

    Classes are numbered 0..k-1 in order of their smallest member index, so
    the round trip ``relational_encode(decode_partition(x)) == x`` holds
    exactly and the labels are a canonical form.
    """
    # Smallest member of item i's class = first column with a 1 in row i.
    smallest = np.argmax(x.rel, axis=1)
    _, labels = np.unique(smallest, return_inverse=True)
    return labels.astype(np.int64)


@dataclass(frozen=True)
class AgreementCounts(Record):
    """The four pair-agreement totals between two relations.

    For 0/1 matrices X and Y with complements taken entrywise
    (``Xbar = 1 - X``, so diagonals of the complements are 0):

    * ``agree_11``  = sum(X * Y)       (paired in both)
    * ``agree_00``  = sum(Xbar * Ybar) (paired in neither)
    * ``disagree_10`` = sum(X * Ybar)
    * ``disagree_01`` = sum(Xbar * Y)

    For count matrices the four sum to n**2; for the normalized expectation
    terms of :func:`expected_agreement_terms` they sum to 1.
    """

    agree_11: float
    agree_00: float
    disagree_10: float
    disagree_01: float

    def __post_init__(self):
        for name in ("agree_11", "agree_00", "disagree_10", "disagree_01"):
            if getattr(self, name) < 0:
                raise NegativeEntry(f"{name} must be nonnegative")

    @property
    def total(self) -> float:
        return self.agree_11 + self.agree_00 + self.disagree_10 + self.disagree_01


def agreement_counts(x: RelationalMatrix, y: RelationalMatrix) -> AgreementCounts:
    """Count agreeing and disagreeing ordered pairs between two relations,
    exactly, from the squared cells and margins of their contingency table."""
    if x.n != y.n:
        raise DimensionMismatch(f"sizes {x.n} and {y.n} do not match")
    lx, ly = decode_partition(x), decode_partition(y)
    _, cells = np.unique(lx * x.n + ly, return_counts=True)
    both = int((cells**2).sum())
    rows = int((np.bincount(lx) ** 2).sum())
    cols = int((np.bincount(ly) ** 2).sum())
    return AgreementCounts(
        agree_11=float(both),
        agree_00=float(x.n**2 - rows - cols + both),
        disagree_10=float(rows - both),
        disagree_01=float(cols - both),
    )


def weighted_balance_residual(
    x: RelationalMatrix, y: RelationalMatrix, p: int, q: int
) -> float:
    """Signed imbalance of the weighted pair-comparison equilibrium.

    With the four agreement totals weighted by the class counts p and q::

        agree_11/(p*q) + agree_00/(p*(p-1)*q*(q-1))
          - disagree_10/(p*q*(q-1)) - disagree_01/(p*(p-1)*q)

    Zero means the agreement evidence exactly balances the disagreement
    evidence under those weights.

    Raises
    ------
    DegenerateDimensions
        If ``p < 2`` or ``q < 2`` (the weights divide by p-1 and q-1).
    NonPositiveDimension
        If ``p`` or ``q`` is not an integer >= 1.
    """
    p, q = _as_count(p, "p"), _as_count(q, "q")
    if p < 2 or q < 2:
        raise DegenerateDimensions(f"need p, q >= 2, got {p}, {q}")
    counts = agreement_counts(x, y)
    return (
        counts.agree_11 / (p * q)
        + counts.agree_00 / (p * (p - 1) * q * (q - 1))
        - counts.disagree_10 / (p * q * (q - 1))
        - counts.disagree_01 / (p * (p - 1) * q)
    )


def expected_agreement_terms(pi: JointDistribution) -> AgreementCounts:
    """Expected normalized agreement terms for two draws from ``pi``.

    Two items drawn independently from the joint ``pi`` produce row labels
    (u, u') and column labels (v, v'). The expectations of the four
    agreement indicators are::

        E[agree_11]    = sum_uv pi * pi
        E[agree_00]    = sum_uv pi * (1 - mu_u - nu_v + pi)
        E[disagree_10] = sum_uv pi * (mu_u - pi)
        E[disagree_01] = sum_uv pi * (nu_v - pi)

    with ``mu``, ``nu`` the margins of ``pi``. The four sum to 1.
    """
    cells = pi.cells
    mu = pi.row_margin.probs[:, None]
    nu = pi.col_margin.probs[None, :]
    return AgreementCounts(
        agree_11=float((cells * cells).sum()),
        agree_00=float((cells * (1.0 - mu - nu + cells)).sum()),
        disagree_10=float((cells * (mu - cells)).sum()),
        disagree_01=float((cells * (nu - cells)).sum()),
    )


def condorcet_residual(pi: JointDistribution) -> float:
    """Scaled squared distance from ``pi`` to the additive coupling of its
    own margins.

    ``p*q * sum((pi - mu/q - nu/p + 1/(p*q))**2)``; zero exactly when ``pi``
    is the indetermination coupling of its margins, which is the unique
    joint at weighted pair-comparison equilibrium.

    Raises
    ------
    DegenerateDimensions
        If either dimension is < 2.
    """
    if pi.p < 2 or pi.q < 2:
        raise DegenerateDimensions(f"need p, q >= 2, got {pi.p}, {pi.q}")
    target = indetermination_cells(pi.row_margin, pi.col_margin)
    return float(pi.p * pi.q * ((pi.cells - target) ** 2).sum())


# Pairs whose draws sample_agreement_counts decodes at once.
_AGREEMENT_CHUNK = 1 << 14

# Bits of the most buckets its guide table takes (8 MB of indices): a
# bigger joint gets fewer than four buckets per cell.
_GUIDE_MAX_BITS = 20


def sample_agreement_counts(
    pi: JointDistribution,
    n_pairs: int,
    rng: np.random.Generator | int | None = None,
) -> AgreementCounts:
    """Empirical agreement counts from ``n_pairs`` two-draw experiments.

    Each experiment draws two cells independently from ``pi`` and records
    which of the four agreement events occurred; counts sum to ``n_pairs``.
    Normalized by ``n_pairs`` they estimate
    :func:`expected_agreement_terms`.

    The draws are those of ``rng.choice(cells, size=(2, n_pairs), p=flat)``
    bit for bit, and leave ``rng`` in the same state: the ``2 * n_pairs``
    uniforms of ``rng.random``, all first draws before all second draws,
    each mapped to ``cdf.searchsorted(u, side="right")`` on the normalized
    cumulative sum of the flattened cells. That index is found with a
    guide table (Chen & Asau, AIIE Trans. 6, 163, 1974). There are ``B``
    buckets, a power of two, four or more per cell up to ``2**20``, so
    ``floor(u * B)`` is exact. Each bucket holds the count of cumulative
    sums up to its left end, and a draw that lies past the next sum steps
    forward until it does not. Cells too small to part in one bucket
    cost extra steps only for the draws that land in it. Each cell is
    coded as its row shifted past its column's ``bits``, so two draws
    share a row exactly when their XOR is below ``2**bits``, and a column
    when its low ``bits`` are 0.

    The uniforms are decoded ``_AGREEMENT_CHUNK`` at a time: the first
    draws to one small-integer code per pair, then the second ones chunk
    by chunk, compared with them. O(n_pairs + cells) expected time;
    memory the O(cells) tables, a chunk's buffers and one code per pair,
    one byte while ``p << bits`` fits in a byte.
    """
    n_pairs = _as_count(n_pairs, "n_pairs")
    rng = _as_generator(rng)
    cdf = pi.cells.ravel().cumsum()
    cdf /= cdf[-1]
    buckets = 1 << min((4 * cdf.size - 1).bit_length(), _GUIDE_MAX_BITS)
    guide = cdf.searchsorted(np.arange(buckets) / buckets, side="right")
    bits = (pi.q - 1).bit_length()
    u, v = np.divmod(np.arange(cdf.size), pi.q)
    codes = ((u << bits) | v).astype(np.min_scalar_type(pi.p << bits))
    uniform = np.empty(min(n_pairs, _AGREEMENT_CHUNK))
    bucket = np.empty(uniform.size, np.intp)

    def draw(out: np.ndarray) -> np.ndarray:
        r = rng.random(out=uniform[: out.size])
        at = guide.take(np.multiply(r, buckets, out=bucket[: r.size], casting="unsafe"))
        step = np.flatnonzero(cdf.take(at) <= r)
        while step.size:
            at[step] += 1
            step = step[cdf.take(at[step]) <= r[step]]
        return codes.take(at, out=out)

    first = np.empty(n_pairs, codes.dtype)
    for lo in range(0, n_pairs, uniform.size):
        draw(first[lo : lo + uniform.size])
    second = np.empty(uniform.size, codes.dtype)
    a11 = same_row = same_col = 0
    for lo in range(0, n_pairs, uniform.size):
        a = first[lo : lo + uniform.size]
        x = np.bitwise_xor(a, draw(second[: a.size]), out=second[: a.size])
        a11 += int(np.count_nonzero(x == 0))
        same_row += int(np.count_nonzero(x < 1 << bits))
        same_col += int(np.count_nonzero(np.bitwise_and(x, (1 << bits) - 1, out=x) == 0))
    d10 = same_row - a11
    d01 = same_col - a11
    return AgreementCounts(
        agree_11=float(a11),
        agree_00=float(n_pairs - a11 - d10 - d01),
        disagree_10=float(d10),
        disagree_01=float(d01),
    )
