"""Shared Monte-Carlo plumbing: deterministic substreams.

Samplers that accept ``n_streams`` split their draw budget over that many
independent generators spawned from the master seed, then merge the
per-stream outputs in stream order. Results therefore depend on
``(seed, n_streams)`` only; whether streams run sequentially or on a thread
pool never changes a byte.

The ``COUPLECLUST_THREADS`` environment variable sets the size of the thread
pool used to execute streams: ``min(n_streams, COUPLECLUST_THREADS)``
workers. Unset, empty, unparsable or below 2, streams run one after another
on the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import _as_count

__all__ = ["thread_cap", "split_counts", "run_streams"]


def thread_cap() -> int:
    """Maximum worker threads allowed by ``COUPLECLUST_THREADS`` (>= 1)."""
    raw = os.environ.get("COUPLECLUST_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        return 1
    return max(1, cap)


def split_counts(total: int, n_streams: int) -> list[int]:
    """Split ``total`` draws as evenly as possible over ``n_streams``."""
    n_streams = min(_as_count(n_streams, "n_streams"), total) or 1
    base, extra = divmod(total, n_streams)
    return [base + (1 if k < extra else 0) for k in range(n_streams)]


def run_streams(
    sample: Callable[[np.random.Generator, int], object],
    total: int,
    rng: np.random.Generator | int | None,
    n_streams: int,
) -> list:
    """Run ``sample(generator, count)`` once per stream, in stream order.

    With one stream the master generator is used directly (so single-stream
    callers keep bit-compatibility with plain sequential sampling); with
    more, child generators are spawned deterministically from it.
    """
    rng = np.random.default_rng(rng)
    counts = split_counts(total, n_streams)
    if len(counts) == 1:
        return [sample(rng, counts[0])]
    gens = rng.spawn(len(counts))
    workers = min(len(counts), thread_cap())
    if workers <= 1:
        return [sample(g, m) for g, m in zip(gens, counts)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(sample, g, m) for g, m in zip(gens, counts)]
        return [f.result() for f in futures]
