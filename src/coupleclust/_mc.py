"""Shared Monte-Carlo plumbing: deterministic substreams and the worker cap.

Samplers that accept ``n_streams`` split their draw budget over that many
independent generators spawned from the master seed, then merge the
per-stream outputs in stream order. Results therefore depend on
``(seed, n_streams)`` only; whether streams run sequentially or on a thread
pool never changes a byte.

:func:`thread_cap`, the number of CPUs this process may use, bounds every
parallel path of the package: streams run on ``min(n_streams, thread_cap())``
threads (on the calling thread when that is 1), and the Louvain restarts
race on at most that many forked processes. It has no setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import _as_count, _as_generator

__all__ = ["thread_cap", "split_counts", "run_streams"]


def thread_cap() -> int:
    """The number of CPUs this process may use (>= 1): its CPU affinity
    where the platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _substreams(rng: np.random.Generator, k: int) -> list[np.random.Generator]:
    """``k`` deterministic streams of ``rng``: ``rng`` itself when ``k`` is
    1 (so one stream draws exactly what plain sequential sampling would),
    else ``k`` children spawned from it."""
    return rng.spawn(k) if k > 1 else [rng]


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
    """Run ``sample(generator, count)`` once per stream of
    :func:`_substreams`, on ``min(streams, thread_cap())`` threads, and
    return the results in stream order."""
    rng = _as_generator(rng)
    counts = split_counts(total, n_streams)
    gens = _substreams(rng, len(counts))
    workers = min(len(counts), thread_cap())
    if workers <= 1:
        return [sample(g, m) for g, m in zip(gens, counts)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(sample, g, m) for g, m in zip(gens, counts)]
        return [f.result() for f in futures]
