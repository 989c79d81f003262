"""Shared Monte-Carlo plumbing: deterministic substreams, the worker cap
and the one thread map.

Samplers that accept ``n_streams`` split their draw budget over that many
independent generators spawned from the master seed, then merge the
per-stream outputs in stream order. Results therefore depend on
``(seed, n_streams)`` only; whether streams run sequentially or on a thread
pool never changes a byte.

:func:`thread_cap`, the number of CPUs this process may use, bounds every
parallel path of the package, and three paths run in parallel:

* sampler streams run through :func:`_starmap` on
  ``min(n_streams, thread_cap())`` threads;
* a Gilbert draw (:func:`coupleclust.gilbert`) runs its pair segments
  through :func:`_starmap`, each segment from its own offset of the
  caller's one random stream, so the graph never depends on the thread
  count;
* the Louvain restarts race on at most ``thread_cap()`` forked processes.

:func:`_starmap` runs on the calling thread when it gets one worker, and
joins its pool before it returns, so no thread outlives a call. The cap
has no setting. Starting and joining that pool is a fixed cost of every
call with more than one stream, which can exceed what the second stream
saves: on a shared 2-CPU host, ``empirical_bias_histogram(200, 0.3,
4096)`` took 1.33 ms with 2 streams and 0.93 ms with 1. A pool kept
between calls would be a live thread when :func:`coupleclust.louvain`
forks its restart workers, which it does only when no other thread is
alive; a rule that picks the stream count from the work size would be a
threshold to keep. So the cost is documented, and ``n_streams`` stays
the caller's choice.
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


def _starmap(fn: Callable[..., object], args: list[tuple]) -> list:
    """``[fn(*a) for a in args]``, on ``min(len(args), thread_cap())``
    threads (on the calling thread when that is 1). Every thread is joined
    before this returns."""
    workers = min(len(args), thread_cap())
    if workers <= 1:
        return [fn(*a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *a) for a in args]
        return [f.result() for f in futures]


def run_streams(
    sample: Callable[[np.random.Generator, int], object],
    total: int,
    rng: np.random.Generator | int | None,
    n_streams: int,
) -> list:
    """Run ``sample(generator, count)`` once per stream of
    :func:`_substreams`, through :func:`_starmap`, and return the results
    in stream order."""
    rng = _as_generator(rng)
    counts = split_counts(total, n_streams)
    return _starmap(sample, list(zip(_substreams(rng, len(counts)), counts)))
