"""Summary statistics for op latencies."""

from __future__ import annotations

import statistics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it.

    Returns ``(value, percentile, op_count)``. With ``N >= 11`` ops the value
    is the eleventh-largest latency, which has exactly ten ops above it, at
    percentile ``100 * (N - 10) / N``; with fewer ops it is the maximum,
    reported as percentile 100.
    """
    n = len(latencies)
    if n == 0:
        raise ValueError("no latencies")
    ordered = sorted(latencies)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
