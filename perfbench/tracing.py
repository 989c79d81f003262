"""In-memory spans recorded around calls into the library.

A :class:`Tracer` records one :class:`Span` per traced call: its name, start
and end (``perf_counter`` seconds), the span that was open when it started,
and the id of the benchmark op it belongs to. Wrappers are installed at the
names the library's callers bind (``coupleclust.cli.louvain``,
``WeightedGraph.from_edges``, ...) and removed again by :meth:`uninstall`.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; thread-aware so stream workers nest under their caller."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.missing: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span belongs to whatever the main
            # thread had open when the work was handed out.
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span_id = len(self.spans)
            record = Span(span_id, name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Class-level ``classmethod`` objects are wrapped as classmethods. A
        binding site the library no longer has is listed in ``missing``
        rather than raising, so the benchmark survives refactors."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self
        if isinstance(raw, classmethod):
            inner = raw.__func__

            @functools.wraps(inner)
            def wrapped_cls(cls, *args, **kwargs):
                with tracer.span(name):
                    return inner(cls, *args, **kwargs)

            replacement = classmethod(wrapped_cls)
        else:

            @functools.wraps(raw)
            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    return raw(*args, **kwargs)

            replacement = wrapped
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
        ]


class NullTracer:
    """Stand-in for untraced runs: calls straight through."""

    enabled = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children clipped to the parent's interval; overlapping children (stream
    workers running in parallel) count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.id: s.duration - covered(children.get(s.id, [])) for s in spans}
