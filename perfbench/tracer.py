"""Spans recorded from outside the program under test.

The benchmark never edits the program.  It attributes time by replacing
methods on *instances* (an env, a scenario, a trainer, ...) with wrappers
that record a span around each call and then call the original bound
method.  Classes stay untouched, so other instances, and the untraced
pass of the same run, execute exactly the program's own code.

A span is ``(name, start, end, parent)``; the parent is the span open on
the same thread when the call began.  Spans stay in memory and are
aggregated after the run: busy time per name, call counts, percentiles,
self time (a span's duration minus what its children cover) and the
share of a window that no root span covers.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from stats import merged_length

__all__ = ["Span", "Tracer", "SnapshotProxy", "proxy_current", "self_time"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span) -> float:
    """Duration minus the part of the span's interval its children cover."""
    covered = merged_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in span.children
        if c.end > span.start and c.start < span.end
    )
    return span.duration - covered


class Tracer:
    """In-memory span recorder with per-thread nesting stacks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._index: Optional[Dict[str, List[Span]]] = None  # built on first read

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.clock(), parent)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(
        self,
        obj,
        method: str,
        name: str,
        rename: Optional[Callable[[object], str]] = None,
        counter: Optional[Tuple[str, Callable[[object], float]]] = None,
    ) -> None:
        """Record a span around every call of ``obj.method``.

        ``rename(result)`` may give the finished span another name (an
        update call that returned losses is a round, one that returned
        None is idle).  ``counter=(key, fn)`` adds ``fn(result)`` to
        ``counts[key]`` (rows ingested per call).
        """
        inner = getattr(obj, method)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.finish(span)
            if rename is not None:
                span.name = rename(result)
            if counter is not None:
                tracer.count(counter[0], counter[1](result))
            return result

        setattr(obj, method, traced)

    # -- aggregation --------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        """Spans called ``name`` that have no ancestor of the same name."""
        if self._index is None:
            index: Dict[str, List[Span]] = {}
            for span in self.spans:
                parent = span.parent
                while parent is not None and parent.name != span.name:
                    parent = parent.parent
                if parent is None:
                    index.setdefault(span.name, []).append(span)
            self._index = index
        return self._index.get(name, [])

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.named(name)]

    def unattributed(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` not covered by any root span."""
        return (end - start) - merged_length(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.parent is None and s.end > start and s.start < end
        )


class SnapshotProxy:
    """Stand-in for one published policy snapshot that times its forwards.

    Snapshots declare ``__slots__``, so their methods cannot be replaced
    on the instance; the benchmark wraps the store's ``current`` instead
    and hands the server this proxy, which delegates everything else.
    """

    __slots__ = ("_snapshot", "_tracer")

    def __init__(self, snapshot, tracer: Tracer) -> None:
        self._snapshot = snapshot
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._snapshot, attr)

    def forward_batch(self, x):
        span = self._tracer.begin("serving.forward")
        try:
            return self._snapshot.forward_batch(x)
        finally:
            self._tracer.finish(span)

    def forward_single(self, agent, obs):
        span = self._tracer.begin("serving.forward")
        try:
            return self._snapshot.forward_single(agent, obs)
        finally:
            self._tracer.finish(span)


def proxy_current(store, tracer: Tracer) -> None:
    """Make ``store.current()`` return timing proxies (one per snapshot)."""
    inner = store.current
    last: List[SnapshotProxy] = []

    def current():
        snapshot = inner()
        if not last or last[0]._snapshot is not snapshot:
            last[:] = [SnapshotProxy(snapshot, tracer)]
        return last[0]

    store.current = current

