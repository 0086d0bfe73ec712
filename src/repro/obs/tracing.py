"""Lightweight request tracing: span trees and a bounded slow-query log.

A :class:`Trace` is created per traced request (``trace=True`` on the wire)
and carries a tree of :class:`Span` objects — ``trace_id``/``span_id``/
parent linkage, monotonic (``time.perf_counter``) durations, and free-form
tags.  Spans are cheap enough to build inline on the serving path, but the
whole machinery is skipped entirely when tracing is off, so the untraced
hot path pays only a single ``if``.

Span trees serialise to plain dicts (``to_tree``) so they ride the wire
protocol inside ``QueryResponse`` and land in the slow-query log verbatim.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from typing import Dict, List, Optional

__all__ = ["Span", "Trace", "SlowQueryLog", "graft", "new_trace_id"]

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def new_trace_id() -> str:
    """Return a process-unique hex trace id.

    Randomness-free on purpose: a pid-qualified sequence number is unique
    enough for correlating spans in logs and keeps the hot path cheap.
    """
    with _id_lock:
        sequence = next(_id_counter)
    return f"{os.getpid():x}-{sequence:08x}"


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are ``time.perf_counter`` readings; offsets in the
    serialised tree are expressed relative to the root span so the tree is
    meaningful across processes with different clock origins.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "tags",
                 "start", "end", "children")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str] = None,
                 start: Optional[float] = None,
                 tags: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags: Dict[str, object] = dict(tags or {})
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    def finish(self, end: Optional[float] = None) -> "Span":
        if self.end is None:
            self.end = time.perf_counter() if end is None else end
        return self

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    def tag(self, **tags: object) -> "Span":
        self.tags.update(tags)
        return self

    def child(self, name: str, start: Optional[float] = None,
              **tags: object) -> "Span":
        span = Span(name, self.trace_id, f"{self.span_id}.{len(self.children) + 1}",
                    parent_id=self.span_id, start=start, tags=tags)
        self.children.append(span)
        return span

    def record(self, name: str, start: float, end: float, **tags: object) -> "Span":
        """Attach an already-measured interval as a child span."""
        return self.child(name, start=start, **tags).finish(end)

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, object]:
        origin = self.start if origin is None else origin
        end = self.end if self.end is not None else time.perf_counter()
        payload: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_ms": round((self.start - origin) * 1000.0, 6),
            "duration_ms": round((end - self.start) * 1000.0, 6),
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.children:
            payload["children"] = [span.to_dict(origin) for span in self.children]
        return payload


class Trace:
    """A per-request span tree rooted at ``root``."""

    __slots__ = ("trace_id", "root")

    def __init__(self, name: str = "request",
                 trace_id: Optional[str] = None,
                 start: Optional[float] = None,
                 **tags: object) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.root = Span(name, self.trace_id, "1", start=start, tags=tags)

    def to_tree(self) -> Dict[str, object]:
        self.root.finish()
        return self.root.to_dict()


def graft(parent: Dict[str, object], subtree: Dict[str, object],
          offset_ms: float) -> Dict[str, object]:
    """Append serialised ``subtree`` under serialised span ``parent``.

    The subtree was serialised on its own: its root is span ``"1"`` at
    ``start_ms`` 0.  Grafted, it becomes the next child of ``parent`` —
    re-identified beneath it (``<parent>.<n>``, ``<parent>.<n>.1``, ...,
    each with its ``parent_id``), carrying the parent's ``trace_id``, and
    with every ``start_ms`` shifted by ``offset_ms`` (where the subtree's
    root started, on the parent tree's time base).  ``subtree`` itself is
    not modified; the grafted copy is returned.
    """
    children = parent.setdefault("children", [])
    assert isinstance(children, list)
    span_id = f"{parent['span_id']}.{len(children) + 1}"
    grafted = _rebased(subtree, span_id, parent["span_id"],
                       parent["trace_id"], offset_ms)
    children.append(grafted)
    return grafted


def _rebased(tree: Dict[str, object], span_id: str, parent_id: object,
             trace_id: object, offset_ms: float) -> Dict[str, object]:
    copy = dict(tree)
    copy["trace_id"] = trace_id
    copy["span_id"] = span_id
    copy["parent_id"] = parent_id
    copy["start_ms"] = round(float(tree["start_ms"]) + offset_ms, 6)  # type: ignore[arg-type]
    if tree.get("children"):
        copy["children"] = [
            _rebased(child, f"{span_id}.{position}", span_id, trace_id, offset_ms)
            for position, child in enumerate(tree["children"], start=1)  # type: ignore[arg-type]
        ]
    return copy


def _span_names(tree: Dict[str, object]) -> List[str]:
    names = [str(tree.get("name", ""))]
    for child in tree.get("children", []) or []:  # type: ignore[union-attr]
        names.extend(_span_names(child))
    return names


def span_names(tree: Dict[str, object]) -> List[str]:
    """Flatten a serialised span tree into its span names, pre-order.

    Used by smoke tests and the CI ``obs-smoke`` assertion to check a
    traced query covered the expected path without caring about timings.
    """
    return _span_names(tree)


class SlowQueryLog:
    """Bounded top-N-by-duration log of answered queries.

    Every answered request is offered; only the ``capacity`` slowest are
    retained (min-heap on duration, ties broken by arrival order).  Entries
    carry the plan digest and, for traced requests, the full span tree —
    the operator-facing "why was this slow" dump.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._heap: List[tuple] = []
        self._sequence = itertools.count()

    def offer(self, duration: float, query: object, tier: str,
              graph_version: Optional[int] = None,
              plan_digest: Optional[str] = None,
              trace: Optional[Dict[str, object]] = None) -> None:
        entry = {
            "duration_ms": duration * 1000.0,
            "query": query,
            "tier": tier,
            "graph_version": graph_version,
            "plan_digest": plan_digest,
        }
        if trace is not None:
            entry["trace"] = trace
        with self._lock:
            item = (duration, next(self._sequence), entry)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
            elif item > self._heap[0]:
                heapq.heapreplace(self._heap, item)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def snapshot(self) -> List[Dict[str, object]]:
        """Entries sorted slowest-first, as JSON-ready dicts."""
        with self._lock:
            ordered = sorted(self._heap, reverse=True)
        return [dict(entry) for _, _, entry in ordered]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
