"""The span model: what one traced operation records.

A :class:`Span` is one timed operation — a classify call, a batched
embedding lookup, an HTTP request.  Spans are hierarchical: every span
carries the ``trace_id`` of the request (or CLI run) it belongs to and
the ``span_id`` of its parent, so an exporter can reconstruct the tree
that one table walked through tokenize -> embed -> aggregate ->
angle-walk.

Timing uses the monotonic ``time.perf_counter`` clock — span starts and
ends are comparable to each other (and to other spans of the same
process) but are not wall-clock timestamps.  The tracer records the
wall-clock anchor of its own creation so exporters can translate.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, process-unique)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagatable part of "where am I in the trace".

    It carries exactly what a child span needs to attach to its parent:
    the trace id and the parent span id.
    """

    trace_id: str
    span_id: int


@dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start: float  # perf_counter seconds
    end: float = 0.0  # perf_counter seconds; 0.0 while in flight
    attributes: dict[str, object] = field(default_factory=dict)
    thread_id: int = 0
    thread_name: str = ""
    error: str | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    def set(self, **attributes: object) -> "Span":
        """Attach attributes discovered mid-span (cache hits, sizes)."""
        self.attributes.update(attributes)
        return self

    def context(self) -> TraceContext:
        """This span as a parent context for capture/restore."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)


def current_thread_info() -> tuple[int, str]:
    """``(ident, name)`` of the calling thread, for span bookkeeping."""
    thread = threading.current_thread()
    return thread.ident or 0, thread.name
