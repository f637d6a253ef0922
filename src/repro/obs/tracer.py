"""Tracer: span creation, thread-local context, and the no-op default.

Two implementations share one protocol:

* :class:`Tracer` records finished spans into a bounded, lock-guarded
  buffer and maintains a **thread-local** stack of open spans, so a
  span started while another is open becomes its child automatically.
* :class:`NoopTracer` — the process default — does nothing.  Its
  ``span()`` returns a shared singleton whose ``__enter__``/``__exit__``
  are empty, so instrumentation left in the hot path costs a function
  call and a dict build, nothing more (the disabled-overhead benchmark
  in ``benchmarks/test_bench_aggregate.py`` holds it under 2%).
"""

from __future__ import annotations

import threading
import time
from types import TracebackType
from typing import Iterator, Protocol

from repro.obs.spans import Span, TraceContext, current_thread_info, new_trace_id


class SpanHandle(Protocol):
    """What ``tracer.span(...)`` returns: a context manager over a span."""

    def __enter__(self) -> Span: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None: ...

    def set(self, **attributes: object) -> object: ...


class TracerLike(Protocol):
    """The tracer duck type shared by :class:`Tracer` and :class:`NoopTracer`."""

    @property
    def enabled(self) -> bool: ...

    def span(
        self, name: str, *, trace_id: str | None = None, **attributes: object
    ) -> SpanHandle: ...

    def current_context(self) -> TraceContext | None: ...


# ---------------------------------------------------------------------------
# the no-op default
# ---------------------------------------------------------------------------

class _NoopSpan:
    """Shared do-nothing span handle; also stands in for the Span."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def set(self, **attributes: object) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def span(
        self, name: str, *, trace_id: str | None = None, **attributes: object
    ) -> _NoopSpan:
        return _NOOP_SPAN

    def current_context(self) -> TraceContext | None:
        return None


# ---------------------------------------------------------------------------
# the recording tracer
# ---------------------------------------------------------------------------

class _ContextStack(threading.local):
    """Per-thread stack of open trace contexts."""

    def __init__(self) -> None:
        self.stack: list[TraceContext] = []


class _ActiveSpan:
    """Context manager for one open span on the recording tracer."""

    __slots__ = ("_tracer", "_name", "_trace_id", "_attributes", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str | None,
        attributes: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._attributes = attributes
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(
            self._name, self._trace_id, self._attributes
        )
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        span = self._span
        if span is None:  # __enter__ never ran
            return
        if exc is not None:
            span.error = f"{type(exc).__name__}: {exc}"
        self._tracer._finish(span)

    def set(self, **attributes: object) -> "_ActiveSpan":
        if self._span is not None:
            self._span.set(**attributes)
        else:
            self._attributes.update(attributes)
        return self


class Tracer:
    """Recording tracer: hierarchical spans into a bounded buffer.

    ``max_spans`` bounds memory on long-running services; once full,
    new spans are counted as dropped rather than recorded, and the drop
    count is reported by :meth:`dropped`.  All buffer operations are
    lock-guarded; the context stack is thread-local and needs no lock.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self._lock = threading.Lock()
        self._spans: list[Span] = []  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._max_spans = max_spans
        self._local = _ContextStack()

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(
        self, name: str, *, trace_id: str | None = None, **attributes: object
    ) -> _ActiveSpan:
        """Open a span as a child of the current thread-local context.

        With no open context, the span becomes a trace root: it uses
        the explicit ``trace_id`` when given, else mints a fresh one.
        """
        return _ActiveSpan(self, name, trace_id, dict(attributes))

    def _start(
        self, name: str, trace_id: str | None, attributes: dict[str, object]
    ) -> Span:
        parent = self.current_context()
        if parent is not None:
            trace = parent.trace_id
            parent_id: int | None = parent.span_id
        else:
            trace = trace_id or new_trace_id()
            parent_id = None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        ident, thread_name = current_thread_info()
        span = Span(
            name=name,
            trace_id=trace,
            span_id=span_id,
            parent_id=parent_id,
            start=time.perf_counter(),
            attributes=attributes,
            thread_id=ident,
            thread_name=thread_name,
        )
        self._push(span.context())
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._pop()
        with self._lock:
            if len(self._spans) < self._max_spans:
                self._spans.append(span)
            else:
                self._dropped += 1

    # ------------------------------------------------------------------
    # context propagation
    # ------------------------------------------------------------------
    def current_context(self) -> TraceContext | None:
        stack = self._local.stack
        return stack[-1] if stack else None

    def _push(self, context: TraceContext) -> None:
        self._local.stack.append(context)

    def _pop(self) -> None:
        stack = self._local.stack
        if stack:
            stack.pop()

    # ------------------------------------------------------------------
    # the recorded trace
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._spans)

    def dropped(self) -> int:
        """Spans discarded because the buffer hit ``max_spans``."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# the process-global tracer
# ---------------------------------------------------------------------------

class SpanFactory(Protocol):
    """The signature of :data:`span` (the active tracer's ``span``)."""

    def __call__(
        self, name: str, *, trace_id: str | None = None, **attributes: object
    ) -> SpanHandle: ...


_NOOP_TRACER = NoopTracer()
_tracer: TracerLike = _NOOP_TRACER
_tracer_swap_lock = threading.Lock()

#: The instrumentation entry point: ``obs.span("name", key=value)``.
#: Deliberately a *rebindable alias* of the active tracer's bound
#: ``span`` method rather than a wrapper function — the hot path pays
#: one module-attribute lookup and one call, nothing more, which is
#: what keeps the disabled-tracing overhead under the 2% budget.
span: SpanFactory = _NOOP_TRACER.span


def get_tracer() -> TracerLike:
    """The process-global tracer (the no-op tracer unless enabled)."""
    return _tracer


def set_tracer(tracer: TracerLike | None) -> TracerLike:
    """Install ``tracer`` globally (``None`` disables); returns the old one.

    Rebinds the module-level :data:`span` alias (here and on the
    ``repro.obs`` package) so already-imported instrumentation picks up
    the new tracer on its next call.
    """
    import sys

    global _tracer, span
    with _tracer_swap_lock:
        previous = _tracer
        _tracer = tracer if tracer is not None else _NOOP_TRACER
        span = _tracer.span
        package = sys.modules.get("repro.obs")
        if package is not None:
            package.span = _tracer.span  # type: ignore[attr-defined]
    return previous


class tracing:
    """``with tracing() as tracer:`` — enable tracing for a block.

    Installs a fresh :class:`Tracer` (or the one given) globally on
    entry and restores the previous tracer on exit.  The CLI verbs and
    the tests use this so a traced run can never leak an enabled tracer
    into unrelated code.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: TracerLike | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        set_tracer(self._previous)


def iter_roots(spans: list[Span]) -> Iterator[Span]:
    """Yield the root spans (no recorded parent) of a span list."""
    seen = {item.span_id for item in spans}
    for item in spans:
        if item.parent_id is None or item.parent_id not in seen:
            yield item
