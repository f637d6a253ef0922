"""The streaming chunk protocol: items, chunks, and the bounded queue.

Every connector speaks the same three-piece protocol:

* a :class:`SourceItem` is one table (or one isolated failure) with its
  provenance string — the unit of *error isolation*;
* a :class:`TableChunk` groups consecutive items with a global starting
  index — the unit of *work handoff* (one chunk becomes one fused
  classify shard downstream);
* a :class:`ChunkQueue` is the bounded, multi-producer single-consumer
  channel between the ``--procs`` plane's parse threads and its classify
  stage — the unit of *backpressure*.  A full queue blocks the producers, so a slow classify
  stage throttles parsing instead of letting parsed tables pile up
  without bound; the queue counts those waits and exposes its depth so
  the serving metrics can watch the pipeline breathe.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.tables.model import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.connectors.window import WindowPlan
    from repro.serve.metrics import ServiceMetrics


@dataclass(frozen=True)
class SourceItem:
    """One parsed table — or one isolated parse failure — from a source.

    ``source`` is the provenance string every downstream record carries
    (a file path, ``stdin``, ``db.sqlite#query``, ``book.xlsx!Sheet1``).
    Exactly one of ``table`` / ``error`` is set.  When the windowed path
    produced the table, ``window`` carries the
    :class:`~repro.connectors.window.WindowPlan` that maps the bounded
    grid back onto the full (never materialized) table; ``table`` is
    then the window grid itself.
    """

    source: str
    table: Table | None = None
    error: str | None = None
    window: "WindowPlan | None" = None

    def __post_init__(self) -> None:
        if (self.table is None) == (self.error is None):
            raise ValueError("a SourceItem carries a table XOR an error")
        if self.window is not None and self.table is None:
            raise ValueError("a windowed SourceItem carries the window grid")


@dataclass(frozen=True)
class TableChunk:
    """A consecutive run of source items with its position in the run.

    ``rank`` is the position of the originating source in the run's
    input list and ``index`` the position of ``items[0]`` within that
    source, so ``(rank, index)`` totally orders chunks across parse
    threads without any cross-thread coordination — an ordered
    collector just sorts on it.
    """

    rank: int
    index: int
    items: tuple[SourceItem, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def tables(self) -> list[Table]:
        """The parsed tables of this chunk (errors excluded)."""
        return [item.table for item in self.items if item.table is not None]


#: Queue sentinel; never visible to consumers.
_CLOSED = object()


class ChunkQueue:
    """Bounded multi-producer, single-consumer channel of chunks.

    Producers register with :meth:`add_producer` before their thread
    starts and call :meth:`producer_done` when they finish; the last
    producer out enqueues the close sentinel, so the consumer's
    ``for chunk in queue`` loop ends exactly when all producers have.

    ``put`` blocks when the queue is at ``capacity`` — that block *is*
    the backpressure contract — and each blocking put increments the
    ``ingest_backpressure_waits_total`` counter on the attached metrics;
    queue depth is published as the ``ingest_queue_depth`` gauge on
    every put and get.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        metrics: "ServiceMetrics | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._queue: queue.Queue = queue.Queue(capacity)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._producers = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def add_producer(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._producers += 1

    def producer_done(self) -> None:
        with self._lock:
            if self._producers <= 0:
                raise RuntimeError("producer_done without add_producer")
            self._producers -= 1
            last = self._producers == 0
            if last:
                self._closed = True
        if last:
            # Outside the lock: the sentinel put can block on a full
            # queue and must never do so while holding _lock.
            self._queue.put(_CLOSED)

    def put(self, chunk: TableChunk) -> None:
        """Enqueue one chunk, blocking while the queue is full."""
        if self._metrics is not None:
            if self._queue.full():
                self._metrics.inc("ingest_backpressure_waits_total")
            self._queue.put(chunk)
            self._metrics.set_gauge(
                "ingest_queue_depth", float(self._queue.qsize())
            )
        else:
            self._queue.put(chunk)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TableChunk]:
        while True:
            entry = self._queue.get()
            if entry is _CLOSED:
                return
            if self._metrics is not None:
                self._metrics.set_gauge(
                    "ingest_queue_depth", float(self._queue.qsize())
                )
            yield entry

    def depth(self) -> int:
        """Current queue depth (approximate, for gauges and tests)."""
        return self._queue.qsize()
