"""Request queue with micro-batching over a thread worker pool.

Incoming items are enqueued with a :class:`~concurrent.futures.Future`;
a collector thread groups them into batches bounded by **size**
(``max_batch_size``) and **latency** (``max_delay`` — the longest the
first item of a batch may wait for batchmates), then dispatches each
batch to a :class:`~concurrent.futures.ThreadPoolExecutor`.
Classification is NumPy-bound, so worker threads release the GIL inside
BLAS and concurrent clients amortize warm-up instead of serializing.

Batching is **adaptive**: the collector drains whatever is already
queued, and only waits out the ``max_delay`` deadline for further
batchmates while every pool worker is busy — time that costs nothing,
because no worker could start the batch anyway.  The moment there is
idle worker capacity a partial batch dispatches immediately, so a
lightly loaded service never trades latency (or throughput) for batch
size it cannot use.

``shutdown(drain=True)`` is graceful: the queue stops accepting new
work, everything already enqueued is dispatched and completed, and only
then do the collector and pool exit.
"""

from __future__ import annotations

import logging
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import monotonic
from typing import Callable, Generic, Sequence, TypeVar

from repro import obs

logger = logging.getLogger("repro.serve.batching")

T = TypeVar("T")
R = TypeVar("R")

_SENTINEL = object()


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs for the micro-batcher.

    ``max_delay`` trades tail latency for batch size; 0 dispatches every
    item alone (useful to disable batching without changing call sites).
    """

    max_batch_size: int = 16
    max_delay: float = 0.005
    workers: int = 4
    queue_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay cannot be negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class BatchingExecutor(Generic[T, R]):
    """Batches ``submit``-ed items and runs ``handler(batch)`` on a pool.

    ``handler`` receives a list of items and must return one result per
    item, in order.  A result that is an exception *instance* fails only
    that item's future, so handlers can isolate per-item errors; a
    handler that raises fails every future in that batch (other batches
    are unaffected).
    """

    def __init__(
        self,
        handler: Callable[[list[T]], Sequence[R]],
        config: BatchingConfig | None = None,
        *,
        on_batch: Callable[[int], None] | None = None,
    ) -> None:
        self.config = config or BatchingConfig()
        self._handler = handler
        self._on_batch = on_batch
        self._queue: queue.Queue = queue.Queue(self.config.queue_capacity)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-worker"
        )
        # Two locks, deliberately: _gate serializes submit()/shutdown()
        # (and is held across the queue put, so the shutdown sentinel
        # strictly follows every accepted entry), while the collector's
        # _dispatch only ever takes _inflight_lock.  The collector can
        # therefore always drain a full queue even while a submitter
        # blocks in put() holding _gate — no lock is shared between the
        # producer and consumer sides.
        self._gate = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._closed = False  # guarded-by: _gate
        self._inflight: set[Future] = set()  # guarded-by: _inflight_lock
        self._collector = threading.Thread(
            target=self._collect, name="repro-batcher", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, item: T) -> "Future[R]":
        with self._gate:
            if self._closed:
                raise RuntimeError("executor is shut down")
            future: "Future[R]" = Future()
            # repro-lint: disable=lock-blocking-call - load-bearing: the
            # put must happen under _gate so shutdown()'s sentinel strictly
            # follows every accepted entry.  Deadlock-free because the
            # collector drains the queue without ever taking _gate.
            self._queue.put((item, future))
            return future

    # ------------------------------------------------------------------
    # collector
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            entry = self._queue.get()
            if entry is _SENTINEL:
                return
            batch = [entry]
            deadline = monotonic() + self.config.max_delay
            while len(batch) < self.config.max_batch_size:
                try:
                    # Greedy: anything already queued joins the batch
                    # for free.
                    entry = self._queue.get_nowait()
                except queue.Empty:
                    # Nothing waiting.  Holding the batch open for
                    # stragglers is only worthwhile while every worker
                    # is busy (the wait costs nothing — no worker could
                    # start us anyway); with idle capacity, waiting
                    # just adds latency, so dispatch what we have.
                    if not self._workers_busy():
                        break
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        break
                    try:
                        entry = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if entry is _SENTINEL:
                    self._dispatch(batch)
                    return
                batch.append(entry)
            self._dispatch(batch)

    def _workers_busy(self) -> bool:
        with self._inflight_lock:
            return len(self._inflight) >= self.config.workers

    def _dispatch(self, batch: list) -> None:
        logger.debug("dispatching batch of %d", len(batch))
        if self._on_batch is not None:
            self._on_batch(len(batch))
        future = self._pool.submit(self._run_batch, batch)
        with self._inflight_lock:
            self._inflight.add(future)
        future.add_done_callback(self._discard_inflight)

    def _discard_inflight(self, future: Future) -> None:
        # Done-callback; runs on a worker thread, so take the lock
        # rather than relying on set.discard's GIL atomicity.
        with self._inflight_lock:
            self._inflight.discard(future)

    def _run_batch(self, batch: list) -> None:
        items = [item for item, _ in batch]
        try:
            # The batch span is a root on the worker thread: a batch may
            # mix items from several traces, so it cannot belong to any
            # one of them.  Handlers restore each item's own captured
            # context (see ClassificationService._handle_batch).
            with obs.span("serve.batch", size=len(items)):
                results = list(self._handler(items))
            if len(results) != len(items):
                raise RuntimeError(
                    f"handler returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for _, fut in batch:
                if not fut.cancelled():
                    fut.set_exception(exc)
            return
        for (_, fut), result in zip(batch, results):
            if fut.cancelled():
                continue
            if isinstance(result, BaseException):
                fut.set_exception(result)
            else:
                fut.set_result(result)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting work; with ``drain`` finish what's enqueued."""
        with self._gate:
            if self._closed:
                return
            self._closed = True
            # Enqueued under _gate, so the sentinel lands strictly after
            # every accepted submit() — no entry can be stranded behind it.
            # repro-lint: disable=lock-blocking-call - same ordering
            # argument as submit(); the collector never takes _gate.
            self._queue.put(_SENTINEL)
        self._collector.join()
        if drain:
            # The collector has exited, so _inflight is now stable.
            with self._inflight_lock:
                pending = list(self._inflight)
            for future in pending:
                future.result()
        self._pool.shutdown(wait=drain)

    def __enter__(self) -> "BatchingExecutor[T, R]":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
