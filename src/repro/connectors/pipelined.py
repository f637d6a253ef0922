"""The streaming parse→pack→classify executors of ``repro batch``.

Both consumers cut each source into :class:`TableChunk`s and classify
each chunk as one fused shard, with records in ``(rank, index)`` input
order.

* :func:`run_streaming` (the thread-mode default) runs on the caller's
  thread: it reads the sources in order, parses a chunk, classifies
  it, writes its records, and moves on.  Table parsing is pure Python
  under the GIL, so parse threads would only compete with the classify
  stage for one interpreter; the loop keeps memory bounded by one
  chunk without a queue or a thread.
* :func:`run_streaming_pool` (``--procs``) ships chunks to a
  :class:`~repro.parallel.pool.ShardedPool`.  Here parse threads pull
  sources off a shared work list and feed a bounded
  :class:`ChunkQueue`, so parsing overlaps with classification on the
  worker *processes*, and a full queue throttles the parsers instead
  of letting parsed tables pile up without bound.

Windowed classification rides the same chunks: a windowed source item
carries its :class:`~repro.connectors.window.WindowPlan` and its table
*is* the bounded window grid, so the classify stage needs no special
casing beyond emitting the windowed record shape.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro import obs
from repro.connectors.chunks import ChunkQueue, SourceItem, TableChunk
from repro.connectors.sources import TableSource
from repro.connectors.window import (
    RowStream,
    WindowConfig,
    build_window,
    windowed_record,
)
from repro.core.pipeline import MetadataPipeline
from repro.serve.cache import LRUCache
from repro.serve.metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.pool import ShardedPool

logger = logging.getLogger("repro.connectors.pipelined")

#: A sink is anything with ``write(record)`` (see ``connectors.sinks``).
Sink = object


def _expand_units(
    sources: Sequence[TableSource],
    parse_workers: int,
) -> list[tuple[int, TableSource]]:
    """Split sources into rank-ordered parse units.

    Each unit runs on one parse thread; ``(rank, index)`` chunk ordering
    holds because splits are contiguous slices enumerated in input
    order.
    """
    units: list[tuple[int, TableSource]] = []
    for source in sources:
        for sub in source.split(parse_workers):
            units.append((len(units), sub))
    return units


def _unit_chunks(
    rank: int,
    source: TableSource,
    chunk_size: int,
    window: WindowConfig | None,
) -> Iterator[TableChunk]:
    """Parse one unit into chunks; any failure is one error item.

    A generator: the consumer handles each chunk outside this frame, so
    a classify or sink failure propagates to the caller instead of
    being caught here as a failure of the source.
    """
    index = 0
    buffer: list[SourceItem] = []
    try:
        streams = source.row_streams() if window is not None else None
        if window is not None and streams is not None:
            # A window is a whole table's worth of parse work; ship it
            # alone so classify starts before the next stream is read.
            chunk_size = 1
            items: Iterator[SourceItem] = _window_items(streams, window)
        else:
            items = source.items()
        for item in items:
            buffer.append(item)
            if len(buffer) >= chunk_size:
                yield TableChunk(rank=rank, index=index, items=tuple(buffer))
                index += len(buffer)
                buffer = []
    except Exception as exc:  # noqa: BLE001 - per-unit isolation
        logger.warning("source %s failed: %s", source.spec, exc)
        buffer.append(SourceItem(source=source.spec, error=str(exc)))
    if buffer:
        yield TableChunk(rank=rank, index=index, items=tuple(buffer))


def _window_items(
    streams: Iterator[RowStream], window: WindowConfig
) -> Iterator[SourceItem]:
    for stream in streams:
        try:
            plan = build_window(stream, window)
            item = SourceItem(source=plan.source, table=plan.window, window=plan)
        except Exception as exc:  # noqa: BLE001 - per-stream isolation
            item = SourceItem(source=stream.source, error=str(exc))
        yield item


def _parse_thread(
    units: deque,
    out: ChunkQueue,
    chunk_size: int,
    window: WindowConfig | None,
) -> None:
    try:
        while True:
            try:
                rank, source = units.popleft()  # deque.popleft is atomic
            except IndexError:
                return
            for chunk in _unit_chunks(rank, source, chunk_size, window):
                out.put(chunk)
    finally:
        out.producer_done()


def classify_chunk_items(
    pipeline: MetadataPipeline,
    items: Sequence[SourceItem],
    cache: LRUCache | None,
    *,
    model: str = "",
    metrics: ServiceMetrics | None = None,
) -> list[dict]:
    """Classify one chunk's items as one fused shard; one record each.

    Shared by the in-process consumer and the ``--procs`` worker entry
    (:func:`repro.parallel._worker.classify_stream_chunk`).  Error items
    pass through as ``{"source": ..., "error": ...}`` records; windowed
    items emit the windowed record shape.
    """
    from repro.serve.bulk import classify_tables_cached, result_record

    records: list[dict | None] = [None] * len(items)
    live = [
        (i, item.table)
        for i, item in enumerate(items)
        if item.table is not None
    ]
    with obs.span("ingest.pack", tables=len(live)):
        outcomes = classify_tables_cached(
            pipeline, [table for _, table in live], cache, model=model,
        )
    for (i, table), (annotation, hit) in zip(live, outcomes):
        item = items[i]
        if isinstance(annotation, Exception):
            logger.warning("failed on %s: %s", item.source, annotation)
            records[i] = {"source": item.source, "error": str(annotation)}
        elif item.window is not None:
            records[i] = windowed_record(item.window, annotation, model=model)
        else:
            records[i] = result_record(
                table, annotation, model=model, cached=hit,
                source=item.source,
            )
    for i, item in enumerate(items):
        if records[i] is None:
            records[i] = {"source": item.source, "error": item.error or ""}
    if metrics is not None:
        errors = sum(1 for r in records if r is not None and "error" in r)
        metrics.inc("ingest_chunks_total")
        metrics.inc("ingest_tables_total", len(items) - errors)
        if errors:
            metrics.inc("ingest_errors_total", errors)
    return [r for r in records if r is not None]


def _pump(
    sources: Sequence[TableSource],
    consume: Callable[[TableChunk], None],
    *,
    parse_workers: int,
    chunk_size: int,
    queue_capacity: int,
    window: WindowConfig | None,
    metrics: ServiceMetrics | None,
) -> None:
    """Run the parse threads and feed every chunk to ``consume``."""
    units = deque(_expand_units(sources, parse_workers))
    channel = ChunkQueue(queue_capacity, metrics=metrics)
    n_threads = max(1, min(parse_workers, len(units)) or 1)
    for _ in range(n_threads):
        channel.add_producer()
    threads = [
        threading.Thread(
            target=_parse_thread,
            args=(units, channel, chunk_size, window),
            name=f"repro-ingest-{i}",
            daemon=True,
        )
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    try:
        for chunk in channel:
            consume(chunk)
    except BaseException:  # drain-then-reraise: nothing is swallowed
        # The consumer died; keep draining so blocked producers can
        # finish and the threads join instead of leaking.
        units.clear()
        for _ in channel:
            pass
        raise
    finally:
        for thread in threads:
            thread.join()


def run_streaming(
    pipeline: MetadataPipeline,
    sources: Sequence[TableSource],
    *,
    cache: LRUCache | None = None,
    model: str = "",
    chunk_size: int = 64,
    window: WindowConfig | None = None,
    metrics: ServiceMetrics | None = None,
    sink: "Sink | None" = None,
) -> list[dict]:
    """Parse→pack→classify against an in-process pipeline, on this thread.

    Reads the sources in order and classifies each chunk of
    ``chunk_size`` parsed tables as one fused shard, so memory stays
    bounded by one chunk.  Records come back (and go to ``sink`` as
    each chunk finishes) in input order.  A classify or sink exception
    propagates; only parse failures become error records.
    """
    records: list[dict] = []
    for rank, source in enumerate(sources):
        for chunk in _unit_chunks(rank, source, chunk_size, window):
            chunk_records = classify_chunk_items(
                pipeline, chunk.items, cache, model=model, metrics=metrics
            )
            if sink is not None:
                for record in chunk_records:
                    sink.write(record)  # type: ignore[attr-defined]
            records.extend(chunk_records)
    return records


def run_streaming_pool(
    pool: "ShardedPool",
    sources: Sequence[TableSource],
    *,
    model: str = "",
    parse_workers: int | None = None,
    chunk_size: int = 16,
    queue_capacity: int = 8,
    window: WindowConfig | None = None,
    metrics: ServiceMetrics | None = None,
    ordered: bool = True,
    sink: "Sink | None" = None,
) -> list[dict]:
    """Pipelined streaming with classification on worker processes.

    Parse threads run here; each chunk ships to the pool as one fused
    shard (:meth:`~repro.parallel.pool.ShardedPool.submit_tables`).
    Outstanding futures are bounded at ``2 * procs`` so a fast parser
    cannot balloon memory past the queue's own backpressure.
    """
    if parse_workers is None:
        from repro.parallel.pool import cpu_worker_default

        parse_workers = cpu_worker_default(ceiling=4)
    max_outstanding = max(4, 2 * pool.procs)
    pending: deque = deque()
    collected: list[tuple[int, int, list[dict]]] = []

    def drain_one() -> None:
        rank, index, future = pending.popleft()
        records = future.result()
        if metrics is not None:
            errors = sum(1 for r in records if "error" in r)
            metrics.inc("ingest_chunks_total")
            metrics.inc("ingest_tables_total", len(records) - errors)
            if errors:
                metrics.inc("ingest_errors_total", errors)
        if not ordered and sink is not None:
            for record in records:
                sink.write(record)  # type: ignore[attr-defined]
        collected.append((rank, index, records))

    def consume(chunk: TableChunk) -> None:
        pending.append(
            (chunk.rank, chunk.index, pool.submit_tables(chunk.items, model=model))
        )
        while len(pending) >= max_outstanding:
            drain_one()

    try:
        _pump(
            sources, consume,
            parse_workers=parse_workers, chunk_size=chunk_size,
            queue_capacity=queue_capacity, window=window, metrics=metrics,
        )
        while pending:
            drain_one()
    except BaseException:  # cancel-then-reraise: nothing is swallowed
        while pending:
            _, _, future = pending.popleft()
            future.cancel()
        raise
    if ordered:
        collected.sort(key=lambda entry: (entry[0], entry[1]))
    records = [r for _, _, chunk_records in collected for r in chunk_records]
    if ordered and sink is not None:
        for record in records:
            sink.write(record)  # type: ignore[attr-defined]
    return records
