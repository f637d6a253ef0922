"""Offline bulk classification (``repro batch``) and the shared record
helpers.

:func:`run_bulk` loads the model once and streams every input through
the streaming plane of :mod:`repro.connectors.pipelined` — on the
calling thread, or on a :class:`~repro.parallel.pool.ShardedPool` with
``procs``.  The helpers here are what every classify path shares: table
parsing (:func:`table_from_text`), the result-cache front
(:func:`classify_tables_cached`), and the one-per-table JSON record
(:func:`result_record`).
"""

from __future__ import annotations

import itertools
import json
import logging
import weakref
from pathlib import Path
from typing import Sequence

from repro.core.pipeline import MetadataPipeline
from repro.serve.cache import LRUCache
from repro.serve.metrics import ServiceMetrics
from repro.tables.labels import TableAnnotation
from repro.tables.model import Table

logger = logging.getLogger("repro.serve.bulk")

def table_from_path(path: str | Path) -> Table:
    """Load a table file: known suffixes dispatch, the rest content-sniff."""
    path = Path(path)
    # Real-world table corpora mix encodings (agency portals love
    # latin-1); replacing undecodable bytes costs one mojibake cell,
    # while the default strict decode costs the whole file.
    text = path.read_text(encoding="utf-8", errors="replace")
    return table_from_text(text, suffix=path.suffix.lower(), name=path.stem)


def _table_from_jsonl(text: str, *, name: str = "") -> Table:
    """One table out of NDJSON text: a row per line.

    Array lines are cell rows; object lines are records whose keys
    become the (first line's) header.  Rejections are ``ValueError`` —
    the fuzzer's parse contract.
    """
    rows: list[list[object]] = []
    header: list[str] | None = None
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {i} is not JSON: {exc}") from exc
        if isinstance(value, list):
            rows.append(value)
        elif isinstance(value, dict):
            if header is None:
                header = [str(k) for k in value]
                rows.append(list(header))
            rows.append([value.get(k, "") for k in header])
        else:
            raise ValueError(
                f"line {i}: JSONL rows must be arrays or objects"
            )
    if not rows:
        raise ValueError("no rows in JSONL text")
    return Table(rows, name=name)


def table_from_text(text: str, *, suffix: str = "", name: str = "") -> Table:
    """Parse table text: known suffixes dispatch, the rest content-sniff.

    Extension-only dispatch fails exactly where ingestion matters most —
    stdin and extensionless paths — so an unrecognized ``suffix`` routes
    through :func:`repro.connectors.sniff.sniff_format` instead of being
    force-fed to the CSV parser.
    """
    if suffix not in (
        ".json", ".jsonl", ".ndjson", ".md", ".markdown", ".html", ".htm",
        ".csv",
    ):
        from repro.connectors.sniff import sniff_format, suffix_for

        suffix = suffix_for(sniff_format(text))
    if suffix == ".json":
        from repro.tables.jsonio import table_from_json

        return table_from_json(text)
    if suffix in (".jsonl", ".ndjson"):
        return _table_from_jsonl(text, name=name)
    if suffix in (".md", ".markdown"):
        from repro.tables.markdown import table_from_markdown

        return table_from_markdown(text, name=name)
    if suffix in (".html", ".htm"):
        from repro.tables.html import parse_html_table

        return parse_html_table(text).to_table(name=name)
    from repro.tables.csvio import table_from_csv

    return table_from_csv(text, name=name)


def result_record(
    table: Table,
    annotation: TableAnnotation,
    *,
    model: str = "",
    cached: bool = False,
    seconds: float | None = None,
    source: str | None = None,
) -> dict:
    """The one-per-table JSON document every serving path emits."""
    record = {
        "name": table.name,
        "n_rows": table.n_rows,
        "n_cols": table.n_cols,
        "hmd_depth": annotation.hmd_depth,
        "vmd_depth": annotation.vmd_depth,
        "row_labels": [str(label) for label in annotation.row_labels],
        "col_labels": [str(label) for label in annotation.col_labels],
        "cached": cached,
    }
    if model:
        record["model"] = model
    if seconds is not None:
        record["seconds"] = round(seconds, 6)
    if source is not None:
        record["source"] = source
    return record


# Every pipeline instance gets a distinct small-int token for result
# cache keys.  The model *name* alone is not an identity: two pipelines
# can share a cache under the same name — bulk runs default to
# ``model=""``, and a hot reload rebinds a name to a new pipeline — and
# annotations cached for one must never answer for the other.  Weak
# keys keep retired pipelines collectable; their tokens (and thus their
# cache entries) are never reissued.
_PIPELINE_TOKENS: "weakref.WeakKeyDictionary[MetadataPipeline, int]" = (
    weakref.WeakKeyDictionary()
)
_TOKEN_COUNTER = itertools.count()


def _pipeline_cache_token(pipeline: MetadataPipeline) -> int:
    token = _PIPELINE_TOKENS.get(pipeline)
    if token is None:
        token = _PIPELINE_TOKENS.setdefault(pipeline, next(_TOKEN_COUNTER))
    return token


def classify_tables_cached(
    pipeline: MetadataPipeline,
    tables: Sequence[Table],
    cache: LRUCache | None,
    *,
    model: str = "",
) -> list[tuple[TableAnnotation | Exception, bool]]:
    """Classify through the result cache as one fused shard; returns one
    ``(annotation, hit)`` pair per table.

    Keys carry ``(model, pipeline token, content hash)`` — the pipeline
    token makes entries from a different pipeline object unreachable
    even when the model name collides (see
    :func:`_pipeline_cache_token`).  Cache hits resolve up front; the
    misses classify together through
    :meth:`~repro.core.pipeline.MetadataPipeline.classify_corpus` as one
    fused shard, so a bulk run pays per-shard, not per-table, Python
    overhead.  Per-item isolation
    is preserved: if the shard raises, the misses re-classify one by
    one and only the failing tables carry their exception (in the
    annotation slot) back to the caller.
    """
    results: list[tuple[TableAnnotation | Exception, bool] | None] = [
        None
    ] * len(tables)
    keys: list[tuple | None] = [None] * len(tables)
    miss_idx: list[int] = []
    miss_tables: list[Table] = []
    token = _pipeline_cache_token(pipeline) if cache is not None else 0
    for i, table in enumerate(tables):
        if cache is not None:
            key = (model, token, table.content_hash())
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                results[i] = (hit, True)
                continue
        miss_idx.append(i)
        miss_tables.append(table)
    if miss_tables:
        annotations: list[TableAnnotation | Exception]
        try:
            annotations = list(pipeline.classify_corpus(miss_tables))
        except Exception:  # noqa: BLE001 - fall back to per-item isolation
            annotations = []
            for table in miss_tables:
                try:
                    annotations.append(pipeline.classify(table))
                except Exception as exc:  # noqa: BLE001
                    annotations.append(exc)
        for i, annotation in zip(miss_idx, annotations):
            if isinstance(annotation, Exception):
                results[i] = (annotation, False)
                continue
            key = keys[i]
            if cache is not None and key is not None:
                cache.put(key, annotation)
            results[i] = (annotation, False)
    # Every slot is filled (hit up front, or via miss_idx); the guard
    # keeps a length-preserving result even if that invariant breaks.
    return [
        r if r is not None else (RuntimeError("table was not classified"), False)
        for r in results
    ]


def run_bulk(
    model_path: str | Path,
    inputs: Sequence[str],
    *,
    workers: int | None = 4,
    procs: int | None = None,
    out: str | Path | None = None,
    cache_capacity: int = 4096,
    ordered: bool = True,
    trace_dir: str | Path | None = None,
    window_rows: int | None = None,
    window_cols: int | None = None,
    metrics: ServiceMetrics | None = None,
) -> list[dict]:
    """The ``repro batch`` entry point: load once, classify many.

    Runs on the streaming plane (:mod:`repro.connectors`): inputs may
    be files, dirs, globs, ``sql:``/``jsonl:``/``xlsx:`` specs, or
    ``-`` (stdin, content-sniffed), and ``out`` may be a JSONL path or a
    ``sql:db#table`` sink spec.  ``window_rows``/``window_cols`` switch
    row-streamable sources (CSV files, DB cursors, stdin CSV) to
    bounded-memory windowed classification.

    By default the caller's thread parses and classifies chunk by chunk
    (:func:`~repro.connectors.pipelined.run_streaming`).  ``procs``
    switches the classify stage to worker processes: the model is
    loaded once per worker (memory-mapped when ``model_path`` is a
    directory store), ``workers`` parse threads (``None`` = CPU-aware
    default) feed them through a backpressured bounded queue, and
    ``ordered=False`` emits records as chunks finish instead of in
    input order.  ``trace_dir`` (procs only) collects per-worker span
    files for :func:`repro.parallel.traces.merge_traces`.
    """
    from repro.connectors.pipelined import run_streaming, run_streaming_pool
    from repro.connectors.sinks import build_sink
    from repro.connectors.sources import build_sources
    from repro.core.persistence import load_pipeline

    name = Path(model_path).stem
    window = None
    if window_rows is not None or window_cols is not None:
        from repro.connectors.window import WindowConfig

        window = WindowConfig.from_budget(window_rows or 64, window_cols)
    sources = build_sources(inputs)
    sink = build_sink(str(out)) if out is not None else build_sink("-")
    try:
        if procs is not None:
            from repro.parallel import ShardedPool

            with ShardedPool(
                {name: model_path}, procs=procs, default=name,
                cache_capacity=cache_capacity, trace_dir=trace_dir,
            ) as pool:
                logger.info(
                    "streaming %d sources onto %d processes",
                    len(sources), pool.procs,
                )
                records = run_streaming_pool(
                    pool, sources, model=name, parse_workers=workers,
                    window=window, metrics=metrics, ordered=ordered,
                    sink=sink,
                )
                if metrics is not None:
                    metrics.merge_stage_totals(pool.drain_stage_totals())
        else:
            pipeline = load_pipeline(model_path)
            cache = LRUCache(cache_capacity) if cache_capacity else None
            logger.info("streaming %d sources", len(sources))
            records = run_streaming(
                pipeline, sources, cache=cache, model=name,
                window=window, metrics=metrics, sink=sink,
            )
    finally:
        sink.close()
    return records
