"""Streaming ingestion plane: sources → backpressured chunks → labels.

Every connector — files, JSONL, xlsx workbooks, DB-API cursors, stdin —
yields :class:`SourceItem`s through one protocol; thread mode parses
and classifies chunk by chunk on one thread, while under ``--procs``
parse threads feed the worker processes through a bounded
:class:`ChunkQueue`; and windowed classification keeps tables larger
than memory classifiable from a bounded row/column window.  See
``docs/CONNECTORS.md`` for the protocol, backpressure model, windowed
semantics, and sink contract.
"""

from repro.connectors.chunks import ChunkQueue, SourceItem, TableChunk
from repro.connectors.pipelined import (
    classify_chunk_items,
    run_streaming,
    run_streaming_pool,
)
from repro.connectors.sinks import (
    JsonlSink,
    Sink,
    SqliteSink,
    StdoutSink,
    build_sink,
)
from repro.connectors.sniff import sniff_format, suffix_for
from repro.connectors.sources import (
    FilesSource,
    JsonlSource,
    StdinSource,
    TableSource,
    TextSource,
    build_sources,
    expand_path_specs,
)
from repro.connectors.window import (
    CsvRowStream,
    ListRowStream,
    RowStream,
    TextCsvRowStream,
    WindowConfig,
    WindowPlan,
    WindowedResult,
    build_window,
    classify_windowed,
    windowed_record,
)

__all__ = [
    "ChunkQueue",
    "CsvRowStream",
    "FilesSource",
    "JsonlSink",
    "JsonlSource",
    "ListRowStream",
    "RowStream",
    "Sink",
    "SourceItem",
    "SqliteSink",
    "StdinSource",
    "StdoutSink",
    "TableChunk",
    "TableSource",
    "TextCsvRowStream",
    "TextSource",
    "WindowConfig",
    "WindowPlan",
    "WindowedResult",
    "build_sink",
    "build_sources",
    "build_window",
    "classify_chunk_items",
    "classify_windowed",
    "expand_path_specs",
    "run_streaming",
    "run_streaming_pool",
    "sniff_format",
    "suffix_for",
    "windowed_record",
]
