"""Bench: the streaming ingestion plane's pipelining and memory claims.

Two claims from the connectors subsystem are pinned here:

* the pipelined parse->pack->classify executor of ``repro batch
  --procs`` (parse threads in the parent feeding a warm 2-process
  :class:`~repro.parallel.ShardedPool`) is at least
  :data:`STREAMING_SPEEDUP_FLOOR` x faster than the strictly sequential
  parse-then-classify loop on a 120-file corpus (skipped on machines
  with fewer than 4 usable CPUs).  The thread-mode default parses and
  classifies on one thread, so it has no overlap to claim;
* windowed classification of a table ~25x the window budget stays under
  a pinned tracemalloc ceiling while producing label runs that tile the
  full (never materialized) row axis — and on a table that *fits* the
  window, its labels are byte-identical to the in-memory path.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

import pytest

from repro.connectors.pipelined import run_streaming_pool
from repro.connectors.sources import build_sources
from repro.connectors.window import (
    CsvRowStream,
    ListRowStream,
    WindowConfig,
    classify_windowed,
)
from repro.core.persistence import save_pipeline_dir
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.corpus.registry import build_corpus, build_split
from repro.corpus.vocabularies import get_domain
from repro.parallel import ShardedPool
from repro.serve.bulk import classify_tables_cached, result_record, table_from_path
from repro.tables.csvio import table_to_csv

N_TABLES = 120
USABLE_CPUS = len(os.sched_getaffinity(0))

#: The 2-process pipelined executor must beat the sequential loop by
#: this much.
STREAMING_SPEEDUP_FLOOR = 1.3

#: Peak traced allocation allowed while classifying the big windowed
#: table.  The full grid would cost >25 MB; the window path peaks
#: ~6 MB (the 192-row window's classification dominates).
WINDOWED_PEAK_CEILING_BYTES = 12 * 1024 * 1024

BIG_ROWS = 50_000
BIG_COLS = 8


def _fitted_pipeline():
    config = PipelineConfig(
        embedding="hashed",
        hashed_fields=get_domain("biomedical").field_map(),
        n_pairs=200,
        use_contrastive=False,
    )
    train, _ = build_split("ckg", n_train=60, n_eval=0, seed=7)
    return MetadataPipeline(config).fit(train)


def _write_tables(tmp_path):
    corpus = build_corpus("ckg", n_tables=N_TABLES, seed=11)
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    paths = []
    for i, item in enumerate(corpus):
        path = table_dir / f"t{i:04d}.csv"
        path.write_text(table_to_csv(item.table))
        paths.append(str(path))
    return paths


def _sequential_pass(pipeline, paths):
    """Parse every file, then classify in 16-table shards; no executor."""
    start = time.perf_counter()
    tables = [table_from_path(path) for path in paths]
    records = []
    for i in range(0, len(tables), 16):
        shard = tables[i:i + 16]
        outcomes = classify_tables_cached(pipeline, shard, None)
        records.extend(
            result_record(table, annotation)
            for table, (annotation, _hit) in zip(shard, outcomes)
        )
    elapsed = time.perf_counter() - start
    assert len(records) == len(paths)
    return elapsed


def _pool_pass(pool, paths):
    start = time.perf_counter()
    records = run_streaming_pool(pool, build_sources(paths), chunk_size=16)
    elapsed = time.perf_counter() - start
    assert len(records) == len(paths)
    assert all("error" not in r for r in records)
    return elapsed


@pytest.mark.skipif(
    USABLE_CPUS < 4, reason=f"needs >=4 usable CPUs, have {USABLE_CPUS}"
)
def test_bench_streaming_pipelining(tmp_path):
    """Parse threads feeding 2 worker processes must deliver >=1.3x."""
    pipeline = _fitted_pipeline()
    paths = _write_tables(tmp_path)
    store = save_pipeline_dir(pipeline, tmp_path / "model")

    _sequential_pass(pipeline, paths)  # warm imports and the row cache
    sequential = min(_sequential_pass(pipeline, paths) for _ in range(3))
    with ShardedPool(
        {"bench": store}, procs=2, default="bench", cache_capacity=0
    ) as pool:
        _pool_pass(pool, paths)  # warm worker imports, pages and row caches
        streaming = min(_pool_pass(pool, paths) for _ in range(3))

    speedup = sequential / streaming
    print(
        f"\nstreaming: sequential {N_TABLES / sequential:.1f} tables/s, "
        f"2-process pipelined {N_TABLES / streaming:.1f} tables/s "
        f"({speedup:.2f}x)"
    )
    assert speedup >= STREAMING_SPEEDUP_FLOOR, (
        f"pipelined streaming only {speedup:.2f}x over sequential; "
        f"the floor is {STREAMING_SPEEDUP_FLOOR:.1f}x"
    )


def _write_big_csv(path):
    with path.open("w") as f:
        f.write(",".join(f"col{c}" for c in range(BIG_COLS)) + "\n")
        for r in range(BIG_ROWS - 1):
            f.write(",".join(f"value-{r}-{c}" for c in range(BIG_COLS)) + "\n")
    return path


def test_bench_windowed_memory_bound(tmp_path):
    """Windowed classify of a 50k-row CSV under a pinned heap ceiling."""
    pipeline = _fitted_pipeline()
    big = _write_big_csv(tmp_path / "big.csv")
    config = WindowConfig.from_budget(64)

    # Warm lazy imports and caches outside the measured region.
    classify_windowed(pipeline, CsvRowStream(big), config)

    tracemalloc.start()
    try:
        result = classify_windowed(pipeline, CsvRowStream(big), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    record = result.record
    assert record["n_rows"] == BIG_ROWS
    assert record["window_rows"] == 192
    runs = record["row_label_runs"]
    assert runs[0][0] == 0 and runs[-1][1] == BIG_ROWS
    assert sum(stop - start for start, stop, _ in runs) == BIG_ROWS
    print(f"\nwindowed peak: {peak / 1e6:.2f} MB over {BIG_ROWS} rows")
    assert peak < WINDOWED_PEAK_CEILING_BYTES, (
        f"windowed classify peaked at {peak / 1e6:.1f} MB; the ceiling "
        f"is {WINDOWED_PEAK_CEILING_BYTES / 1e6:.0f} MB"
    )


def test_bench_windowed_exactness(tmp_path):
    """A window-sized table's labels are byte-identical to in-memory."""
    pipeline = _fitted_pipeline()
    _, tables = build_split("ckg", n_train=0, n_eval=8, seed=23)
    for item in tables:
        stream = ListRowStream(
            [list(row) for row in item.table.rows], name=item.table.name
        )
        windowed = classify_windowed(
            pipeline, stream, WindowConfig.from_budget(256)
        )
        full = pipeline.classify(item.table)
        assert windowed.record["window_exact"]
        a = json.dumps([str(x) for x in windowed.annotation.row_labels])
        b = json.dumps([str(x) for x in full.row_labels])
        assert a.encode() == b.encode()
