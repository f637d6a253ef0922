"""Bench: the serving layer's amortization claims.

``repro batch`` loads the model once and streams every file through it;
the pre-serving alternative was a shell loop of one-shot ``repro
classify`` calls, each paying model deserialization again.  The
benchmark classifies 120 small tables both ways and asserts the bulk
path wins.  A second pass over the same inputs must be nearly free —
every table is an LRU cache hit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.persistence import load_pipeline, save_pipeline
from repro.corpus.registry import build_corpus
from repro.connectors.pipelined import run_streaming
from repro.connectors.sources import build_sources, expand_path_specs
from repro.serve.bulk import table_from_path
from repro.serve.cache import LRUCache
from repro.tables.csvio import table_to_csv

N_TABLES = 120
USABLE_CPUS = len(os.sched_getaffinity(0))


def _write_tables(tmp_path, pipeline_source="ckg"):
    corpus = build_corpus(pipeline_source, n_tables=N_TABLES, seed=11)
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    for i, item in enumerate(corpus):
        (table_dir / f"t{i:04d}.csv").write_text(table_to_csv(item.table))
    return table_dir


def test_bench_bulk_vs_oneshot_loop(tmp_path, warm_pipelines):
    pipeline = warm_pipelines["ckg"]
    model = save_pipeline(pipeline, tmp_path / "model.npz")
    paths = expand_path_specs([_write_tables(tmp_path)])
    assert len(paths) == N_TABLES

    # The pre-serving shape: every table pays load_pipeline again.
    start = time.perf_counter()
    for path in paths:
        load_pipeline(model).classify(table_from_path(path))
    t_oneshot = time.perf_counter() - start

    # repro batch: load once, stream on 4 parse threads.
    warm = load_pipeline(model)
    start = time.perf_counter()
    records = run_streaming(
        warm, build_sources([str(p) for p in paths])
    )
    t_bulk = time.perf_counter() - start

    assert len(records) == N_TABLES
    assert all("error" not in r for r in records)
    assert t_bulk < t_oneshot, (
        f"bulk {t_bulk:.2f}s should beat one-shot loop {t_oneshot:.2f}s"
    )
    print(
        f"\n{N_TABLES} tables: one-shot loop {t_oneshot:.2f}s "
        f"({N_TABLES / t_oneshot:.0f}/s) vs repro batch --workers 4 "
        f"{t_bulk:.2f}s ({N_TABLES / t_bulk:.0f}/s) — "
        f"{t_oneshot / t_bulk:.1f}x speedup"
    )


@pytest.mark.skipif(
    USABLE_CPUS < 4, reason=f"needs >=4 usable CPUs, have {USABLE_CPUS}"
)
def test_bench_serve_concurrent_speedup(warm_pipelines):
    """Pin the serve-path concurrency: 32 concurrent clients, each
    classifying on its own thread, must beat the serial loop by >=1.5x.
    This is the ``serve_batch_speedup`` trajectory number as a gate, so
    a serve-path regression fails the bench job instead of only
    drifting the series."""
    from repro.serve.httpd import ClassificationService
    from repro.serve.registry import ModelRegistry

    pipeline = warm_pipelines["ckg"]
    tables = [
        item.table for item in build_corpus("ckg", n_tables=N_TABLES, seed=11)
    ]
    # Warm shared caches so both measurements see the same steady state.
    for table in tables:
        pipeline.classify(table)

    serial_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for table in tables:
            pipeline.classify(table)
        serial_best = min(serial_best, time.perf_counter() - start)

    registry = ModelRegistry()
    registry.add("bench", pipeline)
    service = ClassificationService(
        registry,
        cache_capacity=0,  # measure classification, not the result cache
    )
    try:
        def _concurrent_pass() -> float:
            with ThreadPoolExecutor(max_workers=32) as clients:
                start = time.perf_counter()
                list(
                    clients.map(
                        lambda t: service.classify_table(t, model="bench"),
                        tables,
                    )
                )
                return time.perf_counter() - start

        _concurrent_pass()  # warm up
        concurrent_best = min(_concurrent_pass() for _ in range(3))
    finally:
        service.close()

    speedup = serial_best / concurrent_best
    print(
        f"\nserial {serial_best:.2f}s vs concurrent {concurrent_best:.2f}s "
        f"— {speedup:.2f}x speedup"
    )
    assert speedup >= 1.5, (
        f"serve speedup {speedup:.2f}x fell below the 1.5x floor "
        f"(serial {serial_best:.2f}s, concurrent {concurrent_best:.2f}s)"
    )


def test_bench_cache_second_pass(tmp_path, warm_pipelines):
    pipeline = warm_pipelines["ckg"]
    table_dir = str(_write_tables(tmp_path))
    cache = LRUCache(4 * N_TABLES)

    def _pass() -> list[dict]:
        return run_streaming(
            pipeline, build_sources([table_dir]), cache=cache
        )

    start = time.perf_counter()
    _pass()
    t_cold = time.perf_counter() - start

    start = time.perf_counter()
    records = _pass()
    t_warm = time.perf_counter() - start

    assert all(r["cached"] for r in records)
    assert cache.stats().hits >= N_TABLES
    assert t_warm < t_cold
    print(
        f"\ncold pass {t_cold:.2f}s, cached pass {t_warm:.2f}s "
        f"({t_cold / max(t_warm, 1e-9):.1f}x)"
    )
