"""Pipelined executor tests: parity with sequential, ordering, errors."""

from __future__ import annotations

import json
import threading

import pytest

from repro.connectors import pipelined
from repro.connectors.pipelined import run_streaming, run_streaming_pool
from repro.connectors.sinks import JsonlSink
from repro.connectors.sources import build_sources
from repro.connectors.window import WindowConfig
from repro.serve.cache import LRUCache
from repro.serve.metrics import ServiceMetrics
from tests.conftest import sequential_records


@pytest.fixture
def corpus_dir(tmp_path, ckg_eval):
    for i, annotated in enumerate(ckg_eval[:8]):
        rows = "\n".join(
            ",".join(cell.replace(",", ";") for cell in row)
            for row in annotated.table.rows
        )
        (tmp_path / f"table-{i:02d}.csv").write_text(rows + "\n")
    return tmp_path


def _normalize(record: dict) -> dict:
    skip = ("seconds", "cached", "model")
    return {k: v for k, v in record.items() if k not in skip}


class TestRunStreaming:
    def test_matches_sequential_path(self, hashed_pipeline, corpus_dir):
        paths = sorted(corpus_dir.glob("*.csv"))
        sequential = sequential_records(hashed_pipeline, paths)
        streamed = run_streaming(
            hashed_pipeline,
            build_sources([str(p) for p in paths]),
            chunk_size=3,
        )
        assert [_normalize(r) for r in streamed] == [
            _normalize(r) for r in sequential
        ]

    def test_ordered_output_follows_input_order(
        self, hashed_pipeline, corpus_dir
    ):
        records = run_streaming(
            hashed_pipeline,
            build_sources([str(corpus_dir)]),
            chunk_size=1,
        )
        names = [r["name"] for r in records]
        assert names == sorted(names)

    def test_error_isolation(self, hashed_pipeline, tmp_path):
        (tmp_path / "a.csv").write_text("x,y\n1,2\n")
        (tmp_path / "b.json").write_text("{broken")
        (tmp_path / "c.csv").write_text("p,q\n3,4\n")
        records = run_streaming(
            hashed_pipeline, build_sources([str(tmp_path)])
        )
        assert len(records) == 3
        errors = [r for r in records if "error" in r]
        assert len(errors) == 1
        assert errors[0]["source"].endswith("b.json")

    def test_metrics_counters(self, hashed_pipeline, corpus_dir):
        metrics = ServiceMetrics()
        run_streaming(
            hashed_pipeline,
            build_sources([str(corpus_dir)]),
            chunk_size=2,
            metrics=metrics,
        )
        assert metrics.counter("ingest_tables_total") == 8
        assert metrics.counter("ingest_chunks_total") >= 4
        assert metrics.counter("ingest_errors_total") == 0

    def test_sink_receives_every_record_in_input_order(
        self, hashed_pipeline, corpus_dir, tmp_path
    ):
        out = tmp_path / "out.jsonl"
        with JsonlSink(out) as sink:
            records = run_streaming(
                hashed_pipeline,
                build_sources([str(corpus_dir)]),
                chunk_size=3,
                sink=sink,
            )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["name"] for r in lines] == [
            f"table-{i:02d}" for i in range(8)
        ]
        assert lines == records

    def test_sink_written_as_each_chunk_finishes(
        self, hashed_pipeline, corpus_dir, monkeypatch
    ):
        # The sink sees chunk k's records before chunk k+1 is classified.
        written: list[dict] = []
        seen_at_classify: list[int] = []
        classify = pipelined.classify_chunk_items

        def spy(pipeline, items, cache, **kwargs):
            seen_at_classify.append(len(written))
            return classify(pipeline, items, cache, **kwargs)

        class ListSink:
            def write(self, record):
                written.append(record)

        monkeypatch.setattr(pipelined, "classify_chunk_items", spy)
        run_streaming(
            hashed_pipeline, build_sources([str(corpus_dir)]),
            chunk_size=3, sink=ListSink(),
        )
        assert seen_at_classify == [0, 3, 6]
        assert len(written) == 8

    def test_starts_no_threads(self, hashed_pipeline, corpus_dir, monkeypatch):
        def refuse(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        records = run_streaming(
            hashed_pipeline, build_sources([str(corpus_dir)]), chunk_size=3
        )
        assert len(records) == 8

    def test_classify_failure_propagates(
        self, hashed_pipeline, corpus_dir, monkeypatch
    ):
        # A consumer failure is not a parse failure: it must leave
        # run_streaming, not become a per-source error record.
        def broken(*args, **kwargs):
            raise RuntimeError("classify stage died")

        monkeypatch.setattr(pipelined, "classify_chunk_items", broken)
        with pytest.raises(RuntimeError, match="classify stage died"):
            run_streaming(hashed_pipeline, build_sources([str(corpus_dir)]))

    def test_sink_failure_propagates(self, hashed_pipeline, corpus_dir):
        class FullSink:
            writes = 0

            def write(self, record):
                self.writes += 1
                raise OSError("disk full")

        sink = FullSink()
        with pytest.raises(OSError, match="disk full"):
            run_streaming(
                hashed_pipeline, build_sources([str(corpus_dir)]),
                chunk_size=3, sink=sink,
            )
        assert sink.writes == 1

    def test_windowed_streaming(self, hashed_pipeline, corpus_dir):
        records = run_streaming(
            hashed_pipeline,
            build_sources([str(corpus_dir)]),
            window=WindowConfig.from_budget(256),
        )
        assert len(records) == 8
        assert all(r["windowed"] for r in records)
        # Every eval table fits the 256-row budget: windows are exact.
        assert all(r["window_exact"] for r in records)

    def test_cache_is_shared_across_chunks(self, hashed_pipeline, tmp_path):
        (tmp_path / "a.csv").write_text("x,y\n1,2\n")
        (tmp_path / "b.csv").write_text("x,y\n1,2\n")
        cache = LRUCache(capacity=16)
        records = run_streaming(
            hashed_pipeline,
            build_sources([str(tmp_path)]),
            cache=cache,
            chunk_size=1,
        )
        assert len(records) == 2
        assert any(r.get("cached") for r in records)


class TestRunStreamingPool:
    def test_matches_thread_path(self, corpus_dir, hashed_pipeline, tmp_path):
        from repro.core.persistence import save_pipeline_dir
        from repro.parallel.pool import ShardedPool

        model = save_pipeline_dir(hashed_pipeline, tmp_path / "model")
        sources = [str(corpus_dir)]
        with ShardedPool({"m": model}, procs=2, default="m") as pool:
            pooled = run_streaming_pool(
                pool, build_sources(sources), chunk_size=3
            )
        threaded = run_streaming(hashed_pipeline, build_sources(sources))
        assert [_normalize(r) for r in pooled] == [
            _normalize(r) for r in threaded
        ]
