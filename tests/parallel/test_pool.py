"""Tests for ShardedPool: streaming bulk runs, the serve interface,
memmap sharing, and failure handling (crash healing is also covered
end to end by test_chaos.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.connectors.chunks import SourceItem
from repro.connectors.pipelined import run_streaming_pool
from repro.connectors.sources import build_sources
from repro.parallel import ShardedPool, WorkerPoolError, cpu_worker_default
from repro.parallel import _worker
from tests.parallel.chaos import KillOnce
from tests.parallel.conftest import make_table


@pytest.fixture(scope="module")
def pool(model_dir, tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    with ShardedPool(
        {"m": model_dir}, procs=2, default="m", trace_dir=trace_dir
    ) as p:
        yield p


class TestCpuWorkerDefault:
    def test_bounded(self):
        n = cpu_worker_default()
        assert 1 <= n <= 8

    def test_custom_bounds(self):
        assert cpu_worker_default(floor=3, ceiling=3) == 3


class TestMapPaths:
    """Bulk runs over the pool: the streaming plane's process stage."""

    def test_ordered_records(self, pool, table_files, small_corpus):
        records = run_streaming_pool(pool, build_sources(table_files))
        assert [r["source"] for r in records] == table_files
        assert [r["name"] for r in records] == [t.name for t in small_corpus]
        assert all(r["model"] == "m" for r in records)

    def test_unordered_same_set(self, pool, table_files):
        def normalize(records):
            # worker-local cache hits vary run to run
            return sorted(
                (
                    {k: v for k, v in r.items() if k != "cached"}
                    for r in records
                ),
                key=lambda r: r["source"],
            )

        ordered = run_streaming_pool(pool, build_sources(table_files))
        unordered = run_streaming_pool(
            pool, build_sources(table_files), ordered=False
        )
        assert normalize(ordered) == normalize(unordered)

    def test_per_file_error_isolation(self, pool, table_files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        records = run_streaming_pool(
            pool, build_sources([*table_files[:2], str(bad)])
        )
        assert len(records) == 3
        assert "error" in records[2] and records[2]["source"] == str(bad)
        assert "error" not in records[0]

    def test_stage_totals_merged(self, pool):
        # Fresh tables: cache hits would skip classify() and emit no
        # stage events, so reusing the shared fixture tables is flaky.
        items = [
            SourceItem(source=f"fresh{i}", table=make_table(60 + i))
            for i in range(4)
        ]
        pool.drain_stage_totals()
        records = pool.submit_tables(items, model="m").result()
        assert [r["source"] for r in records] == [i.source for i in items]
        total, count = pool.drain_stage_totals()["classify"]
        assert count >= len(items)
        assert total > 0.0

    def test_unknown_model_is_a_caller_error(self, pool, table_files):
        # A bad model name is a configuration mistake, not bad data:
        # it fails the run instead of emitting N per-file error records.
        with pytest.raises(KeyError, match="nope"):
            run_streaming_pool(
                pool, build_sources(table_files[:2]), model="nope"
            )


class TestServeInterface:
    def test_submit_and_map(self, pool):
        record = pool.submit(make_table(40), model="m").result()
        assert record["name"] == "t040"
        futures = [
            pool.submit(make_table(41), model="m"),
            pool.submit(make_table(42)),
        ]
        assert [f.result()["name"] for f in futures] == ["t041", "t042"]

    def test_item_error_becomes_future_exception(self, pool):
        future = pool.submit(make_table(1), model="missing-model")
        with pytest.raises(KeyError, match="missing-model"):
            future.result()

    def test_drain_stage_totals(self, pool):
        pool.submit(make_table(50), model="m").result()
        totals = pool.drain_stage_totals()
        assert totals["classify"][1] >= 1
        # draining resets the accumulator
        followup = pool.drain_stage_totals()
        assert followup == {}


class TestMemmapSharing:
    def test_workers_hold_memmap_views(self, pool):
        reports = pool.probe_workers()
        assert len(reports) == pool.procs
        for report in reports:
            assert report["m"]["meta_ref_memmap"] is True
            assert report["m"]["data_ref_memmap"] is True

    def test_worker_spans_carry_pid_tid(self, pool, table_files):
        run_streaming_pool(pool, build_sources(table_files[:3]))
        spans = pool.worker_spans()
        assert spans, "tracing was enabled; spans expected"
        assert all(s.thread_id > 0 for s in spans)
        assert all(s.thread_name.startswith("worker-") for s in spans)


class TestFailureModes:
    def test_worker_crash_raises_pool_error(self, model_dir, tmp_path):
        with ShardedPool({"m": model_dir}, procs=1) as crash_pool:
            # One crash heals: the task reruns on a rebuilt pool.
            healed = crash_pool.run_task(abs, KillOnce(tmp_path / "armed", -3))
            assert healed.result(timeout=120) == 3
            assert crash_pool.rebuilds == 1
            # A task that breaks the rebuilt pool too is a poison input:
            # it fails instead of looping, and the pool stays usable.
            poison = crash_pool.run_task(_worker.crash_worker)
            with pytest.raises(WorkerPoolError, match="crash_worker"):
                poison.result(timeout=120)
            assert crash_pool.rebuilds == 3
            record = crash_pool.submit(make_table(7), model="m").result(timeout=120)
            assert record["name"] == "t007"

    def test_reload_to_unloadable_store_keeps_serving(self, model_dir, tmp_path):
        with ShardedPool({"m": model_dir}, procs=1) as p:
            with pytest.raises(WorkerPoolError):
                p.reload({"m": tmp_path / "missing"})
            record = p.submit(make_table(8), model="m").result(timeout=120)
            assert record["name"] == "t008"
            assert p.rebuilds == 0

    def test_submit_after_shutdown_raises_pool_error(self, model_dir):
        p = ShardedPool({"m": model_dir}, procs=1)
        p.shutdown()
        with pytest.raises(WorkerPoolError):
            p.submit(make_table(1), model="m")

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError):
            ShardedPool({})

    def test_rejects_unknown_default(self, model_dir):
        with pytest.raises(ValueError):
            ShardedPool({"m": model_dir}, default="other")

    def test_shutdown_idempotent(self, model_dir):
        p = ShardedPool({"m": model_dir}, procs=1)
        p.shutdown()
        p.shutdown()


class TestNumpyPayloads:
    def test_npz_store_also_works(self, fitted_hashed, tmp_path):
        from repro.core.persistence import save_pipeline

        npz = save_pipeline(fitted_hashed, tmp_path / "model.npz")
        with ShardedPool({"z": npz}, procs=1) as p:
            report = p.probe_workers()[0]
            # npz archives decompress to plain in-memory arrays
            assert report["z"]["meta_ref_memmap"] is False
            record = p.submit(make_table(7), model="z").result()
            assert isinstance(record["hmd_depth"], int)
            assert isinstance(record["row_labels"], list)
            assert not isinstance(record["row_labels"][0], np.ndarray)
