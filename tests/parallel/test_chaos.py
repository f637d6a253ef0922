"""Chaos tests: a SIGKILLed worker or a stalled source loses and
duplicates no record, on the streaming plane and on serve ``--procs``.

Each scenario runs once without faults for the reference output; the
faulted run must match it record for record.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.connectors.chunks import SourceItem
from repro.connectors.pipelined import run_streaming_pool
from repro.parallel import ShardedPool
from repro.serve.httpd import ClassificationService
from repro.serve.registry import ModelRegistry
from tests.parallel.chaos import KillOnce, ListSource
from tests.parallel.conftest import make_table

N_SOURCES = 3
PER_SOURCE = 12
CHUNK = 4


@pytest.fixture(scope="module")
def pool(model_dir):
    with ShardedPool({"m": model_dir}, procs=2, default="m") as p:
        yield p


def _items(rank: int) -> list[SourceItem]:
    return [
        SourceItem(
            source=f"s{rank}-{i:02d}",
            table=make_table(100 + rank * PER_SOURCE + i),
        )
        for i in range(PER_SOURCE)
    ]


def _norm(records: list[dict]) -> list[dict]:
    # Timing and worker-local cache hits differ between runs.
    return [
        {k: v for k, v in r.items() if k not in ("seconds", "cached")}
        for r in records
    ]


def _stream(pool: ShardedPool, sources: list[ListSource]) -> list[dict]:
    return run_streaming_pool(
        pool, sources, model="m", parse_workers=2, chunk_size=CHUNK
    )


def _assert_exactly_once(records: list[dict], reference: list[dict]) -> None:
    sources = [r["source"] for r in records]
    assert len(sources) == len(set(sources)) == N_SOURCES * PER_SOURCE
    assert not any("error" in r for r in records)
    assert _norm(records) == _norm(reference)


class TestStreamingPool:
    def test_killed_worker_mid_shard(self, pool, tmp_path):
        reference = _stream(
            pool, [ListSource(f"s{r}", _items(r)) for r in range(N_SOURCES)]
        )
        faulted = [_items(r) for r in range(N_SOURCES)]
        # The worker that unpickles this item's chunk dies holding it.
        faulted[1][5] = KillOnce(tmp_path / "armed", faulted[1][5])
        rebuilds = pool.rebuilds
        records = _stream(
            pool,
            [ListSource(f"s{r}", items) for r, items in enumerate(faulted)],
        )
        assert (tmp_path / "armed").exists()
        assert pool.rebuilds == rebuilds + 1
        _assert_exactly_once(records, reference)

    def test_stalled_source_and_killed_idle_worker(self, pool):
        reference = _stream(
            pool, [ListSource(f"s{r}", _items(r)) for r in range(N_SOURCES)]
        )

        def kill_a_worker() -> None:
            pid = pool.run_task(os.getpid).result(timeout=120)
            os.kill(pid, signal.SIGKILL)

        sources = [
            ListSource(
                f"s{r}", _items(r), stall=0.05, every=CHUNK,
                on_stall=kill_a_worker if r == 0 else None,
            )
            for r in range(N_SOURCES)
        ]
        rebuilds = pool.rebuilds
        records = _stream(pool, sources)
        assert pool.rebuilds == rebuilds + 1
        _assert_exactly_once(records, reference)

    def test_stalled_source_alone(self, pool):
        reference = _stream(
            pool, [ListSource(f"s{r}", _items(r)) for r in range(N_SOURCES)]
        )
        records = _stream(
            pool,
            [
                ListSource(f"s{r}", _items(r), stall=0.02, every=3)
                for r in range(N_SOURCES)
            ],
        )
        _assert_exactly_once(records, reference)


def test_serve_procs_heals_killed_worker(model_dir, tmp_path):
    registry = ModelRegistry()
    registry.register(model_dir, name="m")
    svc = ClassificationService(registry, procs=2)
    tables = [make_table(200 + i) for i in range(24)]
    try:
        reference = [svc.classify_table(t) for t in tables]
        payloads: list[object] = list(tables)
        payloads[9] = KillOnce(tmp_path / "armed", tables[9])
        results: list[dict | None] = [None] * len(tables)

        def client(offset: int) -> None:
            for i in range(offset, len(tables), 4):
                results[i] = svc.classify_table(payloads[i])  # type: ignore[arg-type]

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert (tmp_path / "armed").exists()
        assert _norm(results) == _norm(reference)  # type: ignore[arg-type]
        assert "repro_pool_rebuilds 1" in svc.metrics_text()
    finally:
        svc.close()

