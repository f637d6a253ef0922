"""Tests for the micro-batching executor."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.batching import BatchingConfig, BatchingExecutor


def _echo(batch):
    return [item * 2 for item in batch]


def _map(ex, items):
    """Submit every item, then collect the results in submission order."""
    futures = [ex.submit(item) for item in items]
    return [f.result() for f in futures]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingConfig(max_delay=-1)
        with pytest.raises(ValueError):
            BatchingConfig(workers=0)


class TestExecution:
    def test_single_item(self):
        with BatchingExecutor(_echo, BatchingConfig(workers=1)) as ex:
            assert ex.submit(21).result(timeout=5) == 42

    def test_map_preserves_order(self):
        with BatchingExecutor(_echo, BatchingConfig(workers=4)) as ex:
            assert _map(ex, list(range(50))) == [i * 2 for i in range(50)]

    def test_batches_group_under_load(self):
        sizes: list[int] = []
        config = BatchingConfig(max_batch_size=8, max_delay=0.05, workers=2)
        with BatchingExecutor(
            _echo, config, on_batch=sizes.append
        ) as ex:
            _map(ex, list(range(32)))
        assert sum(sizes) == 32
        # With a generous deadline the 32 items cannot all ride alone.
        assert max(sizes) > 1

    def test_zero_delay_still_completes(self):
        config = BatchingConfig(max_delay=0.0, workers=2)
        with BatchingExecutor(_echo, config) as ex:
            assert _map(ex, [1, 2, 3]) == [2, 4, 6]

    def test_handler_error_fails_batch_only(self):
        def flaky(batch):
            if any(item < 0 for item in batch):
                raise RuntimeError("negative input")
            return batch

        config = BatchingConfig(max_batch_size=1, max_delay=0.0, workers=1)
        with BatchingExecutor(flaky, config) as ex:
            bad = ex.submit(-1)
            good = ex.submit(5)
            with pytest.raises(RuntimeError, match="negative"):
                bad.result(timeout=5)
            assert good.result(timeout=5) == 5

    def test_result_count_mismatch_raises(self):
        with BatchingExecutor(
            lambda batch: [], BatchingConfig(workers=1)
        ) as ex:
            with pytest.raises(RuntimeError, match="results"):
                ex.submit(1).result(timeout=5)

    def test_exception_result_fails_only_that_item(self):
        def isolating(batch):
            return [
                ValueError(f"bad {item}") if item < 0 else item
                for item in batch
            ]

        # A big deadline so both items share one batch.
        config = BatchingConfig(max_batch_size=8, max_delay=0.2, workers=1)
        with BatchingExecutor(isolating, config) as ex:
            bad = ex.submit(-1)
            good = ex.submit(5)
            with pytest.raises(ValueError, match="bad -1"):
                bad.result(timeout=5)
            assert good.result(timeout=5) == 5

    def test_full_queue_does_not_deadlock(self):
        # Regression: submit() used to hold the executor lock across a
        # blocking put() on the bounded queue, which could deadlock
        # against the collector needing the same lock in _dispatch.
        def slow(batch):
            time.sleep(0.002)
            return batch

        config = BatchingConfig(
            max_batch_size=2, max_delay=0.001, workers=1, queue_capacity=1
        )
        results: dict[int, list[int]] = {}

        def worker(seed: int, ex: BatchingExecutor) -> None:
            results[seed] = _map(ex, list(range(seed, seed + 25)))

        with BatchingExecutor(slow, config) as ex:
            threads = [
                threading.Thread(target=worker, args=(s, ex), daemon=True)
                for s in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), "deadlocked"
        for seed, out in results.items():
            assert out == list(range(seed, seed + 25))


class TestShutdown:
    def test_drains_enqueued_work(self):
        done = []

        def slow(batch):
            time.sleep(0.01)
            done.extend(batch)
            return batch

        ex = BatchingExecutor(
            slow, BatchingConfig(max_batch_size=4, max_delay=0.001, workers=2)
        )
        futures = [ex.submit(i) for i in range(20)]
        ex.shutdown(drain=True)
        assert sorted(done) == list(range(20))
        assert all(f.done() for f in futures)

    def test_submit_after_shutdown_raises(self):
        ex = BatchingExecutor(_echo)
        ex.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            ex.submit(1)

    def test_shutdown_twice_is_noop(self):
        ex = BatchingExecutor(_echo)
        ex.shutdown()
        ex.shutdown()

    def test_shutdown_racing_submitters_leaves_no_hung_future(self):
        # Every future obtained from submit() must eventually complete —
        # either with a result or with the shutdown RuntimeError — even
        # when shutdown() races the submitting threads.
        futures = []
        lock = threading.Lock()

        def submitter(ex: BatchingExecutor) -> None:
            for i in range(50):
                try:
                    f = ex.submit(i)
                except RuntimeError:
                    return
                with lock:
                    futures.append(f)

        ex = BatchingExecutor(_echo, BatchingConfig(workers=2))
        threads = [
            threading.Thread(target=submitter, args=(ex,), daemon=True)
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        ex.shutdown(drain=True)
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        for f in futures:
            try:
                assert f.result(timeout=10) % 2 == 0
            except RuntimeError as exc:
                assert "shut down" in str(exc)

    def test_concurrent_submitters(self):
        results: dict[int, list[int]] = {}

        def worker(seed: int, ex: BatchingExecutor) -> None:
            results[seed] = _map(ex, [seed * 10 + i for i in range(10)])

        with BatchingExecutor(_echo, BatchingConfig(workers=4)) as ex:
            threads = [
                threading.Thread(target=worker, args=(s, ex))
                for s in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for seed, out in results.items():
            assert out == [(seed * 10 + i) * 2 for i in range(10)]
