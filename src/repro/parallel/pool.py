"""ShardedPool: a spawn-safe process pool for classification.

Work runs in worker *processes*, so pure-Python tokenization and the
classify walk scale past the GIL.  Each worker's initializer loads the
model(s) exactly once; with a directory model store
(:func:`repro.core.persistence.save_pipeline_dir`) the matrices are
opened ``mmap_mode="r"`` and shared via the OS page cache, so N workers
cost one physical copy of the model, not N.

Every classification ships :class:`~repro.connectors.chunks.SourceItem`
chunks to the one worker entry,
:func:`~repro.parallel._worker.classify_stream_chunk`:
:meth:`submit_tables` carries ``repro batch --procs`` (the streaming
plane of :func:`repro.connectors.pipelined.run_streaming_pool`), and
:meth:`submit` carries ``repro serve --procs`` one table at a time.

A crashed worker heals: every submission goes through one ``_submit``,
and when a worker dies (OOM kill, segfault, SIGKILL) the pool is rebuilt
once for that break and every task without a result is resubmitted.
Tasks are pure functions of their arguments, so the caller sees each
result exactly once.  A task whose retry breaks the pool again fails
with :class:`WorkerPoolError` — a poison input cannot loop forever — and
the pool stays usable for the next submission.
"""

from __future__ import annotations

import logging
import threading
import weakref
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.parallel import _worker

if TYPE_CHECKING:
    from repro.tables.model import Table

logger = logging.getLogger("repro.parallel.pool")

#: Resubmissions a task gets after the pool broke under it.  A task that
#: breaks the rebuilt pool again is treated as a poison input.
_RETRIES = 1


class WorkerPoolError(RuntimeError):
    """A worker process died or the pool is unusable."""


def _cancel_if(outer: Future, inner_ref: "weakref.ref[Future]") -> None:
    """Cancel the worker task when the caller cancelled its Future."""
    inner = inner_ref()
    if outer.cancelled() and inner is not None:
        inner.cancel()


def cpu_worker_default(*, floor: int = 1, ceiling: int = 8) -> int:
    """CPU-aware default worker/process count, bounded to ``ceiling``.

    Respects the scheduler affinity mask (cgroup/container CPU limits)
    where available, falling back to :func:`os.cpu_count`.
    """
    import os

    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux platforms
        usable = os.cpu_count() or floor
    return max(floor, min(ceiling, usable))


class ShardedPool:
    """Process pool with per-worker warm models.

    ``model_specs`` maps model names to saved-pipeline paths (``.npz``
    archives or directory stores); ``default`` names the model used when
    an item carries none.
    """

    def __init__(
        self,
        model_specs: Mapping[str, str | Path],
        *,
        procs: int | None = None,
        default: str | None = None,
        cache_capacity: int = 4096,
        mmap: bool = True,
        trace_dir: str | Path | None = None,
    ) -> None:
        self.procs = procs if procs is not None else cpu_worker_default()
        if self.procs < 1:
            raise ValueError("procs must be >= 1")
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._mmap = mmap
        self._cache_capacity = cache_capacity
        initargs = self._initargs_for(model_specs, default)
        self._lock = threading.Lock()
        #: Worker initializer arguments; a rebuild reuses them.
        self._initargs = initargs  # guarded-by: _lock
        self._executor = self._new_executor(initargs)  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: Times a broken executor was replaced (worker crashes healed).
        self.rebuilds = 0  # guarded-by: _lock
        self._stage_lock = threading.Lock()
        self._stage_totals: dict[str, list[float]] = {}  # guarded-by: _stage_lock

    def _initargs_for(
        self, model_specs: Mapping[str, str | Path], default: str | None
    ) -> tuple:
        specs = {name: str(path) for name, path in model_specs.items()}
        if not specs:
            raise ValueError("ShardedPool needs at least one model")
        default = default if default is not None else next(iter(specs))
        if default not in specs:
            raise ValueError(f"default model {default!r} not in specs")
        trace_dir = str(self.trace_dir) if self.trace_dir is not None else None
        return specs, default, trace_dir, self._mmap, self._cache_capacity

    def _new_executor(self, initargs: tuple) -> ProcessPoolExecutor:
        # spawn, not fork: forking a process with live worker threads
        # (the serving layer always has them) deadlocks on held locks.
        return ProcessPoolExecutor(
            max_workers=self.procs,
            mp_context=get_context("spawn"),
            initializer=_worker.init_classify_worker,
            initargs=initargs,
        )

    # ------------------------------------------------------------------
    # the one submission path
    # ------------------------------------------------------------------
    def _submit(
        self,
        fn: Callable[..., Any],
        /,
        *args: Any,
        finish: Callable[[Any], Any] | None = None,
    ) -> Future:
        """Run ``fn(*args)`` in a worker; returns a Future of its result.

        ``finish`` maps the worker's payload to the result on the
        parent side (stage merging, error unwrapping).  A
        ``BrokenProcessPool`` under the task rebuilds the pool and
        resubmits it ``_RETRIES`` times, then fails it with
        :class:`WorkerPoolError`.  Cancelling the returned Future
        cancels the task if it has not started.
        """
        outer: Future = Future()
        self._dispatch(outer, fn, args, finish, _RETRIES)
        return outer

    def _dispatch(
        self,
        outer: Future,
        fn: Callable[..., Any],
        args: tuple,
        finish: Callable[[Any], Any] | None,
        retries: int,
    ) -> None:
        while True:
            with self._lock:
                if self._closed:
                    raise WorkerPoolError("pool is shut down")
                executor: ProcessPoolExecutor = self._executor
                try:
                    inner = executor.submit(fn, *args)
                except BrokenProcessPool:
                    inner = None
            if inner is not None:
                break
            # Broken by another task whose callback has not rebuilt it
            # yet; this task never ran, so it keeps its retries.
            self._replace(executor)
        # Weak, so outer and inner form no reference cycle: a cycle would
        # keep every chunk's arguments alive until the cyclic GC runs.
        inner_ref = weakref.ref(inner)
        outer.add_done_callback(lambda done: _cancel_if(done, inner_ref))
        inner.add_done_callback(
            lambda done: self._settle(
                done, executor, outer, fn, args, finish, retries
            )
        )

    def _replace(self, broken: ProcessPoolExecutor) -> None:
        # Identity check: every task of one break calls this, and only
        # the first of them swaps in a new executor.  The broken one has
        # already shut itself down and reaped its processes.
        with self._lock:
            if self._executor is not broken or self._closed:
                return
            self._executor = self._new_executor(self._initargs)
            self.rebuilds += 1
            rebuilds = self.rebuilds
        logger.warning(
            "a worker process died; rebuilt the pool (rebuild %d)", rebuilds
        )

    def _settle(
        self,
        inner: Future,
        executor: ProcessPoolExecutor,
        outer: Future,
        fn: Callable[..., Any],
        args: tuple,
        finish: Callable[[Any], Any] | None,
        retries: int,
    ) -> None:
        if inner.cancelled():
            outer.cancel()  # shut down without draining
            return
        if outer.done():
            return
        exc = inner.exception()
        if isinstance(exc, BrokenProcessPool):
            self._replace(executor)
            if retries > 0:
                try:
                    self._dispatch(outer, fn, args, finish, retries - 1)
                    return
                except WorkerPoolError as err:
                    exc = err
            else:
                exc = WorkerPoolError(
                    f"{getattr(fn, '__name__', fn)} broke the worker pool "
                    f"{_RETRIES + 1} times (a poison input, or the host "
                    "is out of memory)"
                )
        result = None
        if exc is None:
            try:
                result = inner.result()
                if finish is not None:
                    result = finish(result)
            except Exception as err:  # noqa: BLE001 - delivered to the caller
                exc = err
        try:
            if exc is None:
                outer.set_result(result)
            else:
                outer.set_exception(exc)
        except InvalidStateError:
            pass  # the caller cancelled while this task finished

    # ------------------------------------------------------------------
    # one table (serve --procs)
    # ------------------------------------------------------------------
    def submit(self, table: Table, *, model: str = "") -> Future:
        """Submit one table; returns a Future of its record, keyed
        exactly like a thread-mode service reply.

        The table ships as a one-item chunk to the same worker entry as
        :meth:`submit_tables`.  An unknown model fails the Future with
        the worker's :class:`KeyError`; a table that fails to classify
        fails it with :class:`RuntimeError`.
        """
        from repro.connectors.chunks import SourceItem

        return self._submit(
            _worker.classify_stream_chunk, model,
            [SourceItem(source="", table=table)],
            finish=self._finish_one,
        )

    def _finish_one(self, payload: dict) -> dict:
        (record,) = self._finish_stream_chunk(payload)
        if "error" in record:
            raise RuntimeError(record["error"])
        del record["source"]
        return record

    def submit_tables(
        self, items: Sequence, *, model: str = ""
    ) -> Future:
        """Submit one streaming chunk's ``SourceItem``s as a fused shard.

        Returns a Future of the chunk's record list (one record per
        item, error items included); per-stage timings merge into
        :meth:`drain_stage_totals`.  This is the process-pool classify
        stage of :func:`repro.connectors.pipelined.run_streaming_pool`.
        """
        return self._submit(
            _worker.classify_stream_chunk, model, list(items),
            finish=self._finish_stream_chunk,
        )

    def _finish_stream_chunk(self, payload: dict) -> list[dict]:
        self._merge_stages(payload["stages"])
        return payload["records"]

    # ------------------------------------------------------------------
    # generic task interface (repro fuzz --procs)
    # ------------------------------------------------------------------
    def run_task(self, fn, /, *args) -> Future:
        """Run an arbitrary top-level callable in a worker process.

        ``fn`` must be importable by name (spawn pickles by reference);
        inside the worker it can reach the preloaded pipelines through
        :func:`repro.parallel._worker.get_model`.  The fuzz campaign
        shards its case ranges this way — same warm-model pool, work
        that is not a classify chunk.
        """
        return self._submit(fn, *args)

    def _merge_stages(self, stages: Mapping[str, tuple[float, int]]) -> None:
        # Completion callbacks run on executor-internal threads, so the
        # shared totals dict takes the lock.
        with self._stage_lock:
            for stage, (total, count) in stages.items():
                entry = self._stage_totals.setdefault(stage, [0.0, 0])
                entry[0] += total
                entry[1] += count

    def drain_stage_totals(self) -> dict[str, tuple[float, int]]:
        """Pop the per-stage timing totals (sum, count) merged across
        workers; the serving layer folds them into ServiceMetrics."""
        with self._stage_lock:
            totals = self._stage_totals
            self._stage_totals = {}
        return {k: (v[0], int(v[1])) for k, v in totals.items()}

    # ------------------------------------------------------------------
    # diagnostics & lifecycle
    # ------------------------------------------------------------------
    def probe_workers(self) -> list[dict]:
        """One :func:`repro.parallel._worker.probe_models` report per
        submitted probe (used by tests to assert memmap backing)."""
        futures = [
            self._submit(_worker.probe_models) for _ in range(self.procs)
        ]
        return [f.result() for f in futures]

    def reload(
        self,
        model_specs: Mapping[str, str | Path],
        *,
        default: str | None = None,
    ) -> None:
        """Serve ``model_specs`` from fresh workers; drain the old ones.

        Every new worker has loaded every model before the new executor
        is swapped in under the lock :meth:`_submit` takes; tasks already
        on the old workers finish there.  A store the new workers cannot
        load raises :class:`WorkerPoolError` and the old workers keep
        serving.
        """
        initargs = self._initargs_for(model_specs, default)
        fresh = self._new_executor(initargs)
        try:
            # One probe per worker, all in flight at once: the executor
            # spawns a worker per submit while none is idle, so every
            # worker has loaded the stores before the flip.
            probes = [
                fresh.submit(_worker.probe_models) for _ in range(self.procs)
            ]
            for probe in probes:
                probe.result()
        except BrokenProcessPool as exc:
            fresh.shutdown(wait=False)
            raise WorkerPoolError(
                f"workers could not load the new models: {exc}"
            ) from exc
        with self._lock:
            if self._closed:
                old = fresh
            else:
                old, self._executor = self._executor, fresh
                self._initargs = initargs
        old.shutdown(wait=True)

    def worker_spans(self) -> list:
        """Merged spans from every per-worker trace file (if tracing)."""
        if self.trace_dir is None:
            return []
        from repro.parallel.traces import read_worker_traces

        return read_worker_traces(self.trace_dir)

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop the pool; with ``drain`` finish queued work first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
        executor.shutdown(wait=drain, cancel_futures=not drain)

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Interrupted runs cancel queued chunks instead of draining.
        self.shutdown(drain=exc_info[0] is None)
