"""Wrappers around the layers' public functions, for the traced run.

Installed only in a traced program process (``launch.py --hooks-out``,
``fit_job.py --trace-dir``); the timed runs never load this module.  Two
kinds of wrapper:

* a **span** wrapper runs the call inside ``obs.span(layer)`` of the
  program's own tracer, so it nests with the spans the program already
  emits and is written out by its ``--trace-out`` flag;
* a **timer** wrapper is for functions called per cell or per record,
  where a span per call would cost more than the call.  It adds the
  call's time to ``(layer, enclosing span)``, so the enclosing span's
  self time can be reduced by it later, and counts calls.

Counters (OOV tokens, cache hits, queue-full puts) and the parent-side
chunk times of ``ShardedPool.submit_tables`` go to the same dump.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Hooks:
    def __init__(self) -> None:
        from repro import obs

        self._obs = obs
        self._lock = threading.Lock()
        self._active = threading.local()
        self.timers: dict[tuple[str, int | None], list[float]] = defaultdict(lambda: [0.0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        self.chunks: list[list[float]] = []  # [submit, done, tables]

    # -- wrapper factories ------------------------------------------------
    def span(self, layer: str, fn):
        obs = self._obs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(layer):
                return fn(*args, **kwargs)

        return wrapper

    def _parent(self) -> int | None:
        context = self._obs.get_tracer().current_context()
        return context.span_id if context is not None else None

    def _add_time(self, layer: str, parent: int | None, seconds: float) -> None:
        with self._lock:
            entry = self.timers[(layer, parent)]
            entry[0] += seconds
            entry[1] += 1

    def timer(self, layer: str, fn):
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Only the outermost timed call of a layer counts (tokenize
            # calls tokenize_cells calls tokenize ...).
            running = getattr(active, "layers", None)
            if running is None:
                running = active.layers = set()
            if layer in running:
                return fn(*args, **kwargs)
            running.add(layer)
            parent = self._parent()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_time(layer, parent, time.perf_counter() - start)
                running.discard(layer)

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def dump(self, path: str) -> None:
        payload = {
            "timers": [[layer, parent, s, n] for (layer, parent), (s, n) in self.timers.items()],
            "counters": dict(self.counters),
            "chunks": self.chunks,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Hooks:
    """Wrap the layers' public functions in this process."""
    import repro.cli  # noqa: F401 - load every module whose bindings get patched
    import repro.connectors.pipelined  # noqa: F401
    import repro.core.embedding_plane  # noqa: F401
    import repro.core.fused  # noqa: F401
    import repro.embeddings.sentences  # noqa: F401
    import repro.serve.httpd  # noqa: F401
    from repro.connectors.chunks import ChunkQueue
    from repro.connectors.sinks import JsonlSink
    from repro.core import persistence
    from repro.embeddings.word2vec import Word2Vec
    from repro.parallel.pool import ShardedPool
    from repro.serve import bulk
    from repro.serve.cache import LRUCache
    from repro.serve.httpd import ClassificationService
    from repro.tables.model import Table

    tok = sys.modules["repro.text.tokenize"]
    hooks = Hooks()
    for fn, layer in (
        (bulk.table_from_text, "tables.parse"),
        (persistence.save_pipeline_dir, "core.store.save"),
        (persistence.load_pipeline, "core.store.load"),
    ):
        _rebind(fn, hooks.span(layer, fn))
    for fn in (tok.tokenize, tok.tokenize_cells):
        _rebind(fn, hooks.timer("text.tokenize", fn))
    Word2Vec.fit = hooks.span("embeddings.train", Word2Vec.fit)
    ClassificationService.classify_table = hooks.span("serve.submit", ClassificationService.classify_table)
    Table.content_hash = hooks.timer("serve.cache_key", Table.content_hash)
    JsonlSink.write = hooks.timer("connectors.sink_write", JsonlSink.write)

    def counting_oov(fn, batch: bool):
        @functools.wraps(fn)
        def wrapper(self, tokens):
            out = fn(self, tokens)
            misses = sum(v is None for v in out) if batch else int(out is None)
            if misses:
                hooks.count("embeddings.oov_tokens", misses)
            return out

        return wrapper

    Word2Vec.batch_vectors = counting_oov(Word2Vec.batch_vectors, True)
    Word2Vec.vector = counting_oov(Word2Vec.vector, False)

    cache_get = LRUCache.get

    def counting_get(self, key, *args, **kwargs):
        value = cache_get(self, key, *args, **kwargs)
        hooks.count("serve.cache_hits" if value is not None else "serve.cache_misses")
        return value

    LRUCache.get = counting_get

    queue_put = ChunkQueue.put

    def counting_put(self, chunk):
        if self._queue.full():
            hooks.count("connectors.backpressure_waits")
        return queue_put(self, chunk)

    ChunkQueue.put = counting_put

    queue_iter = ChunkQueue.__iter__

    def timed_iter(self):
        # Time the consumer spends blocked for the next parsed chunk.
        source = queue_iter(self)
        while True:
            parent = hooks._parent()
            start = time.perf_counter()
            try:
                chunk = next(source)
            except StopIteration:
                return
            finally:
                hooks._add_time("connectors.queue_wait", parent, time.perf_counter() - start)
            yield chunk

    ChunkQueue.__iter__ = timed_iter

    submit_tables = ShardedPool.submit_tables

    def recorded_submit(self, items, *, model=""):
        entry = [time.perf_counter(), 0.0, float(len(items))]
        future = submit_tables(self, items, model=model)
        future.add_done_callback(lambda _f: entry.__setitem__(1, time.perf_counter()))
        with hooks._lock:
            hooks.chunks.append(entry)
        return future

    ShardedPool.submit_tables = recorded_submit
    return hooks
