"""HTTP front-end on the stdlib ``http.server``.

Endpoints:

* ``POST /classify`` — one table per request.  ``Content-Type:
  application/json`` bodies are CORD-19-style ``{"rows": ...}`` objects;
  anything else is parsed as CSV.  ``?model=NAME`` selects a registry
  entry (default: the first registered model).
* ``POST /classify/batch`` — JSON ``{"tables": [...]}`` (or a bare
  list); each element is a table object or a plain rows list.
* ``GET /healthz`` — liveness plus the loaded model names;
  ``GET /healthz?ready=1`` is the *readiness* probe, answering 503
  unless the service is open with every model loaded.
* ``GET /metrics`` — Prometheus text format: request counts, cache hit
  ratio, p50/p95 latency, per-stage timings.
* ``POST /admin/reload`` — hot model swap: body
  ``{"path": ..., "name"?: ...}``; 200 with the new generation.

:class:`ClassificationService` is the transport-independent core: it
owns the registry, the LRU result cache, the metrics, and the
execution backend — the request's own handler thread by default, or a
:class:`~repro.parallel.pool.ShardedPool` of worker processes with
``procs``.  The HTTP layer just parses bodies and serializes records,
so tests (and future transports) can drive the service directly.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Sequence
from urllib.parse import parse_qs, urlsplit

if TYPE_CHECKING:
    from repro.parallel.pool import ShardedPool

from repro import obs
from repro.serve.bulk import (
    classify_tables_cached,
    result_record,
    table_from_text,
)
from repro.serve.cache import LRUCache
from repro.serve.metrics import ServiceMetrics
from repro.serve.registry import ModelRegistry
from repro.tables.model import Table

logger = logging.getLogger("repro.serve.httpd")


class BadRequest(ValueError):
    """Client-side error — mapped to HTTP 400."""


class ClassificationService:
    """Warm models + cache + metrics + the execution backend.

    By default a request classifies on the thread that handles it (the
    HTTP server already runs one thread per connection): the table goes
    through the result cache and one fused shard
    (:func:`~repro.serve.bulk.classify_tables_cached`), and a
    ``/classify/batch`` body is one shard for all its tables.

    ``procs`` switches the backend to a
    :class:`~repro.parallel.pool.ShardedPool` of worker *processes*
    (each with its own warm copy of the models — shared via the OS page
    cache for directory stores), which shards the classification math
    itself across CPUs.  In procs mode results are cached per worker
    process, so the parent has no ``cache``; the cache metrics count
    each record's ``cached`` flag instead.  The constructor spawns
    every worker and returns once one probe per worker has come back,
    so a server bound after it serves its first request without a spawn
    or a store load.  A killed worker process heals inside the pool:
    its in-flight requests are resubmitted to a rebuilt pool.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        cache_capacity: int = 4096,
        metrics: ServiceMetrics | None = None,
        procs: int | None = None,
    ) -> None:
        if len(registry) == 0:
            raise ValueError("the service needs at least one loaded model")
        self.registry = registry
        self.metrics = metrics or ServiceMetrics()
        # capacity <= 0 disables the result cache entirely: no content
        # hashing, no cache lock on the per-item hot path (LRUCache(0)
        # would still pay both just to record a miss).  Worker
        # processes keep their own caches, so procs mode builds none.
        self.cache: LRUCache | None = (
            LRUCache(cache_capacity)
            if cache_capacity > 0 and procs is None else None
        )
        self._worker_caches = procs is not None and cache_capacity > 0
        self.procs = procs
        for name in registry.names():
            # add_stage_hook composes with hooks the caller installed
            # (e.g. a tracing or bulk-metrics subscriber) instead of
            # clobbering them; see MetadataPipeline.add_stage_hook.
            registry.get(name).add_stage_hook(self.metrics.observe_stage)
        self._pool: "ShardedPool | None" = None
        # Serializes reloads so the registry and the worker pool flip
        # in the same order.
        self._reload_lock = threading.Lock()
        if procs is not None:
            from repro.parallel import ShardedPool

            self._pool = ShardedPool(
                self._model_specs(),
                procs=procs,
                default=registry.default_name,
                cache_capacity=cache_capacity,
            )
            try:
                self._pool.probe_workers()
            except BaseException:  # stop-then-reraise: nothing is swallowed
                self._pool.shutdown(drain=False)
                raise
        self._closed = False

    def _model_specs(self) -> dict[str, str]:
        """Every model's on-disk path, for worker-process backends."""
        specs: dict[str, str] = {}
        for name in self.registry.names():
            path = self.registry.info(name).path
            # Path("") has no parts — an in-memory registry entry
            # (ModelRegistry.add) that workers cannot re-load.
            if not path.parts:
                raise ValueError(
                    f"model {name!r} has no on-disk path; serve --procs "
                    "needs saved models the workers can load themselves"
                )
            specs[name] = str(path)
        return specs

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify_table(self, table: Table, *, model: str = "") -> dict:
        """Classify one table; an unknown ``model`` raises ``KeyError``."""
        if self._pool is not None:
            return self._count_worker_cache(
                self._pool.submit(table, model=model).result()
            )
        with obs.span("serve.item", table=table.name) as item_span:
            (record,) = self._classify_here([table], model)
            item_span.set(model=record.get("model", ""), cached=record["cached"])
        return record

    def classify_many(
        self, tables: Sequence[Table], *, model: str = ""
    ) -> list[dict]:
        """Classify a batch: one fused shard, or one task per table
        across the worker processes with ``procs``."""
        if self._pool is not None:
            futures = [self._pool.submit(t, model=model) for t in tables]
            return [self._count_worker_cache(f.result()) for f in futures]
        return self._classify_here(tables, model)

    def _classify_here(self, tables: Sequence[Table], model: str) -> list[dict]:
        # The first table that failed to classify fails the request;
        # classify_tables_cached has already isolated it from the rest
        # of the shard.
        if self._closed:
            raise RuntimeError("service is closed")
        pipeline = self.registry.get(model or None)
        resolved = model or self.registry.default_name or ""
        results = classify_tables_cached(
            pipeline, tables, self.cache, model=resolved
        )
        records = []
        for table, (annotation, hit) in zip(tables, results):
            if isinstance(annotation, Exception):
                logger.warning("classification failed for %r: %s",
                               table.name, annotation)
                raise annotation
            records.append(
                result_record(table, annotation, model=resolved, cached=hit)
            )
        return records

    def _count_worker_cache(self, record: dict) -> dict:
        if self._worker_caches:
            self.metrics.inc(
                "cache_hits_total" if record["cached"] else "cache_misses_total"
            )
        return record

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def reload(self, path: str, *, name: str | None = None) -> dict:
        """Hot-swap a model to the archive/store at ``path``.

        The registry swaps the generation atomically and stale cached
        results are dropped.  With ``procs`` the worker pool is rebuilt
        on the new stores (:meth:`ShardedPool.reload`): fresh workers
        load them before the flip, requests already on the old workers
        finish there, and the old workers are drained.
        """
        with self._reload_lock:
            new_pipeline, _retired = self.registry.reload(path, name=name)
            new_pipeline.add_stage_hook(self.metrics.observe_stage)
            if self._pool is not None:
                self._pool.reload(
                    self._model_specs(), default=self.registry.default_name
                )
        if self.cache is not None:
            # Cached annotations were produced by the retired
            # generation; serving them as the new model's answers would
            # make the reload a lie for every warm table.
            self.cache.clear()
        self.metrics.inc("reloads_total", outcome="flipped")
        resolved = name or Path(path).stem
        return {
            "status": "flipped",
            "generation": self.registry.info(resolved).generation,
        }

    def ready(self) -> bool:
        """Readiness (vs liveness): can this service answer a classify
        request *right now*?  False once closed or with no model."""
        return not self._closed and len(self.registry) > 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        # Scrape-time aggregation: fold the per-stage timings worker
        # processes accumulated since the last scrape (procs backend;
        # the thread backend feeds metrics directly).
        if self._pool is not None:
            self.metrics.merge_stage_totals(self._pool.drain_stage_totals())
        extra: dict[str, float] = {
            "models_loaded": len(self.registry),
            "procs": self.procs if self.procs is not None else 0,
        }
        if self.cache is not None:
            stats = self.cache.stats()
            extra.update(
                cache_hits_total=stats.hits,
                cache_misses_total=stats.misses,
                cache_hit_ratio=stats.hit_ratio,
                cache_size=stats.size,
            )
        elif self._worker_caches:
            hits = self.metrics.counter("cache_hits_total")
            lookups = hits + self.metrics.counter("cache_misses_total")
            extra["cache_hit_ratio"] = hits / lookups if lookups else 0.0
        if self._pool is not None:
            extra["pool_rebuilds"] = self._pool.rebuilds
        return self.metrics.render(extra=extra)

    def health(self) -> dict:
        return {
            "status": "ok",
            "models": self.registry.names(),
            "default": self.registry.default_name,
        }

    def close(self) -> None:
        """Refuse new classify calls; with ``procs``, drain the worker
        pool.  The HTTP layer drains its in-flight requests first."""
        if not self._closed:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(drain=True)


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

def _parse_table(body: bytes, content_type: str, name: str) -> Table:
    text = body.decode("utf-8", errors="replace")
    if not text.strip():
        raise BadRequest("empty request body")
    if "json" in content_type:
        try:
            return table_from_text(text, suffix=".json", name=name)
        except (ValueError, KeyError) as exc:
            raise BadRequest(f"bad JSON table: {exc}") from exc
    return table_from_text(text, name=name)


def _parse_batch(body: bytes) -> list[Table]:
    try:
        payload = json.loads(body.decode("utf-8", errors="replace"))
    except ValueError as exc:
        raise BadRequest(f"bad JSON body: {exc}") from exc
    if isinstance(payload, dict):
        payload = payload.get("tables")
    if not isinstance(payload, list) or not payload:
        raise BadRequest("expected a non-empty list under 'tables'")
    tables = []
    for i, obj in enumerate(payload):
        if isinstance(obj, dict) and "rows" in obj:
            tables.append(
                Table(
                    obj["rows"],
                    name=str(obj.get("name", f"table-{i}")),
                    source=str(obj.get("source", "")),
                )
            )
        elif isinstance(obj, list):
            tables.append(Table(obj, name=f"table-{i}"))
        else:
            raise BadRequest(f"tables[{i}] is not a table object or rows list")
    return tables


#: The only values ``requests_total{endpoint=...}`` may take; anything
#: else (scanners, typos) is folded into "other" so arbitrary request
#: paths can't grow the label set without bound.
_KNOWN_ENDPOINTS = frozenset(
    {"/classify", "/classify/batch", "/healthz", "/metrics", "/admin/reload"}
)


def _endpoint_label(path: str) -> str:
    return path if path in _KNOWN_ENDPOINTS else "other"


class _InflightGauge:
    """Counts HTTP requests currently being handled.

    Keep-alive connections make the *connection* count useless for
    draining — an idle persistent connection never closes — so graceful
    shutdown waits on this gauge instead: zero means every accepted
    request has written its response.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._count = 0  # guarded-by: _cond

    def enter(self) -> None:
        with self._cond:
            self._count += 1

    def leave(self) -> None:
        with self._cond:
            self._count -= 1
            if self._count <= 0:
                self._cond.notify_all()

    def active(self) -> int:
        with self._cond:
            return self._count

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._count > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                # Condition.wait releases the underlying lock while
                # blocked — that's the primitive's whole contract, so
                # this cannot deadlock against enter()/leave().
                self._cond.wait(remaining)
        return True


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket, so the stdlib's own
    #: two-write replies (``send_error`` on a malformed request line)
    #: do not wait on a delayed ACK either.
    disable_nagle_algorithm = True

    #: Per-request trace id, minted at the top of each do_* method and
    #: echoed back in the ``X-Trace-Id`` response header.  Minted even
    #: when tracing is disabled so clients can always correlate a
    #: response with the server log line.
    _trace_id = ""

    @property
    def service(self) -> ClassificationService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def inflight(self) -> _InflightGauge:
        return self.server.inflight  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        """Write one whole response — status line, headers and body —
        in a single send.

        A headers-then-body pair of writes on a Nagle socket holds the
        body until the client's delayed ACK of the headers (~40 ms per
        reply on Linux); one buffer has nothing to hold back.  A client
        that has already gone away is counted and logged in one line;
        nothing more is written to its socket.
        """
        self.log_request(code)
        head = [
            f"{self.protocol_version} {code} {self.responses.get(code, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if retry_after is not None:
            # Retry-After is delta-seconds, integral per RFC 9110;
            # round up so "0.2s from now" never becomes "now".
            head.append(f"Retry-After: {max(1, round(retry_after))}")
        if self._trace_id:
            head.append(f"X-Trace-Id: {self._trace_id}")
        try:
            self.wfile.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
            )
        except (BrokenPipeError, ConnectionResetError) as exc:
            self.close_connection = True
            self.service.metrics.inc("client_disconnects_total")
            logger.info(
                "client went away before the %d reply (trace_id=%s): %s",
                code, self._trace_id, exc,
            )
            return
        self.service.metrics.inc("responses_total", code=str(code))

    def _send_json(
        self,
        code: int,
        payload: dict,
        *,
        retry_after: float | None = None,
    ) -> None:
        self._send(
            code,
            json.dumps(payload).encode(),
            "application/json",
            retry_after=retry_after,
        )

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        split = urlsplit(self.path)
        path = split.path
        query = parse_qs(split.query)
        self._trace_id = obs.new_trace_id()
        self.service.metrics.inc(
            "requests_total", endpoint=_endpoint_label(path)
        )
        self.inflight.enter()
        try:
            self._do_get(path, query)
        finally:
            self.inflight.leave()

    def _do_get(self, path: str, query: dict[str, list[str]]) -> None:
        with obs.span(
            "http.request",
            trace_id=self._trace_id,
            method="GET",
            endpoint=_endpoint_label(path),
        ):
            if path == "/healthz":
                payload = self.service.health()
                if query.get("ready", ["0"])[0] in ("1", "true"):
                    # Readiness, not liveness: a live-but-unready
                    # service (closed, or no model loaded) must be
                    # taken out of rotation, so the probe answers 503
                    # rather than a softer body.
                    if self.service.ready():
                        payload["ready"] = True
                        self._send_json(200, payload)
                    else:
                        payload.update(status="unavailable", ready=False)
                        self._send_json(503, payload, retry_after=1.0)
                else:
                    self._send_json(200, payload)
            elif path == "/metrics":
                self._send(
                    200,
                    self.service.metrics_text().encode(),
                    "text/plain; version=0.0.4",
                )
            else:
                self._send_json(404, {"error": f"no such endpoint {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        split = urlsplit(self.path)
        path = split.path
        query = parse_qs(split.query)
        model = query.get("model", [""])[0]
        name = query.get("name", [""])[0]
        self._trace_id = obs.new_trace_id()
        self.service.metrics.inc(
            "requests_total", endpoint=_endpoint_label(path)
        )
        start = time.perf_counter()
        self.inflight.enter()
        # One root span per request.  The explicit trace_id ties the
        # recorded trace to the X-Trace-Id response header and the log
        # line below, so a slow response can be looked up in the trace.
        try:
            with obs.span(
                "http.request",
                trace_id=self._trace_id,
                method="POST",
                endpoint=_endpoint_label(path),
            ):
                if path == "/classify":
                    table = _parse_table(
                        self._read_body(),
                        self.headers.get("Content-Type", ""),
                        name,
                    )
                    record = self.service.classify_table(table, model=model)
                    self._send_json(200, record)
                elif path == "/classify/batch":
                    tables = _parse_batch(self._read_body())
                    records = self.service.classify_many(tables, model=model)
                    self._send_json(
                        200, {"count": len(records), "results": records}
                    )
                elif path == "/admin/reload":
                    self._handle_reload()
                else:
                    self._send_json(404, {"error": f"no such endpoint {path}"})
                    return
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception("request failed (trace_id=%s)", self._trace_id)
            self._send_json(500, {"error": str(exc)})
        finally:
            self.inflight.leave()
            elapsed = time.perf_counter() - start
            self.service.metrics.observe_request(elapsed)
            logger.info(
                "POST %s trace_id=%s %.1fms", path, self._trace_id,
                elapsed * 1000.0,
            )

    def _handle_reload(self) -> None:
        """``POST /admin/reload`` — hot model swap."""
        try:
            payload = json.loads(self._read_body().decode() or "{}")
        except ValueError as exc:
            raise BadRequest(f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict) or not payload.get("path"):
            raise BadRequest("reload body needs a 'path' field")
        name = str(payload["name"]) if payload.get("name") else None
        try:
            outcome = self.service.reload(str(payload["path"]), name=name)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        self._send_json(200, outcome)


def make_server(
    service: ClassificationService, host: str = "127.0.0.1", port: int = 8080
) -> ThreadingHTTPServer:
    """Build (but don't start) the threaded HTTP server."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.inflight = _InflightGauge()  # type: ignore[attr-defined]
    return server


def serve(
    service: ClassificationService,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready: threading.Event | None = None,
) -> None:
    """Run until SIGINT/SIGTERM, then drain in-flight work and exit."""
    server = make_server(service, host, port)
    logger.info("serving on http://%s:%d", *server.server_address[:2])
    try:  # SIGTERM (the deployment default) drains like Ctrl-C
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:
        pass  # not the main thread (tests) — rely on server.shutdown()
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        logger.info("interrupt received, draining ...")
    finally:
        # Graceful shutdown, in order: stop accepting (shutdown +
        # server_close), let every accepted request finish writing its
        # response (the in-flight gauge — keep-alive sockets make
        # thread counts useless for this), then drain the execution
        # backend.  Trace flushing happens in the caller (the CLI
        # writes --trace-out after serve() returns), so it observes the
        # fully drained service.
        server.shutdown()
        server.server_close()
        gauge: _InflightGauge = server.inflight  # type: ignore[attr-defined]
        if not gauge.wait_idle(15.0):
            logger.warning(
                "graceful shutdown timed out with %d request(s) still "
                "in flight", gauge.active(),
            )
        service.close()
        logger.info("drained; service closed")


def _raise_keyboard_interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt
