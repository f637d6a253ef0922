"""Trace propagation through the serving layer.

The BatchingExecutor severs the thread-local span chain; the service
captures a TraceContext at submit time and restores it on the worker,
so a request's spans — including everything the pipeline emits on the
worker thread — stay in the request's trace.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve.batching import BatchingConfig
from repro.serve.httpd import ClassificationService, make_server
from repro.serve.metrics import ServiceMetrics
from repro.tables.csvio import table_to_csv


@pytest.fixture
def service(registry):
    svc = ClassificationService(
        registry,
        batching=BatchingConfig(workers=2, max_batch_size=4, max_delay=0.01),
    )
    yield svc
    svc.close()


class TestContextPropagation:
    def test_trace_id_survives_executor_handoff(self, service, ckg_eval):
        table = ckg_eval[0].table
        with obs.tracing() as tracer:
            with obs.span("request", trace_id="req-42"):
                service.classify_table(table)
        spans = tracer.spans()
        item = next(s for s in spans if s.name == "serve.item")
        assert item.trace_id == "req-42"
        # the pipeline's spans on the worker thread belong to the trace too
        classify = next(s for s in spans if s.name == "classify")
        assert classify.trace_id == "req-42"
        # ... even though they ran on a different thread
        request = next(s for s in spans if s.name == "request")
        assert item.thread_id != request.thread_id

    def test_serve_item_attributes(self, service, ckg_eval):
        table = ckg_eval[0].table
        with obs.tracing() as tracer:
            service.classify_table(table)  # cold: miss
            service.classify_table(table)  # warm: result-cache hit
        items = [s for s in tracer.spans() if s.name == "serve.item"]
        assert [s.attributes["cached"] for s in items] == [False, True]
        assert all(s.attributes["model"] == "default" for s in items)

    def test_concurrent_requests_never_share_spans(self, service, ckg_eval):
        """Distinct client requests keep distinct traces even when their
        items land in the same micro-batch on the same worker."""
        tables = [item.table for item in ckg_eval[:6]]
        trace_ids = [f"req-{i}" for i in range(len(tables))]
        barrier = threading.Barrier(len(tables))
        errors: list[Exception] = []

        def client(table, trace_id):
            try:
                barrier.wait(timeout=10)
                with obs.span("request", trace_id=trace_id):
                    service.classify_table(table)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with obs.tracing() as tracer:
            threads = [
                threading.Thread(target=client, args=(t, tid))
                for t, tid in zip(tables, trace_ids)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        spans = tracer.spans()
        items = [s for s in spans if s.name == "serve.item"]
        assert sorted(s.trace_id for s in items) == sorted(trace_ids)
        # every classify span sits in exactly one request's trace
        for s in spans:
            if s.name in ("classify", "fused.aggregate", "serve.item"):
                assert s.trace_id in trace_ids, s.name
        # batch spans are their own roots, never part of a request trace
        for s in spans:
            if s.name == "serve.batch":
                assert s.trace_id not in trace_ids

    def test_untraced_requests_still_work(self, service, ckg_eval):
        record = service.classify_table(ckg_eval[0].table)
        assert record["row_labels"]


class TestServiceHookCompose:
    def test_service_does_not_clobber_existing_hook(self, registry, ckg_eval):
        """Regression: the service used to overwrite caller hooks."""
        seen: list[str] = []
        pipeline = registry.get("default")
        hook = lambda stage, seconds: seen.append(stage)  # noqa: E731
        pipeline.add_stage_hook(hook)
        metrics = ServiceMetrics()
        svc = ClassificationService(registry, metrics=metrics)
        try:
            svc.classify_table(ckg_eval[0].table)
        finally:
            svc.close()
            pipeline.remove_stage_hook(hook)
        assert "classify" in seen  # caller hook survived
        # ... and the service's metrics hook observed the stage too
        assert 'stage_seconds_count{stage="classify"}' in metrics.render()


class TestTraceIdHeader:
    @pytest.fixture
    def server(self, service):
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def test_response_carries_x_trace_id(self, server, ckg_eval):
        body = table_to_csv(ckg_eval[0].table).encode()
        request = urllib.request.Request(
            self._url(server, "/classify"), data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            trace_id = response.headers.get("X-Trace-Id")
            payload = json.loads(response.read())
        assert trace_id
        assert len(trace_id) == 16
        assert payload["row_labels"]

    def test_trace_ids_are_distinct_per_request(self, server):
        ids = set()
        for _ in range(3):
            with urllib.request.urlopen(
                self._url(server, "/healthz"), timeout=10
            ) as response:
                ids.add(response.headers["X-Trace-Id"])
        assert len(ids) == 3

    def test_error_responses_also_carry_the_header(self, server):
        request = urllib.request.Request(
            self._url(server, "/classify"), data=b"", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as err:
            assert err.code == 400
            assert err.headers.get("X-Trace-Id")

    def test_http_request_root_span_matches_header(self, server, ckg_eval):
        body = table_to_csv(ckg_eval[0].table).encode()
        with obs.tracing() as tracer:
            request = urllib.request.Request(
                self._url(server, "/classify"), data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                trace_id = response.headers["X-Trace-Id"]
            # The server closes its http.request span only after writing
            # the body, so the client can get here before the span is
            # recorded: wait for it, with a bound.
            deadline = time.monotonic() + 10
            matching = None
            while matching is None and time.monotonic() < deadline:
                matching = next(
                    (
                        s
                        for s in tracer.spans()
                        if s.name == "http.request" and s.trace_id == trace_id
                    ),
                    None,
                )
                if matching is None:
                    time.sleep(0.01)
        assert matching is not None, "no http.request span with the header's trace id"
        assert matching.attributes["endpoint"] == "/classify"
        assert matching.attributes["method"] == "POST"
