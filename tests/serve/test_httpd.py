"""End-to-end tests for the HTTP classification service.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven with
``urllib`` — CSV and JSON bodies, batch requests, health, metrics, and
the result cache.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import multiprocessing
import socket
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import obs
from repro.serve.httpd import ClassificationService, make_server
from repro.tables.csvio import table_to_csv


@pytest.fixture
def service(registry):
    svc = ClassificationService(registry, cache_capacity=128)
    yield svc
    svc.close()


@contextlib.contextmanager
def _serving(service):
    server = make_server(service, port=0)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def base_url(service):
    with _serving(service) as url:
        yield url


@pytest.fixture
def procs_service(registry):
    svc = ClassificationService(registry, cache_capacity=128, procs=1)
    yield svc
    svc.close()


@pytest.fixture(params=["threads", "procs"])
def backend_url(request, registry):
    """A served service on the thread backend, then on ``procs=1``."""
    svc = ClassificationService(
        registry, procs=1 if request.param == "procs" else None
    )
    try:
        with _serving(svc) as url:
            yield url
    finally:
        svc.close()


def _post(url: str, body: bytes, content_type: str) -> dict:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def _metric(text: str, needle: str) -> float:
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {needle!r} not found")


class TestClassifyEndpoint:
    def test_csv_matches_direct(self, base_url, hashed_pipeline, ckg_eval):
        table = ckg_eval[0].table
        record = _post(
            f"{base_url}/classify", table_to_csv(table).encode(), "text/csv"
        )
        direct = hashed_pipeline.classify(table)
        assert record["row_labels"] == [str(l) for l in direct.row_labels]
        assert record["col_labels"] == [str(l) for l in direct.col_labels]
        assert record["hmd_depth"] == direct.hmd_depth
        assert record["cached"] is False

    def test_json_matches_direct(self, base_url, hashed_pipeline, ckg_eval):
        table = ckg_eval[1].table
        body = json.dumps(
            {"name": table.name, "rows": [list(r) for r in table.rows]}
        ).encode()
        record = _post(f"{base_url}/classify", body, "application/json")
        direct = hashed_pipeline.classify(table)
        assert record["row_labels"] == [str(l) for l in direct.row_labels]
        assert record["vmd_depth"] == direct.vmd_depth

    def test_second_identical_request_is_cached(
        self, base_url, service, ckg_eval
    ):
        body = table_to_csv(ckg_eval[2].table).encode()
        first = _post(f"{base_url}/classify", body, "text/csv")
        second = _post(f"{base_url}/classify", body, "text/csv")
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["row_labels"] == first["row_labels"]
        # ... and the hit shows up in /metrics.
        _, metrics = _get(f"{base_url}/metrics")
        assert _metric(metrics, "repro_cache_hits_total") >= 1

    def test_batch_endpoint(self, base_url, hashed_pipeline, ckg_eval):
        tables = [item.table for item in ckg_eval[:4]]
        body = json.dumps(
            {"tables": [{"rows": [list(r) for r in t.rows]} for t in tables]}
        ).encode()
        payload = _post(
            f"{base_url}/classify/batch", body, "application/json"
        )
        assert payload["count"] == 4
        for record, table in zip(payload["results"], tables):
            direct = hashed_pipeline.classify(table)
            assert record["row_labels"] == [
                str(l) for l in direct.row_labels
            ]

    def test_batch_endpoint_is_one_fused_shard(self, base_url, ckg_eval):
        tables = [item.table for item in ckg_eval[6:10]]
        bodies = [
            {"name": f"b{i}", "rows": [list(r) for r in t.rows]}
            for i, t in enumerate(tables)
        ]
        with obs.tracing() as tracer:
            payload = _post(
                f"{base_url}/classify/batch",
                json.dumps({"tables": bodies}).encode(),
                "application/json",
            )
        shards = [s for s in tracer.spans() if s.name == "classify"]
        assert [s.attributes["n_tables"] for s in shards] == [len(tables)]
        for record, body in zip(payload["results"], bodies):
            single = _post(
                f"{base_url}/classify", json.dumps(body).encode(),
                "application/json",
            )
            assert record.keys() == single.keys()
            record.pop("cached")
            single.pop("cached")
            assert record == single


class TestObservability:
    def test_healthz(self, base_url):
        status, body = _get(f"{base_url}/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["default"] == "default"
        assert payload["models"] == ["default"]

    def test_metrics_counters_advance(self, base_url, ckg_eval):
        _, before = _get(f"{base_url}/metrics")
        body = table_to_csv(ckg_eval[3].table).encode()
        _post(f"{base_url}/classify", body, "text/csv")
        _, after = _get(f"{base_url}/metrics")
        needle = 'repro_requests_total{endpoint="/classify"}'
        before_n = (
            _metric(before, needle) if needle in before else 0.0
        )
        assert _metric(after, needle) == before_n + 1
        assert _metric(after, 'repro_responses_total{code="200"}') >= 1
        assert 'quantile="p95"' in after

    def test_stage_timings_exported(self, base_url, ckg_eval):
        body = table_to_csv(ckg_eval[4].table).encode()
        _post(f"{base_url}/classify", body, "text/csv")
        _, metrics = _get(f"{base_url}/metrics")
        assert 'repro_stage_seconds_count{stage="classify"}' in metrics


class TestWire:
    def test_keep_alive_replies_do_not_wait_on_delayed_ack(
        self, base_url, ckg_eval
    ):
        """Twenty replies on one keep-alive connection.  A reply written
        as headers-then-body on a Nagle socket waits ~40 ms for the
        client's delayed ACK, so 20 of them would take 0.8 s or more."""
        host, port = urllib.parse.urlsplit(base_url).netloc.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        body = table_to_csv(ckg_eval[6].table).encode()
        headers = {"Content-Type": "text/csv"}
        try:
            conn.request("POST", "/classify", body, headers)  # warm-up
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/classify", body, headers)
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["cached"] is True
            elapsed = time.perf_counter() - start
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert json.loads(response.read())["status"] == "ok"
            assert response.getheader("X-Trace-Id")
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
            assert response.getheader("Content-Type").startswith("text/plain")
        finally:
            conn.close()
        assert _metric(text, 'repro_requests_total{endpoint="/classify"}') == 21
        assert elapsed < 0.4, f"20 keep-alive replies took {elapsed:.3f}s"

    def test_client_gone_before_reply_is_counted_not_raised(
        self, service, ckg_eval, capfd, caplog
    ):
        """The client resets its socket while its table is classified:
        the reply's write fails, the server counts a disconnect, logs
        one line, writes nothing more and keeps serving."""
        entered, resume = threading.Event(), threading.Event()
        classify = service.classify_table

        def held_classify(table, *, model=""):
            entered.set()
            resume.wait(10)
            return classify(table, model=model)

        service.classify_table = held_classify
        body = table_to_csv(ckg_eval[7].table).encode()
        with _serving(service) as url:
            host, port = urllib.parse.urlsplit(url).netloc.split(":")
            client = socket.create_connection((host, int(port)), timeout=10)
            client.sendall(
                b"POST /classify HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: text/csv\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            assert entered.wait(10)
            # Linger 0: close() sends a RST, so the server's next write
            # on this connection fails instead of being buffered.
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.close()
            resume.set()
            deadline = time.monotonic() + 10
            while (
                service.metrics.counter("client_disconnects_total") < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            service.classify_table = classify
            status, health = _get(f"{url}/healthz")
        assert service.metrics.counter("client_disconnects_total") == 1
        assert status == 200 and json.loads(health)["status"] == "ok"
        assert service.metrics.counter("responses_total", code="500") == 0
        assert "Traceback" not in capfd.readouterr().err
        assert not [r for r in caplog.records if r.exc_info]


class TestErrors:
    def test_empty_body_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/classify", b"", "text/csv")
        assert err.value.code == 400

    def test_malformed_json_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/classify", b"{oops", "application/json")
        assert err.value.code == 400

    def test_unknown_model_is_404(self, backend_url, ckg_eval):
        body = table_to_csv(ckg_eval[0].table).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{backend_url}/classify?model=ghost", body, "text/csv")
        assert err.value.code == 404
        assert "ghost" in json.loads(err.value.read().decode())["error"]

    def test_unknown_endpoint_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base_url}/nope")
        assert err.value.code == 404

    def test_unknown_paths_fold_into_other_label(self, base_url):
        # Scanned/garbage paths must not create per-path counters (or
        # break the exposition format with quotes/backslashes).
        for path in ('/nope', '/sc"an\\me', "/x/y/z"):
            with pytest.raises(urllib.error.HTTPError):
                _get(base_url + urllib.parse.quote(path))
        _, metrics = _get(f"{base_url}/metrics")
        assert _metric(metrics, 'repro_requests_total{endpoint="other"}') >= 3
        assert "nope" not in metrics
        assert "scan" not in metrics

    def test_bad_model_does_not_poison_batchmates(self, service, ckg_eval):
        # Two concurrent requests: the unknown-model one fails alone,
        # its neighbour still gets labels.
        from concurrent.futures import ThreadPoolExecutor

        table = ckg_eval[0].table
        with ThreadPoolExecutor(max_workers=2) as clients:
            bad = clients.submit(service.classify_table, table, model="ghost")
            good = clients.submit(service.classify_table, table)
            with pytest.raises(KeyError, match="ghost"):
                bad.result(timeout=10)
            assert good.result(timeout=10)["row_labels"]

    def test_bad_batch_payload_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                f"{base_url}/classify/batch",
                json.dumps({"tables": []}).encode(),
                "application/json",
            )
        assert err.value.code == 400


class TestServiceDirect:
    def test_needs_a_model(self):
        from repro.serve.registry import ModelRegistry

        with pytest.raises(ValueError, match="model"):
            ClassificationService(ModelRegistry())

    def test_close_drains(self, registry, ckg_eval):
        svc = ClassificationService(registry)
        records = svc.classify_many(
            [item.table for item in ckg_eval[:8]]
        )
        svc.close()
        assert len(records) == 8
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.classify_table(ckg_eval[0].table)


class TestReadiness:
    def test_ready_probe_answers_200_when_serving(self, base_url):
        status, body = _get(f"{base_url}/healthz?ready=1")
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["status"] == "ok"

    def test_liveness_stays_200_without_ready_flag(self, base_url):
        status, body = _get(f"{base_url}/healthz")
        assert status == 200
        assert "ready" not in json.loads(body)

    def test_unready_service_answers_503_with_retry_after(
        self, registry
    ):
        svc = ClassificationService(registry)
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            svc.close()  # a closed service must leave rotation
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://{host}:{port}/healthz?ready=1")
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
            payload = json.loads(err.value.read().decode())
            assert payload["ready"] is False
            # Liveness still answers 200: the process is up.
            status, _body = _get(f"http://{host}:{port}/healthz")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_service_ready_reflects_close(self, registry):
        svc = ClassificationService(registry)
        assert svc.ready() is True
        svc.close()
        assert svc.ready() is False


class TestAdminReload:
    @pytest.fixture
    def archive_v2(self, hashed_pipeline, tmp_path):
        from repro.core.persistence import save_pipeline

        return save_pipeline(hashed_pipeline, tmp_path / "v2.npz")

    def test_thread_mode_reload_flips_generation(
        self, base_url, service, archive_v2, ckg_eval
    ):
        body = table_to_csv(ckg_eval[5].table).encode()
        first = _post(f"{base_url}/classify", body, "text/csv")
        outcome = _post(
            f"{base_url}/admin/reload",
            json.dumps(
                {"path": str(archive_v2), "name": "default"}
            ).encode(),
            "application/json",
        )
        assert outcome["status"] == "flipped"
        assert outcome["generation"] == 1
        # Stale cached results were dropped with the old generation.
        again = _post(f"{base_url}/classify", body, "text/csv")
        assert again["cached"] is False
        assert again["row_labels"] == first["row_labels"]
        _, metrics = _get(f"{base_url}/metrics")
        assert (
            _metric(metrics, 'repro_reloads_total{outcome="flipped"}') == 1
        )

    def test_reload_without_path_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/admin/reload", b"{}", "application/json")
        assert err.value.code == 400

    def test_reload_with_procs_backend_flips(
        self, registry, archive_v2, ckg_eval
    ):
        # Requests keep flowing while the worker pool is rebuilt on the
        # new store; none fails, and the generation advances.
        svc = ClassificationService(registry, procs=1)
        try:
            table = ckg_eval[5].table
            before = svc.classify_table(table)
            stop = threading.Event()
            during: list[dict] = []
            errors: list[BaseException] = []

            def hammer() -> None:
                while not stop.is_set():
                    try:
                        during.append(svc.classify_table(ckg_eval[6].table))
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                outcome = svc.reload(str(archive_v2), name="default")
            finally:
                stop.set()
                thread.join(timeout=120)
            assert not thread.is_alive()
            assert outcome == {"status": "flipped", "generation": 1}
            assert errors == []
            assert during
            after = svc.classify_table(table)
            assert after["row_labels"] == before["row_labels"]
            # The new workers start with empty result caches.
            assert after["cached"] is False
        finally:
            svc.close()


class TestProcsBackend:
    """``procs`` answers like the thread backend, warm from the start."""

    def test_replies_match_thread_backend(
        self, registry, procs_service, ckg_eval
    ):
        threads = ClassificationService(registry, cache_capacity=128)
        try:
            for item in ckg_eval[:4]:
                expected = threads.classify_table(item.table)
                record = procs_service.classify_table(item.table)
                assert record.keys() == expected.keys()
                record.pop("cached")
                expected.pop("cached")
                assert record == expected
        finally:
            threads.close()

    def test_cache_metrics_count_worker_hits(self, procs_service, ckg_eval):
        assert procs_service.cache is None
        table = ckg_eval[0].table
        flags = [procs_service.classify_table(table)["cached"] for _ in range(3)]
        assert flags == [False, True, True]
        metrics = procs_service.metrics_text()
        assert _metric(metrics, "repro_cache_hits_total") == 2
        assert _metric(metrics, "repro_cache_misses_total") == 1
        assert _metric(metrics, "repro_cache_hit_ratio") == pytest.approx(2 / 3)
        assert "repro_cache_size" not in metrics

    def test_reload_warms_every_worker(self, registry, tmp_path, ckg_eval):
        # Like construction, a reload probes every fresh worker before
        # the flip, so no request after it waits for a spawn.
        from repro.core.persistence import save_pipeline

        archive = save_pipeline(registry.get("default"), tmp_path / "v2.npz")
        baseline = {p.pid for p in multiprocessing.active_children()}
        svc = ClassificationService(registry, procs=2)
        try:
            svc.reload(str(archive), name="default")
            live = {p.pid for p in multiprocessing.active_children()}
            assert len(live - baseline) == 2
            svc.classify_table(ckg_eval[1].table)
            after = {p.pid for p in multiprocessing.active_children()}
            assert after == live
        finally:
            svc.close()

    def test_first_request_spawns_no_worker(self, procs_service, ckg_eval):
        # The constructor waited for the workers, so a server bound
        # after it answers /healthz?ready=1 with the store loaded.
        before = {p.pid for p in multiprocessing.active_children()}
        assert before
        procs_service.classify_table(ckg_eval[1].table)
        after = {p.pid for p in multiprocessing.active_children()}
        assert after == before


class TestDegenerateTables:
    """Degenerate tables over the wire must classify, not 500."""

    @pytest.mark.parametrize(
        "name,rows",
        [
            ("single-row", [["Region", "Cases", "Deaths"]]),
            ("single-col", [["Region"], ["North"], ["South"]]),
            ("one-by-one", [["x"]]),
            ("all-numeric", [["1", "2"], ["3", "4"], ["5", "6"]]),
            ("all-blank", [["", ""], ["", ""]]),
        ],
    )
    def test_json_degenerate_classifies(self, base_url, name, rows):
        body = json.dumps({"name": name, "rows": rows}).encode()
        record = _post(f"{base_url}/classify", body, "application/json")
        assert len(record["row_labels"]) == len(rows)
        assert len(record["col_labels"]) == (len(rows[0]) if rows else 0)

    def test_zero_row_table_classifies(self, base_url):
        body = json.dumps({"name": "empty", "rows": []}).encode()
        record = _post(f"{base_url}/classify", body, "application/json")
        assert record["row_labels"] == []
        assert record["col_labels"] == []
        assert record["hmd_depth"] == 0

    def test_degenerate_batch(self, base_url):
        body = json.dumps(
            {"tables": [{"rows": []}, {"rows": [["x"]]}, {"rows": [["1"]]}]}
        ).encode()
        payload = _post(f"{base_url}/classify/batch", body, "application/json")
        assert payload["count"] == 3
        assert payload["results"][0]["row_labels"] == []
        assert len(payload["results"][1]["row_labels"]) == 1
