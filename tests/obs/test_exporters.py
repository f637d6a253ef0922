"""Exporter round-trips: JSONL, Chrome trace_event, top-spans report."""

from __future__ import annotations

import io
import json

from repro import obs
from repro.obs.tracer import Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("root", table="t1"):
        with tracer.span("embed"):
            with tracer.span("tokenize"):
                pass
            with tracer.span("aggregate"):
                pass
        with tracer.span("classify"):
            pass
    return tracer


def _nesting_check(events: list[dict]) -> None:
    """Every B has a matching E; per tid the pairs nest like brackets."""
    per_tid: dict[object, list] = {}
    for event in events:
        per_tid.setdefault(event["tid"], []).append(event)
    for tid_events in per_tid.values():
        stack = []
        for event in tid_events:
            assert event["ph"] in ("B", "E")
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack, "E without an open B"
                assert stack.pop() == event["name"]
        assert stack == [], "unclosed B events"


class TestChromeTrace:
    def test_events_balance_and_nest(self):
        tracer = _sample_tracer()
        events = obs.chrome_trace_events(tracer.spans())
        b = [e for e in events if e["ph"] == "B"]
        e = [e for e in events if e["ph"] == "E"]
        assert len(b) == len(e) == 5
        _nesting_check(events)

    def test_document_is_valid_json_and_round_trips(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace(tracer.spans(), path)
        assert count == 5
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        _nesting_check(document["traceEvents"])

    def test_b_events_carry_span_identity_and_attributes(self):
        tracer = _sample_tracer()
        events = obs.chrome_trace_events(tracer.spans())
        root_b = next(
            e for e in events if e["ph"] == "B" and e["name"] == "root"
        )
        assert root_b["args"]["table"] == "t1"
        assert root_b["args"]["trace_id"]
        child_b = next(
            e for e in events if e["ph"] == "B" and e["name"] == "embed"
        )
        assert child_b["args"]["parent_id"] == root_b["args"]["span_id"]

    def test_timestamps_relative_to_first_span(self):
        tracer = _sample_tracer()
        events = obs.chrome_trace_events(tracer.spans())
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["ts"] >= 0 for e in events)

    def test_error_annotated(self):
        tracer = Tracer()
        try:
            with tracer.span("bad"):
                raise RuntimeError("nope")
        except RuntimeError:
            pass
        (b_event,) = [
            e for e in obs.chrome_trace_events(tracer.spans())
            if e["ph"] == "B"
        ]
        assert b_event["args"]["error"] == "RuntimeError: nope"

    def test_empty_input(self):
        assert obs.chrome_trace_events([]) == []
        assert obs.chrome_trace([])["traceEvents"] == []

    def test_interleaved_threads_still_balance(self):
        """Worker spans from different traces on one thread stay valid."""
        import threading

        tracer = Tracer()

        def worker(trace_id):
            with tracer.span("item", trace_id=trace_id):
                with tracer.span("step"):
                    pass

        with tracer.span("request-a") as a:
            pass
        with tracer.span("request-b") as b:
            pass
        t = threading.Thread(
            target=lambda: (worker(a.trace_id), worker(b.trace_id))
        )
        t.start()
        t.join()
        items = [s for s in tracer.spans() if s.name == "item"]
        assert {s.trace_id for s in items} == {a.trace_id, b.trace_id}
        assert len({s.thread_id for s in items}) == 1
        events = obs.chrome_trace_events(tracer.spans())
        _nesting_check(events)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "spans.jsonl"
        assert obs.write_jsonl(tracer.spans(), path) == 5
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 5
        by_name = {r["name"]: r for r in records}
        assert by_name["tokenize"]["parent_id"] == by_name["embed"]["span_id"]
        assert by_name["root"]["attributes"] == {"table": "t1"}
        assert all(r["duration_ms"] >= 0 for r in records)

    def test_stream_output(self):
        tracer = _sample_tracer()
        buffer = io.StringIO()
        obs.write_jsonl(tracer.spans(), buffer)
        assert len(buffer.getvalue().splitlines()) == 5

    def test_write_trace_picks_format_by_suffix(self, tmp_path):
        tracer = _sample_tracer()
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        obs.write_trace(tracer.spans(), jsonl)
        obs.write_trace(tracer.spans(), chrome)
        assert len(jsonl.read_text().splitlines()) == 5  # one doc per line
        assert "traceEvents" in json.loads(chrome.read_text())


class TestTopSpansReport:
    def test_aggregates_and_self_time(self):
        tracer = _sample_tracer()
        report = obs.top_spans_report(tracer.spans())
        assert "root" in report and "tokenize" in report
        assert "(5 spans, 5 distinct names)" in report

    def test_empty(self):
        assert obs.top_spans_report([]) == "no spans recorded\n"

    def test_limit(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"name-{i}"):
                pass
        report = obs.top_spans_report(tracer.spans(), limit=2)
        # header + 2 rows + footer
        assert len(report.strip().splitlines()) == 4
