"""Tracer semantics: nesting, attributes, threads, context handoff."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.tracer import NoopTracer, Tracer, _NOOP_SPAN


class TestSpanBasics:
    def test_span_records_name_and_duration(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.name == "work"
        assert span.end >= span.start
        assert tracer.spans() == [span]

    def test_attributes_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", table="t1", rows=5) as span:
            span.set(cached=True)
        assert span.attributes == {"table": "t1", "rows": 5, "cached": True}

    def test_nesting_assigns_parent_and_shares_trace(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id
        assert parent.parent_id is None
        assert child.trace_id == parent.trace_id == grandchild.trace_id

    def test_siblings_get_distinct_span_ids(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_explicit_trace_id_used_for_roots_only(self):
        tracer = Tracer()
        with tracer.span("root", trace_id="req-1") as root:
            with tracer.span("child", trace_id="ignored") as child:
                pass
        assert root.trace_id == "req-1"
        assert child.trace_id == "req-1"  # parent wins over the argument

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("work") as span:
                raise ValueError("boom")
        assert span.error == "ValueError: boom"
        assert tracer.spans() == [span]

    def test_buffer_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped() == 3

    def test_roots(self):
        tracer = Tracer()
        with tracer.span("r1"):
            with tracer.span("c"):
                pass
        with tracer.span("r2"):
            pass
        roots = sorted(r.name for r in obs.iter_roots(tracer.spans()))
        assert roots == ["r1", "r2"]


class TestThreads:
    def test_threads_do_not_inherit_context(self):
        tracer = Tracer()
        recorded = []

        def worker():
            with tracer.span("worker") as span:
                recorded.append(span)

        with tracer.span("main") as main_span:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        worker_span = recorded[0]
        assert worker_span.parent_id is None
        assert worker_span.trace_id != main_span.trace_id

    def test_concurrent_traces_stay_separate(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            with tracer.span("root", worker=i):
                for j in range(10):
                    with tracer.span("child", step=j):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        roots = [s for s in spans if s.name == "root"]
        assert len({r.trace_id for r in roots}) == 4
        by_trace = {r.trace_id: r for r in roots}
        for child in (s for s in spans if s.name == "child"):
            assert child.parent_id == by_trace[child.trace_id].span_id


class TestGlobalTracer:
    def test_default_is_noop(self):
        assert not obs.get_tracer().enabled
        assert obs.span("anything", key=1) is _NOOP_SPAN

    def test_tracing_context_installs_and_restores(self):
        before = obs.get_tracer()
        with obs.tracing() as tracer:
            assert obs.get_tracer() is tracer
            with obs.span("inside"):
                pass
        assert obs.get_tracer() is before
        assert [s.name for s in tracer.spans()] == ["inside"]
        # after exit the alias is the no-op again
        assert obs.span("after") is _NOOP_SPAN

    def test_set_tracer_rebinds_package_alias(self):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            with obs.span("via-alias"):
                pass
        finally:
            obs.set_tracer(previous)
        assert [s.name for s in tracer.spans()] == ["via-alias"]


class TestNoop:
    def test_noop_span_is_reentrant_singleton(self):
        tracer = NoopTracer()
        handle = tracer.span("x", a=1)
        assert handle is _NOOP_SPAN
        with handle as entered:
            assert entered is handle
        assert handle.set(b=2) is handle

    def test_noop_context_is_none(self):
        tracer = NoopTracer()
        assert tracer.current_context() is None

    def test_max_spans_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)
