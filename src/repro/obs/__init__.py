"""repro.obs — end-to-end tracing and profiling.

A lightweight, stdlib-only tracing layer: hierarchical
:class:`~repro.obs.spans.Span` records with monotonic timing and
per-span attributes, thread-local context propagation, exporters for
JSON lines and the Chrome ``trace_event`` format, and a "top spans" text
profile.

The process default is the :class:`~repro.obs.tracer.NoopTracer`, so
the instrumentation baked into the pipeline, the embedding plane, and
the serving layer is effectively free until a CLI flag
(``repro trace``, ``repro batch --trace-out``, ``repro serve
--trace-out``) or :func:`~repro.obs.tracer.set_tracer` enables it.

Typical use::

    from repro import obs

    with obs.tracing() as tracer:
        pipeline.classify(table)
    obs.write_chrome_trace(tracer.spans(), "trace.json")
    print(obs.top_spans_report(tracer.spans()))

See ``docs/OBSERVABILITY.md`` for the span model and how to read a
trace in Perfetto.
"""

from repro.obs.exporters import (
    chrome_trace,
    chrome_trace_events,
    span_from_dict,
    span_to_dict,
    top_spans_report,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.spans import Span, TraceContext, new_trace_id
from repro.obs.tracer import (
    NoopTracer,
    Tracer,
    TracerLike,
    get_tracer,
    iter_roots,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "NoopTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "TracerLike",
    "chrome_trace",
    "chrome_trace_events",
    "get_tracer",
    "iter_roots",
    "new_trace_id",
    "set_tracer",
    "span",
    "span_from_dict",
    "span_to_dict",
    "top_spans_report",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
