"""Per-layer metrics from a traced run's spans and hook dump.

A span's self time is its duration minus the part of it that its child
spans cover, minus the timer-wrapped calls made directly under it.
Each span's self time goes to the layer its name maps to, or else to
the layer of its nearest mapped ancestor.  Spans recorded in a
``--procs`` worker all go to ``parallel.worker_classify``: the worker
process is the layer boundary seen from the parent.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: Span name -> layer.  Names are the program's own spans plus the
#: benchmark's wrapper spans (``hooks.py``).  Layers missing from
#: ``PER_LAYER`` (``core.fit``, ``serve.item``, ...) are not reported;
#: they keep their spans' self time out of their ancestors' layers.
SPAN_LAYERS = {
    "table": "connectors.read",
    "ingest.read": "connectors.read",
    "ingest.parse": "tables.parse",
    "tables.parse": "tables.parse",
    "ingest.pack": "connectors.classify_stage",
    "tokenize": "text.tokenize",
    "lookup": "embeddings.lookup",
    "fit": "core.fit",
    "fit.embedding": "embeddings.train",
    "embeddings.train": "embeddings.train",
    "fit.bootstrap": "core.fit.bootstrap",
    "fit.contrastive": "core.fit.contrastive",
    "fit.centroids": "core.fit.centroids",
    "core.store.save": "core.store.save",
    "core.store.load": "core.store.load",
    "classify": "core.classify",
    "embed": "core.embed",
    "aggregate": "core.embed",
    "project": "core.embed",
    "angle_walk": "core.angle_walk",
    "fused.intern": "core.fused.intern",
    "fused.pack": "core.fused.pack",
    "fused.aggregate": "core.fused.aggregate",
    "fused.walk": "core.fused.walk",
    "http.request": "serve.http.handler",
    "serve.submit": "serve.queue_wait",
    "serve.item": "serve.item",
}
#: Root spans on a worker thread that overlap the items they carry
#: (whose spans are parented to their requests): counted, not timed.
UNTIMED = {"serve.batch"}
WORKER_LAYER = "parallel.worker_classify"

#: Every per-layer metric and its unit.  Times in ``ms/table`` or
#: ``ms/request`` are divided by the run's unit of work.
PER_LAYER = {
    "tables.parse": "ms/table",
    "text.tokenize": "ms/table",
    "embeddings.train": "ms/table",
    "embeddings.lookup": "ms/table",
    "embeddings.oov_tokens": "count",
    "embeddings.lookup_hit_ratio": "ratio",
    "core.fit.bootstrap": "ms/table",
    "core.fit.contrastive": "ms/table",
    "core.fit.centroids": "ms/table",
    "core.store.save": "ms",
    "core.store.load": "ms",
    "core.classify": "ms/table",
    "core.embed": "ms/table",
    "core.angle_walk": "ms/table",
    "core.fused.intern": "ms/table",
    "core.fused.pack": "ms/table",
    "core.fused.aggregate": "ms/table",
    "core.fused.walk": "ms/table",
    "core.fused.shard_tables": "tables/shard",
    "connectors.read": "ms/table",
    "connectors.sink_write": "ms/table",
    "connectors.queue_wait": "ms/table",
    "connectors.backpressure_waits": "count",
    "serve.http.handler": "ms/request",
    "serve.http.outside": "ms/request",
    "serve.queue_wait": "ms/request",
    "serve.micro_batch": "tables/batch",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_key": "ms/table",
    "parallel.spawn": "s",
    "parallel.handoff": "ms/table",
    "parallel.worker_classify": "ms/table",
    "proc.cpu": "ms/table",
}


def read_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _proc(span: dict) -> str:
    name = span.get("thread_name") or ""
    return name if name.startswith("worker-") else "main"


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_seconds(spans: list[dict], timers: list[list]) -> dict[str, float]:
    """Self seconds per layer over every span and timer of a trace."""
    by_id = {(_proc(s), s["span_id"]): s for s in spans}
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent_id"] is not None and s["name"] not in UNTIMED:
            children[(_proc(s), s["parent_id"])].append((s["start"], s["end"]))
    timed_under: dict[int | None, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for layer, parent, seconds, _calls in timers:
        timed_under[parent] += seconds
        out[layer] += seconds

    def layer_of(span: dict) -> str:
        proc = _proc(span)
        if proc != "main":
            return WORKER_LAYER
        while span is not None:
            if span["name"] in SPAN_LAYERS:
                return SPAN_LAYERS[span["name"]]
            span = by_id.get((proc, span["parent_id"]))
        return "other"

    for s in spans:
        if s["name"] in UNTIMED:
            continue
        key = (_proc(s), s["span_id"])
        self_time = (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(key, []))
        if key[0] == "main":
            self_time -= timed_under.get(s["span_id"], 0.0)
        out[layer_of(s)] += max(0.0, self_time)
    return dict(out)


def _attr_mean(spans: list[dict], name: str, attr: str, **match) -> float:
    values = [
        s["attributes"][attr]
        for s in spans
        if s["name"] == name
        and attr in s.get("attributes", {})
        and all(s["attributes"].get(k) == v for k, v in match.items())
    ]
    return statistics.fmean(values) if values else 0.0


def _pool_timing(spans: list[dict], chunks: list[list[float]]) -> tuple[float, float, float]:
    """(spawn s, handoff s, worker classify s) of a ``--procs`` run.

    Chunks start on workers in submission order (the executor's call
    queue is FIFO), so the k-th submitted chunk is the k-th worker
    ``ingest.pack`` span to start.  A chunk's handoff is the time from
    its submission (or from the end of the worker's previous chunk,
    whichever is later) to the worker starting it, plus the time from
    the worker finishing it to the parent seeing the result.  A
    worker's first chunk waits for the worker to start: that wait is
    spawn, not handoff.
    """
    packs = sorted(
        (s for s in spans if _proc(s) != "main" and s["name"] == "ingest.pack"),
        key=lambda s: s["start"],
    )
    if not packs or not chunks:
        return 0.0, 0.0, 0.0
    chunks = sorted(chunks)
    spawn = packs[0]["start"] - chunks[0][0]
    handoff = 0.0
    last_end: dict[str, float] = {}
    for (submit, done, _n), pack in zip(chunks, packs):
        proc = _proc(pack)
        if proc in last_end:
            handoff += max(0.0, pack["start"] - max(submit, last_end[proc]))
        handoff += max(0.0, done - pack["end"])
        last_end[proc] = pack["end"]
    worker = sum(p["end"] - p["start"] for p in packs)
    return spawn, handoff, worker


def per_layer(
    spans: list[dict],
    hooks: dict,
    *,
    units: int,
    cpu_seconds: float,
    outside_ms: list[float] | None = None,
) -> dict[str, dict]:
    """Every per-layer metric of one traced run.

    ``units`` is the run's unit of work: tables classified, training
    tables, or requests.  Layers a workload never reaches read 0.
    """
    seconds = layer_seconds(spans, hooks["timers"])
    counters = hooks["counters"]
    spawn, handoff, worker = _pool_timing(spans, hooks["chunks"])
    seconds["parallel.handoff"] = handoff
    seconds[WORKER_LAYER] = worker
    lookups = [s for s in spans if s["name"] == "lookup" and _proc(s) == "main"]
    unique = sum(s.get("attributes", {}).get("unique", 0) for s in lookups)
    lookup_hits = sum(s.get("attributes", {}).get("cache_hits", 0) for s in lookups)
    cache_calls = counters.get("serve.cache_hits", 0) + counters.get("serve.cache_misses", 0)
    values: dict[str, float] = {
        "embeddings.oov_tokens": counters.get("embeddings.oov_tokens", 0),
        "embeddings.lookup_hit_ratio": lookup_hits / unique if unique else 0.0,
        "core.store.save": seconds.get("core.store.save", 0.0) * 1e3,
        "core.store.load": seconds.get("core.store.load", 0.0) * 1e3,
        "core.fused.shard_tables": _attr_mean(spans, "classify", "n_tables", fused=True),
        "connectors.backpressure_waits": counters.get("connectors.backpressure_waits", 0),
        "serve.http.outside": statistics.median(outside_ms) if outside_ms else 0.0,
        "serve.micro_batch": _attr_mean(spans, "serve.batch", "size"),
        "serve.cache_hit_ratio": counters.get("serve.cache_hits", 0) / cache_calls if cache_calls else 0.0,
        "parallel.spawn": spawn,
        "proc.cpu": cpu_seconds * 1e3 / units,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = values[name] if name in values else seconds.get(name, 0.0) * 1e3 / units
        metrics[name] = {"value": value, "unit": unit}
    return metrics
