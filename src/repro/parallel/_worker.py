"""Worker-process entry points for ``repro.parallel``.

Every function here is a top-level callable — the spawn start method
pickles tasks by reference, so nothing in this module may be a closure
or a bound method.  Per-process state is module-global:
:func:`init_classify_worker` loads every model once (memory-mapped for
directory stores, so N workers share one page-cached copy of the
matrices) and optionally installs a recording tracer whose spans are
flushed to a per-pid JSONL file after every chunk;
:func:`classify_stream_chunk` is the one classify entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro import obs

if TYPE_CHECKING:
    from repro.core.pipeline import MetadataPipeline

# Per-process pool-worker state, assigned once by init_classify_worker.
_MODELS: dict[str, MetadataPipeline] = {}
_DEFAULT_MODEL = ""
_TRACE_DIR: str | None = None
_CACHE: Any = None


def init_classify_worker(
    specs: Mapping[str, str],
    default: str,
    trace_dir: str | None,
    mmap: bool,
    cache_capacity: int,
) -> None:
    """Pool initializer: load every model once, arm tracing if asked.

    Directory stores load with ``mmap_mode="r"`` so the embedding and
    centroid matrices are OS-page-cache-backed views shared across all
    workers; ``.npz`` archives decompress into process-private memory.
    """
    global _DEFAULT_MODEL, _TRACE_DIR, _CACHE
    from repro.core.persistence import load_pipeline
    from repro.serve.cache import LRUCache

    for name, path in specs.items():
        _MODELS[name] = load_pipeline(path, mmap=mmap)
    _DEFAULT_MODEL = default
    _TRACE_DIR = trace_dir
    _CACHE = LRUCache(cache_capacity) if cache_capacity else None
    if trace_dir is not None:
        obs.set_tracer(obs.Tracer())


def _flush_spans() -> None:
    """Append this process's finished spans to its per-pid trace file."""
    tracer = obs.get_tracer()
    if _TRACE_DIR is None or not tracer.enabled:
        return
    spans = tracer.spans()  # type: ignore[attr-defined]
    tracer.clear()  # type: ignore[attr-defined]
    if not spans:
        return
    pid = os.getpid()
    path = Path(_TRACE_DIR) / f"trace-{pid}.jsonl"
    with path.open("a") as handle:
        for span in spans:
            record = {"pid": pid, **obs.span_to_dict(span)}
            handle.write(json.dumps(record) + "\n")


class _StageTotals:
    """Accumulates ``(stage, seconds)`` hook calls into (sum, count)."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}

    def __call__(self, stage: str, seconds: float) -> None:
        entry = self.totals.setdefault(stage, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    def as_dict(self) -> dict[str, tuple[float, int]]:
        return {k: (v[0], int(v[1])) for k, v in self.totals.items()}


def _resolve(model: str) -> tuple[str, MetadataPipeline]:
    name = model or _DEFAULT_MODEL
    try:
        return name, _MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; worker loaded: {sorted(_MODELS)}"
        ) from None


def get_model(model: str = "") -> MetadataPipeline:
    """A worker-loaded pipeline by name ("" = the pool default).

    The supported way for generic tasks (:meth:`ShardedPool.run_task`)
    to reach the warm models the initializer loaded.
    """
    return _resolve(model)[1]


def classify_stream_chunk(model: str, items: Sequence[Any]) -> dict:
    """Classify one chunk of source items (every ``--procs`` classify).

    ``items`` is a pickled
    :class:`~repro.connectors.chunks.SourceItem` sequence: a streaming
    :class:`TableChunk` from ``repro batch``, or one served table.  The
    shared chunk classifier
    (:func:`repro.connectors.pipelined.classify_chunk_items`) keeps the
    record shapes — including windowed records and isolated error
    records — identical to the in-process consumer's.  An unknown
    ``model`` raises :class:`KeyError`, which the parent receives as is.
    """
    from repro.connectors.pipelined import classify_chunk_items

    resolved, pipeline = _resolve(model)
    stages = _StageTotals()
    pipeline.add_stage_hook(stages)
    try:
        records = classify_chunk_items(
            pipeline, items, _CACHE, model=resolved
        )
    finally:
        pipeline.remove_stage_hook(stages)
        _flush_spans()
    return {"records": records, "stages": stages.as_dict()}


def probe_models() -> dict:
    """Report how this worker's model arrays are backed (tests, debug)."""
    import numpy as np

    out: dict[str, object] = {"pid": os.getpid()}
    for name, pipeline in _MODELS.items():
        if pipeline.row_centroids is None:
            continue  # unfitted pipelines never reach a worker
        out[name] = {
            "meta_ref_memmap": isinstance(
                pipeline.row_centroids.meta_ref, np.memmap
            ),
            "data_ref_memmap": isinstance(
                pipeline.row_centroids.data_ref, np.memmap
            ),
        }
    return out


def crash_worker() -> None:  # pragma: no cover - exercised via subprocess
    """Kill this worker abruptly (tests of BrokenProcessPool handling)."""
    os._exit(13)

