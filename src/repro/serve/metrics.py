"""Service metrics with Prometheus text rendering.

Everything is in-process and lock-guarded: monotonically increasing
counters, per-stage timing accumulators (fed by the pipeline's stage
hooks), and a fixed-size ring buffer of recent request
latencies from which p50/p95 are computed on scrape.  ``render()``
emits the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so a
stock Prometheus scraper can consume ``GET /metrics`` unchanged.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

_NAMESPACE = "repro"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 for empty input)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class LatencyRing:
    """Ring buffer of the last ``size`` observations, in seconds."""

    def __init__(self, size: int = 1024) -> None:
        if size < 1:
            raise ValueError("ring size must be positive")
        self._size = size
        self._lock = threading.Lock()
        self._values: list[float] = []  # guarded-by: _lock
        self._next = 0  # guarded-by: _lock

    def observe(self, seconds: float) -> None:
        with self._lock:
            if len(self._values) < self._size:
                self._values.append(seconds)
            else:
                self._values[self._next] = seconds
            self._next = (self._next + 1) % self._size

    def snapshot(self) -> list[float]:
        with self._lock:
            return sorted(self._values)

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


#: Counter key: (metric name, sorted (label, value) pairs).
_CounterKey = tuple[str, tuple[tuple[str, str], ...]]


class ServiceMetrics:
    """The service-wide metrics registry.

    Counter keys are ``(name, frozen-labels)`` pairs; stage timings
    accumulate ``sum``/``count`` per stage name.  A single instance is
    shared by the HTTP front-end and the bulk path.
    """

    def __init__(self, ring_size: int = 1024) -> None:
        self._lock = threading.Lock()
        self._counters: dict[_CounterKey, float] = {}  # guarded-by: _lock
        self._stage_sum: dict[str, float] = {}  # guarded-by: _lock
        self._stage_count: dict[str, int] = {}  # guarded-by: _lock
        self._gauges: dict[str, float] = {}  # guarded-by: _lock
        self.latency = LatencyRing(ring_size)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def counter(self, name: str, **labels: str) -> float:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._counters.get(key, 0.0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge (e.g. the ingest queue depth)."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Pipeline stage-hook adapter — accumulate per-stage time."""
        with self._lock:
            self._stage_sum[stage] = self._stage_sum.get(stage, 0.0) + seconds
            self._stage_count[stage] = self._stage_count.get(stage, 0) + 1

    def observe_request(self, seconds: float) -> None:
        self.latency.observe(seconds)

    def merge_stage_totals(
        self, totals: Mapping[str, tuple[float, int]]
    ) -> None:
        """Fold pre-aggregated per-stage ``(sum, count)`` pairs in.

        The multiprocess path (:class:`repro.parallel.pool.ShardedPool`)
        accumulates stage timings inside worker processes and ships the
        totals back in bulk; this merges them as if ``observe_stage``
        had been called per event.
        """
        with self._lock:
            for stage, (total, count) in totals.items():
                self._stage_sum[stage] = self._stage_sum.get(stage, 0.0) + total
                self._stage_count[stage] = (
                    self._stage_count.get(stage, 0) + int(count)
                )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _counter_lines(self) -> Iterable[str]:
        with self._lock:
            items = sorted(self._counters.items())
        seen: set[str] = set()
        for (name, labels), value in items:
            full = f"{_NAMESPACE}_{name}"
            if full not in seen:
                seen.add(full)
                yield f"# TYPE {full} counter"
            yield f"{full}{_fmt_labels(dict(labels))} {value:g}"

    def _stage_lines(self) -> Iterable[str]:
        with self._lock:
            sums = dict(self._stage_sum)
            counts = dict(self._stage_count)
        if not sums:
            return
        yield f"# TYPE {_NAMESPACE}_stage_seconds_sum counter"
        for stage, total in sorted(sums.items()):
            labels = _fmt_labels({"stage": stage})
            yield f"{_NAMESPACE}_stage_seconds_sum{labels} {total:.6f}"
        yield f"# TYPE {_NAMESPACE}_stage_seconds_count counter"
        for stage, n in sorted(counts.items()):
            labels = _fmt_labels({"stage": stage})
            yield f"{_NAMESPACE}_stage_seconds_count{labels} {n}"

    def _latency_lines(self) -> Iterable[str]:
        values = self.latency.snapshot()
        yield f"# TYPE {_NAMESPACE}_request_latency_seconds gauge"
        for q, label in ((0.5, "p50"), (0.95, "p95")):
            yield (
                f'{_NAMESPACE}_request_latency_seconds{{quantile="{label}"}} '
                f"{quantile(values, q):.6f}"
            )

    def render(self, extra: Mapping[str, float] | None = None) -> str:
        """Render the scrape body; ``extra`` adds one-off plain gauges."""
        with self._lock:
            gauges = dict(self._gauges)
        lines: list[str] = []
        lines.extend(self._counter_lines())
        lines.extend(self._stage_lines())
        lines.extend(self._latency_lines())
        for name, value in sorted(gauges.items()):
            full = f"{_NAMESPACE}_{name}"
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {value:g}")
        for name, value in sorted((extra or {}).items()):
            full = f"{_NAMESPACE}_{name}"
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {value:g}")
        return "\n".join(lines) + "\n"
