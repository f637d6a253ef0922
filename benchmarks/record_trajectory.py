"""Record the repo's performance trajectory (CI `bench` job).

Measures three numbers on the current tree:

* **classify tables/sec** — single-threaded classify throughput of the
  default (hashed-backend) pipeline over 120 mixed tables,
  best of three passes;
* **fused tables/sec** — the same 120 tables through
  :meth:`~repro.core.pipeline.MetadataPipeline.classify_corpus` (the
  fused corpus plane of :mod:`repro.core.fused`), best of five passes,
  after asserting its labels are byte-identical to the per-table loop;
  ``fused_speedup`` is the same-run ratio against the per-table number,
  which makes it robust to machine-class noise;
* **serve batch speedup** — the same workload through
  :class:`~repro.serve.httpd.ClassificationService` with concurrent
  clients and a 4-worker micro-batching pool, vs the serial loop
  (~1x on this tiny-table workload, where the GIL binds; tracked so a
  collapse or an improvement both show up in the series);
* **p95 seconds** — the request-latency 95th percentile of the service
  run, straight from :class:`~repro.serve.metrics.ServiceMetrics`;
* **batch procs tables/sec** — the same 120 tables through
  :class:`~repro.parallel.ShardedPool` (``repro batch --procs``) with
  as many worker processes as the machine allows (capped at 4),
  steady-state, worker caches off;
* **model cold-load ms** — best-of-three :func:`load_pipeline` wall
  time for the directory store vs the ``.npz`` archive of the same
  model, the number the zero-copy store exists to shrink;
* **fleet tables/sec** — the same 120 tables through
  :class:`~repro.fleet.FleetRouter` (``repro serve --fleet``) with as
  many worker processes as the machine allows (capped at 4),
  steady-state — the socket hop plus per-worker dispatch overhead on
  top of raw classification;
* **shed rate under overload** — fraction of 200 rapid-fire submits a
  deliberately tiny fleet (1 worker, queue depth 2) rejects with a
  fast 503 instead of queueing unboundedly; tracked so admission
  control stays a fast path and keeps actually shedding;
* **streaming tables/sec** — the same 120 tables through the pipelined
  streaming plane (:func:`repro.connectors.pipelined.run_streaming`,
  ``repro batch``'s default path), best of three; on machines with at
  least 2 usable CPUs the entry also carries ``streaming_speedup``,
  the same-run ratio against the strictly sequential
  parse-then-classify loop;
* **streaming peak RSS MB** — peak traced allocation (tracemalloc)
  while windowed-classifying a 50k-row CSV under a 64-row window
  budget; the bounded-memory claim as a number.

One JSON entry ``{commit, date, classify_tables_per_sec,
fused_tables_per_sec, fused_speedup, serve_batch_speedup, p95_seconds,
batch_procs_tables_per_sec, model_cold_load_ms, fleet_tables_per_sec,
shed_rate_under_overload, streaming_tables_per_sec,
streaming_peak_rss_mb}`` is appended to the trajectory file
(default ``BENCH_trajectory.json``, uploaded as a CI artifact) so the
perf history of the project is a machine-readable series.

The trajectory also carries **quality** numbers (PR 9): pass
``--fuzz-report`` / ``--ablation-report`` with the JSON files that
``repro fuzz --report`` and ``repro ablate --report`` emit and the
entry gains fuzz crash/divergence/flip counts plus the ablation
baseline accuracy and worst-knockout impact.  ``--quality-only`` skips
the perf measurement entirely (the CI ``quality`` job appends its own
entry without re-running the bench).

``--check`` compares classify, fused, and streaming throughput against
the committed ``benchmarks/BENCH_baseline.json`` and exits non-zero on
a regression of more than 20%, when the same-run fused speedup falls
below :data:`FUSED_SPEEDUP_FLOOR`, when the same-run streaming speedup
falls below :data:`STREAMING_SPEEDUP_FLOOR` (only measured on >=2-CPU
machines), or when the windowed streaming peak rises above
:data:`STREAMING_PEAK_RSS_CEILING_MB` — the CI gate.  Quality keys gate
too: any fuzz crash/divergence/flip fails, and ``ablation_hmd1`` below
:data:`REGRESSION_FLOOR` of the baseline fails.  Gates only fire for
keys the entry actually has, so perf-only and quality-only entries
coexist in one series.  ``--write-baseline`` refreshes the
baseline from the current measurement (do this deliberately, on the
machine class CI uses, when a legitimate perf change lands).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: A measurement below this fraction of the baseline fails ``--check``.
REGRESSION_FLOOR = 0.8

#: ``--check`` fails when the fused corpus path is not at least this
#: many times faster than the per-table loop *in the same run*.  The
#: tree measures ~8-10x; 5x is the floor with headroom for noisy CI
#: machines (the ratio cancels machine speed, unlike the absolute
#: throughput gate).
FUSED_SPEEDUP_FLOOR = 5.0

#: ``--check`` fails when the pipelined streaming plane is not at least
#: this many times faster than the sequential parse-then-classify loop
#: in the same run.  The key is only emitted on machines with >=2
#: usable CPUs — on one core there is nothing to overlap — so the gate
#: arms itself exactly where the claim is testable.
STREAMING_SPEEDUP_FLOOR = 1.3

#: ``--check`` fails when the windowed streaming measurement peaks
#: above this many MB of traced allocations.  The full 50k x 8 grid
#: would cost >25 MB; the window path measures ~6 MB.
STREAMING_PEAK_RSS_CEILING_MB = 12.0

N_TABLES_PER_PROFILE = 30
PROFILES = ("ckg", "saus", "cord19", "wdc")
CLASSIFY_REPS = 3
FUSED_REPS = 5
#: Enough closed-loop clients that micro-batches fill on queue pressure
#: instead of stalling on the max_delay deadline.
CLIENT_THREADS = 32
SERVE_WORKERS = 4


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _build_workload():
    from repro.core.pipeline import MetadataPipeline, PipelineConfig
    from repro.corpus.registry import build_corpus, build_split
    from repro.corpus.vocabularies import get_domain

    config = PipelineConfig(
        embedding="hashed",
        hashed_fields=get_domain("biomedical").field_map(),
        n_pairs=200,
        use_contrastive=False,
    )
    train, _ = build_split("ckg", n_train=60, n_eval=0, seed=7)
    pipeline = MetadataPipeline(config).fit(train)
    tables = []
    for name in PROFILES:
        tables.extend(
            item.table
            for item in build_corpus(name, n_tables=N_TABLES_PER_PROFILE, seed=13)
        )
    return pipeline, tables


def measure(verbose: bool = True) -> dict:
    from repro.serve.batching import BatchingConfig
    from repro.serve.httpd import ClassificationService
    from repro.serve.metrics import ServiceMetrics, quantile
    from repro.serve.registry import ModelRegistry

    pipeline, tables = _build_workload()

    # Warm every shared cache (token LRU, tokenize memo) so both the
    # serial and the concurrent measurement see the same steady state.
    for table in tables:
        pipeline.classify(table)

    serial_best = float("inf")
    for _ in range(CLASSIFY_REPS):
        start = time.perf_counter()
        loop_annotations = [pipeline.classify(table) for table in tables]
        serial_best = min(serial_best, time.perf_counter() - start)
    tables_per_sec = len(tables) / serial_best

    # The fused corpus path must be byte-identical before it is timed —
    # a fast wrong answer is not a benchmark.
    fused_annotations = pipeline.classify_corpus(tables)
    if fused_annotations != loop_annotations:
        raise SystemExit(
            "fused classify_corpus labels diverge from the per-table loop"
        )
    fused_best = float("inf")
    for _ in range(FUSED_REPS):
        start = time.perf_counter()
        pipeline.classify_corpus(tables)
        fused_best = min(fused_best, time.perf_counter() - start)
    fused_tables_per_sec = len(tables) / fused_best
    fused_speedup = serial_best / fused_best

    registry = ModelRegistry()
    registry.add("bench", pipeline)
    metrics = ServiceMetrics()
    service = ClassificationService(
        registry,
        batching=BatchingConfig(workers=SERVE_WORKERS),
        cache_capacity=0,  # measure classification, not the result cache
        metrics=metrics,
    )
    try:
        def _one(table) -> None:
            start = time.perf_counter()
            service.classify_table(table, model="bench")
            metrics.observe_request(time.perf_counter() - start)

        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as clients:
            start = time.perf_counter()
            list(clients.map(_one, tables))
            concurrent_elapsed = time.perf_counter() - start
    finally:
        service.close()

    speedup = serial_best / concurrent_elapsed
    latencies = sorted(metrics.latency.snapshot())
    p95 = quantile(latencies, 0.95) if latencies else 0.0

    procs_tables_per_sec, cold_load_ms = _measure_parallel(pipeline, tables)
    fleet_tables_per_sec, shed_rate = _measure_fleet(pipeline, tables)
    streaming_tables_per_sec, streaming_peak_mb, streaming_speedup = (
        _measure_streaming(pipeline, tables)
    )

    entry = {
        "commit": _git_commit(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "classify_tables_per_sec": round(tables_per_sec, 2),
        "fused_tables_per_sec": round(fused_tables_per_sec, 2),
        "fused_speedup": round(fused_speedup, 2),
        "serve_batch_speedup": round(speedup, 3),
        "p95_seconds": round(p95, 6),
        "batch_procs_tables_per_sec": round(procs_tables_per_sec, 2),
        "model_cold_load_ms": cold_load_ms,
        "fleet_tables_per_sec": round(fleet_tables_per_sec, 2),
        "shed_rate_under_overload": round(shed_rate, 3),
        "streaming_tables_per_sec": round(streaming_tables_per_sec, 2),
        "streaming_peak_rss_mb": round(streaming_peak_mb, 2),
    }
    if streaming_speedup is not None:
        entry["streaming_speedup"] = round(streaming_speedup, 2)
    if verbose:
        print(
            f"classify: {tables_per_sec:.1f} tables/sec "
            f"({len(tables)} tables, best of {CLASSIFY_REPS})\n"
            f"fused:    {fused_tables_per_sec:.1f} tables/sec "
            f"({fused_speedup:.2f}x, best of {FUSED_REPS}, "
            f"labels verified)\n"
            f"serve:    {speedup:.2f}x vs serial "
            f"({SERVE_WORKERS} workers, {CLIENT_THREADS} clients), "
            f"p95 {p95 * 1000:.1f}ms\n"
            f"procs:    {procs_tables_per_sec:.1f} tables/sec "
            f"(ShardedPool)\n"
            f"cold load: dir {cold_load_ms['dir']:.1f}ms, "
            f"npz {cold_load_ms['npz']:.1f}ms\n"
            f"fleet:    {fleet_tables_per_sec:.1f} tables/sec, "
            f"shed rate {shed_rate:.0%} under overload\n"
            f"stream:   {streaming_tables_per_sec:.1f} tables/sec"
            + (
                f" ({streaming_speedup:.2f}x vs sequential)"
                if streaming_speedup is not None
                else " (1 CPU, no speedup measured)"
            )
            + f", windowed peak {streaming_peak_mb:.2f} MB",
            file=sys.stderr,
        )
    return entry


def _measure_parallel(pipeline, tables) -> tuple[float, dict]:
    """(ShardedPool tables/sec, {dir,npz} cold-load milliseconds)."""
    from repro.core.persistence import (
        load_pipeline,
        save_pipeline,
        save_pipeline_dir,
    )
    from repro.parallel import ShardedPool, cpu_worker_default
    from repro.tables.csvio import table_to_csv

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = save_pipeline_dir(pipeline, root / "model")
        npz = save_pipeline(pipeline, root / "model.npz")

        table_dir = root / "tables"
        table_dir.mkdir()
        paths = []
        for i, table in enumerate(tables):
            path = table_dir / f"t{i:04d}.csv"
            path.write_text(table_to_csv(table))
            paths.append(str(path))

        procs = cpu_worker_default(ceiling=4)
        with ShardedPool(
            {"bench": store}, procs=procs, default="bench", cache_capacity=0
        ) as pool:
            list(pool.map_paths(paths))  # warm worker imports + model pages
            start = time.perf_counter()
            records = list(pool.map_paths(paths))
            elapsed = time.perf_counter() - start
        if any("error" in r for r in records):
            raise SystemExit("procs benchmark saw classification errors")
        procs_tables_per_sec = len(tables) / elapsed

        def _cold_ms(path) -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                load_pipeline(path)
                best = min(best, time.perf_counter() - start)
            return round(best * 1000, 3)

        cold_load_ms = {"dir": _cold_ms(store), "npz": _cold_ms(npz)}
    return procs_tables_per_sec, cold_load_ms


def _measure_fleet(pipeline, tables) -> tuple[float, float]:
    """(fleet tables/sec steady-state, shed rate under overload)."""
    from repro.core.persistence import save_pipeline_dir
    from repro.fleet import FleetConfig, FleetRouter
    from repro.parallel import cpu_worker_default
    from repro.serve.batching import ServiceOverloaded

    with tempfile.TemporaryDirectory() as tmp:
        store = save_pipeline_dir(pipeline, Path(tmp) / "model")

        # Steady-state throughput: ample queues, no shedding.
        config = FleetConfig(
            workers=cpu_worker_default(ceiling=4),
            queue_depth=4 * len(tables),
            deadline=600.0,
            spawn_timeout=120.0,
        )
        with FleetRouter({"bench": store}, config=config) as fleet:
            for future in [
                fleet.submit(("bench", t, None)) for t in tables
            ]:
                future.result(timeout=300)  # warm worker imports + pages
            start = time.perf_counter()
            futures = [fleet.submit(("bench", t, None)) for t in tables]
            for future in futures:
                future.result(timeout=300)
            elapsed = time.perf_counter() - start
        fleet_tables_per_sec = len(tables) / elapsed

        # Overload: a 1-worker, depth-2 fleet flooded with 200 rapid
        # submits — admission control must reject most of them fast.
        config = FleetConfig(
            workers=1, queue_depth=2, deadline=30.0, spawn_timeout=120.0
        )
        attempts = 200
        shed = 0
        accepted = []
        with FleetRouter({"bench": store}, config=config) as fleet:
            for i in range(attempts):
                try:
                    accepted.append(
                        fleet.submit(("bench", tables[i % len(tables)], None))
                    )
                except ServiceOverloaded:
                    shed += 1
            for future in accepted:
                future.result(timeout=300)
    return fleet_tables_per_sec, shed / attempts


def _measure_streaming(pipeline, tables) -> tuple[float, float, float | None]:
    """(streaming tables/sec, windowed peak MB, same-run speedup or None).

    The speedup side only runs (and the key is only emitted) when the
    machine has at least 2 usable CPUs — the pipelined executor cannot
    overlap parse with classify on one core, and a meaningless 1.0x
    would trip the gate on every laptop container.
    """
    import os
    import tracemalloc

    from repro.connectors.pipelined import run_streaming
    from repro.connectors.sources import build_sources
    from repro.connectors.window import (
        CsvRowStream,
        WindowConfig,
        classify_windowed,
    )
    from repro.serve.bulk import classify_paths
    from repro.tables.csvio import table_to_csv

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        table_dir = root / "tables"
        table_dir.mkdir()
        paths = []
        for i, table in enumerate(tables):
            path = table_dir / f"t{i:04d}.csv"
            path.write_text(table_to_csv(table))
            paths.append(str(path))

        def _stream_pass() -> float:
            start = time.perf_counter()
            records = run_streaming(
                pipeline, build_sources(paths), parse_workers=4
            )
            elapsed = time.perf_counter() - start
            if len(records) != len(paths):
                raise SystemExit("streaming benchmark lost records")
            return elapsed

        _stream_pass()  # warm imports and token caches
        stream_best = min(_stream_pass() for _ in range(3))
        streaming_tables_per_sec = len(tables) / stream_best

        speedup = None
        if len(os.sched_getaffinity(0)) >= 2:
            sequential_best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                classify_paths(pipeline, paths, workers=1)
                sequential_best = min(
                    sequential_best, time.perf_counter() - start
                )
            speedup = sequential_best / stream_best

        # Bounded-memory windowed classify: 50k rows through a 64-row
        # window budget, peak traced allocation as the claim's number.
        big = root / "big.csv"
        with big.open("w") as f:
            f.write(",".join(f"col{c}" for c in range(8)) + "\n")
            for r in range(49_999):
                f.write(",".join(f"value-{r}-{c}" for c in range(8)) + "\n")
        config = WindowConfig.from_budget(64)
        classify_windowed(pipeline, CsvRowStream(big), config)  # warm
        tracemalloc.start()
        try:
            classify_windowed(pipeline, CsvRowStream(big), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return streaming_tables_per_sec, peak / (1024 * 1024), speedup


def quality_entry(
    fuzz_report: Path | None, ablation_report: Path | None
) -> dict:
    """Fold quality-harness report files into trajectory keys.

    Reads the JSON that ``repro fuzz --report`` and ``repro ablate
    --report`` wrote; either side may be absent.  Malformed reports are
    a hard error — a quality entry silently missing its counts would
    neuter the gate.
    """
    entry: dict = {}
    if fuzz_report is not None:
        payload = json.loads(fuzz_report.read_text())
        if payload.get("kind") != "fuzz-report":
            raise SystemExit(f"{fuzz_report} is not a fuzz report")
        counts = payload["counts"]
        entry["fuzz_cases"] = sum(counts.values())
        entry["fuzz_crashes"] = counts["crash"]
        entry["fuzz_divergences"] = counts["divergence"]
        entry["fuzz_flips"] = counts["flip"]
    if ablation_report is not None:
        payload = json.loads(ablation_report.read_text())
        if payload.get("kind") != "ablation-report":
            raise SystemExit(f"{ablation_report} is not an ablation report")
        summary = payload["summary"]
        if summary["baseline_hmd1"] is None:
            raise SystemExit(f"{ablation_report} has no baseline accuracy")
        entry["ablation_hmd1"] = round(summary["baseline_hmd1"], 4)
        entry["ablation_worst_component"] = summary["worst_component"]
        entry["ablation_worst_delta_hmd1"] = summary["worst_delta_hmd1"]
    return entry


def append_trajectory(entry: dict, path: Path) -> None:
    history: list[dict] = []
    if path.exists():
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"{path} is not a JSON list")
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended entry #{len(history)} to {path}", file=sys.stderr)


def check_regression(entry: dict, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; run --write-baseline first",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text())
    failures = 0
    for key in (
        "classify_tables_per_sec",
        "fused_tables_per_sec",
        "streaming_tables_per_sec",
    ):
        if key not in baseline or key not in entry:
            continue  # older baseline, or a quality-only entry
        floor = baseline[key] * REGRESSION_FLOOR
        measured = entry[key]
        if measured < floor:
            print(
                f"PERF REGRESSION: {key} {measured:.1f} is below "
                f"{REGRESSION_FLOOR:.0%} of the baseline "
                f"{baseline[key]:.1f} "
                f"(commit {baseline.get('commit', '?')[:12]})",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"throughput OK: {key} {measured:.1f} >= {floor:.1f} "
                f"({REGRESSION_FLOOR:.0%} of baseline {baseline[key]:.1f})",
                file=sys.stderr,
            )
    # The fused speedup is a same-run ratio: both sides see the same
    # machine, so the gate holds even when CI hardware drifts.
    if "fused_speedup" in entry:
        speedup = entry["fused_speedup"]
        if speedup < FUSED_SPEEDUP_FLOOR:
            print(
                f"PERF REGRESSION: fused speedup {speedup:.2f}x fell below "
                f"the {FUSED_SPEEDUP_FLOOR:.1f}x floor",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"fused speedup OK: {speedup:.2f}x >= "
                f"{FUSED_SPEEDUP_FLOOR:.1f}x",
                file=sys.stderr,
            )
    # Streaming gates: the pipelining speedup is a same-run ratio (only
    # present on multi-core machines), the windowed peak is an absolute
    # ceiling — bounded memory does not get to drift with the baseline.
    if "streaming_speedup" in entry:
        speedup = entry["streaming_speedup"]
        if speedup < STREAMING_SPEEDUP_FLOOR:
            print(
                f"PERF REGRESSION: streaming speedup {speedup:.2f}x fell "
                f"below the {STREAMING_SPEEDUP_FLOOR:.1f}x floor",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"streaming speedup OK: {speedup:.2f}x >= "
                f"{STREAMING_SPEEDUP_FLOOR:.1f}x",
                file=sys.stderr,
            )
    if "streaming_peak_rss_mb" in entry:
        peak = entry["streaming_peak_rss_mb"]
        if peak > STREAMING_PEAK_RSS_CEILING_MB:
            print(
                f"PERF REGRESSION: windowed streaming peaked at "
                f"{peak:.2f} MB, above the "
                f"{STREAMING_PEAK_RSS_CEILING_MB:.0f} MB ceiling",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"streaming memory OK: {peak:.2f} MB <= "
                f"{STREAMING_PEAK_RSS_CEILING_MB:.0f} MB",
                file=sys.stderr,
            )
    failures += _check_quality(entry, baseline)
    return 1 if failures else 0


def _check_quality(entry: dict, baseline: dict) -> int:
    """Quality gates: zero fuzz failures, ablation accuracy holds."""
    failures = 0
    for key in ("fuzz_crashes", "fuzz_divergences", "fuzz_flips"):
        if key not in entry:
            continue
        if entry[key] > 0:
            print(
                f"QUALITY REGRESSION: {entry[key]} {key.removeprefix('fuzz_')} "
                f"in the fuzz campaign (see the fuzz report artifact)",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"fuzz OK: {key} == 0", file=sys.stderr)
    if "ablation_hmd1" in entry and "ablation_hmd1" in baseline:
        floor = baseline["ablation_hmd1"] * REGRESSION_FLOOR
        measured = entry["ablation_hmd1"]
        if measured < floor:
            print(
                f"QUALITY REGRESSION: ablation_hmd1 {measured:.3f} is below "
                f"{REGRESSION_FLOOR:.0%} of the baseline "
                f"{baseline['ablation_hmd1']:.3f}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"ablation accuracy OK: {measured:.3f} >= {floor:.3f}",
                file=sys.stderr,
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_trajectory.json"),
        help="trajectory JSON list to append to (CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline JSON for --check/--write-baseline",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if classify/fused/streaming throughput fell "
        ">20%% vs baseline, the fused same-run speedup fell below "
        f"{FUSED_SPEEDUP_FLOOR:.0f}x, the streaming speedup fell below "
        f"{STREAMING_SPEEDUP_FLOOR:.1f}x, or the windowed peak rose "
        f"above {STREAMING_PEAK_RSS_CEILING_MB:.0f} MB",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="refresh the committed baseline from this measurement",
    )
    parser.add_argument(
        "--fuzz-report", metavar="PATH",
        help="fold a `repro fuzz --report` JSON into the entry",
    )
    parser.add_argument(
        "--ablation-report", metavar="PATH",
        help="fold a `repro ablate --report` JSON into the entry",
    )
    parser.add_argument(
        "--quality-only",
        action="store_true",
        help="skip the perf measurement; the entry carries only the "
        "quality keys (requires at least one report flag)",
    )
    args = parser.parse_args(argv)

    if args.quality_only and not (args.fuzz_report or args.ablation_report):
        parser.error("--quality-only needs --fuzz-report or --ablation-report")

    if args.quality_only:
        entry = {
            "commit": _git_commit(),
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
    else:
        entry = measure()
    entry.update(
        quality_entry(
            Path(args.fuzz_report) if args.fuzz_report else None,
            Path(args.ablation_report) if args.ablation_report else None,
        )
    )
    print(json.dumps(entry, indent=2))
    append_trajectory(entry, Path(args.out))
    if args.write_baseline:
        Path(args.baseline).write_text(json.dumps(entry, indent=2) + "\n")
        print(f"wrote baseline {args.baseline}", file=sys.stderr)
        return 0
    if args.check:
        return check_regression(entry, Path(args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
