"""Bench: the multiprocess subsystem's scaling and zero-copy claims.

Three claims from the parallel subsystem are pinned here:

* ``repro batch --procs 4`` is at least 2x faster than ``--procs 1`` on
  a 120-table corpus, timed on the path ``repro batch --procs`` ships
  (:func:`~repro.connectors.pipelined.run_streaming_pool` over
  ``build_sources(paths)``: parse threads in the parent, classify in
  the workers); skipped on machines with fewer than 4 usable CPUs —
  process sharding cannot beat itself on one core;
* the output of the procs path is identical to the thread path record
  for record, modulo the volatile ``seconds``/``cached`` fields;
* a directory-store cold load is at least 5x faster than the ``.npz``
  archive on a model with real matrix weight, because ``np.load(...,
  mmap_mode="r")`` maps pages instead of decompressing them — and the
  arrays workers hold really are ``np.memmap`` views.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.persistence import (
    load_pipeline,
    save_pipeline,
    save_pipeline_dir,
)
from repro.corpus.registry import build_corpus, build_split
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.corpus.vocabularies import get_domain
from repro.connectors.pipelined import run_streaming_pool
from repro.connectors.sources import build_sources
from repro.parallel import ShardedPool
from repro.serve.bulk import run_bulk
from repro.tables.csvio import table_to_csv

N_TABLES = 120
USABLE_CPUS = len(os.sched_getaffinity(0))


def _fitted_pipeline():
    config = PipelineConfig(
        embedding="hashed",
        hashed_fields=get_domain("biomedical").field_map(),
        n_pairs=200,
        use_contrastive=False,
    )
    train, _ = build_split("ckg", n_train=60, n_eval=0, seed=7)
    return MetadataPipeline(config).fit(train)


def _write_tables(tmp_path):
    corpus = build_corpus("ckg", n_tables=N_TABLES, seed=11)
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    paths = []
    for i, item in enumerate(corpus):
        path = table_dir / f"t{i:04d}.csv"
        path.write_text(table_to_csv(item.table))
        paths.append(str(path))
    return paths


def _timed_pass(pool, paths):
    start = time.perf_counter()
    records = run_streaming_pool(pool, build_sources(paths))
    elapsed = time.perf_counter() - start
    assert len(records) == len(paths)
    assert all("error" not in r for r in records)
    return elapsed


@pytest.mark.skipif(
    USABLE_CPUS < 4, reason=f"needs >=4 usable CPUs, have {USABLE_CPUS}"
)
def test_bench_procs_scaling(tmp_path):
    """batch --procs 4 must deliver >=2x bulk throughput over --procs 1."""
    model = save_pipeline_dir(_fitted_pipeline(), tmp_path / "model")
    paths = _write_tables(tmp_path)

    timings = {}
    for procs in (1, 4):
        # cache_capacity=0: measure classification, not worker LRU hits.
        with ShardedPool(
            {"m": model}, procs=procs, default="m", cache_capacity=0
        ) as pool:
            _timed_pass(pool, paths)  # warm imports and model pages
            timings[procs] = min(_timed_pass(pool, paths) for _ in range(3))

    speedup = timings[1] / timings[4]
    assert speedup >= 2.0, (
        f"4 procs {timings[4]:.3f}s vs 1 proc {timings[1]:.3f}s — "
        f"only {speedup:.2f}x"
    )
    print(
        f"\n{N_TABLES} tables: 1 proc {N_TABLES / timings[1]:.0f}/s, "
        f"4 procs {N_TABLES / timings[4]:.0f}/s — {speedup:.2f}x"
    )


def test_bench_procs_output_matches_thread_path(tmp_path):
    """The procs path emits the same records as the thread path."""
    pipeline = _fitted_pipeline()
    model = save_pipeline_dir(pipeline, tmp_path / "model")
    paths = _write_tables(tmp_path)

    out_procs = tmp_path / "procs.jsonl"
    out_threads = tmp_path / "threads.jsonl"
    run_bulk(model, paths, procs=2, cache_capacity=0, out=out_procs)
    run_bulk(model, paths, workers=4, cache_capacity=0, out=out_threads)

    def normalize(path):
        records = [json.loads(l) for l in path.read_text().splitlines()]
        for record in records:
            record.pop("seconds", None)  # timing is volatile by nature
            record.pop("cached", None)
        return records

    assert normalize(out_procs) == normalize(out_threads)


def test_bench_dir_store_cold_load(tmp_path):
    """Directory-store cold load >=5x faster than .npz on a heavy model.

    The hashed bench pipeline has almost no array weight, so the claim
    is measured on a model whose embedding matrices carry ~40MB — the
    regime the directory store exists for.  The arrays are random
    (incompressible), which is also the realistic case for trained
    float weights.
    """
    pipeline = _fitted_pipeline()
    rng = np.random.default_rng(0)
    heavy = rng.standard_normal((40_000, 64))
    pipeline.row_centroids = pipeline.row_centroids.__class__(
        mde=pipeline.row_centroids.mde,
        de=pipeline.row_centroids.de,
        mde_de=pipeline.row_centroids.mde_de,
        meta_ref=heavy,
        data_ref=rng.standard_normal((40_000, 64)),
        level_stats=pipeline.row_centroids.level_stats,
        n_tables=pipeline.row_centroids.n_tables,
    )

    npz = save_pipeline(pipeline, tmp_path / "model.npz")
    store = save_pipeline_dir(pipeline, tmp_path / "model")

    def best_of(loader, reps=3):
        return min(
            _timed_call(loader) for _ in range(reps)
        )

    def _timed_call(loader):
        start = time.perf_counter()
        loaded = loader()
        elapsed = time.perf_counter() - start
        assert loaded.is_fitted
        return elapsed

    t_npz = best_of(lambda: load_pipeline(npz))
    t_dir = best_of(lambda: load_pipeline(store))

    loaded = load_pipeline(store)
    assert isinstance(loaded.row_centroids.meta_ref, np.memmap)

    ratio = t_npz / t_dir
    assert ratio >= 5.0, (
        f"dir load {t_dir * 1000:.1f}ms vs npz {t_npz * 1000:.1f}ms — "
        f"only {ratio:.1f}x"
    )
    print(
        f"\ncold load: npz {t_npz * 1000:.1f}ms, "
        f"dir {t_dir * 1000:.1f}ms — {ratio:.1f}x"
    )


def test_bench_workers_hold_memmap_views(tmp_path):
    """Every pool worker opens the store with mmap_mode='r'."""
    model = save_pipeline_dir(_fitted_pipeline(), tmp_path / "model")
    with ShardedPool({"m": model}, procs=2, default="m") as pool:
        for report in pool.probe_workers():
            assert report["m"]["meta_ref_memmap"] is True
            assert report["m"]["data_ref_memmap"] is True
