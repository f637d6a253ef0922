"""Bench: one-table fused classification vs the level-by-level reference.

The reference (:func:`repro.core.classifier.reference_classify`)
tokenizes every cell twice, embeds every token occurrence with a
per-token Python call, and measures every angle with a scalar call; a
``classify`` call packs its table into a one-table fused shard, reads
each cell's token ids from the process-wide memo, gathers token vectors
from the id-indexed row cache, and scatters the aggregates with segment
sums.  Same centroids, same projection, byte-identical annotations —
the only difference is how the level vectors and angles are produced.
The embedder caches no tokens, so the reference runs on a backend
wrapper that memoizes token vectors (:class:`_MemoModel`): both sides
then look up warm token vectors, and the ratio measures level
aggregation and the angle walk rather than the OOV back-off.

Two claims are asserted:

* classify throughput on 100+ mixed tables is >= 3x the reference's,
  as the median of interleaved same-run pairs (so a noisy neighbour
  slows both sides of a pair instead of deciding the gate);
* one classifier shared by 8 serving threads, on a fresh embedder,
  returns exactly the single-thread annotations — no corruption of the
  shared row cache while every thread races to fill it.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.core.classifier import MetadataClassifier, reference_classify
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.corpus.registry import build_corpus, build_split
from repro.corpus.vocabularies import get_domain
from repro.embeddings.lookup import TermEmbedder

TARGET_SPEEDUP = 3.0
#: Interleaved reference/fused timing pairs behind the speedup median.
N_PAIRS = 15
N_THREADS = 8


@pytest.fixture(scope="module")
def bench_pipeline():
    """A cheap hashed-backend pipeline; fitting is not what we measure."""
    fields = get_domain("biomedical").field_map()
    config = PipelineConfig(
        embedding="hashed",
        hashed_fields=fields,
        n_pairs=200,
        use_contrastive=False,
    )
    train, _ = build_split("ckg", n_train=60, n_eval=0, seed=7)
    return MetadataPipeline(config).fit(train)


@pytest.fixture(scope="module")
def mixed_tables():
    """100+ tables across four dataset profiles (sizes and shapes vary)."""
    tables = []
    for name in ("ckg", "saus", "cord19", "wdc"):
        tables.extend(
            item.table for item in build_corpus(name, n_tables=30, seed=13)
        )
    assert len(tables) >= 100
    return tables


class _MemoModel:
    """An embedding backend wrapper that memoizes ``vector``."""

    def __init__(self, model) -> None:
        self._model = model
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self._model.dim

    def vector(self, token: str):
        try:
            return self._memo[token]
        except KeyError:
            vec = self._memo[token] = self._model.vector(token)
            return vec


def _with_embedder(clf: MetadataClassifier, embedder) -> MetadataClassifier:
    return MetadataClassifier(
        embedder,
        clf.row_centroids,
        clf.col_centroids,
        projection=clf.projection,
        config=clf.config,
    )


def _timed(classify, tables) -> float:
    start = time.perf_counter()
    for table in tables:
        classify(table)
    return time.perf_counter() - start


def _best_of(classify, tables, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for table in tables:
            classify(table)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_fused_vs_reference_speedup(bench_pipeline, mixed_tables):
    clf = bench_pipeline.classifier
    memo_clf = _with_embedder(
        clf,
        TermEmbedder(
            _MemoModel(clf.embedder.model), centering=clf.embedder._centering
        ),
    )

    def reference(table):
        return reference_classify(memo_clf, table)

    # Warm-up doubles as the equivalence gate: the speedup claim is
    # meaningless unless the annotations are identical.
    for table in mixed_tables:
        assert clf.classify(table) == reference(table)

    # Each pair times both sides back to back, alternating which goes
    # first so neither always inherits the other's cache state.
    ratios = []
    for pair in range(N_PAIRS):
        if pair % 2:
            t_fused = _timed(clf.classify, mixed_tables)
            t_reference = _timed(reference, mixed_tables)
        else:
            t_reference = _timed(reference, mixed_tables)
            t_fused = _timed(clf.classify, mixed_tables)
        ratios.append(t_reference / t_fused)
    speedup = statistics.median(ratios)

    print(
        f"\n{len(mixed_tables)} tables, {N_PAIRS} interleaved pairs: "
        f"one-table fused {speedup:.2f}x the reference in the median "
        f"(pairs {min(ratios):.2f}x-{max(ratios):.2f}x)"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"one-table fused {speedup:.2f}x, needs >= {TARGET_SPEEDUP}x"
    )


def test_bench_concurrent_serve_no_cache_corruption(
    bench_pipeline, mixed_tables
):
    """8 threads, one shared classifier on a fresh embedder: every
    thread races to fill the same cold row cache."""
    clf = bench_pipeline.classifier
    shared = _with_embedder(clf, TermEmbedder(clf.embedder.model))
    expected = [bench_pipeline.classify(t) for t in mixed_tables]

    results = [[None] * len(mixed_tables) for _ in range(N_THREADS)]
    barrier = threading.Barrier(N_THREADS)

    def worker(slot: int) -> None:
        barrier.wait()
        # Each thread walks the corpus from a different offset so row
        # cache contention is constant, not phase-locked.
        n = len(mixed_tables)
        for step in range(n):
            index = (step + slot * (n // N_THREADS)) % n
            results[slot][index] = shared.classify(mixed_tables[index])

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    for slot in range(N_THREADS):
        for index, annotation in enumerate(results[slot]):
            assert annotation == expected[index], (
                f"thread {slot} diverged on table {index}"
            )
    total = N_THREADS * len(mixed_tables)
    print(
        f"\n{total} classifications across {N_THREADS} threads in "
        f"{elapsed:.2f}s ({total / elapsed:.0f}/s)"
    )


#: Disabled tracing may cost at most this fraction of classify time.
NOOP_OVERHEAD_BUDGET = 0.02


def test_bench_noop_tracing_overhead(bench_pipeline, mixed_tables):
    """The instrumentation baked into the hot path must be ~free when
    tracing is disabled (the process default).

    Measured as a proxy that is robust to machine noise: the per-call
    cost of a disabled ``obs.span`` times the spans a classify emits
    must stay under ``NOOP_OVERHEAD_BUDGET`` of the measured per-table
    classify time.  A direct before/after timing of classify itself
    cannot resolve a <2% delta above run-to-run variance.
    """
    from repro import obs

    assert not obs.get_tracer().enabled

    fast = bench_pipeline.classifier
    for table in mixed_tables:  # warm caches
        fast.classify(table)
    per_table = _best_of(fast.classify, mixed_tables) / len(mixed_tables)

    # Count the spans one classify emits (tracing briefly enabled).
    with obs.tracing() as tracer:
        for table in mixed_tables[:10]:
            fast.classify(table)
    spans_per_classify = len(tracer.spans()) / 10

    # Cost of one disabled span call, kwargs included, amortized.
    n_calls = 200_000
    start = time.perf_counter()
    for _ in range(n_calls):
        with obs.span("bench", table="t", rows=1, cols=1):
            pass
    per_span = (time.perf_counter() - start) / n_calls

    overhead = per_span * spans_per_classify / per_table
    print(
        f"\nnoop span: {per_span * 1e9:.0f}ns x {spans_per_classify:.1f} "
        f"spans/classify vs {per_table * 1e6:.0f}us/table -> "
        f"{overhead:.2%} overhead (budget {NOOP_OVERHEAD_BUDGET:.0%})"
    )
    assert overhead < NOOP_OVERHEAD_BUDGET, (
        f"disabled tracing costs {overhead:.2%} of classify time, "
        f"budget is {NOOP_OVERHEAD_BUDGET:.0%}"
    )
