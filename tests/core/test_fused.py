"""Fused classification tests (:mod:`repro.core.fused`).

The contract: for every embedding backend and every table — including
the degenerate shapes — ``classify``, ``classify_result`` and
``classify_corpus`` must produce labels *byte-identical* to the
level-by-level reference (:func:`repro.core.classifier.reference_classify`);
a store packed ``q8`` stays within a documented tolerance of the
float32 aggregates.  The pack/aggregate internals get their own unit
tests (offset bookkeeping, segment sums, fragment memoization,
local-vocabulary fallback, one stored copy per token vector).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fused
from repro.core.aggregate import AggregationConfig, aggregate_cols, aggregate_rows
from repro.core.classifier import MetadataClassifier, reference_classify
from repro.core.fused import (
    _indexed_segment_sum,
    fused_level_matrices,
    pack_corpus,
    token_matrix,
)
from repro.core.persistence import load_pipeline, save_pipeline_dir
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.contextual import ContextualConfig
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.embeddings.ppmi import PpmiConfig
from repro.embeddings.word2vec import Word2VecConfig
from repro.tables.model import Table

from tests.core.test_degenerate import DEGENERATE_TABLES

BACKENDS = ("hashed", "word2vec", "ppmi", "contextual")


@pytest.fixture(scope="module")
def backend_pipelines(ckg_train) -> dict[str, MetadataPipeline]:
    """One small fitted pipeline per embedding backend."""
    train = list(ckg_train[:16])
    configs = {
        "hashed": PipelineConfig(
            embedding="hashed", hashed_dim=32, n_pairs=50,
            use_contrastive=False,
        ),
        "word2vec": PipelineConfig(
            embedding="word2vec",
            word2vec=Word2VecConfig(dim=16, epochs=1, seed=0),
            n_pairs=50,
            use_contrastive=False,
        ),
        "ppmi": PipelineConfig(
            embedding="ppmi",
            ppmi=PpmiConfig(dim=16, min_count=1, seed=0),
            n_pairs=50,
            use_contrastive=False,
        ),
        "contextual": PipelineConfig(
            embedding="contextual",
            contextual=ContextualConfig(dim=16, attention_dim=8, epochs=1),
            n_pairs=50,
            use_contrastive=False,
        ),
    }
    return {
        name: MetadataPipeline(config).fit(train)
        for name, config in configs.items()
    }


@pytest.fixture(scope="module")
def corpus(ckg_eval) -> list[Table]:
    """A mixed shard: generated tables plus every degenerate shape."""
    tables = [item.table for item in ckg_eval[:12]]
    tables.extend(DEGENERATE_TABLES.values())
    return tables


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_labels_identical_across_paths(
        self, backend_pipelines, corpus, backend
    ):
        base = backend_pipelines[backend].classifier
        batched = base.classify_corpus(corpus)
        assert len(batched) == len(corpus)
        for table, annotation in zip(corpus, batched):
            reference = reference_classify(base, table)
            assert annotation == reference, table.name
            assert base.classify(table) == reference, table.name
            assert base.classify_result(table).annotation == reference, (
                table.name
            )

    def test_classify_result_annotations_agree(
        self, backend_pipelines, corpus
    ):
        # classify_result is the evidence-bearing per-table entry point;
        # its annotation must be the one the fused batch hands back.
        base = backend_pipelines["hashed"].classifier
        batched = base.classify_corpus(corpus)
        for table, annotation in zip(corpus, batched):
            result = base.classify_result(table)
            assert annotation == result.annotation, table.name

    def test_pipeline_classify_corpus_matches_classify(
        self, backend_pipelines, corpus
    ):
        pipeline = backend_pipelines["hashed"]
        batched = pipeline.classify_corpus(corpus)
        for table, annotation in zip(corpus, batched):
            assert annotation == pipeline.classify(table), table.name

    def test_empty_corpus(self, backend_pipelines):
        base = backend_pipelines["hashed"].classifier
        assert base.classify_corpus([]) == []

    def test_concat_mode_joins_the_walk(self, ckg_train, corpus):
        # concat cannot be packed: its level blocks come from
        # repro.core.aggregate, then the same batched walk runs.
        config = PipelineConfig(
            embedding="hashed", hashed_dim=16, n_pairs=50,
            use_contrastive=False,
            aggregation=AggregationConfig(mode="concat", concat_terms=4),
        )
        base = MetadataPipeline(config).fit(list(ckg_train[:16])).classifier
        batched = base.classify_corpus(corpus)
        for table, annotation in zip(corpus, batched):
            assert annotation == reference_classify(base, table), table.name


@pytest.fixture(scope="module")
def q8_pipelines(backend_pipelines, tmp_path_factory):
    """The word2vec pipeline and its reload from a store packed ``q8``."""
    exact = backend_pipelines["word2vec"]
    store = save_pipeline_dir(
        exact, tmp_path_factory.mktemp("q8") / "model", pack="q8"
    )
    quantized = load_pipeline(store)
    assert quantized.embedder.packed.kind == "q8"
    return exact, quantized


class TestQuantized:
    """int8 token matrices from a ``q8`` packed store: per-row scales
    bound the error to half a quantization step per element
    (``max|row| / 254``), so aggregates stay within ~1% relative error
    of float32 — the documented tolerance (SCALING.md)."""

    def test_matrices_within_tolerance(self, q8_pipelines, corpus):
        exact, quantized = q8_pipelines
        pack = pack_corpus(corpus)
        rows, cols = fused_level_matrices(exact.embedder, pack)
        q_rows, q_cols = fused_level_matrices(quantized.embedder, pack)
        for exact_block, quantized_block in ((rows, q_rows), (cols, q_cols)):
            scale = np.abs(exact_block).max() or 1.0
            np.testing.assert_allclose(
                quantized_block, exact_block, atol=0.01 * scale, rtol=0.05
            )

    def test_quantized_labels_mostly_agree(self, q8_pipelines, corpus):
        exact, quantized = q8_pipelines
        agree = sum(
            a == b
            for a, b in zip(
                exact.classify_corpus(corpus), quantized.classify_corpus(corpus)
            )
        )
        assert agree >= int(0.9 * len(corpus))


class TestTokenStorage:
    def test_concurrent_misses_fill_the_row_cache_once(
        self, backend_pipelines, corpus
    ):
        """Eight threads race one cold row cache (misses resolve outside
        its lock): every thread gets the serial labels."""
        import sys
        import threading

        base = backend_pipelines["hashed"].classifier
        expected = [base.classify(t) for t in corpus]
        shared = MetadataClassifier(
            TermEmbedder(base.embedder.model),
            base.row_centroids,
            base.col_centroids,
            projection=base.projection,
            config=base.config,
        )
        results: list[list] = [[] for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            for k in range(len(corpus)):
                table = corpus[(k + slot) % len(corpus)]
                results[slot].append((table, shared.classify(table)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        by_table = dict(zip(map(id, corpus), expected))
        for slot in results:
            assert len(slot) == len(corpus)
            for table, annotation in slot:
                assert annotation == by_table[id(table)], table.name

    def test_classify_stores_each_token_vector_once(
        self, backend_pipelines, corpus
    ):
        """The row cache holds the shard's token vectors; the embedder's
        own LRU stays empty instead of holding a second copy."""
        base = backend_pipelines["hashed"].classifier
        embedder = TermEmbedder(base.embedder.model)
        classifier = MetadataClassifier(
            embedder,
            base.row_centroids,
            base.col_centroids,
            projection=base.projection,
            config=base.config,
        )
        assert classifier.classify_corpus(corpus) == base.classify_corpus(corpus)
        pack = pack_corpus(corpus)
        rows = fused._row_cache(embedder)
        assert int(rows._known.sum()) == pack.n_tokens > 0
        assert embedder.cache_info().size == 0


class TestPack:
    def test_offset_bookkeeping(self, corpus):
        pack = pack_corpus(corpus)
        assert pack.n_tables == len(corpus)
        assert pack.total_rows == sum(t.n_rows for t in corpus)
        assert pack.total_cols == sum(t.n_cols for t in corpus)
        assert pack.grid_cells.size == sum(
            t.n_rows * t.n_cols for t in corpus
        )
        # Occurrences are segment-sorted by cell id.
        assert np.all(np.diff(pack.occ_cells) >= 0)
        # The column permutation is a permutation of the flat grid.
        assert np.array_equal(
            np.sort(pack.col_perm), np.arange(pack.grid_cells.size)
        )

    def test_level_widths_sum_to_grid(self, corpus):
        pack = pack_corpus(corpus)
        row_widths, col_widths = pack.level_widths()
        assert row_widths.size == pack.total_rows
        assert col_widths.size == pack.total_cols
        assert int(row_widths.sum()) == pack.grid_cells.size
        assert int(col_widths.sum()) == pack.grid_cells.size

    def test_fragments_are_memoized(self):
        table = Table([["Alpha", "Beta"], ["1", "2"]], name="memo")
        first = fused._table_fragment(table, True)
        second = fused._table_fragment(table, True)
        assert first is second
        # A different tokenizer fingerprint gets its own fragment.
        other = fused._table_fragment(table, False)
        assert other is not first

    def test_token_texts_match_compact_ids(self, corpus):
        pack = pack_corpus(corpus)
        texts = pack.token_texts()
        compact = pack.compact_occ_toks()
        assert len(texts) == pack.n_tokens
        if compact.size:
            assert int(compact.max()) < pack.n_tokens
        # Re-resolving an occurrence's text through the global vocab
        # agrees with the compact enumeration.
        for j in range(min(50, compact.size)):
            assert texts[int(compact[j])] == fused._VOCAB.texts[
                int(pack.occ_toks[j])
            ]

    def test_local_fallback_on_vocab_overflow(self, monkeypatch):
        # Fresh tables: the fragment memo must not mask the overflow.
        tables = [
            Table([["Overflow alpha", "beta"], ["1", "2"]], name="of-a"),
            Table([["Overflow gamma"], ["3"]], name="of-b"),
        ]
        monkeypatch.setattr(
            fused, "_cell_token_ids", lambda cell, lowercase: None
        )
        pack = pack_corpus(tables)
        assert pack.token_space == "local"
        monkeypatch.undo()
        global_pack = pack_corpus(tables)
        assert global_pack.token_space == "global"
        embedder = TermEmbedder(HashedEmbedding(16))
        local_rows, local_cols = fused_level_matrices(embedder, pack)
        rows, cols = fused_level_matrices(embedder, global_pack)
        np.testing.assert_allclose(local_rows, rows, atol=1e-5)
        np.testing.assert_allclose(local_cols, cols, atol=1e-5)

    def test_empty_pack(self):
        pack = pack_corpus([])
        assert pack.n_tables == 0
        assert pack.total_rows == 0
        assert pack.n_tokens == 0


class TestFusedAggregates:
    """Fused row/column matrices reproduce Def. 8 per-table aggregates."""

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_matches_scalar_aggregation(self, corpus, mode):
        embedder = TermEmbedder(HashedEmbedding(16))
        config = AggregationConfig(mode=mode)
        pack = pack_corpus(corpus, config)
        rows, cols = fused_level_matrices(embedder, pack, config)
        for i, table in enumerate(corpus):
            r0, r1 = pack.row_offsets[i], pack.row_offsets[i + 1]
            c0, c1 = pack.col_offsets[i], pack.col_offsets[i + 1]
            np.testing.assert_allclose(
                rows[r0:r1],
                aggregate_rows(embedder, table, config),
                atol=1e-4,
            )
            np.testing.assert_allclose(
                cols[c0:c1],
                aggregate_cols(embedder, table, config),
                atol=1e-4,
            )

    def test_token_matrix_matches_embedder(self):
        embedder = TermEmbedder(HashedEmbedding(16))
        tokens = ("alpha", "beta", "42")
        matrix = token_matrix(embedder, tokens)
        np.testing.assert_allclose(
            matrix, embedder.vectors(list(tokens)).astype(np.float32),
            atol=1e-6,
        )


class TestIndexedSegmentSum:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 5)).astype(np.float32)
        indices = rng.integers(0, 20, size=37)
        lengths = np.asarray([0, 10, 0, 5, 22, 0], dtype=np.intp)
        out = _indexed_segment_sum(values, indices, lengths, lengths.size)
        start = 0
        for s, length in enumerate(lengths):
            expected = values[indices[start:start + length]].sum(axis=0)
            np.testing.assert_allclose(out[s], expected, atol=1e-5)
            start += length
        assert np.all(out[lengths == 0] == 0)

    def test_empty_indices(self):
        values = np.ones((4, 3), dtype=np.float32)
        out = _indexed_segment_sum(
            values, np.empty(0, dtype=np.intp),
            np.zeros(2, dtype=np.intp), 2,
        )
        assert out.shape == (2, 3)
        assert np.all(out == 0)
