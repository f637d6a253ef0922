"""Fused classification tests (:mod:`repro.core.fused`).

The contract: for every embedding backend and every table — including
the degenerate shapes — ``classify``, ``classify_result`` and
``classify_corpus`` must produce labels *byte-identical* to the
level-by-level reference (:func:`repro.core.classifier.reference_classify`).
The pack/aggregate internals get their own unit
tests (offset bookkeeping, segment sums, fragment memoization,
local-vocabulary fallback, one stored copy per token vector).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fused
from repro.core.aggregate import aggregate_cols, aggregate_rows
from repro.core.classifier import MetadataClassifier, reference_classify
from repro.core.fused import (
    _indexed_segment_sum,
    fused_level_matrices,
    pack_corpus,
    token_matrix,
)
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table

from tests.core.conftest import BACKENDS
from tests.core.test_degenerate import DEGENERATE_TABLES

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
        """The row cache holds the shard's token vectors, each resolved
        once: a second pass over the same shard resolves nothing."""
        base = backend_pipelines["hashed"].classifier
        embedder = TermEmbedder(base.embedder.model)
        resolved: list[str] = []
        resolve = embedder.resolve

        def counting_resolve(tokens):
            resolved.extend(tokens)
            return resolve(tokens)

        embedder.resolve = counting_resolve
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
        assert sorted(resolved) == sorted(pack.token_texts())
        classifier.classify_corpus(corpus)
        assert len(resolved) == pack.n_tokens


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
        first = fused._table_fragment(table)
        second = fused._table_fragment(table)
        assert first is second

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
            fused, "_cell_token_ids", lambda cell: None
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

    def test_matches_scalar_aggregation(self, corpus):
        embedder = TermEmbedder(HashedEmbedding(16))
        pack = pack_corpus(corpus)
        rows, cols = fused_level_matrices(embedder, pack)
        for i, table in enumerate(corpus):
            r0, r1 = pack.row_offsets[i], pack.row_offsets[i + 1]
            c0, c1 = pack.col_offsets[i], pack.col_offsets[i + 1]
            np.testing.assert_allclose(
                rows[r0:r1],
                aggregate_rows(embedder, table),
                atol=1e-4,
            )
            np.testing.assert_allclose(
                cols[c0:c1],
                aggregate_cols(embedder, table),
                atol=1e-4,
            )

    def test_token_matrix_matches_embedder(self):
        embedder = TermEmbedder(HashedEmbedding(16))
        tokens = ("alpha", "beta", "42")
        matrix = token_matrix(embedder, tokens)
        np.testing.assert_allclose(
            matrix, np.stack([embedder.vector(t) for t in tokens]),
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

    def test_stacked_sum_equals_separate_sums(self):
        """``fused_level_matrices`` sums rows and columns in one call over
        the stacked index blocks; that must be bit-identical to summing
        each block on its own (every CSR output row is independent)."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_values = int(rng.integers(1, 30))
            values = rng.normal(size=(n_values, 4)).astype(np.float32)
            blocks = []
            for _ in range(2):
                lengths = rng.integers(0, 6, size=int(rng.integers(1, 12)))
                lengths[rng.random(lengths.size) < 0.3] = 0
                indices = rng.integers(0, n_values, size=int(lengths.sum()))
                blocks.append((indices, lengths.astype(np.intp)))
            (idx_a, len_a), (idx_b, len_b) = blocks
            stacked = _indexed_segment_sum(
                values,
                np.concatenate((idx_a, idx_b)),
                np.concatenate((len_a, len_b)),
                len_a.size + len_b.size,
            )
            separate = np.concatenate(
                (
                    _indexed_segment_sum(values, idx_a, len_a, len_a.size),
                    _indexed_segment_sum(values, idx_b, len_b, len_b.size),
                )
            )
            assert np.array_equal(stacked, separate)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_csr_matmul(self, dtype):
        """The reference formulation: a CSR matrix with unit weights
        whose indptr is the length prefix and whose column indices are
        the gather indices, times ``values``.  The rank loop must
        reproduce its float sequence exactly — fit's centroids and every
        classify shard went through the CSR product before."""
        from scipy import sparse

        def csr_segment_sum(values, indices, lengths, n_segments):
            indptr = np.zeros(n_segments + 1, dtype=np.intp)
            np.cumsum(lengths, out=indptr[1:])
            summer = sparse.csr_matrix(
                (np.ones(indices.size, dtype=values.dtype), indices, indptr),
                shape=(n_segments, values.shape[0]),
            )
            return np.asarray(summer @ values)

        rng = np.random.default_rng(21)
        for trial in range(300):
            n_values = int(rng.integers(1, 120))
            dim = int(rng.integers(1, 70))
            # Mixed magnitudes make any reordering of the additions show
            # up in the low bits.
            scale = rng.choice([1e-3, 1.0, 1e4], size=(n_values, 1))
            values = (rng.normal(size=(n_values, dim)) * scale).astype(dtype)
            n_segments = int(rng.integers(1, 40))
            lengths = rng.integers(0, (3, 12, 40)[trial % 3], size=n_segments)
            lengths[rng.random(n_segments) < 0.25] = 0  # empty segments
            lengths[rng.random(n_segments) < 0.15] = 1  # one-row segments
            if trial % 4 == 0:  # a segment longer than 64
                lengths[int(rng.integers(n_segments))] = int(rng.integers(65, 160))
            lengths = lengths.astype(np.intp)
            # Few distinct values: indices repeat within and across segments.
            indices = rng.integers(
                0, min(n_values, int(rng.integers(1, 8))), size=int(lengths.sum())
            ).astype(np.intp)
            if trial % 2:
                indices = rng.integers(0, n_values, size=indices.size).astype(np.intp)
            out = _indexed_segment_sum(values, indices, lengths, n_segments)
            expected = csr_segment_sum(values, indices, lengths, n_segments)
            assert out.dtype == expected.dtype == dtype
            assert np.array_equal(out, expected)
            assert out.tobytes() == expected.tobytes()

    def test_empty_indices(self):
        values = np.ones((4, 3), dtype=np.float32)
        out = _indexed_segment_sum(
            values, np.empty(0, dtype=np.intp),
            np.zeros(2, dtype=np.intp), 2,
        )
        assert out.shape == (2, 3)
        assert np.all(out == 0)
