"""Tests for the rejected level aggregations the ablation compares."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.aggregate import aggregate_level
from repro.core.classifier import MetadataClassifier
from repro.core.embedding_plane import level_vectors
from repro.core.pipeline import PipelineConfig
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.experiments.aggregation import (
    ConcatLevelClassifier,
    ConcatLevelPipeline,
    MeanLevelPipeline,
    first_terms_vectors,
    mean_level_vectors,
)
from repro.tables.model import Table
from repro.text import tokenize_cells

#: float32 level sums against float64 per-token references.
ATOL = 1e-4


@pytest.fixture
def embedder() -> TermEmbedder:
    return TermEmbedder(HashedEmbedding(8))


def _hashed_config() -> PipelineConfig:
    return PipelineConfig(
        embedding="hashed", hashed_dim=16, n_pairs=50, use_contrastive=False
    )


class TestMean:
    def test_mean_scales_sum(self, embedder):
        summed = aggregate_level(embedder, ["alpha beta"])
        [mean] = mean_level_vectors(embedder, [["alpha beta"]])
        np.testing.assert_allclose(mean, summed / 2, atol=ATOL)

    def test_same_direction_as_sum(self, embedder):
        """Mean and sum differ in magnitude only -> identical angles."""
        summed = aggregate_level(embedder, ["a b c"])
        [mean] = mean_level_vectors(embedder, [["a b c"]])
        cos = summed @ mean / (np.linalg.norm(summed) * np.linalg.norm(mean))
        assert cos == pytest.approx(1.0)

    def test_sum_batch_over_term_counts(self, embedder, hierarchical_table):
        """Bitwise the batched sum divided by each level's term count."""
        levels = [*hierarchical_table.rows, [12, None, 3.5, "x"], []]
        summed = level_vectors(embedder, levels)
        mean = mean_level_vectors(embedder, levels)
        counts = np.array([len(tokenize_cells(level)) for level in levels])
        occupied = counts > 0
        assert np.array_equal(
            mean[occupied], summed[occupied] / counts[occupied, None]
        )
        assert np.array_equal(mean[~occupied], summed[~occupied])

    def test_blank_level_stays_zero(self, embedder):
        # A blank level must stay zero (no divide-by-zero).
        mean = mean_level_vectors(embedder, [["alpha", "beta"], ["", ""]])
        assert np.all(mean[1] == 0)
        assert np.all(np.isfinite(mean))

    def test_mean_fit_classifies_on_the_sum_plane(self, ckg_train, ckg_eval):
        pipeline = MeanLevelPipeline(_hashed_config()).fit(list(ckg_train[:16]))
        assert type(pipeline.classifier) is MetadataClassifier
        tables = [item.table for item in ckg_eval[:8]]
        assert pipeline.classify_corpus(tables) == [
            pipeline.classify(table) for table in tables
        ]


@pytest.fixture(scope="module")
def concat_pipeline(ckg_train) -> ConcatLevelPipeline:
    return ConcatLevelPipeline(_hashed_config(), terms=4).fit(list(ckg_train[:16]))


class TestConcat:
    def test_dimension(self, embedder):
        assert first_terms_vectors(embedder, [["a b"]], 3).shape == (1, 24)

    def test_zero_padding(self, embedder):
        [out] = first_terms_vectors(embedder, [["a"]], 3)
        assert np.all(out[8:] == 0)
        np.testing.assert_array_equal(out[:8], embedder.vector("a"))

    def test_truncation(self, embedder):
        [out] = first_terms_vectors(embedder, [["a b c d"]], 2)
        assert out.shape == (16,)
        np.testing.assert_array_equal(out[8:], embedder.vector("b"))

    def test_empty_level(self, embedder):
        [out] = first_terms_vectors(embedder, [[""]], 2)
        assert out.shape == (16,)
        assert np.all(out == 0)

    def test_order_sensitivity(self, embedder):
        """Unlike summation, concatenation depends on term order."""
        a, b = first_terms_vectors(embedder, [["x y"], ["y x"]], 2)
        assert not np.allclose(a, b)

    def test_invalid_terms(self):
        with pytest.raises(ValueError):
            ConcatLevelPipeline(_hashed_config(), terms=0)

    def test_classifier_blocks(self, concat_pipeline, simple_table):
        pipeline = concat_pipeline
        classifier = pipeline.classifier
        assert isinstance(classifier, ConcatLevelClassifier)
        rows, cols, row_offsets, col_offsets = classifier._level_blocks(
            [simple_table, Table([]), simple_table]
        )
        embedder = pipeline.embedder
        one = first_terms_vectors(embedder, list(simple_table.iter_rows()), 4)
        np.testing.assert_array_equal(rows, np.vstack([one, one]))
        assert rows.shape[1] == 4 * embedder.dim
        assert cols.shape == (2 * simple_table.n_cols, 4 * embedder.dim)
        n = simple_table.n_rows
        assert row_offsets.tolist() == [0, n, n, 2 * n]
        assert col_offsets[-1] == 2 * simple_table.n_cols

    def test_blocks_join_the_walk(self, concat_pipeline, ckg_eval):
        """A shard of concat blocks labels each table as its one-table
        shard does."""
        pipeline = concat_pipeline
        tables = [item.table for item in ckg_eval[:8]]
        batched = pipeline.classify_corpus(tables)
        for table, annotation in zip(tables, batched):
            assert annotation == pipeline.classify(table), table.name

    def test_classify_emits_aggregate_span(self, concat_pipeline, ckg_eval):
        with obs.tracing() as tracer:
            concat_pipeline.classify(ckg_eval[0].table)
        spans = tracer.spans()
        name_of = {span.span_id: span.name for span in spans}
        parents = {span.name: name_of.get(span.parent_id) for span in spans}
        assert parents["aggregate"] == "classify"
        assert parents["fused.walk"] == "classify"
        assert "fused.pack" not in parents

    def test_not_storable(self, concat_pipeline, tmp_path):
        from repro.core.persistence import PersistenceError, save_pipeline

        with pytest.raises(PersistenceError, match="ConcatLevelClassifier"):
            save_pipeline(concat_pipeline, tmp_path / "concat")
