"""Tests for the level vectors the classify plane builds.

The contract under test: the fused plane's one-table shards
(:meth:`repro.core.classifier.MetadataClassifier._level_blocks`) and
the fit-side batches (:func:`repro.core.embedding_plane.level_vectors`)
must reproduce the scalar :mod:`repro.core.aggregate` sums (up to
float32 rounding and re-association), never raise on degenerate
shapes, and classify exactly like the level-by-level reference.  Both
read token vectors from the one row cache, so a table whose levels
were embedded during ``fit`` classifies without resolving a token.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.core import fused
from repro.core.aggregate import (
    aggregate_cols,
    aggregate_level,
    aggregate_rows,
)
from repro.core.bootstrap import bootstrap_corpus
from repro.core.classifier import (
    ClassifierConfig,
    MetadataClassifier,
    reference_classify,
)
from repro.core.embedding_plane import level_vectors
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table

from tests.core.conftest import BACKENDS

#: float32 aggregation against the float64 scalar sums.
ATOL = 1e-4


@pytest.fixture
def embedder() -> TermEmbedder:
    return TermEmbedder(HashedEmbedding(16))


def _one_table(embedder, table):
    """``(rows, cols)`` of a one-table shard, as ``classify`` builds them."""
    stand_in = SimpleNamespace(
        embedder=embedder, config=ClassifierConfig(), projection=None
    )
    rows, cols, _, _ = MetadataClassifier._level_blocks(stand_in, [table])
    return rows, cols


class TestEmbedTableEquivalence:
    def test_matches_scalar_path(self, embedder, hierarchical_table):
        rows, cols = _one_table(embedder, hierarchical_table)
        np.testing.assert_allclose(
            rows, aggregate_rows(embedder, hierarchical_table), atol=ATOL
        )
        np.testing.assert_allclose(
            cols, aggregate_cols(embedder, hierarchical_table), atol=ATOL
        )

    def test_matches_on_generated_corpus(self, embedder, ckg_eval):
        for annotated in ckg_eval[:10]:
            table = annotated.table
            rows, cols = _one_table(embedder, table)
            np.testing.assert_allclose(
                rows, aggregate_rows(embedder, table), atol=ATOL
            )
            np.testing.assert_allclose(
                cols, aggregate_cols(embedder, table), atol=ATOL
            )

    def test_token_accounting(self, simple_table):
        pack = fused.pack_corpus([simple_table])
        assert pack.n_tokens > 0
        assert 0 < pack.n_tokens <= pack.occ_toks.size

    def test_repeated_cells_share_work(self, embedder):
        table = Table([["x", "x"], ["x", "x"], ["x", "x"]])
        pack = fused.pack_corpus([table])
        assert pack.n_cells == 1
        assert pack.n_tokens == 1
        assert pack.grid_cells.size == 6
        rows, _ = _one_table(embedder, table)
        np.testing.assert_allclose(rows, aggregate_rows(embedder, table), atol=ATOL)


class TestDegenerateShapes:
    def test_zero_column_table(self, embedder):
        rows, cols = _one_table(embedder, Table([[], []]))
        assert rows.shape == (2, 16)
        assert cols.shape == (0, 16)
        assert np.all(rows == 0)

    def test_empty_table(self, embedder):
        rows, cols = _one_table(embedder, Table([]))
        assert rows.shape == (0, 16)
        assert cols.shape == (0, 16)

    def test_all_blank_grid(self, embedder):
        table = Table([["", ""], ["", ""]])
        rows, cols = _one_table(embedder, table)
        assert np.all(rows == 0)
        assert np.all(cols == 0)
        assert fused.pack_corpus([table]).n_tokens == 0


class TestLevelVectors:
    def test_matches_aggregate_level(self, embedder):
        levels = [
            ["State", "City", "Enrollment"],
            ["New York", "Ithaca", "19,639"],
            [],
            ["", ""],
        ]
        batched = level_vectors(embedder, levels)
        scalar = np.stack([aggregate_level(embedder, c) for c in levels])
        assert batched.dtype == np.float64
        np.testing.assert_allclose(batched, scalar, atol=ATOL)

    def test_empty_batch(self, embedder):
        assert level_vectors(embedder, []).shape == (0, 16)

    def test_non_string_cells(self, embedder):
        batched = level_vectors(embedder, [[12, None, "x"]])
        scalar = aggregate_level(embedder, [12, None, "x"])
        np.testing.assert_allclose(batched[0], scalar, atol=ATOL)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_aggregate_level_on_every_backend(
        self, backend_pipelines, ckg_eval, backend
    ):
        """Fit-side batches read the float32 row cache; they stay within
        float32 rounding of the float64 per-level reference, including
        non-string, blank and empty levels."""
        embedder = backend_pipelines[backend].embedder
        table = ckg_eval[0].table
        levels = [
            *table.rows,
            *(table.col(j) for j in range(table.n_cols)),
            [12, None, 3.5, "x"],
            ["", " ", None],
            [],
            ["zzqv-unseen", "Enrollment 2021"],
        ]
        scalar = np.stack([aggregate_level(embedder, c) for c in levels])
        np.testing.assert_allclose(level_vectors(embedder, levels), scalar, atol=ATOL)

    def test_fit_embeds_training_tables_for_classify(self, ckg_train):
        """``fit`` fills the row cache ``classify`` reads: a training
        table whose every row was a bootstrap level embedded during fit
        classifies without one ``lookup`` span."""
        train = list(ckg_train[:16])
        pipeline = MetadataPipeline(
            PipelineConfig(
                embedding="hashed", hashed_dim=32, n_pairs=50,
                use_contrastive=False,
            )
        ).fit(train)
        # Rows inside the centroid caps (5 metadata, 20 data levels per
        # table) are all embedded by the row-axis centroid pass.
        covered = [
            labels.table
            for labels in bootstrap_corpus(train)
            if None not in labels.row_kinds
            and len(labels.metadata_row_indices) <= 5
            and len(labels.data_row_indices) <= 20
        ]
        assert covered
        for table in covered:
            with obs.tracing() as tracer:
                pipeline.classify(table)
            names = {span.name for span in tracer.spans()}
            assert "classify" in names
            assert "lookup" not in names, table.name


class TestClassifierEquivalence:
    def test_identical_annotations_on_corpus(self, hashed_pipeline, ckg_eval):
        """The acceptance bar: byte-identical TableAnnotations between
        the fused plane (labels-only and evidence calls) and the
        level-by-level reference."""
        clf = hashed_pipeline.classifier
        for annotated in ckg_eval:
            table = annotated.table
            reference = reference_classify(clf, table)
            assert clf.classify(table) == reference
            assert clf.classify_result(table).annotation == reference

    def test_classify_result_keeps_evidence(self, hashed_pipeline, ckg_eval):
        result = hashed_pipeline.classifier.classify_result(ckg_eval[0].table)
        assert len(result.row_evidence) == ckg_eval[0].table.n_rows
        assert len(result.col_evidence) == ckg_eval[0].table.n_cols
        assert all(ev.rule for ev in result.row_evidence)
        # Labels-only path agrees with the evidence path.
        assert hashed_pipeline.classifier.classify(
            ckg_eval[0].table
        ) == result.annotation
