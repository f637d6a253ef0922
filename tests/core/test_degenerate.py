"""Degenerate tables must never crash the pipeline (empty, single-row,
single-column, all-numeric, all-OOV).

Each shape goes through ``MetadataPipeline.fit`` (mixed into a normal
training corpus), ``classify``/``classify_result``, the
``HybridClassifier`` router, and ``looks_relational``.  The HTTP
``/classify`` counterpart lives in ``tests/serve/test_httpd.py``.
"""

from __future__ import annotations

import pytest

from repro.core.classifier import MetadataClassifier, reference_classify
from repro.core.pipeline import (
    HybridClassifier,
    MetadataPipeline,
    PipelineConfig,
    looks_relational,
)
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table

DEGENERATE_TABLES = {
    "empty": Table([], name="empty"),
    "zero-cols": Table([[], []], name="zero-cols"),
    "single-row": Table([["Region", "Cases", "Deaths"]], name="single-row"),
    "single-col": Table([["Region"], ["North"], ["South"]], name="single-col"),
    "one-by-one": Table([["x"]], name="one-by-one"),
    "all-numeric": Table(
        [["1", "2"], ["3", "4"], ["5", "6"]], name="all-numeric"
    ),
    "all-blank": Table([["", ""], ["", ""]], name="all-blank"),
}


@pytest.fixture(scope="module")
def degenerate_fitted(ckg_train):
    """A pipeline fitted on a corpus with degenerate tables mixed in."""
    corpus = list(ckg_train[:20]) + list(DEGENERATE_TABLES.values())
    config = PipelineConfig(
        embedding="hashed", n_pairs=50, use_contrastive=False
    )
    return MetadataPipeline(config).fit(corpus)


@pytest.mark.parametrize("name", sorted(DEGENERATE_TABLES))
class TestDegenerateClassify:
    def test_pipeline_classify(self, degenerate_fitted, name):
        table = DEGENERATE_TABLES[name]
        annotation = degenerate_fitted.classify(table)
        assert len(annotation.row_labels) == table.n_rows
        assert len(annotation.col_labels) == table.n_cols

    def test_classify_result_evidence_shapes(self, degenerate_fitted, name):
        table = DEGENERATE_TABLES[name]
        result = degenerate_fitted.classify_result(table)
        assert len(result.row_evidence) == table.n_rows
        assert len(result.col_evidence) == table.n_cols

    def test_scalar_path_agrees(self, degenerate_fitted, name):
        table = DEGENERATE_TABLES[name]
        clf = degenerate_fitted.classifier
        reference = reference_classify(clf, table)
        assert clf.classify(table) == reference
        assert clf.classify_result(table).annotation == reference

    def test_hybrid_router(self, degenerate_fitted, name):
        table = DEGENERATE_TABLES[name]
        hybrid = HybridClassifier(degenerate_fitted)
        annotation = hybrid.classify(table)
        assert len(annotation.row_labels) == table.n_rows
        assert hybrid.fast_path_count + hybrid.full_path_count == 1

    def test_looks_relational_never_raises(self, name):
        # Permissive thresholds reach the row[0] probe, which used to
        # IndexError on zero-column rows.
        table = DEGENERATE_TABLES[name]
        assert isinstance(looks_relational(table), bool)
        assert isinstance(
            looks_relational(
                table, header_numeric_max=1.0, body_numeric_min=0.0
            ),
            bool,
        )


class TestLooksRelationalGuards:
    def test_zero_columns_is_false(self):
        assert not looks_relational(
            Table([[], []]), header_numeric_max=1.0, body_numeric_min=0.0
        )

    def test_single_row_is_false(self):
        assert not looks_relational(Table([["a", "b"]]))

    def test_relational_table_still_detected(self, simple_table):
        assert looks_relational(simple_table)


class TestAllOov:
    def test_all_oov_zero_backoff(self, degenerate_fitted):
        """Every token OOV with the "zero" back-off: all level vectors
        collapse to zero, and the classifier must still label cleanly."""

        class _NoneModel:
            @property
            def dim(self) -> int:
                return degenerate_fitted.embedder.dim

            def vector(self, token: str):
                return None

        clf = degenerate_fitted.classifier
        oov_embedder = TermEmbedder(_NoneModel(), oov="zero")
        oov_clf = MetadataClassifier(
            oov_embedder,
            clf.row_centroids,
            clf.col_centroids,
            projection=clf.projection,
            config=clf.config,
        )
        table = Table([["alpha", "beta"], ["gamma", "delta"]], name="oov")
        annotation = oov_clf.classify(table)
        assert len(annotation.row_labels) == 2
        assert len(annotation.col_labels) == 2
