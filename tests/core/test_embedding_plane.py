"""Tests for the level vectors the classify plane builds.

The contract under test: the fused plane's one-table shards
(:func:`repro.core.fused.level_blocks`) and the fit-side batches
(:func:`repro.core.embedding_plane.level_vectors`) must reproduce the
scalar :mod:`repro.core.aggregate` vectors (up to float32 rounding and
re-association) for every mode they claim to support, fall back to the
scalar aggregation for the modes they do not, never raise on
degenerate shapes, and classify exactly like the level-by-level
reference.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import fused
from repro.core.aggregate import (
    AggregationConfig,
    aggregate_cols,
    aggregate_level,
    aggregate_rows,
)
from repro.core.classifier import ClassifierConfig, reference_classify
from repro.core.embedding_plane import level_vectors
from repro.core.fused import supports_fast_path
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table
from repro.text import tokenize

#: float32 aggregation against the float64 scalar sums.
ATOL = 1e-4


@pytest.fixture
def embedder() -> TermEmbedder:
    return TermEmbedder(HashedEmbedding(16))


def _one_table(embedder, table, config):
    """``(rows, cols)`` of a one-table shard, as ``classify`` builds them."""
    stand_in = SimpleNamespace(
        embedder=embedder,
        config=ClassifierConfig(aggregation=config),
        projection=None,
    )
    rows, cols, _, _ = fused.level_blocks(stand_in, [table])
    return rows, cols


class TestEmbedTableEquivalence:
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_matches_scalar_path(self, embedder, hierarchical_table, mode):
        config = AggregationConfig(mode=mode)
        rows, cols = _one_table(embedder, hierarchical_table, config)
        np.testing.assert_allclose(
            rows, aggregate_rows(embedder, hierarchical_table, config), atol=ATOL
        )
        np.testing.assert_allclose(
            cols, aggregate_cols(embedder, hierarchical_table, config), atol=ATOL
        )

    def test_matches_on_generated_corpus(self, embedder, ckg_eval):
        config = AggregationConfig()
        for annotated in ckg_eval[:10]:
            table = annotated.table
            rows, cols = _one_table(embedder, table, config)
            np.testing.assert_allclose(
                rows, aggregate_rows(embedder, table, config), atol=ATOL
            )
            np.testing.assert_allclose(
                cols, aggregate_cols(embedder, table, config), atol=ATOL
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
        rows, _ = _one_table(embedder, table, AggregationConfig())
        np.testing.assert_allclose(
            rows, aggregate_rows(embedder, table, AggregationConfig()), atol=ATOL
        )


class TestDegenerateShapes:
    def test_zero_column_table(self, embedder):
        rows, cols = _one_table(embedder, Table([[], []]), AggregationConfig())
        assert rows.shape == (2, 16)
        assert cols.shape == (0, 16)
        assert np.all(rows == 0)

    def test_empty_table(self, embedder):
        rows, cols = _one_table(embedder, Table([]), AggregationConfig())
        assert rows.shape == (0, 16)
        assert cols.shape == (0, 16)

    def test_all_blank_grid(self, embedder):
        table = Table([["", ""], ["", ""]])
        rows, cols = _one_table(embedder, table, AggregationConfig())
        assert np.all(rows == 0)
        assert np.all(cols == 0)
        assert fused.pack_corpus([table]).n_tokens == 0

    def test_partially_blank_mean_mode(self, embedder):
        # A blank row must stay zero in mean mode (no divide-by-zero).
        table = Table([["alpha", "beta"], ["", ""]])
        config = AggregationConfig(mode="mean")
        rows, _ = _one_table(embedder, table, config)
        np.testing.assert_allclose(
            rows, aggregate_rows(embedder, table, config), atol=ATOL
        )
        assert np.all(rows[1] == 0)
        assert np.all(np.isfinite(rows))


class TestFallbacks:
    def test_concat_mode_falls_back(self, embedder, simple_table):
        config = AggregationConfig(mode="concat", concat_terms=4)
        assert not supports_fast_path(embedder, config)
        rows, cols = _one_table(embedder, simple_table, config)
        np.testing.assert_allclose(
            rows, aggregate_rows(embedder, simple_table, config)
        )
        np.testing.assert_allclose(
            cols, aggregate_cols(embedder, simple_table, config)
        )

    def test_contextual_falls_back_only_with_encoder(self, embedder):
        config = AggregationConfig(contextual=True)
        # Hashed backend has no encode_sentence: fast path still applies.
        assert supports_fast_path(embedder, config)

        class _Encoder(HashedEmbedding):
            def encode_sentence(self, tokens):
                return np.zeros((len(tokens), self.dim))

        contextual = TermEmbedder(_Encoder(16))
        assert not supports_fast_path(contextual, config)


class TestLevelVectors:
    def test_matches_aggregate_level(self, embedder):
        levels = [
            ["State", "City", "Enrollment"],
            ["New York", "Ithaca", "19,639"],
            [],
            ["", ""],
        ]
        batched = level_vectors(embedder, levels, AggregationConfig())
        scalar = np.stack(
            [aggregate_level(embedder, c, AggregationConfig()) for c in levels]
        )
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_empty_batch(self, embedder):
        assert level_vectors(embedder, [], AggregationConfig()).shape == (0, 16)

    def test_non_string_cells(self, embedder):
        batched = level_vectors(embedder, [[12, None, "x"]], AggregationConfig())
        scalar = aggregate_level(embedder, [12, None, "x"], AggregationConfig())
        np.testing.assert_allclose(batched[0], scalar, atol=1e-9)


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


class TestTokenMemoKeying:
    """Regression: the per-cell token-id memo (``_cell_token_ids``) is
    keyed by the tokenizer fingerprint (``lowercase``), not the cell
    text alone — two pipelines with different casing configs in one
    process must not serve each other stale tokens."""

    def test_two_lowercase_configs_in_one_process(self, embedder):
        table = Table(
            [["MIXED Case HEADER", "Another COLUMN"],
             ["DataValue", "MORE data"]],
            name="casing",
        )
        lowered = AggregationConfig(lowercase=True)
        preserved = AggregationConfig(lowercase=False)
        # Interleave the two configs so a mis-keyed memo would serve
        # the first config's tokens to the second.
        for config in (lowered, preserved, lowered, preserved):
            for cell in table.rows[0]:
                assert fused.cell_token_texts(cell, config.lowercase) == [
                    t.text for t in tokenize(cell, lowercase=config.lowercase)
                ]
            rows, cols = _one_table(embedder, table, config)
            np.testing.assert_allclose(
                rows, aggregate_rows(embedder, table, config), atol=ATOL
            )
            np.testing.assert_allclose(
                cols, aggregate_cols(embedder, table, config), atol=ATOL
            )
            np.testing.assert_allclose(
                level_vectors(embedder, table.rows, config),
                aggregate_rows(embedder, table, config),
                atol=1e-9,
            )
        # Hashed vectors are case-sensitive, so the configs genuinely
        # disagree — the equality above is not vacuous.
        assert not np.allclose(
            _one_table(embedder, table, lowered)[0],
            _one_table(embedder, table, preserved)[0],
        )
