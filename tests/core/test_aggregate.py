"""Tests for aggregated level vectors (Def. 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import (
    aggregate_cols,
    aggregate_level,
    aggregate_rows,
)
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table


@pytest.fixture
def embedder() -> TermEmbedder:
    return TermEmbedder(HashedEmbedding(8))


class TestSum:
    def test_sum_of_term_vectors(self, embedder):
        out = aggregate_level(embedder, ["alpha beta"])
        expected = embedder.vector("alpha") + embedder.vector("beta")
        np.testing.assert_allclose(out, expected)

    def test_empty_level_is_zero(self, embedder):
        out = aggregate_level(embedder, ["", ""])
        assert np.all(out == 0)
        assert out.shape == (8,)

    def test_order_invariance(self, embedder):
        a = aggregate_level(embedder, ["x", "y"])
        b = aggregate_level(embedder, ["y", "x"])
        np.testing.assert_allclose(a, b)


class TestTableAggregation:
    def test_rows_shape(self, embedder, simple_table):
        out = aggregate_rows(embedder, simple_table)
        assert out.shape == (simple_table.n_rows, 8)

    def test_cols_shape(self, embedder, simple_table):
        out = aggregate_cols(embedder, simple_table)
        assert out.shape == (simple_table.n_cols, 8)

    def test_cols_match_transposed_rows(self, embedder, simple_table):
        cols = aggregate_cols(embedder, simple_table)
        rows_of_t = aggregate_rows(embedder, simple_table.transpose())
        np.testing.assert_allclose(cols, rows_of_t)

    def test_empty_table(self, embedder):
        assert aggregate_rows(embedder, Table([])).shape == (0, 8)
        assert aggregate_cols(embedder, Table([])).shape == (0, 8)


class TestContextual:
    def test_contextual_falls_back_on_oov(self):
        """Words the contextual encoder never saw aggregate through the
        embedder's n-gram back-off instead of vanishing."""
        from repro.embeddings.contextual import ContextualConfig, ContextualEncoder

        encoder = ContextualEncoder(
            ContextualConfig(dim=8, attention_dim=4, epochs=1, seed=0)
        ).fit([["x", "y"]] * 3)
        embedder = TermEmbedder(encoder)
        out = aggregate_level(embedder, ["unseen words"])
        assert out.shape == (8,)
        assert not np.all(out == 0)  # ngram back-off supplied vectors
