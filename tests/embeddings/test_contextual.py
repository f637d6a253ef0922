"""Tests for the contextual encoder (BioBERT substitute)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.contextual import ContextualConfig, ContextualEncoder


def small_corpus() -> list[list[str]]:
    rng = np.random.default_rng(1)
    header = ["age", "duration", "severity", "total"]
    data = ["alpha", "beta", "gamma", "delta"]
    corpus = []
    for _ in range(60):
        pool = header if rng.random() < 0.5 else data
        corpus.append(list(rng.choice(pool, size=5)))
    return corpus


@pytest.fixture(scope="module")
def encoder() -> ContextualEncoder:
    config = ContextualConfig(dim=16, attention_dim=8, epochs=2, seed=2)
    return ContextualEncoder(config).fit(small_corpus())


class TestConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            ContextualConfig(dim=0)
        with pytest.raises(ValueError):
            ContextualConfig(mask_prob=0.0)
        with pytest.raises(ValueError):
            ContextualConfig(mask_prob=0.9)


class TestTraining:
    def test_fitted(self, encoder):
        assert encoder.is_fitted
        assert not ContextualEncoder().is_fitted

    def test_static_vector(self, encoder):
        vec = encoder.vector("age")
        assert vec is not None
        assert vec.shape == (16,)
        assert encoder.vector("zzz") is None

    def test_determinism(self):
        corpus = small_corpus()[:20]
        cfg = ContextualConfig(dim=8, attention_dim=4, epochs=1, seed=9)
        a = ContextualEncoder(cfg).fit(corpus)
        b = ContextualEncoder(cfg).fit(corpus)
        np.testing.assert_allclose(a.vector("age"), b.vector("age"))

    def test_empty_corpus(self):
        encoder = ContextualEncoder(ContextualConfig(dim=8, epochs=1)).fit([])
        assert encoder.vector("x") is None


class TestGeometry:
    def test_cluster_separation(self, encoder):
        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        within = cos(encoder.vector("age"), encoder.vector("duration"))
        across = cos(encoder.vector("age"), encoder.vector("alpha"))
        assert within > across
