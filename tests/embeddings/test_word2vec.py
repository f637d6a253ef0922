"""Tests for the from-scratch SGNS Word2Vec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.word2vec import (
    Word2Vec,
    Word2VecConfig,
    draw_from_cdf,
    sampling_cdf,
)


def two_cluster_corpus(n: int = 120) -> list[list[str]]:
    """Two disjoint co-occurrence clusters; SGNS must separate them."""
    rng = np.random.default_rng(0)
    header = ["age", "duration", "severity", "total", "count"]
    data = ["alpha", "beta", "gamma", "delta", "epsilon"]
    corpus = []
    for _ in range(n):
        pool = header if rng.random() < 0.5 else data
        corpus.append(list(rng.choice(pool, size=6)))
    return corpus


@pytest.fixture(scope="module")
def trained() -> Word2Vec:
    # subsample=0: with a 10-token vocabulary every token is "frequent",
    # and the default threshold would drop most of the corpus.
    config = Word2VecConfig(dim=24, epochs=5, seed=5, window=2, subsample=0.0)
    return Word2Vec(config).fit(two_cluster_corpus())


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Word2VecConfig(dim=0)
        with pytest.raises(ValueError):
            Word2VecConfig(window=0)
        with pytest.raises(ValueError):
            Word2VecConfig(negatives=0)
        with pytest.raises(ValueError):
            Word2VecConfig(epochs=0)


class TestTraining:
    def test_is_fitted(self, trained):
        assert trained.is_fitted
        assert not Word2Vec().is_fitted

    def test_vector_shape(self, trained):
        vec = trained.vector("age")
        assert vec is not None
        assert vec.shape == (24,)

    def test_oov_returns_none(self, trained):
        assert trained.vector("nonexistent") is None

    def test_unfitted_returns_none(self):
        assert Word2Vec().vector("age") is None

    def test_empty_corpus_survives(self):
        model = Word2Vec(Word2VecConfig(dim=8, epochs=1)).fit([])
        assert model.vector("x") is None

    def test_single_token_sentences_skipped(self):
        model = Word2Vec(Word2VecConfig(dim=8, epochs=1)).fit([["a"], ["b"]])
        # no pairs -> embeddings stay at init, but the model is usable
        assert model.vector("a") is not None

    def test_determinism(self):
        corpus = two_cluster_corpus(30)
        a = Word2Vec(Word2VecConfig(dim=8, epochs=1, seed=3)).fit(corpus)
        b = Word2Vec(Word2VecConfig(dim=8, epochs=1, seed=3)).fit(corpus)
        np.testing.assert_array_equal(a._w_in, b._w_in)
        np.testing.assert_array_equal(a._w_out, b._w_out)


class TestNegativeDraws:
    """``draw_from_cdf`` against its oracle, ``Generator.choice(p=...)``."""

    @pytest.mark.parametrize("case", range(40))
    def test_matches_choice_and_generator_state(self, case):
        meta = np.random.default_rng(1000 + case)
        n = int(meta.integers(1, 400))
        probs = meta.random(n) ** 3
        probs[meta.random(n) < 0.2] = 0.0  # zero-weight ids, like [PAD]
        if probs.sum() == 0:
            probs[0] = 1.0
        probs /= probs.sum()
        shape = (int(meta.integers(1, 50)), int(meta.integers(1, 9)))
        seed = int(meta.integers(0, 2**32))
        oracle_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        expected = oracle_rng.choice(n, size=shape, p=probs)
        drawn = draw_from_cdf(sampling_cdf(probs), shape, rng)
        assert drawn.dtype == expected.dtype
        np.testing.assert_array_equal(drawn, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_cdf_reused_across_draws(self):
        probs = np.array([0.1, 0.0, 0.6, 0.3])
        cdf = sampling_cdf(probs)
        oracle_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        for shape in [(4, 5), (1, 1), (7, 2)]:
            np.testing.assert_array_equal(
                draw_from_cdf(cdf, shape, rng),
                oracle_rng.choice(4, size=shape, p=probs),
            )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestGeometry:
    @staticmethod
    def _cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    def test_clusters_separate(self, trained):
        """Within-cluster similarity beats cross-cluster similarity."""
        within = self._cos(trained.vector("age"), trained.vector("duration"))
        across = self._cos(trained.vector("age"), trained.vector("alpha"))
        assert within > across

    def test_most_similar_prefers_cluster(self, trained):
        neighbours = [t for t, _ in trained.most_similar("age", topn=3)]
        header = {"duration", "severity", "total", "count"}
        assert len(set(neighbours) & header) >= 2

    def test_most_similar_excludes_self_and_specials(self, trained):
        results = trained.most_similar("age", topn=20)
        names = [t for t, _ in results]
        assert "age" not in names
        assert not any(n.startswith("[") for n in names)

    def test_most_similar_unfitted(self):
        assert Word2Vec().most_similar("x") == []
