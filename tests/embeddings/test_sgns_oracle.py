"""``Word2Vec.fit`` against the reference SGNS loop, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.word2vec import Word2Vec, Word2VecConfig, add_rows_at
from tests.embeddings.sgns_reference import ReferenceWord2Vec


@pytest.fixture
def generators(monkeypatch):
    """Every generator ``np.random.default_rng`` makes, in order."""
    made: list[np.random.Generator] = []
    real = np.random.default_rng

    def recording(*args, **kwargs):
        rng = real(*args, **kwargs)
        made.append(rng)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def random_corpus(seed: int, n: int = 40, vocab: int = 60) -> list[list[str]]:
    """Zipf-ish token frequencies, so subsampling keeps some tokens and drops others."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, vocab + 1)
    weights /= weights.sum()
    return [
        [f"t{i}" for i in rng.choice(vocab, size=int(rng.integers(1, 30)), p=weights)]
        for _ in range(n)
    ]


REPEATED = [
    ["a"] * 30,
    ["a", "b"] * 12,
    ["x"],
    ["x", "y"],
    ["b", "b"],
    ["c", "a", "c", "a", "c", "a", "c"],
    ["y"] * 3 + ["z"] + ["y"] * 3,
]


def assert_same_fit(config: Word2VecConfig, corpus, generators) -> None:
    shipped = Word2Vec(config).fit(corpus)
    shipped_rng = generators[-1]
    reference = ReferenceWord2Vec(config).fit(corpus)
    reference_rng = generators[-1]
    assert shipped_rng is not reference_rng
    np.testing.assert_array_equal(shipped._w_in, reference._w_in)
    np.testing.assert_array_equal(shipped._w_out, reference._w_out)
    assert shipped_rng.bit_generator.state == reference_rng.bit_generator.state


class TestAgainstReference:
    @pytest.mark.parametrize("window", range(1, 6))
    @pytest.mark.parametrize("negatives", range(1, 8))
    def test_windows_and_negatives(self, window, negatives, generators):
        config = Word2VecConfig(
            dim=8, window=window, negatives=negatives, epochs=2, subsample=0.0, seed=window
        )
        assert_same_fit(config, random_corpus(10 * window + negatives), generators)

    @pytest.mark.parametrize("subsample", [0.0, Word2VecConfig().subsample])
    def test_subsample(self, subsample, generators):
        config = Word2VecConfig(dim=12, epochs=3, subsample=subsample, seed=4)
        assert_same_fit(config, random_corpus(2, n=80, vocab=300), generators)

    def test_subsample_drops_tokens(self):
        # The default threshold must actually drop tokens on the corpus
        # above, or the subsample case would test nothing.
        model = Word2Vec(Word2VecConfig(dim=4))
        model.fit(random_corpus(2, n=80, vocab=300))
        keep = model.vocab.subsample_keep_probs(threshold=Word2VecConfig().subsample)
        assert (keep < 1.0).any() and (keep == 1.0).any()

    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_batch_splits_one_sentence(self, batch_size, generators):
        config = Word2VecConfig(dim=8, window=4, batch_size=batch_size, subsample=0.0, seed=2)
        assert_same_fit(config, random_corpus(5, n=12), generators)

    @pytest.mark.parametrize("subsample", [0.0, Word2VecConfig().subsample])
    def test_repeated_ids_and_short_sentences(self, subsample, generators):
        config = Word2VecConfig(dim=6, window=3, negatives=7, epochs=4, subsample=subsample)
        assert_same_fit(config, REPEATED, generators)

    def test_min_count_drops_rare_tokens(self, generators):
        config = Word2VecConfig(dim=8, min_count=3, seed=8)
        assert_same_fit(config, random_corpus(6, n=50, vocab=200), generators)

    @pytest.mark.parametrize("corpus", [[], [["solo"]], [["a"], ["b"]]])
    def test_no_pairs(self, corpus, generators):
        assert_same_fit(Word2VecConfig(dim=5), corpus, generators)


class TestAddRowsAt:
    """The flat scatter against 2-D ``np.add.at`` on matrix rows."""

    @pytest.mark.parametrize("case", range(20))
    def test_bitwise_equal_with_repeated_rows(self, case):
        rng = np.random.default_rng(case)
        n_rows, dim = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        shape = (int(rng.integers(0, 60)),) + ((int(rng.integers(1, 6)),) if case % 2 else ())
        rows = rng.integers(0, n_rows, size=shape)
        # Magnitudes over many decades make the result depend on the
        # order of the additions.
        values = rng.standard_normal(shape + (dim,)) * 10.0 ** rng.integers(-8, 9, shape + (dim,))
        matrix = rng.standard_normal((n_rows, dim))
        expected = matrix.copy()
        np.add.at(expected, rows.reshape(-1), values.reshape(-1, dim))
        add_rows_at(matrix, rows, values)
        np.testing.assert_array_equal(matrix, expected)

    def test_rejects_a_strided_matrix(self):
        matrix = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError):
            add_rows_at(matrix, np.array([0, 1]), np.ones((2, 3)))
