"""Tests for TermEmbedder (lookup, OOV back-off, centering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.hashed import HashedEmbedding, _seeded_vector
from repro.embeddings import lookup
from repro.embeddings.lookup import TermEmbedder, corpus_mean_vector
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.text import Token, TokenKind, tokenize_cells


def _oov_vector(token: str, dim: int, *, ngram: int = 3):
    """The per-token OOV back-off, kept as the bitwise oracle of
    :meth:`TermEmbedder._backoff` (which builds each n-gram once per
    miss batch)."""
    padded = f"<{token}>"
    grams = [
        padded[i : i + ngram] for i in range(max(1, len(padded) - ngram + 1))
    ]
    vectors = [_seeded_vector(f"ng::{g}", dim) for g in grams]
    mean = np.mean(vectors, axis=0)
    norm = np.linalg.norm(mean)
    return mean / norm if norm > 0 else mean


class _NoneModel:
    """A backend that knows nothing (everything is OOV)."""

    @property
    def dim(self) -> int:
        return 8

    def vector(self, token: str):
        return None


class _BatchModel(HashedEmbedding):
    """A backend with the ``batch_vectors`` hook; records each call."""

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self.calls: list[list[str]] = []

    def batch_vectors(self, tokens):
        self.calls.append(list(tokens))
        return [self.vector(t) for t in tokens]


class TestLookup:
    def test_backend_vector_passthrough(self):
        model = HashedEmbedding(8)
        embedder = TermEmbedder(model)
        np.testing.assert_allclose(embedder.vector("x"), model.vector("x"))

    def test_has_reflects_backend(self):
        """A token the backend knows resolves to the backend vector; one
        it does not know resolves through the back-off."""
        model = HashedEmbedding(8)
        np.testing.assert_array_equal(
            TermEmbedder(model).resolve(["anything"])[0], model.vector("anything")
        )
        embedder = TermEmbedder(_NoneModel())
        np.testing.assert_array_equal(
            embedder.resolve(["anything"])[0], _oov_vector("anything", 8)
        )

    def test_cache_consistency(self):
        """Lookups are uncached and deterministic: repeated calls, the
        scalar front and the batched entry all agree exactly."""
        embedder = TermEmbedder(HashedEmbedding(8))
        first = embedder.vector("tok")
        second = embedder.vector("tok")
        assert first is not second
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(embedder.resolve(["tok"])[0], first)


class TestOov:
    def test_ngram_strategy_similar_strings_close(self):
        embedder = TermEmbedder(_NoneModel())

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        near = cos(embedder.vector("enrollment"), embedder.vector("enrollments"))
        far = cos(embedder.vector("enrollment"), embedder.vector("zqxwvy"))
        assert near > far

    def test_ngram_short_token(self):
        embedder = TermEmbedder(_NoneModel())
        vec = embedder.vector("a")
        assert vec.shape == (8,)
        assert np.all(np.isfinite(vec))


class TestBatch:
    def test_embed_tokens_shapes(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        out = embedder.embed_tokens(["a", "b"])
        assert out.shape == (2, 8)
        assert embedder.embed_tokens([]).shape == (0, 8)

    def test_token_objects_accepted(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        out = embedder.embed_tokens([Token("a", TokenKind.WORD)])
        np.testing.assert_allclose(out[0], embedder.vector("a"))

    def test_embed_cells_tokenizes(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        out = embedder.embed_tokens(
            tokenize_cells(["Student enrollment", "14,373"])
        )
        assert out.shape == (3, 8)  # student, enrollment, 14373


class _HalfModel(HashedEmbedding):
    """Knows only tokens that start with a vowel; the rest are OOV."""

    def vector(self, token: str):
        return super().vector(token) if token[:1] in "aeiou" else None


_ALPHABET = "abcdeiouxyz019-_ .é中ß"


def _random_batch(rng: np.random.Generator) -> list[str]:
    words = [
        "".join(rng.choice(list(_ALPHABET), size=int(rng.integers(0, 12))))
        for _ in range(int(rng.integers(1, 40)))
    ]
    # Shared n-grams, tokens shorter than the n-gram, unicode, repeats.
    words += ["enrol", "enrollment", "enrollments", "", "q", "ab", "über"]
    words += ["日本語テーブル", "naïve", words[0], "enrollment"]
    return [str(w) for w in rng.permutation(np.array(words, dtype=object))]


class TestBackoffOracle:
    """The batched back-off is bitwise the per-token reference."""

    @pytest.mark.parametrize("ngram", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_ngram_batches_bitwise(self, ngram, seed, monkeypatch):
        # The plane backs off with 3-grams; the batching must not
        # depend on the n-gram length.
        monkeypatch.setattr(lookup, "_NGRAM", ngram)
        rng = np.random.default_rng(seed)
        embedder = TermEmbedder(_NoneModel())
        for _ in range(5):
            tokens = _random_batch(rng)
            want = np.stack([_oov_vector(t, 8, ngram=ngram) for t in tokens])
            assert np.array_equal(embedder.resolve(tokens), want)

    @pytest.mark.parametrize("centered", [False, True])
    def test_mixed_known_and_oov_bitwise(self, centered):
        model = _HalfModel(16)
        center = np.linspace(-0.3, 0.3, 16) if centered else None
        embedder = TermEmbedder(model, centering=center)
        rng = np.random.default_rng(7)
        for _ in range(5):
            tokens = _random_batch(rng)
            known = [model.vector(t) for t in tokens]
            want = np.stack([
                _oov_vector(t, 16) if vec is None else vec
                for t, vec in zip(tokens, known)
            ])
            if center is not None:
                want -= center
            got = embedder.resolve(tokens)
            assert np.array_equal(got, want)
            # The scalar front agrees with the batch, token by token.
            assert np.array_equal(
                np.stack([embedder.vector(t) for t in tokens]), got
            )

    def test_batch_size_does_not_change_vectors(self):
        embedder = TermEmbedder(_NoneModel())
        tokens = _random_batch(np.random.default_rng(3))
        whole = embedder.resolve(tokens)
        halves = np.vstack([
            embedder.resolve(tokens[: len(tokens) // 2]),
            embedder.resolve(tokens[len(tokens) // 2 :]),
        ])
        assert np.array_equal(whole, halves)


class TestCentering:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            TermEmbedder(HashedEmbedding(8), centering=np.zeros(4))

    def test_centering_applied(self):
        model = HashedEmbedding(8)
        center = np.ones(8) * 0.5
        plain = TermEmbedder(model)
        centered = TermEmbedder(model, centering=center)
        np.testing.assert_allclose(
            centered.vector("x"), plain.vector("x") - center
        )

    def test_corpus_mean_vector(self):
        corpus = [["a", "b"], ["a", "c"], ["b", "c"]]
        model = Word2Vec(Word2VecConfig(dim=8, epochs=1, seed=0)).fit(corpus)
        mean = corpus_mean_vector(model)
        assert mean is not None
        assert mean.shape == (8,)
        vectors = [model.vector(t) for t in ("a", "b", "c")]
        np.testing.assert_allclose(mean, np.mean(vectors, axis=0))

    def test_corpus_mean_none_without_vocab(self):
        assert corpus_mean_vector(HashedEmbedding(8)) is None


class TestVectorsBatch:
    """The batched lookup, :meth:`TermEmbedder.resolve`."""

    def test_matches_scalar_path(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        tokens = ["alpha", "beta", "14373", "gamma"]
        batched = embedder.resolve(tokens)
        assert batched.dtype == np.float64
        scalar = np.stack([embedder.vector(t) for t in tokens])
        np.testing.assert_array_equal(batched, scalar)

    def test_duplicates_resolved_once(self):
        """The fit-side batch path dedupes its tokens before it resolves
        them: one backend call, each distinct token once."""
        from repro.core.embedding_plane import level_vectors

        model = _BatchModel(8)
        out = level_vectors(TermEmbedder(model), [["qqdup qqdup"], ["qqdup"]] * 5)
        assert out.shape == (10, 8)
        assert model.calls == [["qqdup"]]
        np.testing.assert_allclose(out[0], 2 * out[1], atol=1e-5)

    def test_empty_batch(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        assert embedder.resolve([]).shape == (0, 8)

    def test_token_objects_accepted(self):
        embedder = TermEmbedder(HashedEmbedding(8))
        out = embedder.embed_tokens([Token("a", TokenKind.WORD), "b"])
        np.testing.assert_allclose(out[0], embedder.vector("a"))
        np.testing.assert_allclose(out[1], embedder.vector("b"))

    def test_oov_backoff_and_centering_applied(self):
        center = np.full(8, 0.25)
        plain = TermEmbedder(_NoneModel())
        centered = TermEmbedder(_NoneModel(), centering=center)
        np.testing.assert_allclose(
            centered.resolve(["word"])[0], plain.resolve(["word"])[0] - center
        )

    def test_backend_batch_hook_used(self):
        model = _BatchModel(8)
        TermEmbedder(model).resolve(["a", "b"])
        assert model.calls == [["a", "b"]]  # one backend call for the batch


class TestCacheConcurrency:
    def test_eight_thread_hammer_no_corruption(self):
        """One embedder shared by 8 threads, through both the scalar
        front and the row cache the batched paths fill: every returned
        vector must equal the single-thread reference."""
        import threading as _threading

        from repro.core.aggregate import aggregate_level
        from repro.core.embedding_plane import level_vectors

        embedder = TermEmbedder(HashedEmbedding(16))
        reference = TermEmbedder(HashedEmbedding(16))
        # One cell, two tokens ("hammer", "<i>") on the batched path.
        tokens = [f"hammer{i}" for i in range(100)]
        expected = {t: reference.vector(t) for t in tokens}
        expected_cell = {t: aggregate_level(reference, [t]) for t in tokens}
        errors: list[str] = []
        barrier = _threading.Barrier(8)

        def worker(seed: int) -> None:
            barrier.wait()
            for round_no in range(30):
                for i, tok in enumerate(tokens):
                    if (i + seed + round_no) % 3 == 0:
                        got, want = embedder.vector(tok), expected[tok]
                    else:
                        got = level_vectors(embedder, [[tok]])[0]
                        want = expected_cell[tok]
                    if not np.allclose(got, want, atol=1e-5):
                        errors.append(tok)
                        return

        threads = [
            _threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
