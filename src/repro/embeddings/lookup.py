"""TermEmbedder — the uniform token -> vector front-end.

Every consumer (aggregation, centroids, the classifier, diagnostics)
goes through this class rather than a concrete model, so the embedding
backend (Word2Vec / contextual / hashed) is swappable per the paper's
"Word2Vec or BioBERT" choice and per our ablations.

OOV handling matters in table corpora: data cells are full of values the
training vocabulary never saw (ids, rare entities, fresh numbers).  The
back-off embeds an OOV token as the mean of hashed character 3-gram
vectors — the fastText trick — so unseen-but-similar strings map to
nearby vectors instead of a shared zero.  One lookup call computes
the back-off for all of its OOV tokens in one pass: each distinct
n-gram's seeded vector is built once per call, and every token takes
its mean from the gathered rows.  Nothing carries over to the next
call.

The embedder holds no token cache and no mutable state, so one instance
is safe to share across serve request threads.  The program's one token
vector store is the fused plane's id-indexed row cache
(:class:`repro.core.fused._TokenRowCache`), which resolves each token
once through :meth:`TermEmbedder.resolve`.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro import obs
from repro.embeddings.hashed import _seeded_vector
from repro.text import Token

#: Character n-gram length of the OOV back-off (fastText's trigrams).
_NGRAM = 3


@runtime_checkable
class EmbeddingModel(Protocol):
    """What a backend must provide (Word2Vec, ContextualEncoder, Hashed).

    Backends may additionally provide ``batch_vectors(tokens) ->
    list[np.ndarray | None]`` to amortize id resolution and row gathers
    over a whole batch; :meth:`TermEmbedder.resolve` uses it when
    present and falls back to per-token :meth:`vector` calls otherwise.
    """

    @property
    def dim(self) -> int: ...

    def vector(self, token: str) -> np.ndarray | None: ...


class TermEmbedder:
    """Token embedding with the char 3-gram OOV back-off and optional
    centering."""

    def __init__(
        self, model: EmbeddingModel, *, centering: np.ndarray | None = None
    ) -> None:
        self.model = model
        if centering is not None:
            centering = np.asarray(centering, dtype=np.float64)
            if centering.shape != (model.dim,):
                raise ValueError("centering vector must match the model dim")
        self._centering = centering

    @property
    def dim(self) -> int:
        return self.model.dim

    def resolve(self, tokens: Sequence[str]) -> np.ndarray:
        """Batched lookup of distinct tokens -> float64 ``(n, dim)``.

        The one lookup entry: backend vectors (through its
        ``batch_vectors`` hook when it has one), the OOV back-off for
        tokens the backend does not know, then centering.  Nothing is
        cached here; callers that look tokens up repeatedly keep their
        own store (the fused plane's row cache).  Emits one ``lookup``
        span, every token counted as a cache miss.
        """
        if not tokens:
            return np.empty((0, self.dim))
        n = len(tokens)
        with obs.span(
            "lookup", n_tokens=n, unique=n, cache_hits=0, cache_misses=n
        ):
            return self._resolve_batch(tokens)

    def _resolve_batch(self, tokens: Sequence[str]) -> np.ndarray:
        batch = getattr(self.model, "batch_vectors", None)
        if batch is not None:
            raw = batch(tokens)
        else:
            # repro-lint: disable=scalar-embed-loop - this IS the fallback
            # for backends without batch_vectors; nothing to batch through.
            raw = [self.model.vector(t) for t in tokens]
        matrix = np.empty((len(tokens), self.dim))
        missing: list[int] = []
        for row, vec in enumerate(raw):
            if vec is None:
                missing.append(row)
            else:
                matrix[row] = vec
        if missing:
            matrix[missing] = self._backoff([tokens[row] for row in missing])
        if self._centering is not None:
            # Removing the corpus-mean direction ("all-but-the-top")
            # spreads the angle spectrum; without it, trained embedding
            # spaces share a dominant component and every level pair
            # looks 0-10 degrees apart.
            matrix -= self._centering
        return matrix

    def _backoff(self, tokens: Sequence[str]) -> np.ndarray:
        """OOV vectors for one miss batch -> float64 ``(len(tokens), dim)``.

        fastText-style: each token is the unit mean of the hashed char
        n-grams of ``<token>``.  Tokens of one batch share most of their
        n-grams, so each distinct n-gram's seeded vector is built once
        and every token gathers its rows from that table.
        """
        dim = self.dim
        n = _NGRAM
        gram_ids: dict[str, int] = {}
        token_grams: list[list[int]] = []
        for token in tokens:
            padded = f"<{token}>"
            token_grams.append([
                gram_ids.setdefault(padded[i : i + n], len(gram_ids))
                for i in range(max(1, len(padded) - n + 1))
            ])
        gram_rows = np.empty((len(gram_ids), dim))
        for gram, gram_id in gram_ids.items():
            gram_rows[gram_id] = _seeded_vector(f"ng::{gram}", dim)
        out = np.empty((len(tokens), dim))
        for row, ids in enumerate(token_grams):
            mean = np.mean(gram_rows[ids], axis=0)
            norm = np.linalg.norm(mean)
            out[row] = mean / norm if norm > 0 else mean
        return out

    def vector(self, token: str) -> np.ndarray:
        """Embedding for one token; OOV resolves via the back-off.

        Always returns a ``(dim,)`` array.  The scalar reference path's
        front: it emits no ``lookup`` span.
        """
        return self._resolve_batch([token])[0]

    def embed_tokens(self, tokens: Sequence[Token | str]) -> np.ndarray:
        """Stack embeddings for a token sequence -> ``(n, dim)``.

        Kept as per-token :meth:`vector` calls — this is the scalar
        reference path the fused plane is tested and benchmarked against.
        """
        if not tokens:
            return np.empty((0, self.dim))
        texts = [t.text if isinstance(t, Token) else t for t in tokens]
        # repro-lint: disable=scalar-embed-loop - deliberately scalar: the
        # equivalence/benchmark reference the fused plane is tested against.
        return np.stack([self.vector(t) for t in texts])


def corpus_mean_vector(model: EmbeddingModel) -> np.ndarray | None:
    """Mean embedding over a trained model's vocabulary.

    Used as the :class:`TermEmbedder` centering vector.  Returns None for
    backends without a vocabulary (e.g. hashed embeddings, which have no
    dominant common direction to remove).
    """
    vocab = getattr(model, "vocab", None)
    if vocab is None:
        return None
    tokens = [t for t in vocab if not t.startswith("[")]  # skip specials
    batch = getattr(model, "batch_vectors", None)
    if batch is not None:
        raw = batch(tokens)
    else:
        # repro-lint: disable=scalar-embed-loop - backend has no batch API
        raw = [model.vector(t) for t in tokens]
    vectors = [vec for vec in raw if vec is not None]
    if not vectors:
        return None
    return np.mean(np.stack(vectors), axis=0)
