"""TermEmbedder — the uniform token -> vector front-end.

Every consumer (aggregation, centroids, the classifier, diagnostics)
goes through this class rather than a concrete model, so the embedding
backend (Word2Vec / contextual / hashed) is swappable per the paper's
"Word2Vec or BioBERT" choice and per our ablations.

OOV handling matters in table corpora: data cells are full of values the
training vocabulary never saw (ids, rare entities, fresh numbers).  The
default back-off embeds an OOV token as the mean of hashed character
n-gram vectors — the fastText trick — so unseen-but-similar strings map
to nearby vectors instead of a shared zero.

The token cache is a bounded LRU guarded by a lock: ``repro serve``
classifies each request on its own handler thread against one shared
embedder, so lookups must be safe under concurrent mutation, and the
cache must keep caching (by evicting the least recently used entry)
instead of silently filling up and freezing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro import obs
from repro.embeddings.hashed import _seeded_vector
from repro.text import Token, tokenize_cells


@runtime_checkable
class EmbeddingModel(Protocol):
    """What a backend must provide (Word2Vec, ContextualEncoder, Hashed).

    Backends may additionally provide ``batch_vectors(tokens) ->
    list[np.ndarray | None]`` to amortize id resolution and row gathers
    over a whole batch; :meth:`TermEmbedder.vectors` uses it when
    present and falls back to per-token :meth:`vector` calls otherwise.
    """

    @property
    def dim(self) -> int: ...

    def vector(self, token: str) -> np.ndarray | None: ...


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the token-cache counters."""

    hits: int
    misses: int
    size: int
    capacity: int


class TermEmbedder:
    """Token/cell/level embedding with OOV back-off and caching.

    ``oov`` selects the back-off: ``"ngram"`` (default, fastText-style
    char trigram hashing), ``"hash"`` (whole-token hash vector), or
    ``"zero"`` (drop OOV terms from aggregates).

    ``cache_size`` bounds the token LRU; ``0`` disables caching.  All
    cache operations are thread safe — one embedder instance may be
    shared freely across serve request threads.
    """

    def __init__(
        self,
        model: EmbeddingModel,
        *,
        oov: str = "ngram",
        ngram: int = 3,
        cache_size: int = 100_000,
        centering: np.ndarray | None = None,
    ) -> None:
        if oov not in ("ngram", "hash", "zero"):
            raise ValueError(f"unknown OOV strategy {oov!r}")
        if ngram < 2:
            raise ValueError("ngram must be at least 2")
        self.model = model
        self._oov = oov
        self._ngram = ngram
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()  # guarded-by: _cache_lock
        self._cache_size = cache_size
        self._cache_lock = threading.Lock()
        self._hits = 0  # guarded-by: _cache_lock
        self._misses = 0  # guarded-by: _cache_lock
        if centering is not None:
            centering = np.asarray(centering, dtype=np.float64)
            if centering.shape != (model.dim,):
                raise ValueError("centering vector must match the model dim")
        self._centering = centering

    @property
    def dim(self) -> int:
        return self.model.dim

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the lock and cache.

        The token LRU is pure memoization, so an unpickled embedder
        starting cold is correct (just briefly slower); the lock is
        rebuilt in :meth:`__setstate__`.
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_hits"] = 0
        state["_misses"] = 0
        del state["_cache_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # single token
    # ------------------------------------------------------------------
    def vector(self, token: str) -> np.ndarray:
        """Embedding for one token; OOV resolves via the back-off.

        Always returns a ``(dim,)`` array; the ``"zero"`` strategy
        returns an all-zero vector that aggregation then ignores.
        """
        with self._cache_lock:
            cached = self._cache.get(token)
            if cached is not None:
                self._cache.move_to_end(token)
                self._hits += 1
                return cached
            self._misses += 1
        # Resolve outside the lock: backend lookups and the n-gram
        # back-off are the slow part and need no shared state.
        return self._cache_put(token, self._resolve(token))

    def _resolve(self, token: str) -> np.ndarray:
        vec = self.model.vector(token)
        if vec is None:
            vec = self._oov_vector(token)
        vec = np.asarray(vec, dtype=np.float64)
        if self._centering is not None:
            # Removing the corpus-mean direction ("all-but-the-top")
            # spreads the angle spectrum; without it, trained embedding
            # spaces share a dominant component and every level pair
            # looks 0-10 degrees apart.
            vec = vec - self._centering
        return vec

    def _cache_put(self, token: str, vec: np.ndarray) -> np.ndarray:
        if self._cache_size <= 0:
            return vec
        with self._cache_lock:
            existing = self._cache.get(token)
            if existing is not None:
                # Another thread resolved the same token first; keep its
                # object so repeated lookups stay identity-stable.
                self._cache.move_to_end(token)
                return existing
            self._cache[token] = vec
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return vec

    def _oov_vector(self, token: str) -> np.ndarray:
        if self._oov == "zero":
            return np.zeros(self.dim)
        if self._oov == "hash":
            return _seeded_vector(f"oov::{token}", self.dim)
        # fastText-style: mean of hashed char n-grams of <token>.
        padded = f"<{token}>"
        n = self._ngram
        grams = [padded[i : i + n] for i in range(max(1, len(padded) - n + 1))]
        vectors = [_seeded_vector(f"ng::{g}", self.dim) for g in grams]
        mean = np.mean(vectors, axis=0)
        norm = np.linalg.norm(mean)
        return mean / norm if norm > 0 else mean

    def has(self, token: str) -> bool:
        """True when the *backend* (not the back-off) knows the token."""
        return self.model.vector(token) is not None

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def vectors(self, tokens: Sequence[Token | str]) -> np.ndarray:
        """Batched lookup -> ``(n, dim)``, one row per input token.

        Duplicates are resolved once: the batch is deduplicated, served
        from the cache under a single lock acquisition, and only the
        misses go to the backend (via its ``batch_vectors`` hook when it
        has one).  This is the amortized entry point the fit-side level
        batches (:func:`repro.core.embedding_plane.level_vectors`) ride.
        """
        texts = [t.text if isinstance(t, Token) else t for t in tokens]
        if not texts:
            return np.empty((0, self.dim))
        with obs.span("lookup", n_tokens=len(texts)) as lookup_span:
            order: dict[str, int] = {}
            for text in texts:
                if text not in order:
                    order[text] = len(order)
            unique = list(order)
            resolved: list[np.ndarray | None] = [None] * len(unique)
            missing: list[int] = []
            with self._cache_lock:
                for idx, token in enumerate(unique):
                    cached = self._cache.get(token)
                    if cached is not None:
                        self._cache.move_to_end(token)
                        self._hits += 1
                        resolved[idx] = cached
                    else:
                        self._misses += 1
                        missing.append(idx)
            lookup_span.set(
                unique=len(unique),
                cache_hits=len(unique) - len(missing),
                cache_misses=len(missing),
            )
            if missing:
                fresh = self._resolve_batch([unique[i] for i in missing])
                for idx, vec in zip(missing, fresh):
                    resolved[idx] = self._cache_put(unique[idx], vec)
            matrix = np.stack(resolved)  # type: ignore[arg-type]
            if len(unique) == len(texts):
                return matrix
            gather = np.fromiter(
                (order[t] for t in texts), dtype=np.intp, count=len(texts)
            )
            return matrix[gather]

    def resolve(self, tokens: Sequence[str]) -> np.ndarray:
        """Batched lookup of distinct tokens that bypasses the token LRU.

        For callers that keep their own token cache (the fused plane's
        id-indexed row cache): storing the vectors here as well would
        hold every token twice.  Emits the same ``lookup`` span as
        :meth:`vectors`, every token counted as a cache miss.
        """
        if not tokens:
            return np.empty((0, self.dim))
        n = len(tokens)
        with obs.span(
            "lookup", n_tokens=n, unique=n, cache_hits=0, cache_misses=n
        ):
            return np.stack(self._resolve_batch(tokens))

    def _resolve_batch(self, tokens: Sequence[str]) -> list[np.ndarray]:
        batch = getattr(self.model, "batch_vectors", None)
        if batch is not None:
            raw = batch(tokens)
        else:
            # repro-lint: disable=scalar-embed-loop - this IS the fallback
            # for backends without batch_vectors; nothing to batch through.
            raw = [self.model.vector(t) for t in tokens]
        out: list[np.ndarray] = []
        for token, vec in zip(tokens, raw):
            if vec is None:
                vec = self._oov_vector(token)
            vec = np.asarray(vec, dtype=np.float64)
            if self._centering is not None:
                vec = vec - self._centering
            out.append(vec)
        return out

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

    def embed_cells(self, cells: Sequence[object]) -> np.ndarray:
        """Tokenize a level's cells and stack the term embeddings."""
        return self.embed_tokens(tokenize_cells(cells))

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss/size counters (thread-safe snapshot)."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._cache),
                capacity=self._cache_size,
            )

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0


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
