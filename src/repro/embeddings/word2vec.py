"""Skip-gram Word2Vec with negative sampling (SGNS), from scratch.

This is the algorithm behind Gensim's ``Word2Vec`` that the paper trains
on its corpora ("embedding dimensionality 300, the context window of
size 3 ... minimum count of 1", Sec. IV-C).  The implementation is
vectorized NumPy: pairs are generated per sentence, then updated in
mini-batches with ``np.add.at`` scatter-adds so repeated tokens within a
batch accumulate gradients correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.vocab import Vocabulary
from repro.invariants import not_none


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() finite; gradients saturate there anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def sampling_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised CDF that ``rng.choice(p=probs)`` builds per call."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(
    cdf: np.ndarray, shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """``rng.choice(cdf.size, size=shape, p=probs)`` without re-checking ``probs``.

    Same draws, and the same generator state afterwards: this is what
    ``Generator.choice`` does with ``p`` once its checks pass.
    """
    return cdf.searchsorted(rng.random(shape), side="right")


@dataclass(frozen=True)
class Word2VecConfig:
    """Training hyper-parameters; defaults follow the paper where stated."""

    dim: int = 100
    window: int = 3  # paper: context window of size 3 before/after
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    min_count: int = 1  # paper: minimum count of 1
    subsample: float = 1e-3
    batch_size: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.negatives < 1:
            raise ValueError("need at least one negative sample")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


class Word2Vec:
    """SGNS model: ``fit`` on sentences, then ``vector`` per token."""

    def __init__(self, config: Word2VecConfig | None = None) -> None:
        self.config = config or Word2VecConfig()
        self.vocab: Vocabulary | None = None
        self._w_in: np.ndarray | None = None
        self._w_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, sentences: Iterable[Sequence[str]]) -> "Word2Vec":
        """Train on a corpus of sentences (lists of token strings)."""
        corpus = [list(s) for s in sentences]
        self.vocab = Vocabulary.from_sentences(corpus, min_count=self.config.min_count)
        rng = np.random.default_rng(self.config.seed)
        vocab_size = len(self.vocab)
        dim = self.config.dim
        # Standard SGNS init: small uniform inputs, zero outputs.
        self._w_in = (rng.random((vocab_size, dim)) - 0.5) / dim
        self._w_out = np.zeros((vocab_size, dim))

        encoded = [self.vocab.encode(s) for s in corpus]
        encoded = [s for s in encoded if len(s) > 1]
        if not encoded:
            return self

        neg_cdf = sampling_cdf(self.vocab.negative_sampling_probs())
        keep_probs = self.vocab.subsample_keep_probs(threshold=self.config.subsample)
        total_steps = max(1, self.config.epochs * len(encoded))
        step = 0
        for _ in range(self.config.epochs):
            order = rng.permutation(len(encoded))
            for sentence_index in order:
                progress = step / total_steps
                lr = max(
                    self.config.min_learning_rate,
                    self.config.learning_rate * (1.0 - progress),
                )
                sentence = self._subsample(encoded[sentence_index], keep_probs, rng)
                centers, contexts = self._pairs(sentence, rng)
                if centers.size:
                    self._update_batches(centers, contexts, neg_cdf, lr, rng)
                step += 1
        return self

    def _subsample(
        self, sentence: list[int], keep_probs: np.ndarray, rng: np.random.Generator
    ) -> list[int]:
        if self.config.subsample <= 0:
            return sentence
        draws = rng.random(len(sentence))
        return [t for t, d in zip(sentence, draws) if d < keep_probs[t]]

    def _pairs(
        self, sentence: list[int], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(center, context) pairs with per-position dynamic window."""
        centers: list[int] = []
        contexts: list[int] = []
        n = len(sentence)
        if n < 2:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        windows = rng.integers(1, self.config.window + 1, size=n)
        for pos, center in enumerate(sentence):
            span = int(windows[pos])
            lo = max(0, pos - span)
            hi = min(n, pos + span + 1)
            for ctx_pos in range(lo, hi):
                if ctx_pos != pos:
                    centers.append(center)
                    contexts.append(sentence[ctx_pos])
        return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)

    def _update_batches(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        neg_cdf: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> None:
        not_none(self._w_in, "fitted input matrix (fit() builds it)")
        not_none(self._w_out, "fitted output matrix (fit() builds it)")
        batch = self.config.batch_size
        for start in range(0, centers.size, batch):
            c = centers[start : start + batch]
            o = contexts[start : start + batch]
            negs = draw_from_cdf(neg_cdf, (c.size, self.config.negatives), rng)
            self._sgns_step(c, o, negs, lr)

    def _sgns_step(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray, lr: float
    ) -> None:
        """One mini-batch of SGNS updates (binary logistic loss)."""
        w_in = not_none(self._w_in, "fitted input matrix")
        w_out = not_none(self._w_out, "fitted output matrix")
        v = w_in[centers]  # (B, d)
        u_pos = w_out[contexts]  # (B, d)
        u_neg = w_out[negatives]  # (B, K, d)

        # Positive pairs: label 1.
        pos_err = _sigmoid(np.einsum("bd,bd->b", v, u_pos)) - 1.0  # (B,)
        # Negative pairs: label 0.
        neg_err = _sigmoid(np.einsum("bd,bkd->bk", v, u_neg))  # (B, K)

        grad_v = pos_err[:, None] * u_pos + np.einsum("bk,bkd->bd", neg_err, u_neg)
        grad_u_pos = pos_err[:, None] * v
        grad_u_neg = neg_err[:, :, None] * v[:, None, :]

        np.add.at(w_in, centers, -lr * grad_v)
        np.add.at(w_out, contexts, -lr * grad_u_pos)
        np.add.at(
            w_out,
            negatives.reshape(-1),
            -lr * grad_u_neg.reshape(-1, grad_u_neg.shape[-1]),
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def is_fitted(self) -> bool:
        return self._w_in is not None and self.vocab is not None

    def vector(self, token: str) -> np.ndarray | None:
        """The input embedding for ``token``, or None if OOV/unfitted."""
        if self.vocab is None or self._w_in is None:
            return None
        token_id = self.vocab.id_of(token)
        if token_id is None:
            return None
        return self._w_in[token_id]

    def batch_vectors(self, tokens: Sequence[str]) -> list[np.ndarray | None]:
        """Amortized lookup: one id pass, one row gather; None for OOV."""
        if self.vocab is None or self._w_in is None:
            return [None] * len(tokens)
        ids = [self.vocab.id_of(t) for t in tokens]
        present = [i for i in ids if i is not None]
        rows = self._w_in[np.asarray(present, dtype=np.intp)] if present else None
        out: list[np.ndarray | None] = []
        cursor = 0
        for token_id in ids:
            if token_id is None:
                out.append(None)
            else:
                out.append(not_none(rows, "rows for in-vocabulary ids")[cursor])
                cursor += 1
        return out

    def most_similar(self, token: str, *, topn: int = 10) -> list[tuple[str, float]]:
        """Nearest neighbours by cosine similarity (diagnostics/examples)."""
        if self.vocab is None or self._w_in is None:
            return []
        query = self.vector(token)
        if query is None:
            return []
        matrix = self._w_in
        norms = np.linalg.norm(matrix, axis=1)
        query_norm = np.linalg.norm(query)
        if query_norm == 0:
            return []
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = matrix @ query / np.maximum(norms * query_norm, 1e-12)
        order = np.argsort(-sims)
        results = []
        for token_id in order:
            candidate = self.vocab.token_of(int(token_id))
            if candidate == token or candidate.startswith("["):
                continue
            results.append((candidate, float(sims[token_id])))
            if len(results) >= topn:
                break
        return results
