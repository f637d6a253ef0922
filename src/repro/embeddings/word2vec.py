"""Skip-gram Word2Vec with negative sampling (SGNS), from scratch.

This is the algorithm behind Gensim's ``Word2Vec`` that the paper trains
on its corpora ("embedding dimensionality 300, the context window of
size 3 ... minimum count of 1", Sec. IV-C).  Each SGNS step is one
sentence: its (center, context) pairs are built with array offsets and
updated together, with ``np.add.at`` scatter-adds so tokens repeated
within the step accumulate their gradients.  ``batch_size`` only splits
a long sentence's pairs into several steps; a step never spans
sentences.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16)
def _context_offsets(window: int) -> np.ndarray:
    """Context offsets ``-window..-1, 1..window``, left to right."""
    offsets = np.r_[-window:0, 1 : window + 1]
    offsets.flags.writeable = False
    return offsets


def add_rows_at(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(matrix, rows, values)`` on the flat view of ``matrix``.

    ``values`` holds one row per entry of ``rows``.  Element ``(r, j)``
    receives the same additions in the same order as in the 2-D call, so
    the result is bitwise equal; NumPy runs the 1-D scatter 2-4x faster.
    """
    if not matrix.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous matrix")
    dim = matrix.shape[1]
    flat_index = (rows.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    np.add.at(matrix.reshape(-1), flat_index, values.reshape(-1))


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

        encoded = [
            np.asarray(ids, dtype=np.int64)
            for ids in map(self.vocab.encode, corpus)
            if len(ids) > 1
        ]
        if not encoded:
            return self

        neg_cdf = sampling_cdf(self.vocab.negative_sampling_probs())
        keep_probs = self.vocab.subsample_keep_probs(threshold=self.config.subsample)
        # Every step's (pairs, negatives, dim) block lives in this one
        # buffer.  Allocated afresh per sentence, it is big enough that
        # malloc returns its pages to the OS after each step and faults
        # them in again on the next (~50 minor faults a step with glibc).
        longest = max(s.size for s in encoded)
        max_pairs = min(self.config.batch_size, 2 * self.config.window * longest)
        neg_rows = np.empty((max_pairs, self.config.negatives, dim))
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
                sentence = encoded[sentence_index]
                if self.config.subsample > 0:
                    sentence = sentence[rng.random(sentence.size) < keep_probs[sentence]]
                centers, contexts = self._pairs(sentence, rng)
                if centers.size:
                    self._update_batches(centers, contexts, neg_cdf, lr, rng, neg_rows)
                step += 1
        return self

    def _pairs(
        self, sentence: Sequence[int] | np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(center, context) pairs with per-position dynamic window.

        Position by position, each position's contexts left to right.
        """
        sentence = np.asarray(sentence, dtype=np.int64)
        n = sentence.size
        if n < 2:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        windows = rng.integers(1, self.config.window + 1, size=n)
        offsets = _context_offsets(self.config.window)
        context_pos = np.arange(n)[:, None] + offsets
        keep = (np.abs(offsets) <= windows[:, None]) & (context_pos >= 0) & (context_pos < n)
        return sentence[keep.nonzero()[0]], sentence[context_pos[keep]]

    def _update_batches(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        neg_cdf: np.ndarray,
        lr: float,
        rng: np.random.Generator,
        neg_rows: np.ndarray,
    ) -> None:
        not_none(self._w_in, "fitted input matrix (fit() builds it)")
        not_none(self._w_out, "fitted output matrix (fit() builds it)")
        batch = self.config.batch_size
        for start in range(0, centers.size, batch):
            c = centers[start : start + batch]
            o = contexts[start : start + batch]
            negs = draw_from_cdf(neg_cdf, (c.size, self.config.negatives), rng)
            self._sgns_step(c, o, negs, lr, neg_rows[: c.size])

    def _sgns_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        lr: float,
        neg_rows: np.ndarray,
    ) -> None:
        """One mini-batch of SGNS updates (binary logistic loss).

        ``neg_rows`` is a ``(B, K, d)`` work buffer; its contents are
        overwritten.
        """
        w_in = not_none(self._w_in, "fitted input matrix")
        w_out = not_none(self._w_out, "fitted output matrix")
        v = w_in[centers]  # (B, d)
        u_pos = w_out[contexts]  # (B, d)
        u_neg = np.take(w_out, negatives, axis=0, out=neg_rows)  # (B, K, d)

        # Positive pairs: label 1.
        pos_err = _sigmoid(np.einsum("bd,bd->b", v, u_pos)) - 1.0  # (B,)
        # Negative pairs: label 0.
        neg_err = _sigmoid(np.einsum("bd,bkd->bk", v, u_neg))  # (B, K)

        grad_v = pos_err[:, None] * u_pos + np.einsum("bk,bkd->bd", neg_err, u_neg)
        grad_u_pos = pos_err[:, None] * v
        # u_neg is spent: its buffer takes -lr * grad_u_neg (the scaling
        # in place multiplies the same two operands, so the bits match).
        step_u_neg = np.multiply(neg_err[:, :, None], v[:, None, :], out=neg_rows)
        step_u_neg *= -lr

        add_rows_at(w_in, centers, -lr * grad_v)
        add_rows_at(w_out, contexts, -lr * grad_u_pos)
        add_rows_at(w_out, negatives, step_u_neg)

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
