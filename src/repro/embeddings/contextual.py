"""Compact contextual encoder — the BioBERT fine-tuning substitute.

The paper fine-tunes BioBERT (BERT-base config, 768-dim, masked-token
row encoding "[CLS] cell [SEP] cell", Sec. IV-C) with PyTorch on a GPU
cluster.  Neither PyTorch nor a GPU is available offline, so we implement
the smallest model that preserves the property the pipeline actually
consumes: *context-aware term vectors whose aggregated row/column vectors
separate metadata from data by angle*.

The encoder is a single residual self-attention block over token + position
embeddings, trained with BERT's masked-token objective made tractable via
negative sampling (exactly the SGNS loss, applied to the contextual hidden
state at the masked position).  One deliberate approximation keeps the
NumPy backward pass simple and fast: attention weights are treated as
constants during backpropagation (gradients flow through the value path
and the residual, not through the softmax).  This first-order training
scheme still learns contextualized embeddings — attention mixes
row-mates into each term's hidden state in the forward pass — which is
the behaviour the substitution must preserve (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.vocab import MASK, Vocabulary
from repro.embeddings.word2vec import add_rows_at
from repro.invariants import not_none


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class ContextualConfig:
    """Hyper-parameters for the contextual encoder."""

    dim: int = 64
    attention_dim: int = 32
    max_len: int = 64
    negatives: int = 5
    epochs: int = 2
    learning_rate: float = 0.05
    mask_prob: float = 0.15
    min_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.attention_dim < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 < self.mask_prob <= 0.5:
            raise ValueError("mask_prob must be in (0, 0.5]")


class ContextualEncoder:
    """Self-attention encoder with masked-token training.

    After :meth:`fit`, :meth:`vector` returns the static (input)
    embedding of a token, the drop-in interface
    :class:`~repro.embeddings.lookup.TermEmbedder` expects; training
    shapes those vectors through the attention block.
    """

    def __init__(self, config: ContextualConfig | None = None) -> None:
        self.config = config or ContextualConfig()
        self.vocab: Vocabulary | None = None
        self._emb: np.ndarray | None = None  # token embeddings E
        self._pos: np.ndarray | None = None  # positional embeddings P
        self._wq: np.ndarray | None = None
        self._wk: np.ndarray | None = None
        self._wo: np.ndarray | None = None
        self._out: np.ndarray | None = None  # output (prediction) table U

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, sentences: Iterable[Sequence[str]]) -> "ContextualEncoder":
        corpus = [list(s)[: self.config.max_len] for s in sentences]
        self.vocab = Vocabulary.from_sentences(corpus, min_count=self.config.min_count)
        rng = np.random.default_rng(self.config.seed)
        v, d, a = len(self.vocab), self.config.dim, self.config.attention_dim
        scale = 1.0 / np.sqrt(d)
        self._emb = rng.normal(0.0, scale, size=(v, d))
        self._pos = rng.normal(0.0, scale * 0.1, size=(self.config.max_len, d))
        self._wq = rng.normal(0.0, scale, size=(d, a))
        self._wk = rng.normal(0.0, scale, size=(d, a))
        self._wo = np.eye(d) * 0.1 + rng.normal(0.0, 0.01, size=(d, d))
        self._out = np.zeros((v, d))

        encoded = [self.vocab.encode(s) for s in corpus]
        encoded = [s for s in encoded if len(s) > 1]
        if not encoded:
            return self
        neg_probs = self.vocab.negative_sampling_probs()
        mask_id = not_none(
            self.vocab.id_of(MASK), "MASK token id in a built vocabulary"
        )

        for _ in range(self.config.epochs):
            for sentence_index in rng.permutation(len(encoded)):
                self._train_sentence(encoded[sentence_index], mask_id, neg_probs, rng)
        return self

    def _train_sentence(
        self,
        ids: list[int],
        mask_id: int,
        neg_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        emb = not_none(self._emb, "fitted token embedding matrix")
        pos = not_none(self._pos, "fitted positional matrix")
        wq = not_none(self._wq, "fitted query projection")
        wk = not_none(self._wk, "fitted key projection")
        wo = not_none(self._wo, "fitted output projection")
        out = not_none(self._out, "fitted output embedding")

        n = len(ids)
        id_arr = np.asarray(ids, dtype=np.int64)
        n_masked = max(1, int(round(self.config.mask_prob * n)))
        masked_positions = rng.choice(n, size=min(n_masked, n), replace=False)

        input_ids = id_arr.copy()
        input_ids[masked_positions] = mask_id
        x = emb[input_ids] + pos[:n]  # (n, d)

        # Forward attention (weights treated as constants in backward).
        scores = (x @ wq) @ (x @ wk).T / np.sqrt(self.config.attention_dim)
        attn = _softmax(scores, axis=-1)  # (n, n)
        mixed = attn @ x  # (n, d)
        hidden = x + mixed @ wo  # (n, d)

        lr = self.config.learning_rate
        grad_x = np.zeros_like(x)
        grad_wo = np.zeros_like(wo)

        negatives = rng.choice(
            neg_probs.size,
            size=(masked_positions.size, self.config.negatives),
            p=neg_probs,
        )
        for row, position in enumerate(masked_positions):
            h = hidden[position]
            true_id = id_arr[position]
            u_pos = out[true_id]
            u_neg = out[negatives[row]]  # (K, d)

            pos_err = _sigmoid(h @ u_pos) - 1.0
            neg_err = _sigmoid(u_neg @ h)  # (K,)

            grad_h = pos_err * u_pos + neg_err @ u_neg
            out[true_id] -= lr * pos_err * h
            out[negatives[row]] -= lr * neg_err[:, None] * h[None, :]

            # hidden = x + (attn @ x) @ wo, attention constant:
            grad_wo += np.outer(mixed[position], grad_h)
            back = grad_h @ wo.T  # (d,)
            grad_x += attn[position][:, None] * back[None, :]
            grad_x[position] += grad_h  # residual path

        wo -= lr * grad_wo
        add_rows_at(emb, input_ids, -lr * grad_x)
        pos[:n] -= lr * grad_x

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def is_fitted(self) -> bool:
        return self._emb is not None and self.vocab is not None

    def vector(self, token: str) -> np.ndarray | None:
        if self.vocab is None or self._emb is None:
            return None
        token_id = self.vocab.id_of(token)
        if token_id is None:
            return None
        return self._emb[token_id]

    def batch_vectors(self, tokens: Sequence[str]) -> list[np.ndarray | None]:
        """Amortized static lookup: one id pass, one row gather."""
        if self.vocab is None or self._emb is None:
            return [None] * len(tokens)
        ids = [self.vocab.id_of(t) for t in tokens]
        present = [i for i in ids if i is not None]
        rows = self._emb[np.asarray(present, dtype=np.intp)] if present else None
        out: list[np.ndarray | None] = []
        cursor = 0
        for token_id in ids:
            if token_id is None:
                out.append(None)
            else:
                out.append(not_none(rows, "rows for in-vocabulary ids")[cursor])
                cursor += 1
        return out

