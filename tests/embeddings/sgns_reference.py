"""Reference SGNS training loop: the oracle for ``Word2Vec.fit``.

This is the straightforward form of the loop the shipped trainer
vectorizes: (center, context) pairs from a Python double loop, frequent-
word subsampling with a list comprehension, and the updates scattered
with 2-D ``np.add.at`` on matrix rows.  It makes the same generator
draws in the same order and the same floating-point operations in the
same order, so a correct ``Word2Vec.fit`` leaves ``_w_in``, ``_w_out``
and the generator state bitwise equal to this one's.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2Vec, draw_from_cdf, sampling_cdf


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class ReferenceWord2Vec(Word2Vec):
    """``Word2Vec`` trained by the reference loop; lookups are inherited."""

    def fit(self, sentences: Iterable[Sequence[str]]) -> "ReferenceWord2Vec":
        corpus = [list(s) for s in sentences]
        self.vocab = Vocabulary.from_sentences(corpus, min_count=self.config.min_count)
        rng = np.random.default_rng(self.config.seed)
        vocab_size = len(self.vocab)
        dim = self.config.dim
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
                sentence = self._reference_subsample(
                    encoded[sentence_index], keep_probs, rng
                )
                centers, contexts = self._reference_pairs(sentence, rng)
                if centers.size:
                    batch = self.config.batch_size
                    for start in range(0, centers.size, batch):
                        c = centers[start : start + batch]
                        o = contexts[start : start + batch]
                        negs = draw_from_cdf(neg_cdf, (c.size, self.config.negatives), rng)
                        self._reference_step(c, o, negs, lr)
                step += 1
        return self

    def _reference_subsample(
        self, sentence: list[int], keep_probs: np.ndarray, rng: np.random.Generator
    ) -> list[int]:
        if self.config.subsample <= 0:
            return sentence
        draws = rng.random(len(sentence))
        return [t for t, d in zip(sentence, draws) if d < keep_probs[t]]

    def _reference_pairs(
        self, sentence: list[int], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
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

    def _reference_step(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray, lr: float
    ) -> None:
        w_in, w_out = self._w_in, self._w_out
        v = w_in[centers]
        u_pos = w_out[contexts]
        u_neg = w_out[negatives]

        pos_err = _sigmoid(np.einsum("bd,bd->b", v, u_pos)) - 1.0
        neg_err = _sigmoid(np.einsum("bd,bkd->bk", v, u_neg))

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
