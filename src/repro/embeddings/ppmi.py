"""Count-based embeddings: PPMI co-occurrence + truncated SVD.

The classical alternative to SGNS (Levy & Goldberg showed SGNS
implicitly factorizes a shifted PMI matrix): build the token
co-occurrence matrix over the same windowed sentences, weight it with
positive pointwise mutual information, and factorize with a truncated
SVD.  On small corpora this is often *more* stable than SGNS — it is
deterministic, needs no learning-rate tuning, and one pass over the
corpus suffices — which makes it a valuable third backend for the
pipeline and for the embedding ablation.

Numeric tokens are bucketed to ``<NUM>``/``<PCT>`` by default: table
corpora mint a fresh number in nearly every cell, which would blow the
vocabulary (and the co-occurrence matrix) up with singleton tokens that
carry no distributional signal beyond "I am a number".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.embeddings.vocab import Vocabulary
from repro.invariants import not_none
from repro.text import TokenKind, classify_token

if TYPE_CHECKING:
    from scipy import sparse

NUM_BUCKET = "<NUM>"
PCT_BUCKET = "<PCT>"

#: Vocabularies up to this size are factorized with a dense exact SVD.
_DENSE_SVD_MAX = 1024


def _truncated_svd(
    ppmi: sparse.csr_matrix, k: int, *, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` left singular vectors and values, deterministically.

    ARPACK (``scipy.sparse.linalg.svds``) is *not* reproducible even
    with a fixed ``v0``: its restart residuals come from an internal
    Fortran RNG whose state persists across calls within a process, so
    the second fit in a process can differ from the first.  Small
    matrices take an exact dense SVD instead (also faster there); large
    ones take seeded randomized subspace iteration, whose only
    randomness is the locally-seeded Gaussian sketch.
    """
    n = min(ppmi.shape)
    if n <= _DENSE_SVD_MAX:
        u, s, _ = np.linalg.svd(ppmi.toarray(), full_matrices=False)
        return u[:, :k], s[:k]
    rng = np.random.default_rng(seed)
    sketch = ppmi @ rng.standard_normal((ppmi.shape[1], k + 10))
    for _ in range(4):  # power iterations sharpen the top spectrum
        sketch, _ = np.linalg.qr(ppmi @ (ppmi.T @ sketch))
    q, _ = np.linalg.qr(sketch)
    u_small, s, _ = np.linalg.svd(q.T @ ppmi, full_matrices=False)
    return (q @ u_small)[:, :k], s[:k]


@dataclass(frozen=True)
class PpmiConfig:
    """Hyper-parameters for the PPMI-SVD backend."""

    dim: int = 64
    window: int = 3
    min_count: int = 2
    shift: float = 1.0  # PPMI shift (log k); 1.0 = plain PPMI
    bucket_numbers: bool = True
    eigenvalue_weighting: float = 0.5  # embed as U * S**p
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.window < 1:
            raise ValueError("dim and window must be positive")
        if self.shift < 1.0:
            raise ValueError("shift must be >= 1 (log k with k >= 1)")
        if not 0.0 <= self.eigenvalue_weighting <= 1.0:
            raise ValueError("eigenvalue_weighting must be in [0, 1]")


class PpmiSvdEmbedding:
    """Deterministic count-based embeddings: ``fit`` then ``vector``."""

    def __init__(self, config: PpmiConfig | None = None) -> None:
        self.config = config or PpmiConfig()
        self.vocab: Vocabulary | None = None
        self._vectors: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _bucket(self, token: str) -> str:
        if not self.config.bucket_numbers:
            return token
        kind = classify_token(token)
        if kind is TokenKind.PERCENT:
            return PCT_BUCKET
        if kind is TokenKind.NUMBER:
            return NUM_BUCKET
        return token

    @staticmethod
    def count_cooccurrence(
        encoded: Sequence[Sequence[int]], window: int, n: int
    ) -> sparse.csr_matrix:
        """One-directional windowed co-occurrence counts as an ``n x n`` CSR
        (integer counts in float64)."""
        # scipy is a fit-time dependency only: importing it here keeps
        # it out of every classify, serve and worker process.
        from scipy import sparse

        rows: list[int] = []
        cols: list[int] = []
        for sentence in encoded:
            length = len(sentence)
            for pos, center in enumerate(sentence):
                hi = min(length, pos + window + 1)
                for ctx_pos in range(pos + 1, hi):
                    rows.append(center)
                    cols.append(sentence[ctx_pos])
        data = np.ones(len(rows), dtype=np.float64)
        return sparse.coo_matrix(
            (data, (np.asarray(rows, dtype=np.int64),
                    np.asarray(cols, dtype=np.int64))),
            shape=(n, n),
        ).tocsr()

    def fit(self, sentences: Iterable[Sequence[str]]) -> "PpmiSvdEmbedding":
        from scipy import sparse

        corpus = [[self._bucket(t) for t in s] for s in sentences]
        vocab = Vocabulary.from_sentences(
            corpus, min_count=self.config.min_count
        )
        self.vocab = vocab
        n = len(vocab)
        if n == 0:
            return self
        encoded = [vocab.encode(s) for s in corpus]
        counts = self.count_cooccurrence(encoded, self.config.window, n)
        if counts.nnz == 0:
            self._vectors = np.zeros((n, self.config.dim))
            return self
        counts = counts + counts.T  # symmetrize

        # Shifted PPMI: max(0, log(p(w,c) / (p(w) p(c))) - log k).
        total = counts.sum()
        word_sums = np.asarray(counts.sum(axis=1)).ravel()
        coo = counts.tocoo()
        with np.errstate(divide="ignore"):
            pmi = np.log(
                (coo.data * total)
                / (word_sums[coo.row] * word_sums[coo.col])
            ) - np.log(self.config.shift)
        keep = pmi > 0
        ppmi = sparse.coo_matrix(
            (pmi[keep], (coo.row[keep], coo.col[keep])), shape=(n, n)
        ).tocsr()

        k = min(self.config.dim, min(ppmi.shape) - 1)
        if k < 1 or ppmi.nnz == 0:
            self._vectors = np.zeros((n, self.config.dim))
            return self
        u, s = _truncated_svd(ppmi, k, seed=self.config.seed)
        weighted = u * (s ** self.config.eigenvalue_weighting)
        vectors = np.zeros((n, self.config.dim))
        vectors[:, :k] = weighted
        self._vectors = vectors
        return self

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def is_fitted(self) -> bool:
        return self._vectors is not None and self.vocab is not None

    def vector(self, token: str) -> np.ndarray | None:
        """The embedding for ``token`` (numbers hit their bucket)."""
        if self.vocab is None or self._vectors is None:
            return None
        token_id = self.vocab.id_of(self._bucket(token))
        if token_id is None:
            return None
        return self._vectors[token_id]

    def batch_vectors(self, tokens: Sequence[str]) -> list[np.ndarray | None]:
        """Amortized lookup: one bucket+id pass, one row gather."""
        if self.vocab is None or self._vectors is None:
            return [None] * len(tokens)
        ids = [self.vocab.id_of(self._bucket(t)) for t in tokens]
        present = [i for i in ids if i is not None]
        rows = (
            self._vectors[np.asarray(present, dtype=np.intp)] if present else None
        )
        out: list[np.ndarray | None] = []
        cursor = 0
        for token_id in ids:
            if token_id is None:
                out.append(None)
            else:
                out.append(not_none(rows, "rows for in-vocabulary ids")[cursor])
                cursor += 1
        return out
