"""Batched level embedding for the fit side.

Centroid estimation and the contrastive projection's training pairs
aggregate arbitrary batches of bootstrap levels (Def. 8).
:func:`level_vectors` builds the whole batch in one pass instead of one
:func:`~repro.core.aggregate.aggregate_level` call per level:

1. read every cell's tokens through the fused plane's per-cell memo
   (:func:`repro.core.fused.cell_token_texts`), recording
   ``(level, token_id)`` occurrence pairs against a batch-local
   unique-token id space;
2. resolve the unique tokens with a single batched
   :meth:`~repro.embeddings.lookup.TermEmbedder.vectors` call;
3. scatter the occurrences into a per-level token-count matrix and
   produce every level aggregate with one count x vector matmul (sparse
   when the count matrix would be big).

The result is numerically the same summation as the scalar path (up to
floating-point re-association).  Modes the batched path cannot express
(``concat``, contextual encoders) fall back to the scalar
implementation.  Classification itself runs on :mod:`repro.core.fused`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.core.aggregate import (
    AggregationConfig,
    DEFAULT_AGGREGATION,
    aggregate_level,
)
from repro import obs
from repro.core.fused import cell_token_texts, supports_fast_path
from repro.embeddings.lookup import TermEmbedder

#: Above this many count-matrix entries, scatter through scipy.sparse
#: instead of a dense bincount reshape (memory, not speed).
_DENSE_COUNT_LIMIT = 1 << 22


def _counts_matmul(
    level_idx: np.ndarray,
    token_idx: np.ndarray,
    n_levels: int,
    vectors: np.ndarray,
) -> np.ndarray:
    """Sum ``vectors[token]`` into its level -> ``(n_levels, dim)``.

    Dense path: bincount the flattened (level, token) pairs into a count
    matrix and matmul.  Large batches go through a scipy COO matrix so
    the count matrix never materializes densely.
    """
    n_unique = vectors.shape[0]
    if n_levels * n_unique <= _DENSE_COUNT_LIMIT:
        counts = np.bincount(
            level_idx * n_unique + token_idx, minlength=n_levels * n_unique
        ).reshape(n_levels, n_unique)
        return counts.astype(vectors.dtype) @ vectors
    counts = sparse.coo_matrix(
        (np.ones(level_idx.size, dtype=vectors.dtype), (level_idx, token_idx)),
        shape=(n_levels, n_unique),
    ).tocsr()
    return np.asarray(counts @ vectors)


def level_vectors(
    embedder: TermEmbedder,
    levels: Sequence[Sequence[object]],
    config: AggregationConfig = DEFAULT_AGGREGATION,
) -> np.ndarray:
    """Aggregate an arbitrary batch of levels -> ``(len(levels), dim)``.

    The batched analogue of calling
    :func:`~repro.core.aggregate.aggregate_level` in a loop — centroid
    estimation and contrastive-pair construction hand their bootstrap
    level subsets here so the whole batch shares one unique-token lookup.
    """
    if not levels:
        return np.empty((0, embedder.dim))
    if not supports_fast_path(embedder, config):
        return np.stack(
            [aggregate_level(embedder, cells, config) for cells in levels]
        )

    with obs.span("embed.levels", n_levels=len(levels)):
        token_ids: dict[str, int] = {}
        occ_levels: list[int] = []
        occ_toks: list[int] = []
        for index, cells in enumerate(levels):
            for cell in cells:
                text = cell if isinstance(cell, str) else "" if cell is None else str(cell)
                for token_text in cell_token_texts(text, config.lowercase):
                    occ_levels.append(index)
                    occ_toks.append(token_ids.setdefault(token_text, len(token_ids)))

        if not occ_toks:
            return np.zeros((len(levels), embedder.dim))
        vectors = embedder.vectors(list(token_ids))
        levels_arr = np.asarray(occ_levels, dtype=np.intp)
        toks_arr = np.asarray(occ_toks, dtype=np.intp)
        summed = _counts_matmul(levels_arr, toks_arr, len(levels), vectors)
        if config.mode == "mean":
            totals = np.bincount(levels_arr, minlength=len(levels))
            occupied = totals > 0
            summed[occupied] /= totals[occupied, None]
        return summed
