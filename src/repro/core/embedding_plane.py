"""Batched level embedding for the fit side.

Centroid estimation, the contrastive projection's training pairs and
the angle diagnostics aggregate arbitrary batches of levels (Def. 8).
:func:`level_vectors` builds the whole batch from the same token-vector
store the classify plane reads:

1. every cell's global token ids come from the fused plane's per-cell
   memo (:func:`repro.core.fused._cell_token_ids`);
2. the batch's distinct ids are backed by the embedder's id-indexed
   float32 row cache (:class:`repro.core.fused._TokenRowCache`), which
   resolves only the ids it has not seen;
3. one segment sum (:func:`repro.core.fused._indexed_segment_sum`)
   adds every level's token rows.

The result is the scalar :func:`~repro.core.aggregate.aggregate_level`
summation in float32, returned as float64.  A full global vocabulary
falls back to the scalar implementation.  Classification itself runs
on :mod:`repro.core.fused`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.aggregate import aggregate_level
from repro.core.fused import _cell_token_ids, _id_rows, _indexed_segment_sum
from repro.embeddings.lookup import TermEmbedder


def level_vectors(
    embedder: TermEmbedder, levels: Sequence[Sequence[object]]
) -> np.ndarray:
    """Aggregate an arbitrary batch of levels -> ``(len(levels), dim)``.

    The batched analogue of calling
    :func:`~repro.core.aggregate.aggregate_level` in a loop — centroid
    estimation, contrastive-pair construction and the diagnostics hand
    their bootstrap level subsets here so the whole batch shares one
    row-cache lookup and one segment sum.
    """
    if not levels:
        return np.empty((0, embedder.dim))

    with obs.span("embed.levels", n_levels=len(levels)):
        parts: list[np.ndarray] = []
        lengths = np.zeros(len(levels), dtype=np.intp)
        for index, cells in enumerate(levels):
            n_tokens = 0
            for cell in cells:
                text = cell if isinstance(cell, str) else "" if cell is None else str(cell)
                ids = _cell_token_ids(text)
                if ids is None:  # the global vocabulary is full
                    return np.stack(
                        [aggregate_level(embedder, level) for level in levels]
                    )
                parts.append(ids)
                n_tokens += ids.size
            lengths[index] = n_tokens

        if not lengths.any():
            return np.zeros((len(levels), embedder.dim))
        occ_toks = np.concatenate(parts)
        rows, occ_idx = _id_rows(embedder, np.unique(occ_toks), occ_toks)
        return _indexed_segment_sum(
            rows, occ_idx, lengths, len(levels)
        ).astype(np.float64)
