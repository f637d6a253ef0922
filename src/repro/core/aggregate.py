"""Aggregated level vectors (Def. 8), computed level by level.

A level (row or column) becomes one vector: the summation of the
embedding vectors of all its terms.  The paper explicitly chooses
summation over concatenation (Sec. III-C) for dimensionality and cost.
The batched planes (:mod:`repro.core.fused`,
:mod:`repro.core.embedding_plane`) compute the same sums; these
per-token functions are the reference they are tested against
(:func:`repro.core.classifier.reference_classify`).  The rejected
alternatives live in :mod:`repro.experiments.aggregation`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table
from repro.text import tokenize_cells


def aggregate_level(embedder: TermEmbedder, cells: Sequence[object]) -> np.ndarray:
    """One level (sequence of cells) -> the sum of its term vectors.

    Empty levels yield the zero vector, which the angle layer treats as
    "no direction" (90 degrees to everything).
    """
    matrix = embedder.embed_tokens(tokenize_cells(cells))
    if matrix.shape[0] == 0:
        return np.zeros(embedder.dim)
    return matrix.sum(axis=0)


def aggregate_rows(embedder: TermEmbedder, table: Table) -> np.ndarray:
    """Aggregated vectors for every row -> ``(n_rows, d)``."""
    if table.n_rows == 0:
        return np.empty((0, embedder.dim))
    return np.stack([aggregate_level(embedder, row) for row in table.iter_rows()])


def aggregate_cols(embedder: TermEmbedder, table: Table) -> np.ndarray:
    """Aggregated vectors for every column -> ``(n_cols, d)``."""
    if table.n_cols == 0:
        return np.empty((0, embedder.dim))
    return np.stack([aggregate_level(embedder, col) for col in table.iter_cols()])
