"""Aggregated level vectors (Def. 8).

A level (row or column) becomes one vector: the summation of the
embedding vectors of all its terms.  The paper explicitly chooses
summation over concatenation (Sec. III-C) for dimensionality and cost;
both are implemented here so the ablation bench can quantify the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table
from repro.text import tokenize_cells

_EPS = 1e-12


@dataclass(frozen=True)
class AggregationConfig:
    """How term embeddings combine into one level vector.

    ``mode``:
      * ``"sum"``   — the paper's choice (Def. 8);
      * ``"mean"``  — length-normalized variant (identical angles to sum,
        kept for numeric-stability comparisons on very wide levels);
      * ``"concat"`` — concatenation of the first ``concat_terms`` term
        vectors, zero-padded (the rejected alternative, for ablation).

    ``contextual`` — when the backend is a
    :class:`~repro.embeddings.contextual.ContextualEncoder`, aggregate
    its context-aware vectors instead of static lookups.

    ``lowercase`` — the tokenizer setting used when cells are split into
    terms (see :func:`repro.text.tokenize`).  Part of the aggregation
    config so the fused plane and the level-by-level reference
    tokenize the same way, and so caches can key on it.
    """

    mode: str = "sum"
    concat_terms: int = 8
    contextual: bool = False
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("sum", "mean", "concat"):
            raise ValueError(f"unknown aggregation mode {self.mode!r}")
        if self.concat_terms < 1:
            raise ValueError("concat_terms must be positive")


DEFAULT_AGGREGATION = AggregationConfig()


def aggregate_level(
    embedder: TermEmbedder,
    cells: Sequence[object],
    config: AggregationConfig = DEFAULT_AGGREGATION,
) -> np.ndarray:
    """One level (sequence of cells) -> one vector.

    Empty levels yield the zero vector, which the angle layer treats as
    "no direction" (90 degrees to everything).
    """
    tokens = tokenize_cells(cells, lowercase=config.lowercase)
    if config.contextual and hasattr(embedder.model, "encode_sentence"):
        matrix = embedder.model.encode_sentence([t.text for t in tokens])
        if matrix.shape[0] == 0:
            # All tokens OOV for the encoder: fall back to static lookup.
            matrix = embedder.embed_tokens(tokens)
    else:
        matrix = embedder.embed_tokens(tokens)

    if config.mode == "concat":
        k = config.concat_terms
        dim = matrix.shape[1] if matrix.size else embedder.dim
        out = np.zeros(k * dim)
        take = matrix[:k]
        if take.size:
            out[: take.size] = take.reshape(-1)
        return out

    if matrix.shape[0] == 0:
        return np.zeros(embedder.dim)
    summed = matrix.sum(axis=0)
    if config.mode == "mean":
        return summed / matrix.shape[0]
    return summed


def aggregate_rows(
    embedder: TermEmbedder,
    table: Table,
    config: AggregationConfig = DEFAULT_AGGREGATION,
) -> np.ndarray:
    """Aggregated vectors for every row -> ``(n_rows, d)``."""
    if table.n_rows == 0:
        return np.empty((0, embedder.dim))
    return np.stack(
        [aggregate_level(embedder, row, config) for row in table.iter_rows()]
    )


def aggregate_cols(
    embedder: TermEmbedder,
    table: Table,
    config: AggregationConfig = DEFAULT_AGGREGATION,
) -> np.ndarray:
    """Aggregated vectors for every column -> ``(n_cols, d)``."""
    if table.n_cols == 0:
        return np.empty((0, embedder.dim))
    return np.stack(
        [aggregate_level(embedder, col, config) for col in table.iter_cols()]
    )
