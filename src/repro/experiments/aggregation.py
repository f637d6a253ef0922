"""The level aggregations Sec. III-C rejects, for the aggregation ablation.

The classify plane has one level vector: the sum of the level's term
vectors (Def. 8).  The alternatives the ablation compares it with reach
the plane by subclassing, not through a configuration option:

* **mean** — :class:`MeanLevelPipeline` fits on each level's mean term
  vector (the sum over its term count) and classifies on the sum plane.
  A positive per-level scale leaves every angle unchanged, so the two
  label alike;
* **concat** — :class:`ConcatLevelPipeline` fits and classifies on the
  concatenation of each level's first ``terms`` term vectors,
  zero-padded: order-sensitive, ``terms`` times wider, and blind past
  the first terms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.embedding_plane import level_vectors
from repro.core.pipeline import MetadataPipeline, PipelineConfig
from repro.embeddings.lookup import TermEmbedder
from repro.invariants import not_none
from repro.tables.model import Table
from repro.text import tokenize_cells


def mean_level_vectors(
    embedder: TermEmbedder, levels: Sequence[Sequence[object]]
) -> np.ndarray:
    """Each level's mean term vector -> ``(len(levels), dim)``.

    The Def. 8 sum divided by the level's term count; a level without
    terms stays the zero vector.
    """
    summed = level_vectors(embedder, levels)
    counts = np.array(
        [len(tokenize_cells(cells)) for cells in levels], dtype=np.intp
    )
    occupied = counts > 0
    summed[occupied] /= counts[occupied, None]
    return summed


def first_terms_vectors(
    embedder: TermEmbedder, levels: Sequence[Sequence[object]], terms: int
) -> np.ndarray:
    """Each level's first ``terms`` term vectors, concatenated in order
    and zero-padded -> ``(len(levels), terms * dim)``.

    The distinct terms of the batch are looked up in one call.
    """
    dim = embedder.dim
    firsts = [
        [token.text for token in tokenize_cells(cells)[:terms]]
        for cells in levels
    ]
    distinct = list(dict.fromkeys(text for first in firsts for text in first))
    row_of = {text: row for row, text in enumerate(distinct)}
    vectors = embedder.resolve(distinct)
    out = np.zeros((len(levels), terms, dim))
    for index, first in enumerate(firsts):
        if first:
            out[index, : len(first)] = vectors[[row_of[text] for text in first]]
    return out.reshape(len(levels), terms * dim)


class MeanLevelPipeline(MetadataPipeline):
    """Fits on mean level vectors; classifies on the sum plane."""

    def fit_level_vectors(
        self, levels: Sequence[Sequence[object]]
    ) -> np.ndarray:
        return mean_level_vectors(not_none(self.embedder, "fitted embedder"), levels)


class ConcatLevelClassifier(MetadataClassifier):
    """Algorithm 1 over first-``terms`` concatenated level vectors."""

    def __init__(self, *args, terms: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.terms = terms

    def _level_blocks(
        self, tables: Sequence[Table]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        with obs.span("aggregate", n_tables=len(tables)):
            rows = first_terms_vectors(
                self.embedder,
                [row for table in tables for row in table.iter_rows()],
                self.terms,
            )
            cols = first_terms_vectors(
                self.embedder,
                [col for table in tables for col in table.iter_cols()],
                self.terms,
            )
            if self.projection is not None:
                rows = self.projection.transform(rows)
                cols = self.projection.transform(cols)
        row_offsets = np.zeros(len(tables) + 1, dtype=np.intp)
        col_offsets = np.zeros(len(tables) + 1, dtype=np.intp)
        np.cumsum([table.n_rows for table in tables], out=row_offsets[1:])
        np.cumsum([table.n_cols for table in tables], out=col_offsets[1:])
        return rows, cols, row_offsets, col_offsets


class ConcatLevelPipeline(MetadataPipeline):
    """Fits and classifies on first-``terms`` concatenated level vectors."""

    def __init__(
        self, config: PipelineConfig | None = None, *, terms: int
    ) -> None:
        if terms < 1:
            raise ValueError("terms must be positive")
        super().__init__(config)
        self.terms = terms

    def fit_level_vectors(
        self, levels: Sequence[Sequence[object]]
    ) -> np.ndarray:
        return first_terms_vectors(
            not_none(self.embedder, "fitted embedder"), levels, self.terms
        )

    def _new_classifier(self, config: ClassifierConfig) -> MetadataClassifier:
        return ConcatLevelClassifier(
            self.embedder, self.row_centroids, self.col_centroids,
            terms=self.terms, projection=self.projection, config=config,
        )
