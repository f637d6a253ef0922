"""Self-training refinement: re-bootstrap from the classifier's output.

The markup bootstrap (Sec. III-B) is noisy and, for SAUS/CIUS, limited
to the first row/column — so the initial centroid ranges never see a
depth-2+ metadata pair on those corpora and the per-level statistics of
Tables I/IV stay empty.  A natural extension (in the spirit of the
paper's "hybrid solution" pragmatism): after the first fit, classify
the *training* corpus with the fitted classifier, treat its predictions
as a second-generation bootstrap, and re-estimate the centroids.  The
second pass sees full-depth labels everywhere the first-pass classifier
was right, which tightens the ranges and populates the deep-level
statistics — while still never touching ground truth.

``refine_self_training(pipeline, corpus)`` returns a **new** pipeline
sharing the embedder/projection but carrying second-generation
centroids; the original is untouched so callers can compare.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bootstrap import BootstrapLabels
from repro.invariants import not_none
from repro.core.centroids import estimate_centroids
from repro.core.classifier import MetadataClassifier
from repro.core.pipeline import MetadataPipeline
from repro.tables.labels import LevelKind
from repro.tables.model import AnnotatedTable, Table


def predicted_bootstrap(
    classifier: MetadataClassifier, table: Table
) -> BootstrapLabels:
    """The classifier's prediction, reshaped as weak bootstrap labels."""
    annotation = classifier.classify(table)
    row_kinds = tuple(
        LevelKind.HMD
        if label.kind in (LevelKind.HMD, LevelKind.CMD)
        else LevelKind.DATA
        for label in annotation.row_labels
    )
    col_kinds = tuple(
        LevelKind.VMD if label.kind is LevelKind.VMD else LevelKind.DATA
        for label in annotation.col_labels
    )
    return BootstrapLabels(table, row_kinds, col_kinds)


def refine_self_training(
    pipeline: MetadataPipeline,
    corpus: Sequence[AnnotatedTable | Table],
    *,
    iterations: int = 1,
) -> MetadataPipeline:
    """One or more self-training passes over ``corpus``.

    Ground-truth annotations on corpus items are ignored (as in
    ``fit``); only the tables are read.  Embeddings and the contrastive
    projection are reused unchanged — re-training them on self-labels
    would compound errors, whereas centroid ranges are robust summary
    statistics.
    """
    if not pipeline.is_fitted:
        raise ValueError("self-training needs a fitted pipeline")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    embedder = not_none(pipeline.embedder, "fitted pipeline's embedder")

    tables = [
        item.table if isinstance(item, AnnotatedTable) else item
        for item in corpus
    ]
    if not tables:
        raise ValueError("cannot self-train on an empty corpus")

    refined = MetadataPipeline(pipeline.config)
    refined.embedder = embedder
    refined.projection = pipeline.projection
    classifier = not_none(pipeline.classifier, "fitted pipeline's classifier")
    transform = (
        pipeline.projection.transform if pipeline.projection is not None else None
    )

    for _ in range(iterations):
        labeled = [predicted_bootstrap(classifier, table) for table in tables]
        refined.row_centroids = estimate_centroids(
            pipeline.fit_level_vectors,
            labeled,
            axis="rows",
            transform=transform,
            seed=pipeline.config.seed,
        )
        refined.col_centroids = estimate_centroids(
            pipeline.fit_level_vectors,
            labeled,
            axis="cols",
            transform=transform,
            seed=pipeline.config.seed,
        )
        classifier = MetadataClassifier(
            embedder,
            refined.row_centroids,
            refined.col_centroids,
            projection=pipeline.projection,
            config=classifier.config,
        )
    refined.classifier = classifier
    return refined
