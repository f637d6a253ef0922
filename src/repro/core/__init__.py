"""The paper's primary contribution: contrastive metadata classification.

Pipeline stages (Fig. 2 of the paper):

1. term embeddings (``repro.embeddings``) ->
2. aggregated level vectors (:mod:`repro.core.aggregate`, Def. 8) ->
3. centroid angle ranges bootstrapped from HTML markup
   (:mod:`repro.core.bootstrap`, :mod:`repro.core.centroids`,
   Defs. 11-13) ->
4. contrastive Siamese refinement (:mod:`repro.core.contrastive`,
   Fig. 4) ->
5. angle-based row/column classification with depth
   (:mod:`repro.core.classifier`, Algorithm 1).

:class:`~repro.core.pipeline.MetadataPipeline` wires the stages into the
public ``fit(corpus)`` / ``classify(table)`` API.
"""

from repro.core.angles import (
    AngleRange,
    angle_between,
    angle_matrix,
    cosine_similarity,
    euclidean_distance,
    jaccard_similarity,
)
from repro.core.aggregate import (
    aggregate_cols,
    aggregate_level,
    aggregate_rows,
)
from repro.core.bootstrap import (
    BootstrapLabels,
    bootstrap_corpus,
    bootstrap_first_level,
    bootstrap_from_html,
)
from repro.core.centroids import CentroidSet, LevelAngleStats, estimate_centroids
from repro.core.embedding_plane import level_vectors
from repro.core.classifier import (
    ClassificationResult,
    LevelEvidence,
    MetadataClassifier,
)
from repro.core.contrastive import ContrastiveConfig, ContrastiveProjection, build_pairs
from repro.core.metrics import (
    binary_metadata_accuracy,
    confusion_counts,
    evaluate_corpus,
    level_accuracy,
)
from repro.core.diagnostics import (
    angle_spectrum,
    render_spectrum,
    separability_report,
)
from repro.core.orientation import classify_oriented, detect_orientation
from repro.core.persistence import load_pipeline, save_pipeline
from repro.core.selftrain import refine_self_training
from repro.core.pipeline import HybridClassifier, MetadataPipeline, PipelineConfig

__all__ = [
    "AngleRange",
    "BootstrapLabels",
    "CentroidSet",
    "ClassificationResult",
    "ContrastiveConfig",
    "ContrastiveProjection",
    "HybridClassifier",
    "LevelAngleStats",
    "LevelEvidence",
    "MetadataClassifier",
    "MetadataPipeline",
    "PipelineConfig",
    "aggregate_cols",
    "aggregate_level",
    "aggregate_rows",
    "angle_between",
    "angle_matrix",
    "angle_spectrum",
    "binary_metadata_accuracy",
    "bootstrap_corpus",
    "bootstrap_first_level",
    "bootstrap_from_html",
    "build_pairs",
    "classify_oriented",
    "detect_orientation",
    "confusion_counts",
    "cosine_similarity",
    "estimate_centroids",
    "euclidean_distance",
    "evaluate_corpus",
    "jaccard_similarity",
    "level_accuracy",
    "level_vectors",
    "load_pipeline",
    "refine_self_training",
    "render_spectrum",
    "save_pipeline",
    "separability_report",
]
