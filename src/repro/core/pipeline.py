"""End-to-end pipeline: fit on an unlabeled corpus, classify tables.

``fit`` performs the paper's training phase (Fig. 2): train term
embeddings on the corpus, bootstrap weak labels from HTML markup (or the
first-row/column fallback), contrastively refine the level space, and
estimate centroid ranges.  Ground-truth annotations attached to corpus
items are **never read** — the pipeline is unsupervised end to end.

``classify`` runs Algorithm 1 on a new table, returning its full
:class:`~repro.tables.labels.TableAnnotation`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.bootstrap import (
    BootstrapLabels,
    bootstrap_corpus,
    bootstrap_first_level,
)
from repro.core.centroids import CentroidSet, estimate_centroids
from repro.core.classifier import (
    ClassificationResult,
    ClassifierConfig,
    MetadataClassifier,
)
from repro.core.contrastive import (
    ContrastiveConfig,
    ContrastiveProjection,
    build_pairs,
)
from repro.core.embedding_plane import level_vectors
from repro import obs
from repro.embeddings.contextual import ContextualConfig, ContextualEncoder
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder, corpus_mean_vector
from repro.embeddings.ppmi import PpmiConfig, PpmiSvdEmbedding
from repro.embeddings.sentences import sentences_from_tables
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.invariants import not_none
from repro.tables.labels import TableAnnotation
from repro.tables.model import AnnotatedTable, Table
from repro.text import numeric_fraction

_EPS = 1e-12

logger = logging.getLogger("repro.core.pipeline")

#: Signature of a per-stage timing hook: ``hook(stage_name, seconds)``.
StageHook = Callable[[str, float], None]


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the full pipeline.

    ``embedding`` selects the backend: ``"word2vec"`` (the paper's fast
    path), ``"ppmi"`` (count-based PPMI+SVD — deterministic and quick),
    ``"contextual"`` (the BioBERT-substitute encoder), or ``"hashed"``
    (training-free; tests and ablations).

    ``bootstrap`` selects the weak-label source: ``"html"`` uses markup
    when a corpus item carries it (falling back per-table), while
    ``"first_level"`` forces the SAUS/CIUS fallback everywhere.
    """

    embedding: str = "word2vec"
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    contextual: ContextualConfig = field(default_factory=ContextualConfig)
    ppmi: PpmiConfig = field(default_factory=PpmiConfig)
    hashed_dim: int = 64
    hashed_fields: Mapping[str, str] | None = None
    bootstrap: str = "html"
    use_contrastive: bool = True
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    n_pairs: int = 2000
    classifier: ClassifierConfig | None = None
    centroid_trim: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding not in ("word2vec", "contextual", "ppmi", "hashed"):
            raise ValueError(f"unknown embedding backend {self.embedding!r}")
        if self.bootstrap not in ("html", "first_level"):
            raise ValueError(f"unknown bootstrap source {self.bootstrap!r}")
        if self.n_pairs < 4:
            raise ValueError("n_pairs must be at least 4")


@dataclass
class FitReport:
    """Wall-clock breakdown of the training phase (Sec. IV-G)."""

    n_tables: int = 0
    embedding_seconds: float = 0.0
    bootstrap_seconds: float = 0.0
    contrastive_seconds: float = 0.0
    centroid_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.embedding_seconds
            + self.bootstrap_seconds
            + self.contrastive_seconds
            + self.centroid_seconds
        )


class MetadataPipeline:
    """Public API: ``fit(corpus)`` then ``classify(table)``.

    Every level vector ``fit`` aggregates comes from
    :meth:`fit_level_vectors`, and the classifier from
    :meth:`_new_classifier`; the aggregation ablations
    (:mod:`repro.experiments.aggregation`) subclass these two.
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.embedder: TermEmbedder | None = None
        self.projection: ContrastiveProjection | None = None
        self.row_centroids: CentroidSet | None = None
        self.col_centroids: CentroidSet | None = None
        self.classifier: MetadataClassifier | None = None
        self.fit_report: FitReport | None = None
        #: Observers called with ``(stage, seconds)`` after every timed
        #: fit stage and every ``classify`` call.  Multi-subscriber: the
        #: serving layer's metrics recorder and any caller-installed
        #: observer (tests, tracers) compose instead of clobbering each
        #: other — install with :meth:`add_stage_hook`.
        self._stage_hooks: list[StageHook] = []

    def add_stage_hook(self, hook: StageHook) -> None:
        """Subscribe ``hook`` to stage timings (idempotent per hook)."""
        if hook not in self._stage_hooks:
            self._stage_hooks.append(hook)

    def remove_stage_hook(self, hook: StageHook) -> None:
        """Unsubscribe ``hook``; unknown hooks are ignored."""
        if hook in self._stage_hooks:
            self._stage_hooks.remove(hook)

    def _emit_stage(self, stage: str, seconds: float) -> None:
        logger.debug("stage %s took %.4fs", stage, seconds)
        for hook in self._stage_hooks:
            hook(stage, seconds)

    # ------------------------------------------------------------------
    # training phase
    # ------------------------------------------------------------------
    def fit(self, corpus: Sequence[AnnotatedTable | Table]) -> "MetadataPipeline":
        """Fit embeddings, centroids, and the contrastive projection.

        Accepts :class:`AnnotatedTable` items (their HTML markup feeds
        the bootstrap; their ground-truth labels are ignored) or bare
        :class:`Table` objects (first-row/column bootstrap only).
        """
        if not corpus:
            raise ValueError("cannot fit on an empty corpus")
        logger.info(
            "fit: %d tables, embedding=%s bootstrap=%s",
            len(corpus), self.config.embedding, self.config.bootstrap,
        )
        report = FitReport(n_tables=len(corpus))
        tables = [
            item.table if isinstance(item, AnnotatedTable) else item
            for item in corpus
        ]

        with obs.span("fit", n_tables=len(corpus),
                      embedding=self.config.embedding):
            start = time.perf_counter()
            with obs.span("fit.embedding"):
                self.embedder = self._fit_embeddings(tables)
            report.embedding_seconds = time.perf_counter() - start
            self._emit_stage("fit.embedding", report.embedding_seconds)

            start = time.perf_counter()
            with obs.span("fit.bootstrap"):
                labeled = self._bootstrap(corpus)
            report.bootstrap_seconds = time.perf_counter() - start
            self._emit_stage("fit.bootstrap", report.bootstrap_seconds)

            start = time.perf_counter()
            with obs.span("fit.contrastive"):
                self.projection = (
                    self._fit_projection(labeled)
                    if self.config.use_contrastive
                    else None
                )
            report.contrastive_seconds = time.perf_counter() - start
            self._emit_stage("fit.contrastive", report.contrastive_seconds)

            start = time.perf_counter()
            transform = self.projection.transform if self.projection else None
            with obs.span("fit.centroids"):
                self.row_centroids = estimate_centroids(
                    self.fit_level_vectors,
                    labeled,
                    axis="rows",
                    trim=self.config.centroid_trim,
                    transform=transform,
                    seed=self.config.seed,
                )
                self.col_centroids = estimate_centroids(
                    self.fit_level_vectors,
                    labeled,
                    axis="cols",
                    trim=self.config.centroid_trim,
                    transform=transform,
                    seed=self.config.seed,
                )
            report.centroid_seconds = time.perf_counter() - start
            self._emit_stage("fit.centroids", report.centroid_seconds)

        self.classifier = self._new_classifier(
            self.config.classifier or ClassifierConfig()
        )
        self.fit_report = report
        logger.info(
            "fit done in %.2fs (embedding %.2fs, bootstrap %.2fs, "
            "contrastive %.2fs, centroids %.2fs)",
            report.total_seconds, report.embedding_seconds,
            report.bootstrap_seconds, report.contrastive_seconds,
            report.centroid_seconds,
        )
        return self

    def fit_level_vectors(
        self, levels: Sequence[Sequence[object]]
    ) -> np.ndarray:
        """The fit side's level vectors (Def. 8) -> ``(len(levels), dim)``.

        The sum of each level's term vectors, in the embedding space
        before any projection; the contrastive pairs and both centroid
        estimates read every level through here.
        """
        return level_vectors(not_none(self.embedder, "fitted embedder"), levels)

    def _new_classifier(self, config: ClassifierConfig) -> MetadataClassifier:
        """The fitted parts as a classifier (the sum plane)."""
        return MetadataClassifier(
            self.embedder, self.row_centroids, self.col_centroids,
            projection=self.projection, config=config,
        )

    def _fit_embeddings(self, tables: Sequence[Table]) -> TermEmbedder:
        backend = self.config.embedding
        if backend == "hashed":
            model = HashedEmbedding(
                self.config.hashed_dim, fields=self.config.hashed_fields
            )
            return TermEmbedder(model)
        sentences = list(sentences_from_tables(tables))
        model: Word2Vec | ContextualEncoder | PpmiSvdEmbedding
        if backend == "word2vec":
            model = Word2Vec(self.config.word2vec)
        elif backend == "ppmi":
            model = PpmiSvdEmbedding(self.config.ppmi)
        else:
            model = ContextualEncoder(self.config.contextual)
        model.fit(sentences)
        return TermEmbedder(model, centering=corpus_mean_vector(model))

    def _bootstrap(
        self, corpus: Sequence[AnnotatedTable | Table]
    ) -> list[BootstrapLabels]:
        if self.config.bootstrap == "first_level":
            return [
                bootstrap_first_level(
                    item.table if isinstance(item, AnnotatedTable) else item
                )
                for item in corpus
            ]
        return bootstrap_corpus(corpus)

    def _fit_projection(
        self, labeled: Sequence[BootstrapLabels]
    ) -> ContrastiveProjection | None:
        # Collect every bootstrap level first, then aggregate the whole
        # corpus batch through one vectorized embedding-plane call.
        meta_levels: list[Sequence[str]] = []
        data_levels: list[Sequence[str]] = []
        for item in labeled:
            for i in item.metadata_row_indices:
                meta_levels.append(item.table.row(i))
            for j in item.metadata_col_indices:
                meta_levels.append(item.table.col(j))
            for i in item.data_row_indices[:10]:
                data_levels.append(item.table.row(i))
        meta_matrix = self.fit_level_vectors(meta_levels)
        data_matrix = self.fit_level_vectors(data_levels)
        meta_vectors = [v for v in meta_matrix if np.linalg.norm(v) > _EPS]
        data_vectors = [v for v in data_matrix if np.linalg.norm(v) > _EPS]
        if len(meta_vectors) < 2 or len(data_vectors) < 2:
            return None  # not enough bootstrap signal to refine
        pairs = build_pairs(
            meta_vectors,
            data_vectors,
            n_pairs=self.config.n_pairs,
            seed=self.config.seed,
        )
        dim = meta_vectors[0].shape[0]
        projection = ContrastiveProjection(dim, self.config.contrastive)
        projection.fit(pairs)
        return projection

    # ------------------------------------------------------------------
    # classification phase
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self.classifier is not None

    def _require_fitted(self) -> MetadataClassifier:
        if self.classifier is None:
            raise RuntimeError("pipeline is not fitted; call fit(corpus) first")
        return self.classifier

    def classify(self, table: Table) -> TableAnnotation:
        """Run Algorithm 1 on one table (requires a fitted pipeline)."""
        classifier = self._require_fitted()
        start = time.perf_counter()
        annotation = classifier.classify(table)
        self._emit_stage("classify", time.perf_counter() - start)
        return annotation

    def classify_result(self, table: Table) -> ClassificationResult:
        """Classify with full per-level evidence (Fig. 5 annotations)."""
        classifier = self._require_fitted()
        start = time.perf_counter()
        result = classifier.classify_result(table)
        self._emit_stage("classify", time.perf_counter() - start)
        return result

    def classify_corpus(
        self, tables: Sequence[Table]
    ) -> list[TableAnnotation]:
        """Classify a batch of tables with the fitted classifier.

        Delegates to :meth:`MetadataClassifier.classify_corpus`, which
        fuses the whole batch into one corpus shard.  Every table still emits
        a ``classify`` stage timing — the shard's wall time amortized
        evenly — so bulk runs show up in serve metrics exactly like
        single-table requests.
        """
        classifier = self._require_fitted()
        tables = list(tables)
        if not tables:
            return []
        start = time.perf_counter()
        annotations = classifier.classify_corpus(tables)
        per_table = (time.perf_counter() - start) / len(tables)
        for _ in tables:
            self._emit_stage("classify", per_table)
        return annotations


# ---------------------------------------------------------------------------
# the hybrid solution (Sec. IV-G)
# ---------------------------------------------------------------------------

def looks_relational(
    table: Table, *, header_numeric_max: float = 0.2, body_numeric_min: float = 0.5
) -> bool:
    """Cheap test for "simple relational table with one HMD level".

    First row mostly textual, body rows mostly numeric, and no blank
    continuation cells in the first column (the hierarchical VMD cue).
    """
    if table.n_rows < 2 or table.n_cols == 0:
        return False
    if numeric_fraction(table.row(0)) > header_numeric_max:
        return False
    body = [table.row(i) for i in range(1, table.n_rows)]
    body_numeric = [numeric_fraction(row) for row in body]
    if not body_numeric or float(np.mean(body_numeric)) < body_numeric_min:
        return False
    first_col_body = [row[0] for row in body]
    blanks = sum(1 for c in first_col_body if not c)
    return blanks == 0


def _relational_annotation(table: Table) -> TableAnnotation:
    """The cheap path's output: HMD level 1 on top, everything else data."""
    return TableAnnotation.from_depths(
        table.n_rows, table.n_cols, hmd_depth=min(1, table.n_rows)
    )


class HybridClassifier:
    """Sec. IV-G's hybrid: cheap path for relational tables, full
    pipeline for generally structured ones.

    ``fast_classify`` defaults to the single-header relational
    annotation; pass a baseline (e.g. Pytheas) for a closer reproduction
    of "first apply SOTA techniques to identify metadata in simpler
    relational tables".
    """

    def __init__(
        self,
        pipeline: MetadataPipeline,
        *,
        fast_classify: Callable[[Table], TableAnnotation] | None = None,
        is_relational: Callable[[Table], bool] = looks_relational,
    ) -> None:
        if not pipeline.is_fitted:
            raise ValueError("the hybrid classifier needs a fitted pipeline")
        self.pipeline = pipeline
        self.fast_classify = fast_classify or _relational_annotation
        self.is_relational = is_relational
        self.fast_path_count = 0
        self.full_path_count = 0

    def classify(self, table: Table) -> TableAnnotation:
        """Route to the cheap relational path or the full pipeline."""
        if self.is_relational(table):
            self.fast_path_count += 1
            return self.fast_classify(table)
        self.full_path_count += 1
        return self.pipeline.classify(table)
