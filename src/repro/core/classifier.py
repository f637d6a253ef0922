"""Algorithm 1: metadata classification in generally structured tables.

The classifier walks the table's rows top-down (then its columns
left-to-right) and, for each level, measures

* the angle to the previous level (the paper's Δ), and
* the angles to the bootstrap reference metadata/data aggregates
  (``row_mref``/``row_dref`` in Sec. III-D.1),

then assigns HMD/CMD/DATA (rows) or VMD/DATA (columns) by testing which
centroid range the angles fall into.  Membership decides when it is
unambiguous; when an angle falls in none of the (possibly overlapping)
ranges, the nearest-reference comparison breaks the tie — the same
fallback the paper uses for the very first row.

Every decision is recorded as a :class:`LevelEvidence` so experiments
can render the annotated example of the paper's Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.aggregate import AggregationConfig, aggregate_cols, aggregate_rows
from repro.core.angles import AngleRange, angle_between, segmented_walk_angles
from repro import obs
from repro.core import fused
from repro.core.centroids import CentroidSet
from repro.core.contrastive import ContrastiveProjection
from repro.embeddings.lookup import TermEmbedder
from repro.invariants import not_none
from repro.tables.labels import LevelKind, LevelLabel, TableAnnotation
from repro.tables.model import Table


@dataclass(frozen=True)
class ClassifierConfig:
    """Knobs for Algorithm 1."""

    max_hmd_depth: int = 5  # deepest HMD the paper observes
    max_vmd_depth: int = 3  # deepest VMD the paper observes
    detect_cmd: bool = True  # central metadata rows (rows only)
    range_margin: float = 2.0  # degrees of slack on centroid ranges
    ref_slack: float = 10.0  # reference-angle tolerance in overlap ties
    ref_override: float = 10.0  # min ref-angle gap to overrule a range hit
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)

    def __post_init__(self) -> None:
        if self.max_hmd_depth < 1 or self.max_vmd_depth < 1:
            raise ValueError("depth limits must be positive")
        if self.range_margin < 0:
            raise ValueError("range_margin cannot be negative")


# Labels are frozen value objects and the walk emits thousands per
# corpus batch; a tiny interning table skips the dataclass construction
# (and its __post_init__ validation) for the handful of distinct values.
# Races just build an equal instance twice — dict writes are atomic.
_LABEL_CACHE: dict[tuple[LevelKind, int], LevelLabel] = {}


def _label(kind: LevelKind, level: int) -> LevelLabel:
    key = (kind, level)
    cached = _LABEL_CACHE.get(key)
    if cached is None:
        cached = LevelLabel(kind, level)
        _LABEL_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class LevelEvidence:
    """Why one level got its label (consumed by Fig. 5 rendering)."""

    index: int
    label: LevelLabel
    angle_to_prev: float | None  # Δ vs the previous level; None at index 0
    angle_to_meta_ref: float
    angle_to_data_ref: float
    rule: str  # human-readable decision rule


@dataclass(frozen=True)
class ClassificationResult:
    """Full classifier output for one table."""

    table: Table
    annotation: TableAnnotation
    row_evidence: tuple[LevelEvidence, ...]
    col_evidence: tuple[LevelEvidence, ...]

    @property
    def hmd_depth(self) -> int:
        return self.annotation.hmd_depth

    @property
    def vmd_depth(self) -> int:
        return self.annotation.vmd_depth


class MetadataClassifier:
    """Angle-based row/column classifier over fitted centroids."""

    def __init__(
        self,
        embedder: TermEmbedder,
        row_centroids: CentroidSet,
        col_centroids: CentroidSet,
        *,
        projection: ContrastiveProjection | None = None,
        config: ClassifierConfig | None = None,
    ) -> None:
        self.embedder = embedder
        self.row_centroids = row_centroids
        self.col_centroids = col_centroids
        self.projection = projection
        self.config = config or ClassifierConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def classify(self, table: Table) -> TableAnnotation:
        """Classify every row/column of ``table``; labels only.

        Skips the per-level evidence records (and their rule strings) —
        the serving hot path only needs the annotation.  Use
        :meth:`classify_result` when the Fig. 5 evidence matters.
        """
        return self.classify_corpus([table])[0]

    def classify_result(self, table: Table) -> ClassificationResult:
        """Classify with full per-level evidence (Fig. 5 annotations)."""
        [(annotation, row_evidence, col_evidence)] = self._classify(
            [table], with_evidence=True
        )
        return ClassificationResult(
            table=table,
            annotation=annotation,
            row_evidence=row_evidence,
            col_evidence=col_evidence,
        )

    def classify_corpus(self, tables: Sequence[Table]) -> list[TableAnnotation]:
        """Classify a whole batch as one fused shard (labels only)."""
        tables = list(tables)
        if not tables:
            return []
        return [
            annotation
            for annotation, _, _ in self._classify(tables, with_evidence=False)
        ]

    def _classify(
        self, tables: list[Table], *, with_evidence: bool
    ) -> list[
        tuple[TableAnnotation, tuple[LevelEvidence, ...], tuple[LevelEvidence, ...]]
    ]:
        """Algorithm 1 over every row and column of a shard of tables.

        :func:`repro.core.fused.level_blocks` builds every level vector
        of the shard; one batched angle pass then feeds the decision
        walk of each table's axes.
        """
        config = self.config
        row_centroids, col_centroids = self.row_centroids, self.col_centroids
        with obs.span("classify", n_tables=len(tables), fused=True):
            row_matrix, col_matrix, row_offsets, col_offsets = (
                fused.level_blocks(self, tables)
            )
            with obs.span("fused.walk"):
                row_segments = segmented_walk_angles(
                    row_matrix,
                    row_centroids.meta_ref,
                    row_centroids.data_ref,
                    row_offsets,
                )
                col_segments = segmented_walk_angles(
                    col_matrix,
                    col_centroids.meta_ref,
                    col_centroids.data_ref,
                    col_offsets,
                )
                row_ranges = self.axis_ranges(row_centroids)
                col_ranges = self.axis_ranges(col_centroids)
                out = []
                for (r_meta, r_data, r_delta), (c_meta, c_data, c_delta) in zip(
                    row_segments, col_segments
                ):
                    row_labels, row_evidence = self._walk_axis(
                        r_meta,
                        r_data,
                        r_delta,
                        row_centroids,
                        max_depth=config.max_hmd_depth,
                        metadata_kind=LevelKind.HMD,
                        detect_cmd=config.detect_cmd,
                        with_evidence=with_evidence,
                        ranges=row_ranges,
                    )
                    col_labels, col_evidence = self._walk_axis(
                        c_meta,
                        c_data,
                        c_delta,
                        col_centroids,
                        max_depth=config.max_vmd_depth,
                        metadata_kind=LevelKind.VMD,
                        detect_cmd=False,  # CMD is defined for rows only (Def. 4)
                        with_evidence=with_evidence,
                        ranges=col_ranges,
                    )
                    annotation = TableAnnotation.from_trusted(
                        tuple(row_labels), tuple(col_labels)
                    )
                    out.append(
                        (annotation, tuple(row_evidence), tuple(col_evidence))
                    )
        return out

    # ------------------------------------------------------------------
    # the axis walk
    # ------------------------------------------------------------------
    def axis_ranges(
        self, centroids: CentroidSet
    ) -> tuple[AngleRange, AngleRange, AngleRange]:
        """The margin-widened ``(C_MDE, C_DE, C_MDE-DE)`` triple.

        Computed once per axis per batch and passed to every table's
        :meth:`_walk_axis`.
        """
        margin = self.config.range_margin
        return (
            centroids.mde.widened(margin),
            centroids.de.widened(margin),
            centroids.mde_de.widened(margin),
        )

    def _walk_axis(
        self,
        meta_angles: list[float],
        data_angles: list[float],
        deltas: list[float],
        centroids: CentroidSet,
        *,
        max_depth: int,
        metadata_kind: LevelKind,
        detect_cmd: bool,
        with_evidence: bool,
        ranges: tuple[AngleRange, AngleRange, AngleRange],
    ) -> tuple[list[LevelLabel], list[LevelEvidence]]:
        """The sequential decision walk over precomputed angle lists.

        This is the single source of the label semantics: the fused
        plane (:meth:`_classify`) and the level-by-level reference
        (:func:`reference_classify`) both land here.  The walk is a pure
        Python state machine, so it takes plain float lists; numpy
        scalar extraction per element would dominate it.
        """
        c_mde, c_de, c_mde_de = ranges
        # Plain-float bounds: the loop below tests range membership a few
        # times per level, and an ``AngleRange.__contains__`` method call
        # per test is measurable at corpus scale.
        mde_lo, mde_hi = c_mde.lo, c_mde.hi
        de_lo, de_hi = c_de.lo, c_de.hi
        mm_lo, mm_hi = c_mde_de.lo, c_mde_de.hi
        mde_mid = centroids.mde.midpoint
        mm_mid = centroids.mde_de.midpoint
        ref_slack = self.config.ref_slack
        ref_override = self.config.ref_override

        labels: list[LevelLabel] = []
        evidence: list[LevelEvidence] = []
        depth = 0
        transitioned = False  # have we crossed the metadata->data boundary?
        prev_is_meta = False

        for index in range(len(meta_angles)):
            a_meta = meta_angles[index]
            a_data = data_angles[index]
            delta = deltas[index - 1] if index > 0 else None
            # Rule strings exist for Fig. 5 rendering only; the labels-only
            # path skips formatting them (they are pure reporting).
            rule = ""

            if index == 0:
                # Sec. III-D.1: compare the first level against the
                # bootstrap references.
                is_meta = a_meta < a_data
                if with_evidence:
                    rule = "first level: nearest reference"
            elif prev_is_meta and not transitioned:
                delta = not_none(delta, "inter-level angle past level 0")
                in_mde = mde_lo <= delta <= mde_hi
                in_mde_de = mm_lo <= delta <= mm_hi
                if depth >= max_depth:
                    is_meta = False
                    if with_evidence:
                        rule = f"depth cap {max_depth} reached"
                elif in_mde and not in_mde_de:
                    is_meta = True
                    if with_evidence:
                        rule = f"Δ={delta:.0f}° ∈ C_MDE {centroids.mde}"
                elif in_mde and in_mde_de:
                    # Overlapping ranges: the nearest range midpoint
                    # decides, with a soft reference guard — a level far
                    # closer to the data reference is data regardless.
                    to_mde = abs(delta - mde_mid)
                    to_mde_de = abs(delta - mm_mid)
                    refs_allow_meta = a_meta <= a_data + ref_slack
                    refs_force_meta = a_meta + ref_override < a_data
                    is_meta = (
                        to_mde < to_mde_de and refs_allow_meta
                    ) or refs_force_meta
                    if with_evidence:
                        rule = (
                            f"Δ={delta:.0f}° in C_MDE∩C_MDE-DE overlap: "
                            f"nearest midpoint ({centroids.mde.midpoint:.0f} vs "
                            f"{centroids.mde_de.midpoint:.0f}), refs "
                            f"{'allow' if refs_allow_meta else 'veto'} metadata"
                        )
                elif in_mde_de:
                    # A transition-range hit usually ends the block, but
                    # hierarchical metadata levels drawn from disjoint
                    # sub-vocabularies can sit this far apart too; when
                    # the references *clearly* side with metadata, trust
                    # them over the range.
                    is_meta = a_meta + ref_override < a_data
                    if with_evidence:
                        rule = (
                            f"Δ={delta:.0f}° ∈ C_MDE-DE {centroids.mde_de}"
                            + (", refs overrule: metadata" if is_meta else "")
                        )
                elif de_lo <= delta <= de_hi and a_data < a_meta:
                    # Rare: two near-identical levels after a mislabeled
                    # first level; defer to the references.
                    is_meta = False
                    if with_evidence:
                        rule = f"Δ={delta:.0f}° ∈ C_DE, references prefer data"
                else:
                    is_meta = a_meta < a_data
                    if with_evidence:
                        rule = "Δ in no range: nearest reference"
            else:
                delta = not_none(delta, "inter-level angle past level 0")
                if de_lo <= delta <= de_hi:
                    is_meta = False
                    if with_evidence:
                        rule = f"Δ={delta:.0f}° ∈ C_DE {centroids.de}"
                elif detect_cmd and mm_lo <= delta <= mm_hi and a_meta < a_data:
                    is_meta = True  # central metadata restarts a block
                    if with_evidence:
                        rule = f"Δ={delta:.0f}° ∈ C_MDE-DE from data: CMD"
                else:
                    # CMD claims need positive range evidence; the plain
                    # fallback past the boundary is always data.
                    is_meta = False
                    if with_evidence:
                        rule = f"Δ={delta:.0f}° past boundary: data"

            if is_meta and not transitioned:
                depth += 1
                label = _label(metadata_kind, depth)
            elif is_meta and transitioned:
                label = _label(LevelKind.CMD, 1)
            else:
                label = _label(LevelKind.DATA, 0)
                if prev_is_meta or index == 0:
                    transitioned = True

            labels.append(label)
            if with_evidence:
                evidence.append(
                    LevelEvidence(
                        index=index,
                        label=label,
                        angle_to_prev=delta,
                        angle_to_meta_ref=a_meta,
                        angle_to_data_ref=a_data,
                        rule=rule,
                    )
                )
            prev_is_meta = is_meta
        return labels, evidence

    # ------------------------------------------------------------------
    # depth-only conveniences (the paper reports depth per table)
    # ------------------------------------------------------------------
    def hmd_depth(self, table: Table) -> int:
        """Predicted horizontal-metadata depth (Def. 7)."""
        return self.classify(table).hmd_depth

    def vmd_depth(self, table: Table) -> int:
        """Predicted vertical-metadata depth."""
        return self.classify(table).vmd_depth


def reference_classify(
    classifier: MetadataClassifier, table: Table
) -> TableAnnotation:
    """Algorithm 1 computed level by level: the equivalence oracle.

    Each level vector comes from :mod:`repro.core.aggregate` (per-token
    lookups), each angle from one scalar :func:`angle_between` call, and
    the labels from the same decision walk the fused plane runs.  Slow
    by design; ``repro fuzz`` and the equivalence tests hold the fused
    plane's labels to it.
    """
    config = classifier.config
    labels = []
    for aggregate, centroids, max_depth, kind, detect_cmd in (
        (aggregate_rows, classifier.row_centroids, config.max_hmd_depth,
         LevelKind.HMD, config.detect_cmd),
        (aggregate_cols, classifier.col_centroids, config.max_vmd_depth,
         LevelKind.VMD, False),
    ):
        vectors = aggregate(classifier.embedder, table, config.aggregation)
        if classifier.projection is not None:
            vectors = classifier.projection.transform(vectors)
        axis_labels, _ = classifier._walk_axis(
            [angle_between(v, centroids.meta_ref) for v in vectors],
            [angle_between(v, centroids.data_ref) for v in vectors],
            [
                angle_between(vectors[i], vectors[i + 1])
                for i in range(len(vectors) - 1)
            ],
            centroids,
            max_depth=max_depth,
            metadata_kind=kind,
            detect_cmd=detect_cmd,
            with_evidence=False,
            ranges=classifier.axis_ranges(centroids),
        )
        labels.append(tuple(axis_labels))
    return TableAnnotation(*labels)
