"""Centroid angle ranges (Defs. 11-13) and per-level angle statistics.

From bootstrap-labeled tables we collect, per table:

* angles between pairs of *metadata* aggregated level vectors -> C_MDE;
* angles between pairs of *data* level vectors -> C_DE;
* angles between metadata and data level vectors -> C_MDE-DE;

plus the reference aggregate vectors (``meta_ref``/``data_ref`` — the
paper's "reference metadata row/column marked during bootstrapping") and
the per-level-depth deltas that Tables I-IV of the paper report
(e.g. Δ_{2MDE,3MDE}, Δ_{3MDE,DE}).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.angles import AngleRange, angle_between, pairwise_angles
from repro.core.bootstrap import BootstrapLabels

_EPS = 1e-12

#: A batch of levels -> their vectors, ``(len(levels), dim)`` also for
#: an empty batch: the fit side's recipe
#: (:meth:`repro.core.pipeline.MetadataPipeline.fit_level_vectors`).
LevelVectors = Callable[[Sequence[Sequence[object]]], np.ndarray]

# Salts separating the two cross-table pair-sampling streams derived
# from the caller's seed.  The streams must not depend on pool sizes
# (the old ``default_rng(len(pool))`` made the sampled ranges change
# whenever one more table produced a metadata vector).
_MDE_SAMPLE_SALT = 1
_DE_SAMPLE_SALT = 2

# Defaults used when the bootstrap corpus is too sparse to observe a pair
# kind at all (e.g. no table had two metadata levels).  Values follow the
# typical ranges the paper reports across datasets (Tables I-IV).
_FALLBACK_MDE = AngleRange(15.0, 45.0)
_FALLBACK_DE = AngleRange(0.0, 35.0)
_FALLBACK_MDE_DE = AngleRange(45.0, 98.0)


@dataclass(frozen=True)
class LevelAngleStats:
    """Mean observed angles at one metadata depth (a Tables I/IV row)."""

    level: int
    delta_prev_meta: float | None  # Δ_{(L-1)MDE, LMDE}; None for level 1
    delta_to_data: float | None  # Δ_{LMDE, DE}
    n_tables: int


@dataclass(frozen=True)
class CentroidSet:
    """Everything the classifier needs for one axis (rows or columns)."""

    mde: AngleRange  # C_MDE: metadata level vs metadata level
    de: AngleRange  # C_DE: data level vs data level
    mde_de: AngleRange  # C_MDE-DE: metadata level vs data level
    meta_ref: np.ndarray  # unit mean of bootstrap metadata level vectors
    data_ref: np.ndarray  # unit mean of bootstrap data level vectors
    level_stats: tuple[LevelAngleStats, ...] = field(default_factory=tuple)
    n_tables: int = 0

    def stats_for_level(self, level: int) -> LevelAngleStats | None:
        for stats in self.level_stats:
            if stats.level == level:
                return stats
        return None

    def describe(self) -> str:
        lines = [
            f"C_MDE     = {self.mde}",
            f"C_DE      = {self.de}",
            f"C_MDE-DE  = {self.mde_de}",
            f"(from {self.n_tables} bootstrap tables)",
        ]
        for stats in self.level_stats:
            prev = (
                f"Δ_{{{stats.level - 1}MDE,{stats.level}MDE}}="
                f"{stats.delta_prev_meta:.0f}"
                if stats.delta_prev_meta is not None
                else ""
            )
            data = (
                f"Δ_{{{stats.level}MDE,DE}}={stats.delta_to_data:.0f}"
                if stats.delta_to_data is not None
                else ""
            )
            lines.append(f"  level {stats.level}: {prev} {data} (n={stats.n_tables})")
        return "\n".join(lines)


def _unit_mean(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    if not vectors:
        return np.zeros(dim)
    mean = np.mean(np.stack(vectors), axis=0)
    norm = np.linalg.norm(mean)
    return mean / norm if norm > _EPS else mean


def _purified_refs(
    meta_vectors: Sequence[np.ndarray],
    data_vectors: Sequence[np.ndarray],
    dim: int,
    *,
    iterations: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust reference aggregates under bootstrap label noise.

    Noisy markup (spurious ``<th>`` on data rows, demoted header rows)
    contaminates both pools; plain means then converge toward each other
    and the first-level "nearest reference" rule degenerates into a coin
    flip.  Two reassignment passes keep only the vectors closer to their
    own reference, which is enough to re-separate the means.
    """
    meta_keep = list(meta_vectors)
    data_keep = list(data_vectors)
    meta_ref = _unit_mean(meta_keep, dim)
    data_ref = _unit_mean(data_keep, dim)
    for _ in range(iterations):
        if not meta_keep or not data_keep:
            break
        new_meta = [
            v
            for v in meta_vectors
            if angle_between(v, meta_ref) <= angle_between(v, data_ref)
        ]
        new_data = [
            v
            for v in data_vectors
            if angle_between(v, data_ref) <= angle_between(v, meta_ref)
        ]
        # Never let a pool collapse below a usable size.
        if len(new_meta) >= max(2, len(meta_vectors) // 4):
            meta_keep = new_meta
        if len(new_data) >= max(2, len(data_vectors) // 4):
            data_keep = new_data
        meta_ref = _unit_mean(meta_keep, dim)
        data_ref = _unit_mean(data_keep, dim)
    return meta_ref, data_ref


def _nonzero(vec: np.ndarray) -> bool:
    return bool(np.linalg.norm(vec) > _EPS)


@dataclass
class CentroidSamples:
    """The per-table observations :func:`estimate_centroids` pools.

    :func:`collect_centroid_samples` fills it in corpus order, and
    :func:`finalize_centroids` turns the pool into a
    :class:`CentroidSet`.
    """

    mde_samples: list[float] = field(default_factory=list)
    de_samples: list[float] = field(default_factory=list)
    mde_de_samples: list[float] = field(default_factory=list)
    meta_vectors: list[np.ndarray] = field(default_factory=list)
    data_vectors: list[np.ndarray] = field(default_factory=list)
    # per level depth: list of delta-to-previous-meta / delta-to-data
    prev_deltas: dict[int, list[float]] = field(default_factory=dict)
    data_deltas: dict[int, list[float]] = field(default_factory=dict)
    # per level depth: number of tables exhibiting that depth
    level_tables: dict[int, int] = field(default_factory=dict)
    n_tables: int = 0


def collect_centroid_samples(
    vectors_of: LevelVectors,
    labeled: Iterable[BootstrapLabels],
    *,
    axis: str = "rows",
    max_levels: int = 5,
    max_data_levels_per_table: int = 20,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CentroidSamples:
    """Collect per-table angle samples and level vectors.

    The first half of :func:`estimate_centroids`; the samples keep the
    iteration order of ``labeled``.
    """
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")

    samples = CentroidSamples()
    mde_samples = samples.mde_samples
    de_samples = samples.de_samples
    mde_de_samples = samples.mde_de_samples
    meta_vectors = samples.meta_vectors
    data_vectors = samples.data_vectors
    prev_deltas = samples.prev_deltas
    data_deltas = samples.data_deltas

    for item in labeled:
        table = item.table
        if axis == "rows":
            meta_idx = list(item.metadata_row_indices)
            data_idx = list(item.data_row_indices)
            level_of = lambda i: table.row(i)  # noqa: E731
        else:
            meta_idx = list(item.metadata_col_indices)
            data_idx = list(item.data_col_indices)
            level_of = lambda j: table.col(j)  # noqa: E731

        if not meta_idx and not data_idx:
            continue
        samples.n_tables += 1
        meta_idx = meta_idx[:max_levels]
        data_idx = data_idx[:max_data_levels_per_table]

        # One batched lookup covers every bootstrap level of the table.
        meta_vecs = list(vectors_of([level_of(i) for i in meta_idx]))
        data_vecs = list(vectors_of([level_of(i) for i in data_idx]))
        if transform is not None:
            meta_vecs = [transform(v) for v in meta_vecs]
            data_vecs = [transform(v) for v in data_vecs]
        meta_vecs = [v for v in meta_vecs if _nonzero(v)]
        data_vecs = [v for v in data_vecs if _nonzero(v)]
        meta_vectors.extend(meta_vecs)
        data_vectors.extend(data_vecs)

        # One batch holds every angle of the table: the C_MDE, C_DE and
        # C_MDE-DE pairs (Defs. 11-13), then the per-level deltas.
        meta = range(len(meta_vecs))
        data = range(len(meta_vecs), len(meta_vecs) + len(data_vecs))
        mde = list(itertools.combinations(meta, 2))
        de = list(itertools.combinations(data, 2))
        mde_de = list(itertools.product(meta, data))
        # Per-level deltas (Tables I-IV rows).  Bootstrap metadata levels
        # are ordered by position, so depth = ordinal position + 1.
        # The data representative is the *middle* data level: with noisy
        # or first-level-only bootstrap the top "data" rows are often
        # unrecognized deeper headers, which would deflate the reported
        # metadata-data separation.
        prev = [(i - 1, i) for i in meta[1:]]
        to_data = list(itertools.product(meta, [data[len(data) // 2]] if data else []))
        angles = iter(pairwise_angles(meta_vecs + data_vecs, mde + de + mde_de + prev + to_data))
        mde_samples.extend(itertools.islice(angles, len(mde)))
        de_samples.extend(itertools.islice(angles, len(de)))
        mde_de_samples.extend(itertools.islice(angles, len(mde_de)))
        for (_, i), angle in zip(prev, angles):
            prev_deltas.setdefault(i + 1, []).append(angle)
        for (i, _), angle in zip(to_data, angles):
            data_deltas.setdefault(i + 1, []).append(angle)
        for i in meta:
            samples.level_tables[i + 1] = samples.level_tables.get(i + 1, 0) + 1

    return samples


def finalize_centroids(
    samples: CentroidSamples,
    *,
    fallback_dim: int,
    trim: float = 0.05,
    min_range_width: float = 10.0,
    seed: int = 0,
) -> CentroidSet:
    """Turn a pooled :class:`CentroidSamples` into a :class:`CentroidSet`.

    Reference purification, the cross-table pair-sampling fallbacks (one
    RNG stream seeded from ``seed``), range trimming, and level
    statistics.
    """
    mde_samples = list(samples.mde_samples)
    de_samples = list(samples.de_samples)
    mde_de_samples = samples.mde_de_samples
    meta_vectors = samples.meta_vectors
    data_vectors = samples.data_vectors
    prev_deltas = samples.prev_deltas
    data_deltas = samples.data_deltas
    n_tables = samples.n_tables

    if meta_vectors:
        ref_dim = meta_vectors[0].shape[0]
    elif data_vectors:
        ref_dim = data_vectors[0].shape[0]
    else:
        ref_dim = fallback_dim
    meta_ref, data_ref = _purified_refs(meta_vectors, data_vectors, ref_dim)

    # First-level bootstrap corpora (SAUS/CIUS) mark a single metadata
    # level per table, so no within-table metadata pair exists.  The
    # metadata-metadata range then comes from cross-table pairs: header
    # levels of different tables in one corpus are drawn from the same
    # attribute vocabulary, so their angle spectrum is the best
    # available estimate of C_MDE (documented substitution; the paper is
    # silent on how its SAUS/CIUS deep-level centroids were obtained).
    # Two safeguards keep contamination out: pairs are sampled only from
    # vectors the purified references agree are metadata, and the
    # resulting range is anchored at 0 — cross-table pairs systematically
    # overestimate the *within-table* lower bound the classifier tests.
    cross_table_mde = False
    if len(mde_samples) < 10 and len(meta_vectors) >= 2:
        pool = [
            v
            for v in meta_vectors
            if angle_between(v, meta_ref) <= angle_between(v, data_ref)
        ]
        if len(pool) >= 2:
            cross_table_mde = True
            rng = np.random.default_rng((seed, _MDE_SAMPLE_SALT))
            n_pairs = min(500, len(pool) * 2)
            for _ in range(n_pairs):
                a, b = rng.choice(len(pool), size=2, replace=False)
                mde_samples.append(angle_between(pool[a], pool[b]))
    cross_table_de = False
    if len(de_samples) < 10 and len(data_vectors) >= 2:
        pool = [
            v
            for v in data_vectors
            if angle_between(v, data_ref) <= angle_between(v, meta_ref)
        ]
        if len(pool) >= 2:
            cross_table_de = True
            rng = np.random.default_rng((seed, _DE_SAMPLE_SALT))
            n_pairs = min(500, len(pool) * 2)
            for _ in range(n_pairs):
                a, b = rng.choice(len(pool), size=2, replace=False)
                de_samples.append(angle_between(pool[a], pool[b]))

    def _range(samples: list[float], fallback: AngleRange) -> AngleRange:
        if len(samples) < 3:
            return fallback
        estimated = AngleRange.from_samples(samples, trim=trim)
        if estimated.width < min_range_width:
            # The bootstrap sample underestimates the true variance
            # (noisy tags, small corpora); guarantee a usable width.
            pad = (min_range_width - estimated.width) / 2.0
            estimated = estimated.widened(pad)
        return estimated

    level_stats = []
    depths = set(prev_deltas) | set(data_deltas) | set(samples.level_tables)
    for depth in sorted(depths):
        prev_list = prev_deltas.get(depth, [])
        data_list = data_deltas.get(depth, [])
        level_stats.append(
            LevelAngleStats(
                level=depth,
                delta_prev_meta=float(np.mean(prev_list)) if prev_list else None,
                delta_to_data=float(np.mean(data_list)) if data_list else None,
                n_tables=samples.level_tables.get(depth, 0),
            )
        )

    mde_range = _range(mde_samples, _FALLBACK_MDE)
    de_range = _range(de_samples, _FALLBACK_DE)
    if cross_table_mde:
        mde_range = AngleRange(0.0, mde_range.hi)
    if cross_table_de:
        de_range = AngleRange(0.0, de_range.hi)
    return CentroidSet(
        mde=mde_range,
        de=de_range,
        mde_de=_range(mde_de_samples, _FALLBACK_MDE_DE),
        meta_ref=meta_ref,
        data_ref=data_ref,
        level_stats=tuple(level_stats),
        n_tables=n_tables,
    )


def estimate_centroids(
    vectors_of: LevelVectors,
    labeled: Iterable[BootstrapLabels],
    *,
    axis: str = "rows",
    trim: float = 0.05,
    max_levels: int = 5,
    max_data_levels_per_table: int = 20,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    min_range_width: float = 10.0,
    seed: int = 0,
) -> CentroidSet:
    """Estimate a :class:`CentroidSet` from bootstrap-labeled tables.

    ``vectors_of`` aggregates a batch of levels (:data:`LevelVectors`).
    ``axis`` selects rows (HMD) or columns (VMD).  Angle samples are
    collected *within* each table (the definitions compare levels of a
    table), then pooled across the corpus and trimmed into ranges.
    ``max_data_levels_per_table`` caps the quadratic data-data pair count
    on tall tables.  ``transform`` (e.g. a fitted contrastive projection)
    is applied to every aggregated vector before angles are measured, so
    the ranges live in the same space the classifier will use.  ``seed``
    (normally the pipeline's configured seed) drives the cross-table
    pair sampling in :func:`finalize_centroids`; it must never be
    derived from the data, or the sampled ranges silently change
    whenever the corpus grows.

    Implemented as :func:`collect_centroid_samples` followed by
    :func:`finalize_centroids`.
    """
    samples = collect_centroid_samples(
        vectors_of,
        labeled,
        axis=axis,
        max_levels=max_levels,
        max_data_levels_per_table=max_data_levels_per_table,
        transform=transform,
    )
    return finalize_centroids(
        samples,
        fallback_dim=vectors_of([]).shape[1],
        trim=trim,
        min_range_width=min_range_width,
        seed=seed,
    )
