"""Diagnostics: inspect the angle geometry a fitted pipeline relies on.

When classification misbehaves on a new corpus, the first question is
whether the embedding space separates metadata from data *at all*.
:func:`angle_spectrum` collects the three pair populations of
Defs. 11-13 from bootstrap-labeled tables; :func:`separability_report`
turns them into overlap statistics and an ASCII histogram so the
geometry can be eyeballed in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.angles import angle_between
from repro.core.bootstrap import BootstrapLabels
from repro.core.embedding_plane import level_vectors
from repro.embeddings.lookup import TermEmbedder

_EPS = 1e-12


@dataclass
class AngleSpectrum:
    """Observed angles per pair population (degrees)."""

    mde: list[float] = field(default_factory=list)  # metadata-metadata
    de: list[float] = field(default_factory=list)  # data-data
    mde_de: list[float] = field(default_factory=list)  # metadata-data

    @property
    def n_samples(self) -> int:
        return len(self.mde) + len(self.de) + len(self.mde_de)


def angle_spectrum(
    embedder: TermEmbedder,
    labeled: Sequence[BootstrapLabels],
    *,
    axis: str = "rows",
    max_levels_per_table: int = 8,
) -> AngleSpectrum:
    """Collect the three angle populations from labeled tables."""
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")
    spectrum = AngleSpectrum()
    for item in labeled:
        table = item.table
        if axis == "rows":
            meta_idx = item.metadata_row_indices[:max_levels_per_table]
            data_idx = item.data_row_indices[:max_levels_per_table]
            level_of = table.row
        else:
            meta_idx = item.metadata_col_indices[:max_levels_per_table]
            data_idx = item.data_col_indices[:max_levels_per_table]
            level_of = table.col
        vectors = level_vectors(
            embedder, [level_of(i) for i in (*meta_idx, *data_idx)]
        )
        n_meta = len(meta_idx)
        meta = [v for v in vectors[:n_meta] if np.linalg.norm(v) > _EPS]
        data = [v for v in vectors[n_meta:] if np.linalg.norm(v) > _EPS]
        for a in range(len(meta)):
            for b in range(a + 1, len(meta)):
                spectrum.mde.append(angle_between(meta[a], meta[b]))
        for a in range(len(data)):
            for b in range(a + 1, len(data)):
                spectrum.de.append(angle_between(data[a], data[b]))
        for mv in meta:
            for dv in data:
                spectrum.mde_de.append(angle_between(mv, dv))
    return spectrum


@dataclass(frozen=True)
class SeparabilityReport:
    """Summary statistics of the metadata/data geometry."""

    median_mde: float | None
    median_de: float | None
    median_mde_de: float | None
    separation_auc: float  # P(cross angle > within angle)
    n_samples: int

    @property
    def verdict(self) -> str:
        """A coarse quality label for quick triage."""
        if self.separation_auc >= 0.85:
            return "well separated"
        if self.separation_auc >= 0.65:
            return "usable"
        return "poorly separated — consider more training data"


def separability_report(spectrum: AngleSpectrum) -> SeparabilityReport:
    """Overlap statistics for one spectrum."""
    within = np.asarray(spectrum.mde + spectrum.de)
    cross = np.asarray(spectrum.mde_de)
    if within.size and cross.size:
        auc = float(np.mean(cross[:, None] > within[None, :]))
    else:
        auc = 0.5

    def med(values: list[float]) -> float | None:
        return float(np.median(values)) if values else None

    return SeparabilityReport(
        median_mde=med(spectrum.mde),
        median_de=med(spectrum.de),
        median_mde_de=med(spectrum.mde_de),
        separation_auc=round(auc, 3),
        n_samples=spectrum.n_samples,
    )


def ascii_histogram(
    values: Sequence[float],
    *,
    bins: int = 18,
    lo: float = 0.0,
    hi: float = 180.0,
    width: int = 40,
    label: str = "",
) -> str:
    """A terminal histogram of angle samples."""
    if bins < 1 or hi <= lo:
        raise ValueError("need at least one bin and hi > lo")
    counts, edges = np.histogram(
        np.clip(np.asarray(list(values), dtype=np.float64), lo, hi),
        bins=bins,
        range=(lo, hi),
    )
    peak = counts.max() if counts.size and counts.max() > 0 else 1
    lines = [f"{label} (n={len(values)})"] if label else []
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"  {left:5.1f}-{right:5.1f} |{bar.ljust(width)}| {count}")
    return "\n".join(lines)


def render_spectrum(spectrum: AngleSpectrum) -> str:
    """The full diagnostic rendering: three histograms plus the report."""
    report = separability_report(spectrum)
    parts = [
        ascii_histogram(spectrum.mde, label="metadata-metadata angles"),
        ascii_histogram(spectrum.de, label="data-data angles"),
        ascii_histogram(spectrum.mde_de, label="metadata-data angles"),
        (
            f"separation AUC = {report.separation_auc} ({report.verdict}); "
            f"medians: MDE={report.median_mde and round(report.median_mde)}, "
            f"DE={report.median_de and round(report.median_de)}, "
            f"MDE-DE={report.median_mde_de and round(report.median_mde_de)}"
        ),
    ]
    return "\n\n".join(parts)
