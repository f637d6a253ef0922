"""Tests for centroid estimation (Defs. 11-13)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_first_level, bootstrap_corpus
from repro.core.centroids import CentroidSet, LevelVectors, estimate_centroids
from repro.core.embedding_plane import level_vectors
from repro.embeddings.hashed import HashedEmbedding
from repro.embeddings.lookup import TermEmbedder
from repro.tables.html import render_html_table
from repro.tables.labels import TableAnnotation
from repro.tables.model import AnnotatedTable, Table


FIELDS = {
    "age": "attr", "duration": "attr", "severity": "attr", "total": "attr",
    "onset": "attr", "count": "attr",
    "alpha": "entity", "beta": "entity", "gamma": "entity", "delta": "entity",
}


@pytest.fixture
def vectors_of() -> LevelVectors:
    embedder = TermEmbedder(HashedEmbedding(16, fields=FIELDS, field_weight=0.8))
    return partial(level_vectors, embedder)


def _make_corpus(n: int = 8) -> list[AnnotatedTable]:
    rng = np.random.default_rng(3)
    attrs = ["age", "duration", "severity", "total", "onset", "count"]
    ents = ["alpha", "beta", "gamma", "delta"]
    corpus = []
    for i in range(n):
        header1 = list(rng.choice(attrs, size=3))
        header2 = list(rng.choice(attrs, size=3))
        rows = [header1, header2]
        for _ in range(4):
            rows.append([str(rng.integers(0, 9999)), str(rng.integers(0, 9999)),
                         str(rng.choice(ents))])
        table = Table(rows, name=f"t{i}")
        ann = TableAnnotation.from_depths(6, 3, hmd_depth=2, vmd_depth=0)
        html = render_html_table(table, ann)
        corpus.append(AnnotatedTable(table=table, annotation=ann, html=html))
    return corpus


class TestEstimation:
    def test_basic_structure(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        centroids = estimate_centroids(vectors_of, labeled, axis="rows")
        assert isinstance(centroids, CentroidSet)
        assert centroids.n_tables == 8
        assert centroids.meta_ref.shape == (16,)
        assert np.isclose(np.linalg.norm(centroids.meta_ref), 1.0)
        assert np.isclose(np.linalg.norm(centroids.data_ref), 1.0)

    def test_metadata_data_separation(self, vectors_of):
        """The core geometric claim: C_MDE sits below C_MDE-DE."""
        labeled = bootstrap_corpus(_make_corpus())
        centroids = estimate_centroids(vectors_of, labeled, axis="rows")
        assert centroids.mde.midpoint < centroids.mde_de.midpoint

    def test_level_stats_present(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        centroids = estimate_centroids(vectors_of, labeled, axis="rows")
        stats2 = centroids.stats_for_level(2)
        assert stats2 is not None
        assert stats2.delta_prev_meta is not None
        assert stats2.delta_to_data is not None
        assert stats2.n_tables == 8
        stats1 = centroids.stats_for_level(1)
        assert stats1.delta_prev_meta is None  # no level 0

    def test_stats_for_missing_level(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        centroids = estimate_centroids(vectors_of, labeled, axis="rows")
        assert centroids.stats_for_level(5) is None

    def test_invalid_axis(self, vectors_of):
        with pytest.raises(ValueError):
            estimate_centroids(vectors_of, [], axis="diagonal")

    def test_empty_corpus_falls_back(self, vectors_of):
        centroids = estimate_centroids(vectors_of, [], axis="rows")
        assert centroids.n_tables == 0
        assert centroids.mde.width > 0  # fallback ranges

    def test_min_range_width_enforced(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        centroids = estimate_centroids(
            vectors_of, labeled, axis="rows", min_range_width=25.0
        )
        assert centroids.mde.width >= 20.0  # width after clipping at 0

    def test_transform_applied(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        flip = lambda v: -v  # noqa: E731 - direction flip keeps angles
        plain = estimate_centroids(vectors_of, labeled, axis="rows")
        flipped = estimate_centroids(vectors_of, labeled, axis="rows", transform=flip)
        np.testing.assert_allclose(flipped.meta_ref, -plain.meta_ref)
        assert flipped.mde.midpoint == pytest.approx(plain.mde.midpoint)

    def test_describe_renders(self, vectors_of):
        labeled = bootstrap_corpus(_make_corpus())
        text = estimate_centroids(vectors_of, labeled, axis="rows").describe()
        assert "C_MDE" in text
        assert "level 2" in text


class TestFirstLevelBootstrap:
    def test_cross_table_mde(self, vectors_of):
        """With one metadata level per table, C_MDE must come from
        cross-table pairs rather than the fallback constant."""
        corpus = [item.table for item in _make_corpus(10)]
        labeled = [bootstrap_first_level(t) for t in corpus]
        centroids = estimate_centroids(vectors_of, labeled, axis="rows")
        # attr-field header rows across tables are tightly clustered, so
        # the cross-table range must sit well below the fallback hi=45.
        assert centroids.mde.lo < 30.0

    def test_columns_axis(self, vectors_of):
        corpus = [item.table for item in _make_corpus(6)]
        labeled = [bootstrap_first_level(t) for t in corpus]
        centroids = estimate_centroids(vectors_of, labeled, axis="cols")
        assert centroids.n_tables == 6


class TestSeedDeterminism:
    """Regression: cross-table pair sampling used to seed its RNG from
    ``len(pool)``, so the estimated ranges drifted with corpus size and
    ignored the configured seed.  The sampler now derives its stream
    from the ``seed`` parameter (salted per sampling site)."""

    def _centroids(self, vectors_of, **kwargs):
        corpus = [item.table for item in _make_corpus(10)]
        labeled = [bootstrap_first_level(t) for t in corpus]
        return estimate_centroids(vectors_of, labeled, axis="rows", **kwargs)

    def test_same_seed_is_bitwise_reproducible(self, vectors_of):
        a = self._centroids(vectors_of, seed=7)
        b = self._centroids(vectors_of, seed=7)
        assert (a.mde.lo, a.mde.hi) == (b.mde.lo, b.mde.hi)
        assert (a.de.lo, a.de.hi) == (b.de.lo, b.de.hi)
        assert (a.mde_de.lo, a.mde_de.hi) == (b.mde_de.lo, b.mde_de.hi)

    def test_seed_reaches_the_sampler(self, vectors_of):
        a = self._centroids(vectors_of, seed=7)
        c = self._centroids(vectors_of, seed=8)
        assert (a.mde.lo, a.mde.hi) != (c.mde.lo, c.mde.hi)

    def test_pinned_outputs(self, vectors_of):
        """Pin the sampled MDE range for two seeds.  A change here means
        the seed derivation changed — bump deliberately or fix the
        regression.  (The values are from float32 level sums on the
        row cache.)"""
        default = self._centroids(vectors_of)  # seed=0
        assert default.mde.lo == pytest.approx(0.0, abs=1e-9)
        assert default.mde.hi == pytest.approx(14.185170008500517, rel=1e-9)
        seeded = self._centroids(vectors_of, seed=7)
        assert seeded.mde.hi == pytest.approx(17.68640580932747, rel=1e-9)
