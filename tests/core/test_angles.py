"""Tests for angle primitives and AngleRange."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.angles import (
    AngleRange,
    angle_between,
    angle_matrix,
    angles_to,
    consecutive_angles,
    cosine_similarity,
    euclidean_distance,
    jaccard_similarity,
    pairwise_angles,
    walk_angles,
)

vectors = arrays(
    np.float64,
    shape=st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)


class TestCosine:
    def test_parallel(self):
        assert cosine_similarity([1, 0], [2, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_zero_vector_convention(self):
        assert cosine_similarity([0, 0], [1, 0]) == 0.0
        assert angle_between([0, 0], [1, 0]) == pytest.approx(90.0)

    def test_scale_invariance(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(10 * a, 0.01 * b)
        )


class TestAngle:
    def test_degrees(self):
        assert angle_between([1, 0], [1, 1]) == pytest.approx(45.0)
        assert angle_between([1, 0], [0, 1]) == pytest.approx(90.0)
        assert angle_between([1, 0], [-1, 0]) == pytest.approx(180.0)

    @given(vectors)
    def test_self_angle_zero_or_ninety(self, vec):
        angle = angle_between(vec, vec)
        # The zero-vector convention triggers on the norm *product*.
        if np.linalg.norm(vec) ** 2 < 1e-12:
            assert angle == pytest.approx(90.0)
        else:
            assert angle == pytest.approx(0.0, abs=1e-3)

    @given(vectors, st.data())
    def test_symmetry(self, a, data):
        b = data.draw(
            arrays(
                np.float64,
                shape=a.shape,
                elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
            )
        )
        assert angle_between(a, b) == pytest.approx(angle_between(b, a))

    @given(vectors, st.data())
    def test_bounds(self, a, data):
        b = data.draw(
            arrays(
                np.float64,
                shape=a.shape,
                elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
            )
        )
        assert 0.0 <= angle_between(a, b) <= 180.0


class TestAlternatives:
    def test_euclidean(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_euclidean_magnitude_sensitive(self):
        """The paper's argument against it: same direction, far apart."""
        assert euclidean_distance([1, 0], [100, 0]) > 90
        assert angle_between([1, 0], [100, 0]) == pytest.approx(0.0)

    def test_jaccard(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard_similarity([], []) == 1.0
        assert jaccard_similarity({"a"}, set()) == 0.0


class TestAngleMatrix:
    def test_matches_pairwise(self):
        levels = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        matrix = angle_matrix(levels)
        for i in range(3):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    angle_between(levels[i], levels[j]), abs=1e-4
                )

    def test_zero_rows_get_ninety(self):
        levels = np.array([[1.0, 0.0], [0.0, 0.0]])
        matrix = angle_matrix(levels)
        assert matrix[0, 1] == pytest.approx(90.0)
        assert matrix[1, 1] == pytest.approx(90.0)

    def test_diagonal_zero(self):
        levels = np.random.default_rng(0).normal(size=(4, 6))
        matrix = angle_matrix(levels)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-6)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            angle_matrix(np.zeros(3))


class TestAngleRange:
    def test_validation(self):
        with pytest.raises(ValueError):
            AngleRange(50, 40)
        with pytest.raises(ValueError):
            AngleRange(-1, 40)
        with pytest.raises(ValueError):
            AngleRange(0, 200)

    def test_contains(self):
        r = AngleRange(10, 20)
        assert 10 in r and 15 in r and 20 in r
        assert 9.99 not in r and 20.01 not in r

    def test_midpoint_width(self):
        r = AngleRange(10, 30)
        assert r.midpoint == 20
        assert r.width == 20

    def test_distance_to(self):
        r = AngleRange(10, 20)
        assert r.distance_to(15) == 0.0
        assert r.distance_to(5) == 5.0
        assert r.distance_to(26) == 6.0

    def test_widened_clips(self):
        assert AngleRange(2, 178).widened(5) == AngleRange(0, 180)

    def test_from_samples_trimming(self):
        samples = [10.0] * 50 + [170.0]  # one outlier
        r = AngleRange.from_samples(samples, trim=0.05)
        assert r.hi < 170.0

    def test_from_samples_empty(self):
        with pytest.raises(ValueError):
            AngleRange.from_samples([])

    def test_from_samples_bad_trim(self):
        with pytest.raises(ValueError):
            AngleRange.from_samples([1.0], trim=0.6)

    def test_str(self):
        assert str(AngleRange(10.2, 20.7)) == "10 to 21"

    @given(st.lists(st.floats(min_value=0, max_value=180), min_size=1, max_size=40))
    def test_from_samples_contains_median(self, samples):
        r = AngleRange.from_samples(samples, trim=0.1)
        median = float(np.median(samples))
        assert r.lo - 1e-9 <= median <= r.hi + 1e-9


class TestBatchedAngles:
    """The batched helpers must match per-pair angle_between exactly."""

    def _levels(self, seed=0, n=6, d=8):
        rng = np.random.default_rng(seed)
        levels = rng.normal(size=(n, d))
        levels[2] = 0.0  # a blank level: 90-degree convention
        return levels

    def test_angles_to_matches_scalar(self):
        levels = self._levels()
        ref = np.ones(8)
        batched = angles_to(levels, ref)
        scalar = [angle_between(v, ref) for v in levels]
        np.testing.assert_allclose(batched, scalar, atol=1e-9)
        assert batched[2] == pytest.approx(90.0)

    def test_angles_to_zero_reference(self):
        np.testing.assert_allclose(
            angles_to(self._levels(), np.zeros(8)), 90.0
        )

    def test_angles_to_empty(self):
        assert angles_to(np.empty((0, 8)), np.ones(8)).shape == (0,)
        with pytest.raises(ValueError):
            angles_to(np.ones(8), np.ones(8))

    def test_consecutive_matches_scalar(self):
        levels = self._levels(seed=1)
        batched = consecutive_angles(levels)
        scalar = [
            angle_between(levels[i], levels[i + 1])
            for i in range(len(levels) - 1)
        ]
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_consecutive_short_inputs(self):
        assert consecutive_angles(np.empty((0, 4))).shape == (0,)
        assert consecutive_angles(np.ones((1, 4))).shape == (0,)

    def test_walk_angles_matches_components(self):
        levels = self._levels(seed=2)
        meta_ref = np.ones(8)
        data_ref = -np.ones(8)
        meta, data, deltas = walk_angles(levels, meta_ref, data_ref)
        np.testing.assert_allclose(meta, angles_to(levels, meta_ref), atol=1e-9)
        np.testing.assert_allclose(data, angles_to(levels, data_ref), atol=1e-9)
        np.testing.assert_allclose(
            deltas, consecutive_angles(levels), atol=1e-9
        )

    def test_walk_angles_degenerate(self):
        meta, data, deltas = walk_angles(
            np.empty((0, 4)), np.ones(4), np.ones(4)
        )
        assert meta.shape == data.shape == deltas.shape == (0,)
        meta, data, deltas = walk_angles(
            np.ones((1, 4)), np.zeros(4), np.ones(4)
        )
        assert meta[0] == pytest.approx(90.0)
        assert data[0] == pytest.approx(0.0)
        assert deltas.shape == (0,)


class TestPairwiseAngles:
    """``pairwise_angles`` is ``angle_between`` per pair, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_angle_between(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 60))
        vecs = list(rng.normal(size=(int(rng.integers(2, 12)), d)) * 10.0 ** rng.integers(-7, 7))
        vecs += [np.zeros(d), np.full(d, 1e-8), vecs[0], -vecs[1], vecs[0].astype(np.float32)]
        pairs = [(i, j) for i in range(len(vecs)) for j in range(len(vecs))]
        angles = pairwise_angles(vecs, pairs)
        assert angles == [angle_between(vecs[i], vecs[j]) for i, j in pairs]
        assert all(type(a) is float for a in angles)

    def test_empty(self):
        assert pairwise_angles([np.ones(3)], []) == []
