"""Angular similarity primitives (Sec. III-C, Eqs. 5-8).

The paper's classification signal is the *angle in degrees* between
aggregated level vectors.  This module implements the cosine/angle pair
(Eq. 5 and Defs. 14-16), the alternative metrics the paper argues
against (Euclidean, Jaccard — kept for the ablation bench), and the
:class:`AngleRange` used to represent centroid intervals like
"C_MDE-DE = 60 to 75".

Zero aggregated vectors (fully blank levels, OOV-only levels under the
"zero" back-off) have no direction; by convention their angle to
anything is 90 degrees — maximally uninformative, which keeps them out
of both the metadata and the data ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_EPS = 1e-12


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Eq. 5.  Zero vectors yield similarity 0 (see module docstring)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm < _EPS:
        return 0.0
    return float(np.clip(a @ b / norm, -1.0, 1.0))


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in degrees between two vectors (Defs. 14-16)."""
    return float(np.degrees(np.arccos(cosine_similarity(a, b))))


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Magnitude-sensitive alternative the paper rejects (Sec. III-C)."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))


def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Set-overlap alternative the paper rejects (Sec. III-C)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def angles_to(levels: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Angle (degrees) of every row of ``levels`` to one reference.

    The batched form of :func:`angle_between` the classifier's axis walk
    uses: one matvec instead of a per-level Python call.  Zero rows and
    a zero reference yield 90 degrees, matching the scalar convention.
    """
    levels = np.asarray(levels, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if levels.ndim != 2:
        raise ValueError("expected an (n, d) matrix of level vectors")
    if levels.shape[0] == 0:
        return np.empty(0)
    denom = np.linalg.norm(levels, axis=1) * np.linalg.norm(ref)
    cos = np.zeros(levels.shape[0])
    defined = denom >= _EPS
    if np.any(defined):
        cos[defined] = np.clip(
            (levels @ ref)[defined] / denom[defined], -1.0, 1.0
        )
    return np.degrees(np.arccos(cos))


def consecutive_angles(levels: np.ndarray) -> np.ndarray:
    """Angle (degrees) between each adjacent pair of level rows.

    Returns ``(n - 1,)`` — entry ``i`` is the paper's Δ between level
    ``i`` and level ``i + 1``.  Zero rows follow the 90-degree
    convention.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 2:
        raise ValueError("expected an (n, d) matrix of level vectors")
    if levels.shape[0] < 2:
        return np.empty(0)
    norms = np.linalg.norm(levels, axis=1)
    denom = norms[:-1] * norms[1:]
    dots = np.einsum("ij,ij->i", levels[:-1], levels[1:])
    cos = np.zeros(levels.shape[0] - 1)
    defined = denom >= _EPS
    if np.any(defined):
        cos[defined] = np.clip(dots[defined] / denom[defined], -1.0, 1.0)
    return np.degrees(np.arccos(cos))


def walk_angles(
    levels: np.ndarray, meta_ref: np.ndarray, data_ref: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All angles the classifier's axis walk needs, in one pass.

    Returns ``(meta_angles, data_angles, deltas)`` — equivalent to two
    :func:`angles_to` calls and one :func:`consecutive_angles` call, but
    the level norms are computed once and the two reference matvecs fuse
    into a single ``(n, 2)`` matmul.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 2:
        raise ValueError("expected an (n, d) matrix of level vectors")
    n = levels.shape[0]
    if n == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    norms = np.linalg.norm(levels, axis=1)

    refs = np.stack(
        [
            np.asarray(meta_ref, dtype=np.float64),
            np.asarray(data_ref, dtype=np.float64),
        ]
    )
    ref_norms = np.linalg.norm(refs, axis=1)
    denom = norms[:, None] * ref_norms[None, :]
    cos = np.zeros((n, 2))
    defined = denom >= _EPS
    np.clip(
        np.divide(levels @ refs.T, denom, out=cos, where=defined),
        -1.0,
        1.0,
        out=cos,
    )
    cos[~defined] = 0.0
    ref_angles = np.degrees(np.arccos(cos))

    if n < 2:
        deltas = np.empty(0)
    else:
        pair_denom = norms[:-1] * norms[1:]
        pair_cos = np.zeros(n - 1)
        pair_defined = pair_denom >= _EPS
        dots = np.einsum("ij,ij->i", levels[:-1], levels[1:])
        np.clip(
            np.divide(dots, pair_denom, out=pair_cos, where=pair_defined),
            -1.0,
            1.0,
            out=pair_cos,
        )
        pair_cos[~pair_defined] = 0.0
        deltas = np.degrees(np.arccos(pair_cos))
    return ref_angles[:, 0], ref_angles[:, 1], deltas


def segmented_walk_angles(
    levels: np.ndarray,
    meta_ref: np.ndarray,
    data_ref: np.ndarray,
    offsets: np.ndarray | Sequence[int],
) -> list[tuple[list[float], list[float], list[float]]]:
    """:func:`walk_angles` over a concatenation of per-table level blocks.

    ``levels`` stacks the level vectors of many tables; ``offsets`` is
    the ``(n_segments + 1,)`` prefix array, segment ``s`` owning rows
    ``offsets[s]:offsets[s + 1]``.  Returns one
    ``(meta_angles, data_angles, deltas)`` tuple of float lists per
    segment — the same values per-table :func:`walk_angles` calls would
    produce, but the norms, the reference matmul, and the adjacent-pair
    products are each computed once for the whole corpus, and the
    conversion to Python floats for the classifier's decision walk is
    one bulk ``tolist`` instead of one per segment.  Deltas that would
    pair the last level of one segment with the first level of the next
    are computed and discarded (cheaper than masking); they never leak
    into a segment's view.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 2:
        raise ValueError("expected an (n, d) matrix of level vectors")
    bounds = np.asarray(offsets, dtype=np.intp)
    if bounds.ndim != 1 or bounds.size < 1:
        raise ValueError("offsets must be a 1-d prefix array")
    if bounds[0] != 0 or bounds[-1] != levels.shape[0]:
        raise ValueError("offsets must start at 0 and end at len(levels)")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("offsets must be non-decreasing")
    meta_angles, data_angles, deltas = walk_angles(levels, meta_ref, data_ref)
    meta_list: list[float] = meta_angles.tolist()
    data_list: list[float] = data_angles.tolist()
    delta_list: list[float] = deltas.tolist()
    out: list[tuple[list[float], list[float], list[float]]] = []
    for s in range(bounds.size - 1):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        seg_deltas = delta_list[lo : hi - 1] if hi - lo >= 2 else []
        out.append((meta_list[lo:hi], data_list[lo:hi], seg_deltas))
    return out


def angle_matrix(levels: np.ndarray) -> np.ndarray:
    """Pairwise angle matrix (degrees) for an ``(n, d)`` stack of levels.

    Vectorized: normalize rows (zero rows stay zero), clip the Gram
    matrix into [-1, 1], arccos.  Zero rows get 90 degrees against
    everything including themselves, matching :func:`angle_between`.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 2:
        raise ValueError("expected an (n, d) matrix of level vectors")
    norms = np.linalg.norm(levels, axis=1)
    safe = np.where(norms < _EPS, 1.0, norms)
    unit = levels / safe[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    angles = np.degrees(np.arccos(gram))
    zero = norms < _EPS
    angles[zero, :] = 90.0
    angles[:, zero] = 90.0
    # Numerical noise can make the diagonal slightly non-zero.
    np.fill_diagonal(angles, np.where(zero, 90.0, 0.0))
    return angles


@dataclass(frozen=True)
class AngleRange:
    """A closed angle interval in degrees, e.g. the paper's "60 to 75"."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo <= self.hi <= 180.0:
            raise ValueError(f"invalid angle range [{self.lo}, {self.hi}]")

    def __contains__(self, angle: float) -> bool:
        return self.lo <= angle <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def distance_to(self, angle: float) -> float:
        """0 inside the range, else distance to the nearest endpoint."""
        if angle in self:
            return 0.0
        return min(abs(angle - self.lo), abs(angle - self.hi))

    def widened(self, margin: float) -> "AngleRange":
        """Expand both ends by ``margin`` degrees, clipped to [0, 180]."""
        return AngleRange(max(0.0, self.lo - margin), min(180.0, self.hi + margin))

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], *, trim: float = 0.05
    ) -> "AngleRange":
        """Robust range: [trim, 1-trim] percentiles of observed angles.

        The bootstrap labels are noisy (Sec. III-B: "The tags are not
        100% accurate"), so raw min/max would be dominated by mislabeled
        outliers; trimming keeps the range where the mass is.
        """
        if not 0.0 <= trim < 0.5:
            raise ValueError("trim must be in [0, 0.5)")
        arr = np.asarray(list(samples), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a range from no samples")
        lo = float(np.percentile(arr, 100 * trim))
        hi = float(np.percentile(arr, 100 * (1 - trim)))
        return cls(max(0.0, lo), min(180.0, hi))

    def __str__(self) -> str:
        return f"{self.lo:.0f} to {self.hi:.0f}"
