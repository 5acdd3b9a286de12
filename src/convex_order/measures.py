"""Measure containers shared by the Gaussian, 1-d and discrete solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _validated_eigh, require_finite

WEIGHT_TOL = 1e-6
MERGE_TOL = 1e-12
# the largest |coordinate| of a support or a Gaussian mean: squared distances,
# second moments and their sums over the atoms stay finite below it
MAX_COORD = 2.0**500
# the largest trace of a Gaussian covariance, MAX_COORD squared: the CLI's
# checks add traces and scale their tolerances by them
MAX_TRACE = MAX_COORD**2


class EmptyMeasureError(ValueError):
    """A measure needs at least one atom."""


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian distribution with the given mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        cov = _validated_eigh(self.cov, "covariance")[0]  # NotPsdError on bad input
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean of size {mean.size}"
            )
        if not np.abs(mean).max() <= MAX_COORD:  # NaN fails the comparison too
            require_finite(mean, "mean")
            raise ValueError(f"mean must lie within {MAX_COORD:.3e} in absolute value")
        if cov.trace() > MAX_TRACE:
            raise ValueError(f"covariance trace must not exceed {MAX_TRACE:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: points in R^d with positive weights.

    Construction canonicalizes the support: weights are renormalized to
    sum to one (rejecting inputs further than ``WEIGHT_TOL`` from that), a
    coordinate beyond ``MAX_COORD`` in absolute value is rejected, and
    points are sorted lexicographically; 1-d points already in order skip
    the sort, which would leave them as they are.  A point within
    ``MERGE_TOL`` (max norm) of its sorted predecessor joins its cluster,
    which keeps its first point and sums its weights.  So a run of points
    each within ``MERGE_TOL`` of the one before is one atom, however far it
    spans: 1-d atoms at 0, 0.6e-12 and 1.2e-12 merge into one atom at 0.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or 0 in pts.shape:
            raise EmptyMeasureError("measure needs a nonempty (n, d) support, d >= 1")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {w.shape}")
        if w.shape[0] != pts.shape[0]:
            raise ValueError("one weight per support point required")
        require_finite(pts, "support points")
        require_finite(w, "weights")
        if np.abs(pts).max() > MAX_COORD:
            raise ValueError(f"support points must lie within {MAX_COORD:.3e} in absolute value")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1 within {WEIGHT_TOL}")
        w = w / total
        pts, w = _merge_atoms(pts, w)
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def barycenter(self) -> np.ndarray:
        return self.weights @ self.points

    def second_moment(self) -> float:
        """Integral of |x|^2 against the measure."""
        return float(self.weights @ np.sum(self.points**2, axis=1))

    @property
    def values_1d(self) -> np.ndarray:
        """Sorted atom values for a one-dimensional measure."""
        if self.dim != 1:
            raise ValueError(f"measure lives in dimension {self.dim}, not 1")
        return self.points[:, 0]

    @classmethod
    def from_1d(cls, values, weights) -> "DiscreteMeasure":
        return cls(np.asarray(values, dtype=float)[:, None], weights)


def _merge_atoms(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the sort is stable, so it leaves 1-d atoms already in order (ties of
    # 0.0 and -0.0 included) where they are, and they skip it
    if points.shape[1] > 1 or (points[1:, 0] < points[:-1, 0]).any():
        order = np.lexsort(points.T[::-1])
        points, weights = points[order], weights[order]
    fresh = np.ones(points.shape[0], dtype=bool)
    fresh[1:] = np.abs(np.diff(points, axis=0)).max(axis=1) > MERGE_TOL
    # bincount adds each cluster's weights one by one in index order;
    # np.add.reduceat may sum them pairwise, which changes the last bits
    return points[fresh], np.bincount(np.cumsum(fresh) - 1, weights=weights)
