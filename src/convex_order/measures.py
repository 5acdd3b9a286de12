"""Measure containers shared by the Gaussian, 1-d and discrete solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import psd_eigen, sym

WEIGHT_TOL = 1e-6
MERGE_TOL = 1e-12


class EmptyMeasureError(ValueError):
    """A measure needs at least one atom."""


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite (got NaN or inf)")


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian distribution with the given mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = sym(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean of size {mean.size}"
            )
        require_finite(mean, "mean")
        require_finite(cov, "covariance")
        psd_eigen(cov)  # raises NotPsdError on bad input
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def standard(cls, dim: int) -> "GaussianMeasure":
        return cls(np.zeros(dim), np.eye(dim))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: points in R^d with positive weights.

    Construction canonicalizes the support: points are sorted
    lexicographically, duplicates (within ``MERGE_TOL``) are merged with
    their weights summed, and the weights are renormalized to sum to one
    (rejecting inputs further than ``weight_tol`` from a probability
    vector).
    """

    points: np.ndarray
    weights: np.ndarray
    weight_tol: float = field(default=WEIGHT_TOL, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise EmptyMeasureError("measure needs a nonempty (n, d) support")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape[0] != pts.shape[0]:
            raise ValueError("one weight per support point required")
        require_finite(pts, "support points")
        require_finite(w, "weights")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > self.weight_tol:
            raise ValueError(f"weights sum to {total}, not 1 within {self.weight_tol}")
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

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls(np.atleast_1d(np.asarray(point, dtype=float))[None, :], [1.0])


def _merge_atoms(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort(points.T[::-1])
    points = points[order]
    weights = weights[order]
    keep: list[int] = [0]
    for i in range(1, points.shape[0]):
        if np.max(np.abs(points[i] - points[keep[-1]])) <= MERGE_TOL:
            weights[keep[-1]] += weights[i]
        else:
            keep.append(i)
    return points[keep].copy(), weights[keep].copy()
