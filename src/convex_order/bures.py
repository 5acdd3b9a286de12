"""Bures-Wasserstein distance between Gaussians and its gradient."""

from __future__ import annotations

import numpy as np

from .linalg import (
    EIG_TOL,
    LinalgError,
    NotPsdError,
    _rebuild,
    clamped_eigen,
    default_rank_tol,
    psd_eigen,
    spd_sqrt,
    sym,
    sym_eigen,
)
from .measures import GaussianMeasure


class SingularInputError(LinalgError):
    """The gradient formula needs positive definite inputs."""


def bw2(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """Squared Bures-Wasserstein distance between two PSD matrices.

    ``tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2})``, clamped at zero.
    Equals the squared quadratic Wasserstein distance between the centered
    Gaussians with these covariances.
    """
    a = sym(cov_a)
    b = sym(cov_b)
    half = spd_sqrt(a)
    cross_vals, _ = sym_eigen(sym(half @ b @ half))
    # the product is checked at the scale it inherits from a and b (near
    # zero when their ranges are disjoint, whatever its roundoff), then clamped
    if cross_vals[-1] < -EIG_TOL * (1.0 + abs(np.trace(a)) * abs(np.trace(b))):
        raise NotPsdError(f"bw2: A^1/2 B A^1/2 has eigenvalue {cross_vals[-1]:.3e}")
    cross_vals = np.clip(cross_vals, 0.0, None)
    value = float(np.trace(a) + np.trace(b) - 2.0 * np.sum(np.sqrt(cross_vals)))
    # eigenvalue roundoff passes through the square root as ~sqrt(eps);
    # anything more negative than that indicates a genuine bug
    floor = -64.0 * np.sqrt(np.finfo(float).eps) * (
        abs(np.trace(a)) + abs(np.trace(b)) + 1.0
    )
    if value < floor:
        raise LinalgError(f"bw2 came out {value:.3e}, below the roundoff floor")
    return max(value, 0.0)


def gaussian_w2(mu: GaussianMeasure, nu: GaussianMeasure) -> float:
    """Quadratic Wasserstein distance between two Gaussian measures."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    shift = float(np.sum((mu.mean - nu.mean) ** 2))
    return float(np.sqrt(shift + bw2(mu.cov, nu.cov)))


def centered_w2(mu: GaussianMeasure, nu: GaussianMeasure) -> float:
    """Wasserstein distance after aligning the means; depends only on the
    covariances."""
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    return float(np.sqrt(bw2(mu.cov, nu.cov)))


def bw2_gradient(cov_fixed: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Gradient of ``S -> bw2(cov_fixed, S)`` at ``S = cov``.

    Returns ``G = I - F^{1/2} (F^{1/2} S F^{1/2})^{-1/2} F^{1/2}`` so that
    ``d/dt bw2(F, S + t D)|_0 = tr(G @ D)`` for symmetric ``D``.  Both
    inputs must be positive definite; singular inputs are refused rather
    than silently pseudo-inverted.
    """
    fixed = sym(cov_fixed)
    s = sym(cov)
    for name, m in (("first", fixed), ("second", s)):
        vals, _ = psd_eigen(m)
        if vals[-1] <= default_rank_tol(vals):
            raise SingularInputError(
                f"{name} argument of bw2_gradient is singular "
                f"(min eigenvalue {vals[-1]:.3e})"
            )
    half = spd_sqrt(fixed)
    inner_vals, inner_vecs = clamped_eigen(sym(half @ s @ half))
    if inner_vals[-1] <= default_rank_tol(inner_vals):
        raise SingularInputError("inner matrix of bw2_gradient is singular")
    return bw2_gradient_from_inner(half, inner_vals, inner_vecs)


def bw2_gradient_from_inner(
    half: np.ndarray, inner_vals: np.ndarray, inner_vecs: np.ndarray
) -> np.ndarray:
    """``I - F^{1/2} (F^{1/2} S F^{1/2})^{-1/2} F^{1/2}`` from ``half =
    F^{1/2}`` and the spectral decomposition of ``F^{1/2} S F^{1/2}``.

    Inner eigenvalues below the rank cutoff are floored there, so a flat
    ``S`` gives a large but finite gradient pointing back into the interior.
    """
    floor = max(default_rank_tol(inner_vals), np.finfo(float).tiny)
    inner_inv_half = _rebuild(1.0 / np.sqrt(np.maximum(inner_vals, floor)), inner_vecs)
    return sym(np.eye(half.shape[0]) - half @ inner_inv_half @ half)
