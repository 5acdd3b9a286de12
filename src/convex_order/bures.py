"""Bures-Wasserstein distance between Gaussians, and its gradient from a
decomposition the caller holds."""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import (
    EIG_TOL,
    RANK_REL,
    LinalgError,
    NotPsdError,
    _eigvalsh,
    _rebuild,
    _validated_eigh,
    require_in_range,
    square_symmetric,
    sym,
    unit_scale_exponent,
)


_TINY = np.finfo(float).tiny
_ROOT_EPS = math.sqrt(np.finfo(float).eps)


def bw2(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """Squared Bures-Wasserstein distance between two PSD matrices.

    ``tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2})``, clamped at zero.
    Equals the squared quadratic Wasserstein distance between the centered
    Gaussians with these covariances.

    ``A`` is read by :func:`_validated_eigh`, ``B`` only gated.  Computed
    at the working scale: both are divided by ``4^k``, the larger trace in
    ``[4^k, 4^(k+1))`` (``k = 0`` below ``2^-1000``), and the value is
    multiplied back by ``4^k``.  Powers of two are exact, so ``4^j`` times a
    pair gives exactly ``4^j`` times its distance, and the product
    ``A^{1/2} B A^{1/2}`` does not overflow at large scale.
    """
    a, vals, vecs, k_a = _validated_eigh(cov_a, "cov_a")
    b = square_symmetric(cov_b, "cov_b")
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    k_b = unit_scale_exponent(float(np.abs(b).max()))  # b's trace is summed at 4^-k_b
    trace_b = float((math.ldexp(1.0, -2 * k_b) * b.diagonal()).sum())
    require_in_range(trace_b, k_b, "cov_b")
    k = unit_scale_exponent(max(float(a.trace()), math.ldexp(trace_b, 2 * k_b)))
    c = math.ldexp(1.0, -2 * k)
    a, b = c * a, c * b
    trace_a, trace_b = a.trace(), b.trace()
    half = _rebuild(np.sqrt(np.maximum(np.ldexp(vals, 2 * (k_a - k)), 0.0)), vecs)
    cross_vals = _eigvalsh(sym(half @ b @ half))
    # the product is checked at the scale it inherits from a and b (near
    # zero when their ranges are disjoint, whatever its roundoff), then
    # clamped; a NaN, from a b far from PSD that the scale overflowed, fails
    if not cross_vals[0] >= -EIG_TOL * (1.0 + abs(trace_a) * abs(trace_b)):
        raise NotPsdError(f"bw2: A^1/2 B A^1/2 has eigenvalue {cross_vals[0]:.3e}")
    cross_vals = np.maximum(cross_vals, 0.0)
    value = float(trace_a + trace_b - 2.0 * np.sqrt(cross_vals).sum())
    # eigenvalue roundoff passes through the square root as ~sqrt(eps);
    # anything more negative than that indicates a genuine bug
    floor = -64.0 * _ROOT_EPS * (abs(trace_a) + abs(trace_b) + 1.0)
    if value < floor:
        raise LinalgError(f"bw2 came out {value:.3e}, below the roundoff floor")
    require_in_range(value, k, "cov_a + cov_b")  # the distance is at most their trace
    return math.ldexp(max(value, 0.0), 2 * k)


def bw2_gradient_from_inner(
    root: np.ndarray, inner_vals: np.ndarray, inner_vecs: np.ndarray
) -> np.ndarray:
    """``I - F^{1/2} (F^{1/2} S F^{1/2})^{-1/2} F^{1/2}`` for ``F =
    diag(root**2)`` (any ``F`` in its eigenbasis) and the spectral
    decomposition of ``F^{1/2} S F^{1/2}``, its eigenvalues clamped at zero.

    Inner eigenvalues below the rank cutoff are floored there, so a flat
    ``S`` gives a large but finite gradient pointing back into the interior.
    The product is formed as ``I - w @ w.T`` with ``w = F^{1/2} V
    diag(lambda)^{-1/4}``, a Gram form that numpy computes with BLAS
    ``syrk``, so the gradient is exactly symmetric without a ``sym``.
    """
    # default_rank_tol without its abs, which a clamped spectrum does not need
    floor = max(inner_vals.size * float(inner_vals.max()) * RANK_REL, _TINY)
    w = root[:, None] * inner_vecs * np.maximum(inner_vals, floor) ** -0.25
    return _identity(root.size) - w @ w.T


@functools.lru_cache(maxsize=32)
def _identity(d: int) -> np.ndarray:
    """A read-only identity, shared by every gradient of its dimension."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye
