"""Bures-Wasserstein distance between Gaussians, read through the Gaussian
solver's pair record and evaluated by the descent's objective."""

from __future__ import annotations

import math

import numpy as np

from .gaussian import _decompose
from .linalg import require_in_range, sym
from .pgd import _Objective


def bw2(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """Squared Bures-Wasserstein distance between two PSD matrices.

    ``tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2})``, clamped at zero.
    Equals the squared quadratic Wasserstein distance between the centered
    Gaussians with these covariances.

    Both are read as :func:`project_pair` reads its pair, into a record at
    unit scale (divided by ``4^k``, the larger top eigenvalue in ``[4^k,
    4^(k+1))``), so each is PSD-tested at its own scale.  The value is the
    descent's objective there, in the record's eigenbasis of ``B``,
    multiplied back by ``4^k``.  Powers of two are exact, so ``4^j`` times a
    pair gives exactly ``4^j`` times its distance.
    """
    pair = _decompose(cov_a, cov_b, ("cov_a", "cov_b"))
    vals, vecs = pair.nu_eig
    value = _Objective(vals).value(sym(vecs.T @ pair.cov_mu @ vecs))[0]
    require_in_range(value, pair.scale_exponent, "cov_a + cov_b")  # at most their trace
    return math.ldexp(max(value, 0.0), 2 * pair.scale_exponent)
