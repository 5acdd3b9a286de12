"""Deterministic symmetric linear algebra.

Spectral decompositions, matrix square roots, positive parts, Loewner-order
tests, the transport-map eigenbasis and the shared-correlation conjugation
used by the Gaussian projection solvers.

All functions are pure and operate on plain ``numpy`` arrays.  Eigenvalue
ordering (descending) and eigenvector signs (first significant entry
positive) are fixed so that repeated runs and golden tests are stable.
"""

from __future__ import annotations

import numpy as np

# Relative rank cutoff: an eigenvalue counts as nonzero when it exceeds
# d * lambda_max * RANK_REL.  Roughly 50 bits of headroom above roundoff.
RANK_REL = 2.0**-50
# Absolute PSD slack on unit-scaled input; inputs with eigenvalues below
# -EIG_TOL * scale are rejected, small negatives are clamped to zero.
EIG_TOL = 1e-12
CORR_TOL = 1e-10


class LinalgError(Exception):
    """Base class for linear-algebra failures."""


class EigenSolveError(LinalgError):
    """Eigensolver failed to converge; carries the residual diagnostics."""


class NotPsdError(LinalgError):
    """Input matrix has an eigenvalue below the PSD tolerance."""


def sym(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize, killing roundoff asymmetry."""
    m = np.asarray(matrix, dtype=float)
    return 0.5 * (m + m.T)


def sym_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a symmetric matrix.

    Returns ``(eigenvalues, basis)`` with eigenvalues sorted descending and
    orthonormal eigenvectors as columns of ``basis``.  Deterministic sign
    convention: the first entry of each eigenvector whose magnitude exceeds
    1e-12 of the column maximum is made positive.
    """
    a = sym(matrix)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"symmetric eigensolver did not converge on a {a.shape[0]}x{a.shape[0]} "
            f"matrix (|off| = {np.abs(a - np.diag(np.diag(a))).max():.3e})"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order].copy()
    vecs = vecs[:, order].copy()
    if vecs.size == 0:
        return vals, vecs
    mags = np.abs(vecs)
    significant = mags > 1e-12 * mags.max(axis=0)
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(significant.any(axis=0) & (lead < 0.0), -1.0, 1.0)
    return vals, vecs


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """Rank cutoff d * lambda_max * 2**-50 for a PSD spectrum."""
    top = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    return eigenvalues.size * top * RANK_REL


def psd_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a PSD matrix with eigenvalue clamping.

    Eigenvalues in ``[-EIG_TOL * scale, 0]`` are clamped to zero; anything
    below that raises :class:`NotPsdError`.  Meant for raw input; a matrix
    derived from validated input goes through :func:`clamped_eigen`.
    """
    vals, vecs = sym_eigen(matrix)
    scale = 1.0 + (float(np.abs(vals).max()) if vals.size else 0.0)
    if vals.size and vals[-1] < -EIG_TOL * scale:
        raise NotPsdError(
            f"matrix is not positive semi-definite (min eigenvalue {vals[-1]:.3e})"
        )
    return np.clip(vals, 0.0, None), vecs


def _rebuild(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return sym((vecs * vals) @ vecs.T)


def clamped_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eigen` with negative eigenvalues clamped to zero, unchecked.

    For matrices derived from validated PSD input (products, blocks), whose
    negative eigenvalues are roundoff at the scale of that input rather than
    at their own.
    """
    vals, vecs = sym_eigen(matrix)
    return np.clip(vals, 0.0, None), vecs


def spd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix."""
    vals, vecs = psd_eigen(matrix)
    return _rebuild(np.sqrt(vals), vecs)


def positive_part(matrix: np.ndarray) -> np.ndarray:
    """Spectral positive part: eigenvalues clamped at zero, same basis."""
    return _rebuild(*clamped_eigen(matrix))


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ``a <= b`` in the Loewner order up to ``tol``."""
    return loewner_gap(a, b) >= -tol


def loewner_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of ``b - a`` (negative means the order fails)."""
    vals, _ = sym_eigen(sym(b) - sym(a))
    return float(vals[-1])


def positive_diag_mask(matrix: np.ndarray) -> np.ndarray:
    """Diagonal entries above the rank cutoff ``d * max_diag * RANK_REL``."""
    diag = np.diag(matrix)
    top = max(float(diag.max(initial=0.0)), 0.0)
    return diag > diag.size * top * RANK_REL


def cleaned_diag(matrix: np.ndarray) -> np.ndarray:
    """Diagonal with sub-cutoff entries (roundoff leftovers of exact zeros)
    flushed to zero; used wherever a square root would amplify the noise."""
    return np.where(positive_diag_mask(matrix), np.clip(np.diag(matrix), 0.0, None), 0.0)


def transport_map_basis(vals: np.ndarray, vecs: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Eigenbasis of the optimal-transport map ``s1^{-1/2} (s1^{1/2} s2
    s1^{1/2})^{1/2} s1^{-1/2}`` for a nonsingular ``s1`` given by its
    eigenpairs ``(vals, vecs)``."""
    half = _rebuild(np.sqrt(vals), vecs)
    inv_half = _rebuild(1.0 / np.sqrt(vals), vecs)
    mid_vals, mid_vecs = clamped_eigen(sym(half @ s2 @ half))
    middle = _rebuild(np.sqrt(mid_vals), mid_vecs)
    _, basis = sym_eigen(sym(inv_half @ middle @ inv_half))
    return basis


def conjugate_to_shared_correlation(
    s1: np.ndarray, s2: np.ndarray, eig1: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Orthogonal ``O`` and correlation ``C`` shared by two nonsingular PSD
    matrices, with the conjugated matrices ``m_k = O.T @ s_k @ O``.

    ``eig1`` is the :func:`psd_eigen` pair of ``s1``; ``O`` is the
    :func:`transport_map_basis` and ``C`` the correlation of ``m1``.  Returns
    ``None`` when ``m2 == dg^{1/2} C dg^{1/2}`` misses by more than
    ``CORR_TOL`` relative to its Frobenius norm.
    """
    basis = transport_map_basis(*eig1, s2)
    m1 = sym(basis.T @ s1 @ basis)
    m2 = sym(basis.T @ s2 @ basis)
    scale1 = np.sqrt(np.diag(m1))
    corr = m1 / np.outer(scale1, scale1)
    np.fill_diagonal(corr, 1.0)
    for m in (m1, m2):
        scale = np.sqrt(cleaned_diag(m))
        rebuilt = np.outer(scale, scale) * corr
        if np.linalg.norm(rebuilt - m) / (1.0 + np.linalg.norm(m)) > CORR_TOL:
            return None
    return basis, corr, m1, m2
