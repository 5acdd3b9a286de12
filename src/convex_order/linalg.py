"""Deterministic symmetric linear algebra.

Spectral decompositions, matrix square roots, positive parts, Loewner-order
tests, the transport-map eigenbasis and the shared-correlation orthogonal
transform used by the Gaussian projection solvers.

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
ORTHO_TOL = 1e-10
CORR_TOL = 1e-10


class LinalgError(Exception):
    """Base class for linear-algebra failures."""


class EigenSolveError(LinalgError):
    """Eigensolver failed to converge; carries the residual diagnostics."""


class NotPsdError(LinalgError):
    """Input matrix has an eigenvalue below the PSD tolerance."""


class CorrelationResidualError(LinalgError):
    """No shared-correlation decomposition within tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


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


def psd_eigen(
    matrix: np.ndarray, eig_tol: float = EIG_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a PSD matrix with eigenvalue clamping.

    Eigenvalues in ``[-eig_tol * scale, 0]`` are clamped to zero; anything
    below that raises :class:`NotPsdError`.
    """
    vals, vecs = sym_eigen(matrix)
    scale = 1.0 + (float(np.abs(vals).max()) if vals.size else 0.0)
    if vals.size and vals[-1] < -eig_tol * scale:
        raise NotPsdError(
            f"matrix is not positive semi-definite (min eigenvalue {vals[-1]:.3e})"
        )
    return np.clip(vals, 0.0, None), vecs


def _rebuild(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return sym((vecs * vals) @ vecs.T)


def spd_sqrt(matrix: np.ndarray, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix."""
    vals, vecs = psd_eigen(matrix, eig_tol)
    return _rebuild(np.sqrt(vals), vecs)


def positive_part(matrix: np.ndarray) -> np.ndarray:
    """Spectral positive part: eigenvalues clamped at zero, same basis."""
    vals, vecs = sym_eigen(matrix)
    return _rebuild(np.clip(vals, 0.0, None), vecs)


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
    middle = spd_sqrt(sym(half @ s2 @ half))
    _, basis = sym_eigen(sym(inv_half @ middle @ inv_half))
    return basis


def _shared_correlation_basis(
    s1: np.ndarray,
    s2: np.ndarray,
    eig1: tuple[np.ndarray, np.ndarray],
    eig2: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Orthogonal basis under which ``s1`` and ``s2`` share a correlation.

    ``eig1`` and ``eig2`` are the :func:`psd_eigen` pairs of the inputs.
    When both matrices are nonsingular this is :func:`transport_map_basis`.
    A singular matrix is diagonalized first (its kernel is then split off
    exactly rather than through ill-conditioned inverse square roots) and
    the construction recurses on the top-rank block, so the number of
    positive diagonal entries of the conjugated singular matrix equals its
    rank.
    """
    d = s1.shape[0]
    vals, vecs = eig1
    rank = int(np.sum(vals > default_rank_tol(vals)))
    if rank == d:
        if int(np.sum(eig2[0] > default_rank_tol(eig2[0]))) < d:
            return _shared_correlation_basis(s2, s1, eig2, eig1)  # shared-ness is symmetric
        return transport_map_basis(vals, vecs, s2)
    if rank == 0:
        return eig2[1]
    conj = sym(vecs.T @ s2 @ vecs)
    top1, top2 = np.diag(vals[:rank]), conj[:rank, :rank]
    top = _shared_correlation_basis(top1, top2, psd_eigen(top1), psd_eigen(top2))
    block = np.eye(d)
    block[:rank, :rank] = top
    return vecs @ block


def _correlation_from_pair(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Assemble the shared correlation matrix from two conjugated matrices.

    Entries are forced by ``m1`` where both of its diagonals are positive,
    else by ``m2``.  Cross entries between coordinates seen only by ``m1``
    and coordinates seen only by ``m2`` are completed through the common
    block (conditional-independence completion, which keeps the result
    PSD); coordinates degenerate in both matrices get a unit diagonal and
    zero off-diagonals.
    """
    d = m1.shape[0]
    mask1 = positive_diag_mask(m1)
    mask2 = positive_diag_mask(m2)
    corr = np.zeros((d, d))

    def fill(matrix: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return
        scale = np.sqrt(np.diag(matrix)[idx])
        out[np.ix_(idx, idx)] = matrix[np.ix_(idx, idx)] / np.outer(scale, scale)

    fill(m2, mask2, corr)
    fill(m1, mask1, corr)  # m1 wins on the overlap

    only1 = np.nonzero(mask1 & ~mask2)[0]
    only2 = np.nonzero(mask2 & ~mask1)[0]
    both = np.nonzero(mask1 & mask2)[0]
    if only1.size and only2.size:
        if both.size:
            bridge = corr[np.ix_(only1, both)] @ np.linalg.pinv(
                corr[np.ix_(both, both)]
            ) @ corr[np.ix_(both, only2)]
        else:
            bridge = np.zeros((only1.size, only2.size))
        corr[np.ix_(only1, only2)] = bridge
        corr[np.ix_(only2, only1)] = bridge.T
    np.fill_diagonal(corr, 1.0)
    return sym(corr)


def conjugate_to_shared_correlation(
    s1: np.ndarray,
    s2: np.ndarray,
    eig1: tuple[np.ndarray, np.ndarray],
    eig2: tuple[np.ndarray, np.ndarray],
    corr_tol: float = CORR_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`shared_correlation_transform` for symmetric inputs whose
    :func:`psd_eigen` pairs are at hand; also returns the two conjugated
    matrices ``O.T @ s_k @ O``."""
    basis = _shared_correlation_basis(s1, s2, eig1, eig2)
    m1 = sym(basis.T @ s1 @ basis)
    m2 = sym(basis.T @ s2 @ basis)
    corr = _correlation_from_pair(m1, m2)
    worst = 0.0
    for m in (m1, m2):
        scale = np.sqrt(cleaned_diag(m))
        rebuilt = np.outer(scale, scale) * corr
        worst = max(worst, float(np.linalg.norm(rebuilt - m) / (1.0 + np.linalg.norm(m))))
    if worst > corr_tol:
        raise CorrelationResidualError(
            "shared-correlation reconstruction failed", worst
        )
    return basis, corr, m1, m2


def shared_correlation_transform(
    s1: np.ndarray, s2: np.ndarray, corr_tol: float = CORR_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal ``O`` and correlation ``C`` shared by two PSD matrices.

    After conjugation, ``O.T @ s_k @ O == dg^{1/2} C dg^{1/2}`` holds for
    both inputs with ``dg`` the respective diagonal parts.  Raises
    :class:`CorrelationResidualError` if the reconstruction residual
    exceeds ``corr_tol`` (relative to each input's Frobenius norm).
    """
    s1 = sym(s1)
    s2 = sym(s2)
    basis, corr, _, _ = conjugate_to_shared_correlation(
        s1, s2, psd_eigen(s1), psd_eigen(s2), corr_tol
    )
    return basis, corr
