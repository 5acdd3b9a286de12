"""Deterministic symmetric linear algebra.

Spectral decompositions, positive parts, the Loewner gap, the Bures
gradient and the transport-map eigenbasis, mapped out of the descent's
frame: the pieces of the Gaussian solvers' candidate bases and of the
certificate between them.

All functions are pure and operate on plain ``numpy`` arrays.  A caller's
matrix passes one gate, :func:`square_symmetric`, once per public call;
what is derived from its output is not checked again.  A caller's PSD
matrix is read by :func:`_validated_eigh` alone, at the unit scale of its
largest |entry|, the scale :func:`loewner_gap` takes too.  Every eigensolve
is :func:`_eigh` or :func:`_eigvalsh`, numpy's LAPACK gufunc called without
its wrapper (the same bits).  A failed solve, which the gufunc fills with
NaN (and numpy warns of), raises :class:`EigenSolveError` on a finite
matrix; a non-finite one keeps the NaN spectrum for its caller's PSD test.
Only bases that leave a call pay for the eigen-convention (eigenvalues
descending, signs fixed, :func:`_ordered`): those of
:func:`transport_map_basis`, and those a caller orders itself.  Validated
spectra and read spectra keep LAPACK's ascending order and raw signs, and
are read with ``min`` and ``max``; :func:`default_rank_tol` is their one rank
cutoff.  Every linear solve is :func:`_solve`, bound the same way, inside
one :func:`solve_rule` per loop.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

# Relative rank cutoff: an eigenvalue counts as nonzero when it exceeds
# d * lambda_max * RANK_REL.  Roughly 50 bits of headroom above roundoff.
RANK_REL = 2.0**-50
# PSD slack at a matrix's own unit scale (_validated_eigh); small negative
# eigenvalues within it are clamped to zero.
EIG_TOL = 1e-12
# the largest trace or top eigenvalue of a caller's covariance, and the largest
# |entry| of a caller's matrix, so that its symmetrisation stays finite
FLOAT_MAX = np.finfo(float).max
MAX_ENTRY = FLOAT_MAX / 2
_TINY = np.finfo(float).tiny


class LinalgError(Exception):
    """Base class for linear-algebra failures."""


class EigenSolveError(LinalgError):
    """Eigensolver failed to converge; carries the residual diagnostics."""


class NotPsdError(LinalgError):
    """Input matrix has an eigenvalue below the PSD tolerance."""


def unit_scale_exponent(top: float) -> int:
    """``k`` with ``top`` in ``[4^k, 4^(k+1))``, and ``k = 0`` below
    ``2^-1000`` (so ``4^-k`` stays finite): dividing matrices whose largest
    |entry|, top eigenvalue or trace is ``top`` by ``4^k`` brings them to
    unit scale exactly."""
    return (math.frexp(top)[1] - 1) // 2 if top >= 2.0**-1000 else 0


def require_in_range(value: float, k: int, name: str) -> None:
    """``ValueError`` naming ``name`` unless ``4^k |value|``, a trace or top
    eigenvalue of the caller's covariance at unit scale, is a double."""
    if k > 0 and not abs(value) <= math.ldexp(FLOAT_MAX, -2 * k):
        raise ValueError(f"{name} trace and top eigenvalue must lie within {FLOAT_MAX:.3e}")


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite (got NaN or inf)")


def sym(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize, killing roundoff asymmetry."""
    m = np.asarray(matrix, dtype=float)
    return 0.5 * (m + m.T)


def square_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    """The caller's ``matrix`` as a nonempty, square, symmetrised float array
    with finite entries within ``MAX_ENTRY`` (a scalar reads as 1x1), else
    ``ValueError`` naming ``name``: the one check on a raw matrix."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {np.shape(matrix)}")
    if not np.abs(m).max() <= MAX_ENTRY:  # NaN fails the comparison too
        require_finite(m, name)
        raise ValueError(f"{name} entries must lie within {MAX_ENTRY:.3e} in absolute value")
    return sym(m)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = _umath_linalg.eigh_lo(a, signature="d->dd")
    return _solved(vals, a), vecs


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    return _solved(_umath_linalg.eigvalsh_lo(a, signature="d->d"), a)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by numpy's LAPACK gufunc, the same bits; see :func:`solve_rule`."""
    gufunc = _umath_linalg.solve1 if b.ndim == a.ndim - 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


def solve_rule() -> np.errstate:
    """numpy's ``solve`` rule, for all in its scope (a loop enters it once): the
    invalid flag of a singular :func:`_solve` raises ``LinAlgError``; the rest pass."""
    def singular(err: str, flag: int) -> None:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.errstate(all="ignore", invalid="call", call=singular)


def _solved(vals: np.ndarray, a: np.ndarray) -> np.ndarray:
    if vals[-1] == vals[-1] or not np.isfinite(a).all():
        return vals
    raise EigenSolveError(f"symmetric eigensolver did not converge on a {len(a)}x{len(a)} "
                          f"matrix (|off| = {np.abs(a - np.diag(np.diag(a))).max():.3e})")


def _ordered(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigen-convention, for eigenpairs whose order or signs leave a call:
    eigenvalues descending (ties keep their order), and the first entry of
    each eigenvector whose magnitude exceeds 1e-12 of the column maximum
    made positive."""
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order].copy()  # C order, as every basis has had
    mags = np.abs(vecs)
    significant = mags > 1e-12 * mags.max(axis=0)
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(significant.any(axis=0) & (lead < 0.0), -1.0, 1.0)
    return vals, vecs


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """Rank cutoff ``d * lambda_max * RANK_REL`` of a clamped spectrum or a
    diagonal, with its top entry clamped at zero."""
    return eigenvalues.size * float(eigenvalues.max(initial=0.0)) * RANK_REL


def _validated_eigh(
    matrix: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The one reader of a caller's PSD ``matrix``: the gated matrix, the
    eigenpairs of ``4^-k`` times it (unclamped, LAPACK's ascending order and
    raw signs), and ``k``, from its largest |entry|, which for a PSD matrix
    is its largest diagonal entry and cannot overflow.  At that scale an
    eigenvalue below ``-EIG_TOL * (1 + m)``, with ``m`` the largest
    eigenvalue magnitude, raises :class:`NotPsdError` naming ``name``, with
    the eigenvalue in the caller's units: ``4^j M`` gets ``M``'s verdict.  A
    trace or top eigenvalue beyond ``FLOAT_MAX`` raises ``ValueError``."""
    m = square_symmetric(matrix, name)
    k = unit_scale_exponent(float(np.abs(m).max()))
    vals, vecs = _eigh(math.ldexp(1.0, -2 * k) * m)
    low = float(vals[0])  # LAPACK returns the spectrum ascending
    if not low >= -EIG_TOL * (1.0 + max(-low, float(vals[-1]))):
        low *= math.ldexp(1.0, 2 * k)  # in the caller's units
        raise NotPsdError(f"{name} is not positive semi-definite (min eigenvalue {low:.3e})")
    require_in_range(float(np.abs(vals).sum()), k, name)
    return m, vals, vecs, k


def clamped_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix (its lower triangle is read), negative
    eigenvalues clamped to zero unchecked, in LAPACK's ascending order with
    raw signs: only to rebuild a matrix or read order-free quantities.  For
    matrices derived from validated PSD input (products, blocks), whose
    negative eigenvalues are roundoff at the scale of that input: nothing
    but the solve is checked, since the descent calls it on every candidate."""
    vals, vecs = _eigh(matrix)
    return np.maximum(vals, 0.0), vecs


def positive_part(matrix: np.ndarray) -> np.ndarray:
    """Positive part of a symmetric matrix (its lower triangle is read):
    eigenvalues clamped at zero, rebuilt in Gram form, so the result is
    exactly symmetric.  Unchecked, as :func:`clamped_eigen` is: the descent
    projects every candidate with it."""
    vals, vecs = clamped_eigen(matrix)
    root = vecs * np.sqrt(vals)
    return root @ root.T


def loewner_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of ``b - a`` (negative means the order fails).

    Computed at unit scale: both matrices are divided by ``4^k``, the
    pair's largest |entry| in ``[4^k, 4^(k+1))``, as :func:`_validated_eigh`,
    and the eigenvalue is multiplied back by ``4^k``.  So ``4^j`` times a
    pair gives exactly ``4^j`` times its gap, where in caller units LAPACK
    would rescale a matrix beyond about 1e146 (or below 1e-146) by a factor
    that is not a power of two.  Raises ``ValueError`` on unequal shapes or
    through :func:`square_symmetric`.
    """
    a, b = square_symmetric(a, "a"), square_symmetric(b, "b")
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    k = unit_scale_exponent(max(float(np.abs(a).max()), float(np.abs(b).max())))
    c = math.ldexp(1.0, -2 * k)
    return float(_eigvalsh(c * b - c * a).min()) * math.ldexp(1.0, 2 * k)


def positive_diag_mask(matrix: np.ndarray) -> np.ndarray:
    """Diagonal entries above the rank cutoff of the diagonal, :func:`default_rank_tol`."""
    diag = matrix.diagonal()
    return diag > default_rank_tol(diag)


def transport_map_basis(gradient: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The ordered eigenbasis of a Bures gradient ``G = grad_S bw2(F, S) =
    I - T^{-1}`` between nonsingular ``F`` and ``S``, given in the
    orthonormal ``frame`` (its lower triangle is read), mapped out of it.
    ``T = F^{-1/2} (F^{1/2} S F^{1/2})^{1/2} F^{-1/2}`` is the
    optimal-transport map from ``N(0, F)`` onto ``N(0, S)``.  Its columns
    are eigenvectors of ``T``, and ``G``'s eigenvalues ``1 - 1/t`` increase
    with ``T``'s eigenvalues ``t``, so :func:`_ordered` puts them in the
    order of ``T``'s descending spectrum."""
    vals, vecs = _eigh(gradient)
    return _ordered(vals, frame @ vecs)[1]


def bw2_gradient_from_inner(
    root: np.ndarray, inner_vals: np.ndarray, inner_vecs: np.ndarray
) -> np.ndarray:
    """``I - F^{1/2} (F^{1/2} S F^{1/2})^{-1/2} F^{1/2}`` for ``F =
    diag(root**2)`` (any ``F`` in its eigenbasis) and the spectral
    decomposition of ``F^{1/2} S F^{1/2}``, its eigenvalues clamped at zero.

    Inner eigenvalues below the rank cutoff, :func:`default_rank_tol`, are
    floored there, so a flat ``S`` gives a large but finite gradient pointing
    back into the interior.
    The product is formed as ``I - w @ w.T`` with ``w = F^{1/2} V
    diag(lambda)^{-1/4}``, a Gram form that numpy computes with BLAS
    ``syrk``, so the gradient is exactly symmetric without a ``sym``.
    """
    floor = max(default_rank_tol(inner_vals), _TINY)
    w = root[:, None] * inner_vecs * np.maximum(inner_vals, floor) ** -0.25
    return _identity(root.size) - w @ w.T


@functools.lru_cache(maxsize=32)
def _identity(d: int) -> np.ndarray:
    """A read-only identity, shared by every gradient of its dimension."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye
