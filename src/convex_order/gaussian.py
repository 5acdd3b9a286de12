"""Closed-form Wasserstein projections in the convex order for Gaussians.

Both projections are driven by one object: an orthogonal change of basis
``O`` together with a diagonal contraction ``D`` (entries in ``[0, 1]``)
certified to satisfy ``D (O' Smu O) D <= O' Snu O`` in the Loewner order.
Given such a pair,

* the projection of ``N(0, Smu)`` onto the measures dominated by
  ``N(0, Snu)`` has covariance ``O D O' Smu O D O'``,
* the projection of ``N(0, Snu)`` onto the measures dominating
  ``N(0, Smu)`` has covariance assembled entrywise from ``O' Snu O``
  rescaled by ``1 / (D_ii D_jj)`` (falling back to the entries of
  ``O' Smu O`` on coordinates where ``O' Snu O`` is degenerate),
* both squared distances equal ``sum_i (sqrt((O'SmuO)_ii) -
  sqrt((O'SnuO)_ii))_+^2``, a lower bound on the distance for every
  orthogonal ``O``: a certified basis is optimal, however it was found.

Each public call validates and decomposes ``Smu`` and ``Snu`` once into a
pair record at unit scale, divided by the power of four ``4^k``
(``diagnostics["scale_exponent"]``) that brings the larger top eigenvalue
into ``[1, 4)``; each output in covariance units is multiplied back by
``4^k`` where it is built.  Both projections commute with dilations and
powers of two are exact, so every tolerance acts at unit scale.  The solve
tries candidate bases, decided by the certificate: the identity for a
rank-0 ``Snu``; the eigenbasis of ``Snu`` when both have full rank and
``Smu`` is diagonal in it (the commuting case, where one basis
diagonalises both); then the projected-gradient solver's (the transport
map of its dominating-side answer) for a full-rank ``Snu``, or else the
rank reduction's, which solves the full-rank problem on the range of
``Snu``.  Only the first certified candidate is assembled, and with it
the verdict ``ProjectionResult.uniqueness``: is the dominating side unique
among all measures?  It reads the record and, on a singular ``Snu``, the
rank of the dominating projection.
Matrices derived from validated input are clamped, not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (
    LinalgError,
    _ordered,
    _rebuild,
    _validated_eigh,
    clamped_eigen,
    default_rank_tol,
    loewner_leq,
    positive_diag_mask,
    sym,
    sym_eigen,
    transport_map_basis,
    unit_scale_exponent,
)
from .measures import require_square
from .pgd import pgd_project_above

# Order tolerance: certification wants the order residual above
# -ORDER_REL * (1 + lambda_max(Snu)), at unit scale.
ORDER_REL = 1e-7
# The commuting case: Smu, conjugated into the eigenbasis of Snu, has a
# correlation within this bound of I (off-diagonal Frobenius norm), and that
# basis certifies at roundoff level, above -CLOSED_FORM_REL * (1 + lambda_max(Snu)).
CLOSED_FORM_REL = 1e-10
# Eigenvalues within this factor of the rank cutoff make the uniqueness
# test refuse to classify.
RANK_BAND = 10.0


class CertificationError(LinalgError):
    """The candidate transform failed the Loewner certification.

    Carries the best candidate and its residual; signals solver
    under-convergence rather than an impossible instance.
    """

    def __init__(self, transform: "OrderTransform"):
        super().__init__(
            f"order transform failed certification "
            f"(residual={transform.order_residual:.3e})"
        )
        self.transform = transform


@dataclass(frozen=True)
class OrderTransform:
    """Orthogonal basis and diagonal contraction certifying the order.

    ``ratios`` holds the diagonal of ``D``: ``min(1, sqrt(nu_ii / mu_ii))``
    on the conjugated diagonals, with the convention ``1`` where the
    mu-diagonal vanishes.  ``order_residual`` is the smallest eigenvalue of
    ``O'SnuO - D O'SmuO D`` (certification wants it above
    ``-ORDER_REL * (1 + lambda_max(Snu))`` at unit scale, or above
    ``-CLOSED_FORM_REL * (1 + lambda_max(Snu))`` for the commuting basis).
    """

    basis: np.ndarray
    ratios: np.ndarray
    order_residual: float
    certified: bool


@dataclass(frozen=True)
class UniquenessVerdict:
    """Is the dominating-side projection unique among all measures?

    ``unique`` is ``None`` when an eigenvalue lies within a factor
    ``RANK_BAND`` of a rank cutoff; ``reason`` then names the matrix and the
    cutoff, in the caller's units.
    """

    unique: bool | None
    reason: str


@dataclass(frozen=True)
class ProjectionResult:
    """One side of a solved pair.  Both sides share ``transform``,
    ``method``, ``diagnostics`` (with ``scale_exponent``) and
    ``uniqueness``, the verdict on the dominating side."""

    covariance: np.ndarray
    distance_sq: float
    transform: OrderTransform
    method: str
    diagnostics: dict[str, Any]
    uniqueness: UniquenessVerdict


@dataclass(frozen=True)
class _Pair:
    """A validated covariance pair decomposed once per solve: both
    covariances and their clamped spectral decompositions (in no fixed
    order), divided by ``4^scale_exponent``, the eigenvalues of ``cov_nu``
    before the clamp (they order its basis on the reduction route, as
    :func:`sym_eigen` would), the ranks, the rank cutoff of ``cov_nu``, the
    order tolerance, and ``unit = 4^scale_exponent``, the factor that takes
    an output into the caller's units."""

    cov_mu: np.ndarray
    cov_nu: np.ndarray
    mu_eig: tuple[np.ndarray, np.ndarray]
    nu_eig: tuple[np.ndarray, np.ndarray]
    nu_unclamped: np.ndarray
    rank_mu: int
    rank_nu: int
    nu_cutoff: float
    order_tol: float
    scale_exponent: int
    unit: float


def _rank(vals: np.ndarray) -> int:
    return int((vals > default_rank_tol(vals)).sum())


def _pair(
    cov_mu: np.ndarray, cov_nu: np.ndarray, mu_eig: tuple, nu_eig: tuple,
    nu_unclamped: np.ndarray, k: int,
) -> _Pair:
    nu_vals = nu_eig[0]
    nu_cutoff = default_rank_tol(nu_vals)
    order_tol = ORDER_REL * (1.0 + (float(nu_vals.max()) if nu_vals.size else 0.0))
    return _Pair(cov_mu, cov_nu, mu_eig, nu_eig, nu_unclamped, _rank(mu_eig[0]),
                 int((nu_vals > nu_cutoff).sum()), nu_cutoff, order_tol, k,
                 math.ldexp(1.0, 2 * k))


def _decompose(cov_mu: np.ndarray, cov_nu: np.ndarray) -> _Pair:
    """Validate a raw covariance pair (nonempty, square, equal shapes,
    finiteness, PSD), decompose it and divide it by ``4^k``, the larger top
    eigenvalue in ``[4^k, 4^(k+1))`` (``k = 0`` below ``2^-1000``): the only
    check a public call makes on its inputs.  Each covariance is
    eigensolved once, divided by the power of four that brings the largest
    diagonal entry of the pair (which, unlike the trace, cannot overflow)
    into ``[1, 4)``, so LAPACK never rescales it.  Powers of two are exact,
    so the spectra are those of the record's pair, and the PSD test and its
    message are those of the caller's matrix."""
    cov_mu = np.atleast_2d(np.asarray(cov_mu, dtype=float))
    cov_nu = np.atleast_2d(np.asarray(cov_nu, dtype=float))
    require_square(cov_mu, "cov_mu")
    require_square(cov_nu, "cov_nu")
    cov_mu, cov_nu = sym(cov_mu), sym(cov_nu)
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    j = unit_scale_exponent(max(cov_mu.diagonal().max(), cov_nu.diagonal().max()))
    c = math.ldexp(1.0, -2 * j)
    nu_raw, nu_vecs = _validated_eigh(c * cov_nu, c, "cov_nu")
    mu_vals, mu_vecs = _validated_eigh(c * cov_mu, c, "cov_mu")
    nu_vals, mu_vals = np.maximum(nu_raw, 0.0), np.maximum(mu_vals, 0.0)
    top = max(mu_vals.max(initial=0.0), nu_vals.max(initial=0.0))
    k = unit_scale_exponent(math.ldexp(top, 2 * j))
    r = math.ldexp(1.0, 2 * (j - k))  # from the solved scale to the record's
    c = math.ldexp(1.0, -2 * k)
    return _pair(c * cov_mu, c * cov_nu, (r * mu_vals, mu_vecs), (r * nu_vals, nu_vecs),
                 r * nu_raw, k)


def _certify(
    pair: _Pair, basis: np.ndarray, tol: float
) -> tuple[OrderTransform, tuple[np.ndarray, ...]]:
    """The certificate on a candidate ``basis``: its transform, certified
    when the order residual is at least ``-tol`` at unit scale (it is
    reported in the caller's units), and the conjugates that
    :func:`_assemble` reads.  A refused candidate costs two conjugations and
    one ``eigvalsh``.

    ``D_ii = min(1, sqrt(nu_ii / mu_ii))``, with 1 where ``mu_ii`` vanishes.
    Diagonals outside :func:`positive_diag_mask` are flushed to zero first
    (they are exact zeros plus conjugation roundoff, and the square root
    would amplify them); those inside it are positive.
    """
    m_mu = sym(basis.T @ pair.cov_mu @ basis)
    m_nu = sym(basis.T @ pair.cov_nu @ basis)
    mu_pos = positive_diag_mask(m_mu)
    nu_pos = positive_diag_mask(m_nu)
    mu_diag = np.where(mu_pos, m_mu.diagonal(), 0.0)
    nu_diag = np.where(nu_pos, m_nu.diagonal(), 0.0)
    ratios = np.sqrt(nu_diag / np.where(mu_pos, mu_diag, 1.0))
    d = np.where(mu_pos, np.minimum(1.0, ratios), 1.0)
    contracted = d[:, None] * m_mu * d[None, :]
    # the order residual, the Loewner gap of contracted below m_nu; the
    # record is at unit scale already, and m_nu exactly symmetric
    gap = float(np.linalg.eigvalsh(m_nu - sym(contracted)).min())
    transform = OrderTransform(basis=basis, ratios=d, order_residual=pair.unit * gap,
                               certified=bool(gap >= -tol))
    return transform, (m_mu, m_nu, nu_pos, mu_diag, nu_diag, contracted)


def _assemble(
    pair: _Pair, transform: OrderTransform, conjugates: tuple[np.ndarray, ...], method: str,
    diagnostics: dict[str, Any],
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections in the basis of :func:`_route`'s candidate, which
    must be certified (:class:`CertificationError` otherwise), in the
    caller's units, sharing the squared distance, the diagnostics with
    ``scale_exponent`` and the verdict of :func:`_uniqueness`."""
    if not transform.certified:
        raise CertificationError(transform)
    diagnostics = {**diagnostics, "scale_exponent": pair.scale_exponent}
    m_mu, m_nu, nu_pos, mu_diag, nu_diag, contracted = conjugates
    basis, d = transform.basis, transform.ratios
    below = sym(basis @ contracted @ basis.T)

    safe_d = np.where(d > 0.0, d, 1.0)  # d vanishes only where nu_diag does
    scaled = m_nu / (safe_d[:, None] * safe_d[None, :])
    above_tilde = np.where(nu_pos[:, None] & nu_pos[None, :], scaled, m_mu)
    above = sym(basis @ above_tilde @ basis.T)

    distance_sq = pair.unit * float(
        (np.maximum(np.sqrt(mu_diag) - np.sqrt(nu_diag), 0.0) ** 2).sum()
    )
    uniqueness = _uniqueness(pair, above)
    return tuple(
        ProjectionResult(pair.unit * cov, distance_sq, transform, method, diagnostics,
                         uniqueness)
        for cov in (below, above)
    )


def _route(pair: _Pair) -> tuple[OrderTransform, tuple[np.ndarray, ...], str, dict[str, Any]]:
    """Solve a validated pair: candidate bases, decided by the certificate.

    Returns the first candidate the certificate accepts, as its transform,
    conjugates, method and diagnostics (in the caller's units): the identity
    on a zero target; the ordered eigenbasis of ``cov_nu`` when both
    covariances have full rank and ``cov_mu`` is diagonal in it (the
    commuting case), at ``CLOSED_FORM_REL``; then the basis of the descent,
    or of the rank reduction on a singular target, at ``ORDER_REL``,
    returned even if refused, for :func:`_assemble` to raise on."""
    d = pair.cov_nu.shape[0]
    if pair.rank_nu == 0:
        return (*_certify(pair, np.eye(d), pair.order_tol), "closed_form", {"rank_nu": 0})

    if pair.rank_nu == d and pair.rank_mu == d:
        vecs = pair.nu_eig[1]
        m_mu = vecs.T @ pair.cov_mu @ vecs
        scale = np.sqrt(m_mu.diagonal())
        off = m_mu / (scale[:, None] * scale[None, :])
        np.fill_diagonal(off, 0.0)  # the off-diagonal of its correlation
        if math.sqrt(np.vdot(off, off)) <= CLOSED_FORM_REL:
            tol = CLOSED_FORM_REL * (1.0 + float(pair.nu_eig[0].max()))
            transform, conjugates = _certify(pair, _ordered(pair.nu_unclamped, vecs)[1], tol)
            if transform.certified:
                return (transform, conjugates, "commuting",
                        {"order_residual": transform.order_residual})

    if pair.rank_nu == d:
        outcome, trace = pgd_project_above(pair.cov_nu, pair.nu_eig, pair.cov_mu,
                                           pair.mu_eig[0])
        # the gradient at the dominating projection is I minus the inverse of
        # the transport map from cov_nu onto it
        transform, conjugates = _certify(pair, transport_map_basis(outcome.gradient),
                                         pair.order_tol)
        diagnostics = {
            "iterations": outcome.iterations,
            "pgd_objective": pair.unit * outcome.objective,
            "pgd_residual": outcome.residual,
            "pgd_converged": outcome.converged,
            "stop_reason": outcome.stop_reason,
            "order_residual": transform.order_residual,
            "trace": {"objective": [pair.unit * f for f in trace.objective],
                      "grad_norm": trace.grad_norm},
        }
        return transform, conjugates, "pgd", diagnostics

    basis, inner_method, inner_diagnostics = _reduce(pair)
    transform, conjugates = _certify(pair, basis, pair.order_tol)
    diagnostics = {
        "rank_nu": pair.rank_nu,
        "order_residual": transform.order_residual,
        "reduced_method": inner_method,
        **{f"reduced_{k}": v for k, v in inner_diagnostics.items()},
    }
    return transform, conjugates, "singular_reduction", diagnostics


def _reduce(pair: _Pair) -> tuple[np.ndarray, str, dict[str, Any]]:
    """Rank reduction of a record with singular, nonzero ``cov_nu``: routes
    the nonsingular problem on the top ``rank_nu`` coordinates of
    ``cov_nu`` and returns the record's candidate basis built from the
    reduced candidate, with that candidate's method and diagnostics.  The
    reduced pair is never assembled; a refused reduced candidate raises
    :class:`CertificationError`.  The reduced record keeps the outer
    ``scale_exponent``, so both are in the caller's units.  The reduced
    target's spectrum is the top of ``cov_nu``'s, ordered before the clamp
    so that ties in the kernel keep their order; the reduced ``cov_mu``
    block, derived from validated input, is decomposed once and clamped."""
    nu_vals, nu_vecs = _ordered(pair.nu_unclamped, pair.nu_eig[1])
    rank = pair.rank_nu
    reduced_mu = sym(nu_vecs.T @ pair.cov_mu @ nu_vecs)[:rank, :rank].copy()
    mu_vals, mu_vecs = sym_eigen(reduced_mu)
    if mu_vals[-1] < 0.0:  # a block of PSD cov_mu: roundoff at the scale of cov_mu
        mu_vals = np.maximum(mu_vals, 0.0)
        reduced_mu = _rebuild(mu_vals, mu_vecs)
    top = nu_vals[:rank]
    reduced = _pair(reduced_mu, np.diag(top), (mu_vals, mu_vecs), (top, np.eye(rank)), top,
                    pair.scale_exponent)
    transform, _, method, diagnostics = _route(reduced)
    if not transform.certified:
        raise CertificationError(transform)
    # compose the spectral split of the target with the reduced solve's
    # rotation; the kernel coordinates keep the spectral basis vectors
    block = np.eye(pair.cov_nu.shape[0])
    block[:rank, :rank] = transform.basis
    return nu_vecs @ block, method, diagnostics


def project_pair(
    cov_mu: np.ndarray, cov_nu: np.ndarray
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections from one solve at unit scale: ``(below, above)``,
    in the caller's units.  A :class:`CertificationError` carries its
    transform in the caller's units too."""
    pair = _decompose(cov_mu, cov_nu)
    return _assemble(pair, *_route(pair))


def _saturated(pair: _Pair) -> bool:
    """``cov_nu <= (cov_nu^{1/2} cov_mu cov_nu^{1/2})^{1/2}`` on the record."""
    vals, vecs = pair.nu_eig
    tol = 1e-9 * (1.0 + (float(vals.max()) if vals.size else 0.0))
    half = _rebuild(np.sqrt(vals), vecs)
    probe_vals, probe_vecs = clamped_eigen(sym(half @ pair.cov_mu @ half))
    probe = _rebuild(np.sqrt(probe_vals), probe_vecs)
    return loewner_leq(pair.cov_nu, probe, tol)


def _refusal(vals: np.ndarray, cutoff: float, name: str, unit: float) -> str | None:
    """Why a spectrum cannot be ranked, or ``None``: an eigenvalue within a
    factor ``RANK_BAND`` of the rank ``cutoff``, which is printed times ``unit``."""
    if cutoff > 0.0 and ((vals > cutoff / RANK_BAND) & (vals < cutoff * RANK_BAND)).any():
        return (
            f"an eigenvalue of {name} lies within a factor {RANK_BAND} of "
            f"the rank cutoff {unit * cutoff:.3e}; refusing to classify"
        )
    return None


def _uniqueness(pair: _Pair, above: np.ndarray) -> UniquenessVerdict:
    """The verdict on the dominating side of a record: always unique for a
    positive definite or zero ``cov_nu``.  When ``cov_nu`` is singular,
    nonzero and clear of the rank band, it is unique iff ``above``, the
    dominating projection that :func:`_assemble` built at unit scale, keeps
    the rank of ``cov_nu`` or the saturation inequality holds.  An
    eigenvalue within a factor ``RANK_BAND`` of the rank cutoff of either
    matrix leaves it open (``unique is None``) instead of guessing a rank."""
    d = pair.cov_nu.shape[0]
    refusal = _refusal(pair.nu_eig[0], pair.nu_cutoff, "the dominating-side covariance",
                       pair.unit)
    if refusal:
        return UniquenessVerdict(None, refusal)
    if pair.rank_nu == d:
        return UniquenessVerdict(True, "nonsingular target covariance")
    if pair.rank_nu == 0:
        return UniquenessVerdict(
            True, "zero target covariance: the projection is the lower measure itself"
        )
    vals = clamped_eigen(above)[0]
    cutoff = default_rank_tol(vals)
    refusal = _refusal(vals, cutoff, "the assembled projection", pair.unit)
    if refusal:
        return UniquenessVerdict(None, refusal)
    rank_star = int((vals > cutoff).sum())
    if rank_star == pair.rank_nu:
        return UniquenessVerdict(True, "assembled covariance keeps the target rank")
    if _saturated(pair):
        return UniquenessVerdict(True, "saturation inequality holds")
    return UniquenessVerdict(
        False,
        f"rank grows from {pair.rank_nu} to {rank_star} and the saturation "
        "inequality fails: non-Gaussian projections with the same covariance exist",
    )
