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
tries candidate bases, decided by the certificate, both in the record's
eigenbasis of ``Snu``; on a singular ``Snu`` they read the block of ``Smu``
on its range, and the eigenvectors of ``Snu``'s kernel complete the basis.
The first is that eigenbasis itself (``commuting``: one basis diagonalises
both, and a zero ``Snu`` is this case on an empty block), tried when the
off-diagonal of the block is within the tolerance at which it is then
certified; the second is the projected-gradient solver's (``pgd``: the
transport map of its dominating-side answer).  Each is certified once, on
the record.  Only the first certified candidate is assembled, and with it
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
    _eigvalsh,
    _ordered,
    _validated_eigh,
    clamped_eigen,
    default_rank_tol,
    positive_diag_mask,
    sym,
    transport_map_basis,
    unit_scale_exponent,
)
from .pgd import _Objective, pgd_project_above

# Order tolerance: certification wants the order residual above
# -ORDER_REL * (1 + lambda_max(Snu)), at unit scale.
ORDER_REL = 1e-7
# The commuting case: Smu, conjugated into the eigenbasis of Snu, has an
# off-diagonal of Frobenius norm at most CLOSED_FORM_REL * (1 + lambda_max(Snu))
# at unit scale, and that basis certifies at the same tolerance.
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
    ``O'SnuO - D O'SmuO D``: at unit scale, certification wants it above
    ``-ORDER_REL * (1 + lambda_max(Snu))`` for the descent's basis, and above
    ``-CLOSED_FORM_REL * (1 + lambda_max(Snu))`` for the eigenbasis of ``Snu``.
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
    """A validated covariance pair decomposed once per solve, divided by
    ``unit = 4^scale_exponent``: both covariances, the clamped spectral
    decomposition ``(lambda, V)`` of ``cov_nu`` (in no fixed order),
    ``mu_in_frame = sym(V' cov_mu V)``, the eigenvalues before the clamp
    (:func:`_ordered` orders ``V`` by them on a singular target), the rank and
    rank cutoff of ``cov_nu``, and the order tolerance."""

    cov_mu: np.ndarray
    cov_nu: np.ndarray
    nu_eig: tuple[np.ndarray, np.ndarray]
    mu_in_frame: np.ndarray
    nu_unclamped: np.ndarray
    rank_nu: int
    nu_cutoff: float
    order_tol: float
    scale_exponent: int
    unit: float


def _decompose(cov_mu: np.ndarray, cov_nu: np.ndarray, names: tuple[str, str]) -> _Pair:
    """Read a raw covariance pair, each once through :func:`_validated_eigh`
    under its name in ``names`` (gated, then PSD-tested and eigensolved at
    its own unit scale), then check equal shapes: the only check a public
    call makes on its inputs.  The record is divided by ``4^k``, the larger
    top eigenvalue in ``[4^k, 4^(k+1))`` (``k = 0`` below ``2^-1000``), and
    the spectrum of ``cov_nu`` is moved there from its own scale by an exact
    power of two, so it is that of the record's matrix."""
    cov_mu, mu_raw, _, k_mu = _validated_eigh(cov_mu, names[0])
    cov_nu, nu_raw, nu_vecs, k_nu = _validated_eigh(cov_nu, names[1])
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    nu_clamped = np.maximum(nu_raw, 0.0)
    k = unit_scale_exponent(max(math.ldexp(max(float(mu_raw.max()), 0.0), 2 * k_mu),
                                math.ldexp(float(nu_clamped.max()), 2 * k_nu)))
    c, e_nu = math.ldexp(1.0, -2 * k), 2 * (k_nu - k)
    nu_vals = np.ldexp(nu_clamped, e_nu)
    nu_cutoff = default_rank_tol(nu_vals)
    cov_mu = c * cov_mu
    return _Pair(cov_mu, c * cov_nu, (nu_vals, nu_vecs), sym(nu_vecs.T @ cov_mu @ nu_vecs),
                 np.ldexp(nu_raw, e_nu), int((nu_vals > nu_cutoff).sum()), nu_cutoff,
                 ORDER_REL * (1.0 + float(nu_vals.max())), k, math.ldexp(1.0, 2 * k))


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
    would amplify them); those inside it are positive.  ``D m_mu D``, which
    the gap and ``below`` read, is zero in the rows and columns of a flushed
    ``mu_ii``: on disjoint ranges ``below`` is zero, not roundoff of either sign.
    """
    m_mu = sym(basis.T @ pair.cov_mu @ basis)
    m_nu = sym(basis.T @ pair.cov_nu @ basis)
    mu_pos = positive_diag_mask(m_mu)
    nu_pos = positive_diag_mask(m_nu)
    mu_diag = np.where(mu_pos, m_mu.diagonal(), 0.0)
    nu_diag = np.where(nu_pos, m_nu.diagonal(), 0.0)
    ratios = np.sqrt(nu_diag / np.where(mu_pos, mu_diag, 1.0))
    d = np.where(mu_pos, np.minimum(1.0, ratios), 1.0)
    kept = np.where(mu_pos, d, 0.0)
    contracted = kept[:, None] * m_mu * kept[None, :]
    # the order residual, the Loewner gap of contracted below m_nu; the
    # record is at unit scale already, and m_nu exactly symmetric
    gap = float(_eigvalsh(m_nu - sym(contracted)).min())
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

    Both live in the eigenbasis of ``cov_nu`` and read ``m_mu``: the
    record's ``mu_in_frame``, or on a singular target the block of ``cov_mu``
    on its range, in that basis ordered before the clamp (so ties in its
    kernel keep their order), and end with the kernel columns.  The frame
    itself (``commuting``; on a zero target, an empty block) is tried when
    the off-diagonal of ``m_mu`` is within ``tol = CLOSED_FORM_REL * (1 +
    lambda_max)``, the tolerance it is certified at; then the descent's
    basis (``pgd``), at ``ORDER_REL``, returned even if refused, for
    :func:`_assemble` to raise on.  Returns the first certified candidate's
    transform, conjugates, method and diagnostics, in the caller's units."""
    d, rank = pair.cov_nu.shape[0], pair.rank_nu
    vals, frame = pair.nu_eig
    m_mu = pair.mu_in_frame
    if rank < d:
        vals, frame = _ordered(pair.nu_unclamped, frame)
        vals = vals[:rank]
        m_mu = sym(frame.T @ pair.cov_mu @ frame)[:rank, :rank]
    off = m_mu - np.diag(m_mu.diagonal())
    tol = CLOSED_FORM_REL * (1.0 + float(vals.max(initial=0.0)))
    transform = None
    if math.sqrt(np.vdot(off, off)) <= tol:
        basis = frame if rank < d else _ordered(pair.nu_unclamped, frame)[1]
        transform, conjugates = _certify(pair, basis, tol)
        method, work = "commuting", {}

    if transform is None or not transform.certified:
        # in the eigenbasis of cov_nu, the gradient at the dominating
        # projection is I minus the inverse of the transport map onto it
        outcome, trace = pgd_project_above(vals, m_mu)
        basis = transport_map_basis(outcome.gradient, frame[:, :rank])
        if rank < d:
            basis = np.concatenate((basis, frame[:, rank:]), axis=1)
        transform, conjugates = _certify(pair, basis, pair.order_tol)
        method, work = "pgd", {
            "iterations": outcome.iterations,
            "evaluations": outcome.evaluations,
            "pgd_objective": pair.unit * outcome.objective,
            "pgd_residual": outcome.residual,
            "pgd_converged": outcome.converged,
            "stop_reason": outcome.stop_reason,
            "trace": {"objective": [pair.unit * f for f in trace.objective],
                      "grad_norm": trace.grad_norm},
        }

    return transform, conjugates, method, {
        **work, "rank_nu": rank, "order_residual": transform.order_residual}


def project_pair(
    cov_mu: np.ndarray, cov_nu: np.ndarray
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections from one solve at unit scale: ``(below, above)``,
    in the caller's units.  A :class:`CertificationError` carries its
    transform in the caller's units too."""
    pair = _decompose(cov_mu, cov_nu, ("cov_mu", "cov_nu"))
    return _assemble(pair, *_route(pair))


def _saturated(pair: _Pair) -> bool:
    """``cov_nu <= (cov_nu^{1/2} cov_mu cov_nu^{1/2})^{1/2}`` on the record,
    in its eigenframe, where ``cov_nu = diag(lambda)``: the root of the
    descent's inner matrix, in Gram form, against ``diag(lambda)``."""
    vals = pair.nu_eig[0]
    inner_vals, inner_vecs = _Objective(vals).value(pair.mu_in_frame)[1:]
    root = inner_vecs * inner_vals ** 0.25
    gap = float(_eigvalsh(root @ root.T - np.diag(vals)).min())  # at unit scale
    return gap >= -1e-9 * (1.0 + float(vals.max()))


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
