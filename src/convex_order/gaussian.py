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
  sqrt((O'SnuO)_ii))_+^2``.

The transform is found by a shared-correlation fast path when applicable
and otherwise through the projected-gradient solver, with a rank reduction
for singular ``Snu``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (
    CorrelationResidualError,
    LinalgError,
    _rebuild,
    default_rank_tol,
    loewner_gap,
    loewner_leq,
    psd_eigen,
    shared_correlation_transform,
    spd_sqrt,
    sym,
    sym_eigen,
)
from .measures import require_finite
from .pgd import PgdConfig, PgdTrace, pgd_project_above


def default_order_tol(cov_nu: np.ndarray) -> float:
    vals, _ = psd_eigen(sym(cov_nu))
    top = float(vals[0]) if vals.size else 0.0
    return 1e-7 * (1.0 + top)


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


class RankAmbiguousError(LinalgError):
    """An eigenvalue sits too close to the rank cutoff to classify."""


@dataclass(frozen=True)
class OrderTransform:
    """Orthogonal basis and diagonal contraction certifying the order.

    ``ratios`` holds the diagonal of ``D``: ``min(1, sqrt(nu_ii / mu_ii))``
    on the conjugated diagonals, with the convention ``1`` where the
    mu-diagonal vanishes.  ``ratios_hat`` and ``correlation`` are filled
    when the transform came from the shared-correlation path.
    ``order_residual`` is the smallest eigenvalue of
    ``O'SnuO - D O'SmuO D`` (certification wants it above ``-order_tol``).
    """

    basis: np.ndarray
    ratios: np.ndarray
    order_residual: float
    certified: bool
    ratios_hat: np.ndarray | None = None
    correlation: np.ndarray | None = None


@dataclass(frozen=True)
class ProjectionResult:
    covariance: np.ndarray
    distance_sq: float
    transform: OrderTransform | None
    method: str
    diagnostics: dict[str, Any]


@dataclass(frozen=True)
class SingularReduction:
    """Rank reduction of the dominating-side projection for singular Snu.

    ``basis`` diagonalizes ``Snu`` (positive eigenvalues first); the
    problem restricted to the top ``rank`` coordinates is nonsingular and
    its solution ``reduced_solution`` is re-embedded into ``assembled``,
    whose remaining entries in the ``basis`` frame are those of the
    conjugated ``Smu``.  ``inner_transform`` certifies the reduced solve;
    composed with ``basis`` it certifies the full-dimensional problem.
    """

    rank: int
    basis: np.ndarray
    reduced_nu: np.ndarray
    reduced_mu: np.ndarray
    reduced_solution: np.ndarray
    assembled: np.ndarray
    inner_transform: OrderTransform
    diagnostics: dict[str, Any]


class DominanceVerdict(enum.Enum):
    """Outcome of the saturation test.

    ``SATURATED`` means the dominated-side projection of ``N(0, Smu)``
    equals ``N(0, Snu)`` -- equivalently the dominating-side projection of
    ``N(0, Snu)`` equals ``N(0, Smu)``.
    """

    SATURATED = "saturated"
    NEITHER = "neither"


@dataclass(frozen=True)
class UniquenessVerdict:
    unique: bool
    reason: str


def _positive_diag_mask(diag: np.ndarray) -> np.ndarray:
    top = max(float(diag.max(initial=0.0)), 0.0)
    return diag > diag.size * top * (2.0**-50)


def _ratio_diag(mu_diag: np.ndarray, nu_diag: np.ndarray) -> np.ndarray:
    """D_ii = min(1, sqrt(nu_ii / mu_ii)), with 1 where mu_ii vanishes.

    Sub-cutoff nu diagonals are flushed to zero first (they are exact zeros
    plus conjugation roundoff, and the square root would amplify them).
    """
    mu_pos = _positive_diag_mask(mu_diag)
    nu_clean = np.where(_positive_diag_mask(nu_diag), np.clip(nu_diag, 0.0, None), 0.0)
    safe_mu = np.where(mu_pos, mu_diag, 1.0)
    ratios = np.sqrt(nu_clean / safe_mu)
    return np.where(mu_pos, np.minimum(1.0, ratios), 1.0)


def _build_transform(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    basis: np.ndarray,
    order_tol: float,
    ratios_hat: np.ndarray | None = None,
    correlation: np.ndarray | None = None,
) -> OrderTransform:
    m_mu = sym(basis.T @ cov_mu @ basis)
    m_nu = sym(basis.T @ cov_nu @ basis)
    ratios = _ratio_diag(np.diag(m_mu), np.diag(m_nu))
    gap = loewner_gap(ratios[:, None] * m_mu * ratios[None, :], m_nu)
    return OrderTransform(
        basis=basis,
        ratios=ratios,
        order_residual=gap,
        certified=bool(gap >= -order_tol),
        ratios_hat=ratios_hat,
        correlation=correlation,
    )


def _projections_from_transform(
    cov_mu: np.ndarray, cov_nu: np.ndarray, transform: OrderTransform
) -> tuple[np.ndarray, np.ndarray, float]:
    """Both projected covariances and the shared squared distance."""
    basis = transform.basis
    d = transform.ratios
    m_mu = sym(basis.T @ cov_mu @ basis)
    m_nu = sym(basis.T @ cov_nu @ basis)
    below = sym(basis @ (d[:, None] * m_mu * d[None, :]) @ basis.T)

    nu_pos = _positive_diag_mask(np.diag(m_nu))
    mu_pos = _positive_diag_mask(np.diag(m_mu))
    nu_diag = np.where(nu_pos, np.clip(np.diag(m_nu), 0.0, None), 0.0)
    mu_diag = np.where(mu_pos, np.clip(np.diag(m_mu), 0.0, None), 0.0)
    pair_pos = np.outer(nu_pos, nu_pos)
    safe_d = np.where(d > 0.0, d, 1.0)  # d vanishes only where nu_diag does
    scaled = m_nu / np.outer(safe_d, safe_d)
    above_tilde = np.where(pair_pos, scaled, m_mu)
    above = sym(basis @ sym(above_tilde) @ basis.T)

    distance_sq = float(
        np.sum(np.clip(np.sqrt(mu_diag) - np.sqrt(nu_diag), 0.0, None) ** 2)
    )
    return below, above, distance_sq


def shared_correlation_fast_path(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    order_tol: float | None = None,
) -> tuple[OrderTransform, ProjectionResult, ProjectionResult] | None:
    """Projection pair through a shared correlation matrix, when valid.

    Conjugates both covariances into a basis where they share a correlation
    ``C``; if the contracted correlation ``Dhat C Dhat`` stays below ``C``
    in the Loewner order, both projections follow in closed form.  Returns
    ``None`` when the diagonals are not all positive or the correlation
    condition fails; absence is an answer, not an error.
    """
    cov_mu = sym(cov_mu)
    cov_nu = sym(cov_nu)
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    require_finite(cov_mu, "cov_mu")
    require_finite(cov_nu, "cov_nu")
    tol = default_order_tol(cov_nu) if order_tol is None else order_tol
    try:
        basis, corr = shared_correlation_transform(cov_mu, cov_nu)
    except CorrelationResidualError:
        return None
    m_mu = sym(basis.T @ cov_mu @ basis)
    m_nu = sym(basis.T @ cov_nu @ basis)
    mu_diag = np.diag(m_mu)
    nu_diag = np.diag(m_nu)
    if not (np.all(_positive_diag_mask(mu_diag)) and np.all(_positive_diag_mask(nu_diag))):
        return None
    ratios_hat = np.minimum(1.0, np.sqrt(mu_diag / nu_diag))
    contracted = ratios_hat[:, None] * corr * ratios_hat[None, :]
    if not loewner_leq(contracted, corr, 1e-10):
        return None
    transform = _build_transform(
        cov_mu, cov_nu, basis, tol, ratios_hat=ratios_hat, correlation=corr
    )
    below_cov, above_cov, dist_sq = _projections_from_transform(
        cov_mu, cov_nu, transform
    )
    method = "commuting" if np.linalg.norm(corr - np.eye(corr.shape[0])) <= 1e-10 else "fast_path"
    diag = {"order_residual": transform.order_residual}
    below = ProjectionResult(below_cov, dist_sq, transform, method, diag)
    above = ProjectionResult(above_cov, dist_sq, transform, method, diag)
    return transform, below, above


@dataclass(frozen=True)
class _PairSolution:
    transform: OrderTransform
    below_cov: np.ndarray
    above_cov: np.ndarray
    distance_sq: float
    method: str
    diagnostics: dict[str, Any]
    reduction: SingularReduction | None = None
    pgd_trace: PgdTrace | None = None


def _solve_pair(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> _PairSolution:
    if method not in ("auto", "closed-form", "pgd"):
        raise ValueError(f"unknown method {method!r}")
    cov_mu = sym(np.atleast_2d(np.asarray(cov_mu, dtype=float)))
    cov_nu = sym(np.atleast_2d(np.asarray(cov_nu, dtype=float)))
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    require_finite(cov_mu, "cov_mu")
    require_finite(cov_nu, "cov_nu")
    d = cov_mu.shape[0]
    tol = default_order_tol(cov_nu) if order_tol is None else order_tol

    nu_vals, _ = psd_eigen(cov_nu)
    psd_eigen(cov_mu)
    rank_nu = int(np.sum(nu_vals > default_rank_tol(nu_vals)))

    if rank_nu == 0:
        transform = _build_transform(cov_mu, cov_nu, np.eye(d), tol)
        below, above, dist_sq = _projections_from_transform(cov_mu, cov_nu, transform)
        return _PairSolution(
            transform, below, above, dist_sq, "closed_form", {"rank_nu": 0}
        )

    if method in ("auto", "closed-form"):
        fast = shared_correlation_fast_path(cov_mu, cov_nu, tol)
        if fast is not None:
            transform, below_res, above_res = fast
            return _PairSolution(
                transform,
                below_res.covariance,
                above_res.covariance,
                below_res.distance_sq,
                below_res.method,
                dict(below_res.diagnostics),
            )
        if method == "closed-form":
            raise LinalgError(
                "shared-correlation fast path does not apply to this pair; "
                "use method='auto' or 'pgd'"
            )

    if rank_nu == d:
        outcome, trace = pgd_project_above(cov_nu, cov_mu, config)
        transform = _order_transform_from_above(cov_mu, cov_nu, outcome.covariance, tol)
        below, above, dist_sq = _projections_from_transform(cov_mu, cov_nu, transform)
        diagnostics = {
            "iterations": outcome.iterations,
            "pgd_objective": outcome.objective,
            "pgd_residual": outcome.residual,
            "pgd_converged": outcome.converged,
            "stop_reason": outcome.stop_reason,
            "order_residual": transform.order_residual,
            "trace": {"objective": trace.objective, "grad_norm": trace.grad_norm},
        }
        if not transform.certified:
            raise CertificationError(transform)
        return _PairSolution(
            transform, below, above, dist_sq, "pgd", diagnostics, pgd_trace=trace
        )

    reduction = reduce_singular_above(cov_nu, cov_mu, method=method, config=config)
    transform = _transform_from_reduction(cov_mu, cov_nu, reduction, tol)
    below, above, dist_sq = _projections_from_transform(cov_mu, cov_nu, transform)
    diagnostics = {
        "rank_nu": reduction.rank,
        "order_residual": transform.order_residual,
        **{f"reduced_{k}": v for k, v in reduction.diagnostics.items()},
    }
    if not transform.certified:
        raise CertificationError(transform)
    return _PairSolution(
        transform, below, above, dist_sq, "singular_reduction", diagnostics, reduction
    )


def _order_transform_from_above(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    cov_above: np.ndarray,
    order_tol: float,
) -> OrderTransform:
    """Basis from diagonalizing the transport map sending the dominating
    projection back onto the target covariance."""
    nu_vals, nu_vecs = psd_eigen(cov_nu)
    half = _rebuild(np.sqrt(nu_vals), nu_vecs)
    floor = default_rank_tol(nu_vals)
    inv_half = _rebuild(
        np.where(nu_vals > floor, 1.0 / np.sqrt(np.maximum(nu_vals, floor)), 0.0),
        nu_vecs,
    )
    middle = spd_sqrt(sym(half @ sym(cov_above) @ half))
    _, basis = sym_eigen(sym(inv_half @ middle @ inv_half))
    return _build_transform(cov_mu, cov_nu, basis, order_tol)


def recover_below_from_above(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    cov_above: np.ndarray,
    order_tol: float | None = None,
) -> ProjectionResult:
    """Dominated-side projection recovered from the dominating-side one.

    ``cov_nu`` must be positive definite and ``cov_above`` should dominate
    ``cov_mu`` (typically the output of :func:`pgd.pgd_project_above`).
    Raises :class:`CertificationError` when the recovered transform fails
    the Loewner check, which signals an inaccurate ``cov_above``.
    """
    cov_mu = sym(cov_mu)
    cov_nu = sym(cov_nu)
    require_finite(cov_mu, "cov_mu")
    require_finite(cov_nu, "cov_nu")
    require_finite(cov_above, "cov_above")
    tol = default_order_tol(cov_nu) if order_tol is None else order_tol
    transform = _order_transform_from_above(cov_mu, cov_nu, cov_above, tol)
    if not transform.certified:
        raise CertificationError(transform)
    below, _, dist_sq = _projections_from_transform(cov_mu, cov_nu, transform)
    return ProjectionResult(
        below, dist_sq, transform, "pgd", {"order_residual": transform.order_residual}
    )


def reduce_singular_above(
    cov_nu: np.ndarray,
    cov_mu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
) -> SingularReduction:
    """Reduce the dominating-side projection for singular ``cov_nu``.

    Diagonalizes ``cov_nu``, solves the nonsingular subproblem on the top
    ``rank`` coordinates, and re-embeds: the assembled matrix carries the
    reduced solution on the top block and the conjugated ``cov_mu`` entries
    everywhere else.
    """
    cov_nu = sym(cov_nu)
    cov_mu = sym(cov_mu)
    require_finite(cov_nu, "cov_nu")
    require_finite(cov_mu, "cov_mu")
    d = cov_nu.shape[0]
    nu_vals, nu_vecs = psd_eigen(cov_nu)
    rank = int(np.sum(nu_vals > default_rank_tol(nu_vals)))
    if not 1 <= rank < d:
        raise ValueError(
            f"rank reduction expects 1 <= rank < {d}, got rank {rank}; "
            "rank 0 and full rank are handled directly"
        )
    conj_mu = sym(nu_vecs.T @ cov_mu @ nu_vecs)
    reduced_nu = np.diag(nu_vals[:rank])
    reduced_mu = conj_mu[:rank, :rank].copy()
    inner = _solve_pair(reduced_mu, reduced_nu, method=method, config=config)
    assembled_conj = conj_mu.copy()
    assembled_conj[:rank, :rank] = inner.above_cov
    assembled = sym(nu_vecs @ assembled_conj @ nu_vecs.T)

    diagnostics = {"method": inner.method}
    diagnostics.update((k, v) for k, v in inner.diagnostics.items() if k != "trace")
    return SingularReduction(
        rank=rank,
        basis=nu_vecs,
        reduced_nu=reduced_nu,
        reduced_mu=reduced_mu,
        reduced_solution=inner.above_cov,
        assembled=assembled,
        inner_transform=inner.transform,
        diagnostics=diagnostics,
    )


def _transform_from_reduction(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    reduction: SingularReduction,
    order_tol: float,
) -> OrderTransform:
    # compose the spectral split of the target with the reduced solve's
    # rotation; the kernel coordinates keep the spectral basis vectors
    d = cov_nu.shape[0]
    block = np.eye(d)
    block[: reduction.rank, : reduction.rank] = reduction.inner_transform.basis
    return _build_transform(cov_mu, cov_nu, reduction.basis @ block, order_tol)


def order_transform(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> OrderTransform:
    """Certified orthogonal/diagonal pair for the covariance pair.

    Raises :class:`CertificationError` (carrying the best candidate) when
    the Loewner check fails beyond tolerance.
    """
    return _solve_pair(cov_mu, cov_nu, method, config, order_tol).transform


def project_below(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> ProjectionResult:
    """Covariance of the projection of ``N(0, cov_mu)`` onto the measures
    dominated by ``N(0, cov_nu)`` in the convex order."""
    sol = _solve_pair(cov_mu, cov_nu, method, config, order_tol)
    return ProjectionResult(
        sol.below_cov, sol.distance_sq, sol.transform, sol.method, sol.diagnostics
    )


def project_above(
    cov_nu: np.ndarray,
    cov_mu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> ProjectionResult:
    """Covariance of the (unique Gaussian) projection of ``N(0, cov_nu)``
    onto the measures dominating ``N(0, cov_mu)`` in the convex order."""
    sol = _solve_pair(cov_mu, cov_nu, method, config, order_tol)
    return ProjectionResult(
        sol.above_cov, sol.distance_sq, sol.transform, sol.method, sol.diagnostics
    )


def project_pair(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections from one solve: ``(below, above)``."""
    sol = _solve_pair(cov_mu, cov_nu, method, config, order_tol)
    below = ProjectionResult(
        sol.below_cov, sol.distance_sq, sol.transform, sol.method, sol.diagnostics
    )
    above = ProjectionResult(
        sol.above_cov, sol.distance_sq, sol.transform, sol.method, sol.diagnostics
    )
    return below, above


def dominance_check(
    cov_mu: np.ndarray, cov_nu: np.ndarray, tol: float | None = None
) -> DominanceVerdict:
    """Saturation test for the projection pair.

    ``SATURATED`` iff ``cov_nu <= (cov_nu^{1/2} cov_mu cov_nu^{1/2})^{1/2}``
    in the Loewner order, which happens in particular whenever
    ``cov_nu <= cov_mu``.
    """
    cov_mu = sym(cov_mu)
    cov_nu = sym(cov_nu)
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    if tol is None:
        vals, _ = psd_eigen(cov_nu)
        tol = 1e-9 * (1.0 + (float(vals[0]) if vals.size else 0.0))
    half = spd_sqrt(cov_nu)
    probe = spd_sqrt(sym(half @ cov_mu @ half))
    if loewner_leq(cov_nu, probe, tol):
        return DominanceVerdict.SATURATED
    return DominanceVerdict.NEITHER


def is_above_projection_unique(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    config: PgdConfig | None = None,
    rank_band: float = 10.0,
) -> UniquenessVerdict:
    """Is the dominating-side projection unique among all measures?

    Always true for positive definite ``cov_nu``.  For singular ``cov_nu``
    the projection is unique iff the assembled covariance keeps the rank of
    ``cov_nu`` or the saturation inequality holds.  Eigenvalues within a
    factor ``rank_band`` of the rank cutoff raise
    :class:`RankAmbiguousError` instead of guessing a rank.
    """
    cov_mu = sym(cov_mu)
    cov_nu = sym(cov_nu)
    d = cov_nu.shape[0]

    def guarded_rank(matrix: np.ndarray, name: str) -> int:
        vals, _ = psd_eigen(matrix)
        cutoff = default_rank_tol(vals)
        if cutoff > 0.0 and np.any(
            (vals > cutoff / rank_band) & (vals < cutoff * rank_band)
        ):
            raise RankAmbiguousError(
                f"an eigenvalue of {name} lies within a factor {rank_band} of "
                f"the rank cutoff {cutoff:.3e}; refusing to classify"
            )
        return int(np.sum(vals > cutoff))

    rank_nu = guarded_rank(cov_nu, "the dominating-side covariance")
    if rank_nu == d:
        return UniquenessVerdict(True, "nonsingular target covariance")
    if rank_nu == 0:
        return UniquenessVerdict(
            True, "zero target covariance: the projection is the lower measure itself"
        )
    reduction = reduce_singular_above(cov_nu, cov_mu, config=config)
    rank_star = guarded_rank(reduction.assembled, "the assembled projection")
    if rank_star == rank_nu:
        return UniquenessVerdict(True, "assembled covariance keeps the target rank")
    if dominance_check(cov_mu, cov_nu) is DominanceVerdict.SATURATED:
        return UniquenessVerdict(True, "saturation inequality holds")
    return UniquenessVerdict(
        False,
        f"rank grows from {rank_nu} to {rank_star} and the saturation "
        "inequality fails: non-Gaussian projections with the same covariance exist",
    )
