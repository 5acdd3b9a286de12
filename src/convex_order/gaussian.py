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

Each solve decomposes ``Smu`` and ``Snu`` once and takes one route per
rank of ``Snu``: rank 0 has a closed form in the identity basis; full rank
tries the shared-correlation fast path and otherwise runs the
projected-gradient solver, whose dominating-side answer yields ``O`` as the
eigenbasis of the transport map onto ``Snu``; any other rank goes through
the rank reduction, which solves the full-rank problem on the range of
``Snu``.
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
    cleaned_diag,
    conjugate_to_shared_correlation,
    default_rank_tol,
    loewner_gap,
    loewner_leq,
    positive_diag_mask,
    psd_eigen,
    spd_sqrt,
    sym,
    transport_map_basis,
)
from .measures import require_finite
from .pgd import PgdConfig, pgd_project_above


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
    reduction: SingularReduction | None = None  # filled on the singular-target route


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


@dataclass(frozen=True)
class _Pair:
    """A covariance pair decomposed once per solve: the :func:`psd_eigen`
    pairs of both covariances, the rank of ``cov_nu`` and the order
    tolerance."""

    cov_mu: np.ndarray
    cov_nu: np.ndarray
    mu_eig: tuple[np.ndarray, np.ndarray]
    nu_eig: tuple[np.ndarray, np.ndarray]
    rank_nu: int
    order_tol: float


def _decompose(cov_mu: np.ndarray, cov_nu: np.ndarray, order_tol: float | None) -> _Pair:
    cov_mu = sym(np.atleast_2d(np.asarray(cov_mu, dtype=float)))
    cov_nu = sym(np.atleast_2d(np.asarray(cov_nu, dtype=float)))
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    require_finite(cov_mu, "cov_mu")
    require_finite(cov_nu, "cov_nu")
    nu_vals, nu_vecs = psd_eigen(cov_nu)
    mu_eig = psd_eigen(cov_mu)
    if order_tol is None:
        order_tol = 1e-7 * (1.0 + (float(nu_vals[0]) if nu_vals.size else 0.0))
    rank_nu = int(np.sum(nu_vals > default_rank_tol(nu_vals)))
    return _Pair(cov_mu, cov_nu, mu_eig, (nu_vals, nu_vecs), rank_nu, order_tol)


def _results(
    transform: OrderTransform,
    below: np.ndarray,
    above: np.ndarray,
    distance_sq: float,
    method: str,
    diagnostics: dict[str, Any],
    reduction: SingularReduction | None = None,
) -> tuple[ProjectionResult, ProjectionResult]:
    return tuple(
        ProjectionResult(cov, distance_sq, transform, method, diagnostics, reduction)
        for cov in (below, above)
    )


def _project(
    pair: _Pair,
    basis: np.ndarray,
    conj: tuple[np.ndarray, np.ndarray] | None = None,
    ratios_hat: np.ndarray | None = None,
    correlation: np.ndarray | None = None,
) -> tuple[OrderTransform, np.ndarray, np.ndarray, float]:
    """Transform, both projected covariances and the shared squared distance
    in ``basis``; ``conj`` is the pair conjugated into it, when at hand.

    ``D_ii = min(1, sqrt(nu_ii / mu_ii))``, with 1 where ``mu_ii`` vanishes.
    Sub-cutoff diagonals are flushed to zero first (they are exact zeros
    plus conjugation roundoff, and the square root would amplify them).
    """
    if conj is None:
        conj = sym(basis.T @ pair.cov_mu @ basis), sym(basis.T @ pair.cov_nu @ basis)
    m_mu, m_nu = conj
    mu_pos = positive_diag_mask(m_mu)
    nu_pos = positive_diag_mask(m_nu)
    mu_diag = cleaned_diag(m_mu)
    nu_diag = cleaned_diag(m_nu)
    ratios = np.sqrt(nu_diag / np.where(mu_pos, mu_diag, 1.0))
    d = np.where(mu_pos, np.minimum(1.0, ratios), 1.0)
    contracted = d[:, None] * m_mu * d[None, :]
    gap = loewner_gap(contracted, m_nu)
    transform = OrderTransform(
        basis=basis,
        ratios=d,
        order_residual=gap,
        certified=bool(gap >= -pair.order_tol),
        ratios_hat=ratios_hat,
        correlation=correlation,
    )
    below = sym(basis @ contracted @ basis.T)

    safe_d = np.where(d > 0.0, d, 1.0)  # d vanishes only where nu_diag does
    scaled = m_nu / np.outer(safe_d, safe_d)
    above_tilde = np.where(np.outer(nu_pos, nu_pos), scaled, m_mu)
    above = sym(basis @ sym(above_tilde) @ basis.T)

    distance_sq = float(
        np.sum(np.clip(np.sqrt(mu_diag) - np.sqrt(nu_diag), 0.0, None) ** 2)
    )
    return transform, below, above, distance_sq


def _fast_path(pair: _Pair) -> tuple[ProjectionResult, ProjectionResult] | None:
    try:
        basis, corr, m_mu, m_nu = conjugate_to_shared_correlation(
            pair.cov_mu, pair.cov_nu, pair.mu_eig, pair.nu_eig
        )
    except CorrelationResidualError:
        return None
    if not (np.all(positive_diag_mask(m_mu)) and np.all(positive_diag_mask(m_nu))):
        return None
    ratios_hat = np.minimum(1.0, np.sqrt(np.diag(m_mu) / np.diag(m_nu)))
    contracted = ratios_hat[:, None] * corr * ratios_hat[None, :]
    if not loewner_leq(contracted, corr, 1e-10):
        return None
    transform, *projected = _project(pair, basis, (m_mu, m_nu), ratios_hat, corr)
    method = "commuting" if np.linalg.norm(corr - np.eye(corr.shape[0])) <= 1e-10 else "fast_path"
    return _results(transform, *projected, method, {"order_residual": transform.order_residual})


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
    fast = _fast_path(_decompose(cov_mu, cov_nu, order_tol))
    return None if fast is None else (fast[0].transform, *fast)


def _solve_pair(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> tuple[ProjectionResult, ProjectionResult]:
    if method not in ("auto", "closed-form", "pgd"):
        raise ValueError(f"unknown method {method!r}")
    pair = _decompose(cov_mu, cov_nu, order_tol)
    d = pair.cov_nu.shape[0]

    if pair.rank_nu == 0:
        return _results(*_project(pair, np.eye(d)), "closed_form", {"rank_nu": 0})

    if pair.rank_nu == d and method != "pgd":
        fast = _fast_path(pair)
        if fast is not None:
            return fast
    if method == "closed-form":
        raise LinalgError(
            "shared-correlation fast path does not apply to this pair; "
            "use method='auto' or 'pgd'"
        )

    if pair.rank_nu == d:
        outcome, trace = pgd_project_above(pair.cov_nu, pair.cov_mu, config)
        # the transport map sending the dominating projection onto cov_nu
        basis = transport_map_basis(*pair.nu_eig, outcome.covariance)
        reduction = None
    else:
        reduction = reduce_singular_above(
            pair.cov_nu, pair.cov_mu, method=method, config=config
        )
        # compose the spectral split of the target with the reduced solve's
        # rotation; the kernel coordinates keep the spectral basis vectors
        block = np.eye(d)
        block[: reduction.rank, : reduction.rank] = reduction.inner_transform.basis
        basis = reduction.basis @ block
    transform, *projected = _project(pair, basis)
    if not transform.certified:
        raise CertificationError(transform)
    if reduction is None:
        diagnostics = {
            "iterations": outcome.iterations,
            "pgd_objective": outcome.objective,
            "pgd_residual": outcome.residual,
            "pgd_converged": outcome.converged,
            "stop_reason": outcome.stop_reason,
            "order_residual": transform.order_residual,
            "trace": {"objective": trace.objective, "grad_norm": trace.grad_norm},
        }
        return _results(transform, *projected, "pgd", diagnostics)
    diagnostics = {
        "rank_nu": reduction.rank,
        "order_residual": transform.order_residual,
        **{f"reduced_{k}": v for k, v in reduction.diagnostics.items()},
    }
    return _results(transform, *projected, "singular_reduction", diagnostics, reduction)


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
    _, inner = _solve_pair(reduced_mu, reduced_nu, method=method, config=config)
    assembled_conj = conj_mu.copy()
    assembled_conj[:rank, :rank] = inner.covariance
    assembled = sym(nu_vecs @ assembled_conj @ nu_vecs.T)

    diagnostics = {"method": inner.method}
    diagnostics.update((k, v) for k, v in inner.diagnostics.items() if k != "trace")
    return SingularReduction(
        rank=rank,
        basis=nu_vecs,
        reduced_nu=reduced_nu,
        reduced_mu=reduced_mu,
        reduced_solution=inner.covariance,
        assembled=assembled,
        inner_transform=inner.transform,
        diagnostics=diagnostics,
    )


def project_below(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> ProjectionResult:
    """Covariance of the projection of ``N(0, cov_mu)`` onto the measures
    dominated by ``N(0, cov_nu)`` in the convex order."""
    return _solve_pair(cov_mu, cov_nu, method, config, order_tol)[0]


def project_pair(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
    order_tol: float | None = None,
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections from one solve: ``(below, above)``."""
    return _solve_pair(cov_mu, cov_nu, method, config, order_tol)


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
    vals, vecs = psd_eigen(cov_nu)
    if tol is None:
        tol = 1e-9 * (1.0 + (float(vals[0]) if vals.size else 0.0))
    half = _rebuild(np.sqrt(vals), vecs)
    probe = spd_sqrt(sym(half @ cov_mu @ half))
    if loewner_leq(cov_nu, probe, tol):
        return DominanceVerdict.SATURATED
    return DominanceVerdict.NEITHER


def is_above_projection_unique(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    reduction: SingularReduction | None = None,
    rank_band: float = 10.0,
) -> UniquenessVerdict:
    """Is the dominating-side projection unique among all measures?

    Always true for positive definite ``cov_nu``.  For singular ``cov_nu``
    the projection is unique iff the assembled covariance keeps the rank of
    ``cov_nu`` or the saturation inequality holds.  ``reduction`` is the
    rank reduction of a solve already made (``ProjectionResult.reduction``);
    without it one is computed with the default settings.  Eigenvalues
    within a factor ``rank_band`` of the rank cutoff raise
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
    if reduction is None:
        reduction = reduce_singular_above(cov_nu, cov_mu)
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
