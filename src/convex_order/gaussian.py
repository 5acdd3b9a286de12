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

Each public call validates and decomposes ``Smu`` and ``Snu`` once into a
pair record and routes on it: rank-0 ``Snu`` has a closed form in the
identity basis; full-rank ``Snu`` tries the shared-correlation fast path
(when ``Smu`` has full rank too) and otherwise runs the projected-gradient
solver, whose dominating-side answer yields ``O`` as the eigenbasis of the
transport map onto ``Snu``; any other rank goes through the rank reduction,
which routes the full-rank problem on the range of ``Snu`` from the
spectrum already at hand.  Matrices derived from validated input are
clamped, not checked again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (
    EIG_TOL,
    LinalgError,
    NotPsdError,
    _rebuild,
    clamped_eigen,
    cleaned_diag,
    conjugate_to_shared_correlation,
    default_rank_tol,
    loewner_gap,
    loewner_leq,
    positive_diag_mask,
    psd_eigen,
    sym,
    sym_eigen,
    transport_map_basis,
)
from .measures import require_finite
from .pgd import PgdConfig, pgd_project_above

# Order tolerance: certification wants the order residual above
# -ORDER_REL * (1 + lambda_max(Snu)).
ORDER_REL = 1e-7
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


class RankAmbiguousError(LinalgError):
    """An eigenvalue sits too close to the rank cutoff to classify."""


@dataclass(frozen=True)
class OrderTransform:
    """Orthogonal basis and diagonal contraction certifying the order.

    ``ratios`` holds the diagonal of ``D``: ``min(1, sqrt(nu_ii / mu_ii))``
    on the conjugated diagonals, with the convention ``1`` where the
    mu-diagonal vanishes.  ``order_residual`` is the smallest eigenvalue of
    ``O'SnuO - D O'SmuO D`` (certification wants it above
    ``-ORDER_REL * (1 + lambda_max(Snu))``).
    """

    basis: np.ndarray
    ratios: np.ndarray
    order_residual: float
    certified: bool


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
    """A validated covariance pair decomposed once per solve: the clamped
    spectral decompositions of both covariances, their ranks and the order
    tolerance."""

    cov_mu: np.ndarray
    cov_nu: np.ndarray
    mu_eig: tuple[np.ndarray, np.ndarray]
    nu_eig: tuple[np.ndarray, np.ndarray]
    rank_mu: int
    rank_nu: int
    order_tol: float


def _rank(vals: np.ndarray) -> int:
    return int(np.sum(vals > default_rank_tol(vals)))


def _pair(cov_mu: np.ndarray, cov_nu: np.ndarray, mu_eig: tuple, nu_eig: tuple) -> _Pair:
    nu_vals = nu_eig[0]
    order_tol = ORDER_REL * (1.0 + (float(nu_vals[0]) if nu_vals.size else 0.0))
    return _Pair(cov_mu, cov_nu, mu_eig, nu_eig, _rank(mu_eig[0]), _rank(nu_vals), order_tol)


def _decompose(cov_mu: np.ndarray, cov_nu: np.ndarray) -> _Pair:
    """Validate a raw covariance pair (shape, finiteness, PSD) and decompose
    it: the only check a public call makes on its inputs."""
    cov_mu = sym(np.atleast_2d(np.asarray(cov_mu, dtype=float)))
    cov_nu = sym(np.atleast_2d(np.asarray(cov_nu, dtype=float)))
    if cov_mu.shape != cov_nu.shape:
        raise ValueError("dimension mismatch")
    require_finite(cov_mu, "cov_mu")
    require_finite(cov_nu, "cov_nu")
    nu_eig = psd_eigen(cov_nu)
    return _pair(cov_mu, cov_nu, psd_eigen(cov_mu), nu_eig)


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
    pair: _Pair, basis: np.ndarray, conj: tuple[np.ndarray, np.ndarray] | None = None
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
    d = pair.cov_nu.shape[0]
    if pair.rank_mu < d or pair.rank_nu < d:
        return None
    conj = conjugate_to_shared_correlation(pair.cov_mu, pair.cov_nu, pair.mu_eig)
    if conj is None:
        return None
    basis, corr, m_mu, m_nu = conj
    if not (np.all(positive_diag_mask(m_mu)) and np.all(positive_diag_mask(m_nu))):
        return None
    ratios_hat = np.minimum(1.0, np.sqrt(np.diag(m_mu) / np.diag(m_nu)))
    contracted = ratios_hat[:, None] * corr * ratios_hat[None, :]
    if not loewner_leq(contracted, corr, 1e-10):
        return None
    transform, *projected = _project(pair, basis, (m_mu, m_nu))
    method = "commuting" if np.linalg.norm(corr - np.eye(corr.shape[0])) <= 1e-10 else "fast_path"
    return _results(transform, *projected, method, {"order_residual": transform.order_residual})


def shared_correlation_fast_path(
    cov_mu: np.ndarray, cov_nu: np.ndarray
) -> tuple[OrderTransform, ProjectionResult, ProjectionResult] | None:
    """Projection pair through a shared correlation matrix, when valid.

    Conjugates both covariances into a basis where they share a correlation
    ``C``; if the contracted correlation ``Dhat C Dhat`` stays below ``C``
    in the Loewner order, both projections follow in closed form.  Returns
    ``None`` when either covariance is singular, the diagonals are not all
    positive or the correlation condition fails; absence is an answer, not
    an error.
    """
    fast = _fast_path(_decompose(cov_mu, cov_nu))
    return None if fast is None else (fast[0].transform, *fast)


def _route(
    pair: _Pair, method: str, config: PgdConfig | None
) -> tuple[ProjectionResult, ProjectionResult]:
    """Solve a validated pair: one route per rank of ``cov_nu``."""
    if method not in ("auto", "closed-form", "pgd"):
        raise ValueError(f"unknown method {method!r}")
    d = pair.cov_nu.shape[0]
    if pair.rank_nu == 0:
        return _results(*_project(pair, np.eye(d)), "closed_form", {"rank_nu": 0})

    if method != "pgd":
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
    everywhere else.  The reduced target's spectrum is the top of
    ``cov_nu``'s; the reduced ``cov_mu`` block is decomposed once and
    checked against the scale of ``cov_mu``, not its own.
    """
    cov_nu = sym(cov_nu)
    cov_mu = sym(cov_mu)
    require_finite(cov_nu, "cov_nu")
    require_finite(cov_mu, "cov_mu")
    d = cov_nu.shape[0]
    nu_vals, nu_vecs = psd_eigen(cov_nu)
    rank = _rank(nu_vals)
    if not 1 <= rank < d:
        raise ValueError(
            f"rank reduction expects 1 <= rank < {d}, got rank {rank}; "
            "rank 0 and full rank are handled directly"
        )
    conj_mu = sym(nu_vecs.T @ cov_mu @ nu_vecs)
    reduced_nu = np.diag(nu_vals[:rank])
    reduced_mu = conj_mu[:rank, :rank].copy()
    mu_vals, mu_vecs = sym_eigen(reduced_mu)
    if mu_vals[-1] < 0.0:  # a block of PSD cov_mu: roundoff at the scale of cov_mu
        if mu_vals[-1] < -EIG_TOL * (1.0 + float(np.linalg.norm(conj_mu))):
            raise NotPsdError(f"cov_mu has eigenvalue {mu_vals[-1]:.3e} on the range of cov_nu")
        mu_vals = np.clip(mu_vals, 0.0, None)
        reduced_mu = _rebuild(mu_vals, mu_vecs)
    inner_pair = _pair(reduced_mu, reduced_nu, (mu_vals, mu_vecs), (nu_vals[:rank], np.eye(rank)))
    _, inner = _route(inner_pair, method, config)
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
) -> ProjectionResult:
    """Covariance of the projection of ``N(0, cov_mu)`` onto the measures
    dominated by ``N(0, cov_nu)`` in the convex order."""
    return _route(_decompose(cov_mu, cov_nu), method, config)[0]


def project_pair(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    method: str = "auto",
    config: PgdConfig | None = None,
) -> tuple[ProjectionResult, ProjectionResult]:
    """Both projections from one solve: ``(below, above)``."""
    return _route(_decompose(cov_mu, cov_nu), method, config)


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
    psd_eigen(cov_mu)  # validates the raw input; the product below is derived
    if tol is None:
        tol = 1e-9 * (1.0 + (float(vals[0]) if vals.size else 0.0))
    half = _rebuild(np.sqrt(vals), vecs)
    probe_vals, probe_vecs = clamped_eigen(sym(half @ cov_mu @ half))
    probe = _rebuild(np.sqrt(probe_vals), probe_vecs)
    if loewner_leq(cov_nu, probe, tol):
        return DominanceVerdict.SATURATED
    return DominanceVerdict.NEITHER


def is_above_projection_unique(
    cov_mu: np.ndarray,
    cov_nu: np.ndarray,
    reduction: SingularReduction | None = None,
) -> UniquenessVerdict:
    """Is the dominating-side projection unique among all measures?

    Always true for positive definite ``cov_nu``.  For singular ``cov_nu``
    the projection is unique iff the assembled covariance keeps the rank of
    ``cov_nu`` or the saturation inequality holds.  ``reduction`` is the
    rank reduction of a solve already made (``ProjectionResult.reduction``);
    without it one is computed with the default settings.  Eigenvalues
    within a factor ``RANK_BAND`` of the rank cutoff raise
    :class:`RankAmbiguousError` instead of guessing a rank.
    """
    cov_mu = sym(cov_mu)
    cov_nu = sym(cov_nu)
    d = cov_nu.shape[0]

    def guarded_rank(vals: np.ndarray, name: str) -> int:
        cutoff = default_rank_tol(vals)
        if cutoff > 0.0 and np.any(
            (vals > cutoff / RANK_BAND) & (vals < cutoff * RANK_BAND)
        ):
            raise RankAmbiguousError(
                f"an eigenvalue of {name} lies within a factor {RANK_BAND} of "
                f"the rank cutoff {cutoff:.3e}; refusing to classify"
            )
        return int(np.sum(vals > cutoff))

    rank_nu = guarded_rank(psd_eigen(cov_nu)[0], "the dominating-side covariance")
    if rank_nu == d:
        return UniquenessVerdict(True, "nonsingular target covariance")
    if rank_nu == 0:
        return UniquenessVerdict(
            True, "zero target covariance: the projection is the lower measure itself"
        )
    if reduction is None:
        reduction = reduce_singular_above(cov_nu, cov_mu)
    rank_star = guarded_rank(clamped_eigen(reduction.assembled)[0], "the assembled projection")
    if rank_star == rank_nu:
        return UniquenessVerdict(True, "assembled covariance keeps the target rank")
    if dominance_check(cov_mu, cov_nu) is DominanceVerdict.SATURATED:
        return UniquenessVerdict(True, "saturation inequality holds")
    return UniquenessVerdict(
        False,
        f"rank grows from {rank_nu} to {rank_star} and the saturation "
        "inequality fails: non-Gaussian projections with the same covariance exist",
    )
