"""Projected gradient descent on the cone of matrices dominating a bound.

Computes ``argmin bw2(cov_nu, S)`` over ``{S : S >= cov_mu}``, the
dominating-side projection, with the two Frobenius cone projections.
Iterations, initialization and the cone projection follow the positive-part
construction; the descent is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bures import bw2_gradient_from_inner
from .linalg import (
    EIG_TOL,
    _rebuild,
    clamped_eigen,
    default_rank_tol,
    positive_part,
    psd_eigen,
    sym,
    sym_eigen,
)
from .measures import require_finite


@dataclass(frozen=True)
class PgdConfig:
    """Knobs for the projected gradient descent.

    ``step_size`` is the initial step; ``None`` picks a crude
    curvature-based default from the spectra of the two inputs.  Later
    steps follow the Barzilai-Borwein rule, kept within a fixed band around
    the initial step.  Backtracking halves the step, at most
    ``MAX_BACKTRACKS`` times per iteration, until the candidate meets the
    sufficient-decrease bound, so the objective never increases.
    The descent stops once the gradient mapping ``||S - S+|| / eta`` at the
    accepted step falls below ``residual_tol * (1 + ||cov_nu||_F)``, which
    does not depend on the step size.
    """

    step_size: float | None = None
    max_iter: int = 10_000
    residual_tol: float = 1e-8  # scaled by (1 + ||cov_nu||_F)


# Barzilai-Borwein steps stay within [eta0 / BB_BAND, eta0 * BB_BAND].
BB_BAND = 1e4
# The default step floors the lower bound's spectrum at REG_FACTOR * tr(cov_nu).
REG_FACTOR = 1e-10
MAX_BACKTRACKS = 60


@dataclass
class PgdTrace:
    """Per accepted iteration: objective, gradient norm, step size actually
    taken."""

    objective: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    step_size: list[float] = field(default_factory=list)


class PgdOutcome(NamedTuple):
    covariance: np.ndarray
    objective: float
    iterations: int
    residual: float
    converged: bool
    stop_reason: str


def frobenius_project_above(matrix: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Frobenius projection of ``matrix`` onto ``{S : S >= lower}``.

    ``matrix + (lower - matrix)^+``; always PSD when ``lower`` is.
    """
    m = sym(matrix)
    return sym(m + positive_part(sym(lower) - m))


def frobenius_project_below(
    matrix: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Frobenius projection of ``matrix`` onto ``{S : S <= upper}``.

    ``matrix - (matrix - upper)^+``.  The result can leave the PSD cone, so
    it is returned together with a flag telling whether it stayed inside
    (up to the usual eigenvalue slack).
    """
    m = sym(matrix)
    projected = sym(m - positive_part(m - sym(upper)))
    vals, _ = sym_eigen(projected)
    scale = 1.0 + (float(np.abs(vals).max()) if vals.size else 0.0)
    return projected, bool(vals[-1] >= -EIG_TOL * scale)


class _Objective:
    """bw2(cov_nu, .) with the decomposition of cov_nu precomputed."""

    def __init__(self, cov_nu: np.ndarray):
        self.cov_nu = sym(cov_nu)
        vals, vecs = psd_eigen(self.cov_nu)
        if vals[-1] <= default_rank_tol(vals):
            raise ValueError(
                "pgd_project_above needs a positive definite target; "
                "route singular targets through the rank reduction first"
            )
        self.vals = vals
        self.trace_nu = float(np.trace(self.cov_nu))
        self.half = _rebuild(np.sqrt(vals), vecs)

    def value_and_gradient(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and gradient at ``s`` from one eigensolve."""
        inner_vals, inner_vecs = clamped_eigen(sym(self.half @ s @ self.half))
        value = float(self.trace_nu + np.trace(s) - 2.0 * np.sum(np.sqrt(inner_vals)))
        return value, bw2_gradient_from_inner(self.half, inner_vals, inner_vecs)


def _default_step(nu_vals: np.ndarray, cov_mu: np.ndarray, reg: float) -> float:
    """Crude curvature bound from the target's eigenvalues (descending) and
    the spectrum of the lower bound: the gradient's inverse square root is
    controlled by the spectra entering it.

    The lower-bound spectrum is floored by the target's smallest eigenvalue:
    the initializer dominates the target, so iterates never start below it,
    and without the floor a singular ``cov_mu`` would collapse the step to
    the regularization scale and stall the descent.  Backtracking still
    halves the step whenever the objective would increase.
    """
    mu_vals, _ = psd_eigen(sym(cov_mu))
    lo_nu = float(nu_vals[-1])
    hi_nu = float(nu_vals[0])
    lo = max(float(mu_vals[-1]), lo_nu) + reg
    return 0.5 * np.sqrt(lo_nu) / (1.0 + np.sqrt(hi_nu) / np.sqrt(lo))


def pgd_project_above(
    cov_nu: np.ndarray,
    cov_mu: np.ndarray,
    config: PgdConfig | None = None,
) -> tuple[PgdOutcome, PgdTrace]:
    """Minimize ``bw2(cov_nu, S)`` over ``{S >= cov_mu}`` by projected descent.

    ``cov_nu`` must be positive definite; ``cov_mu`` may be singular (the
    initializer dominates ``cov_nu``, and the gradient floors the inner
    eigenvalues of near-singular iterates).  Each iteration starts from a
    Barzilai-Borwein step ``<dS, dS> / <dS, dG>`` (doubled instead when the
    curvature estimate is not positive) clipped to ``[eta0 / BB_BAND,
    eta0 * BB_BAND]`` around the initial step ``eta0``, then halves it until
    ``f(S+) <= f(S) + <G, S+ - S> + ||S+ - S||^2 / (2 eta)``.  Stops when the
    gradient mapping ``||S - S+|| / eta`` at the accepted step falls below
    ``residual_tol * (1 + ||cov_nu||_F)`` or after ``max_iter`` iterations,
    whichever comes first; ``residual`` reports that gradient mapping.
    """
    cfg = config or PgdConfig()
    nu = sym(cov_nu)
    mu = sym(cov_mu)
    require_finite(nu, "cov_nu")
    require_finite(mu, "cov_mu")
    objective = _Objective(nu)
    eta0 = float(
        cfg.step_size
        if cfg.step_size is not None
        else _default_step(objective.vals, mu, REG_FACTOR * float(np.trace(nu)))
    )
    eta_lo, eta_hi = eta0 / BB_BAND, eta0 * BB_BAND

    s = frobenius_project_above(nu, mu)
    f, grad = objective.value_and_gradient(s)
    tol = cfg.residual_tol * (1.0 + float(np.linalg.norm(nu)))
    trace = PgdTrace()
    residual = np.inf
    converged = False
    reason = "max_iter"
    iterations = 0
    eta = eta0
    prev: tuple[np.ndarray, np.ndarray] | None = None

    for i in range(1, cfg.max_iter + 1):
        iterations = i
        if prev is not None:
            ds, dg = s - prev[0], grad - prev[1]
            curvature = float(np.sum(ds * dg))
            if curvature > 0.0:
                eta = float(np.sum(ds * ds)) / curvature
            else:
                eta *= 2.0
            eta = min(max(eta, eta_lo), eta_hi)

        # near the optimum the decrease sinks below the roundoff of f
        slack = 1e-12 * (1.0 + abs(f))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = frobenius_project_above(s - eta * grad, mu)
            step = candidate - s
            f_cand, grad_cand = objective.value_and_gradient(candidate)
            bound = f + float(np.sum(grad * step)) + float(np.sum(step * step)) / (2.0 * eta)
            if f_cand <= bound + slack:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            reason = "stalled"
            break

        residual = float(np.linalg.norm(step)) / eta
        prev = (s, grad)
        trace.grad_norm.append(float(np.linalg.norm(grad)))
        s, f, grad = candidate, f_cand, grad_cand
        trace.objective.append(f)
        trace.step_size.append(eta)
        if residual <= tol:
            converged = True
            reason = "residual"
            break

    outcome = PgdOutcome(
        covariance=s,
        objective=f,
        iterations=iterations,
        residual=residual,
        converged=converged,
        stop_reason=reason,
    )
    return outcome, trace
