"""Projected gradient descent on the cone of matrices dominating a bound.

Computes ``argmin bw2(diag(lambda), S)`` over ``{S : S >= cov_mu}``, the
dominating-side projection, with the Frobenius projection onto that cone,
in the target's eigenbasis, which the Gaussian solver's pair record holds:
there the inner matrix ``diag(sqrt(lambda)) S diag(sqrt(lambda))`` is an
entrywise product, and no dense square root is formed.  Iterations,
initialization and the cone projection follow the positive-part
construction; Barzilai-Borwein steps, which lie in ``[2 lambda_min, 2
lambda_max]`` on the Hessian at ``S = diag(lambda)`` (``H_ij -> H_ij /
(lambda_i + lambda_j)``), are accepted by the Armijo test along the
projection arc (Bertsekas 1976; Birgin, Martinez and Raydan 2000).  The
descent is fully deterministic.  It reads the record as it is, and its
iterates and gradients are exactly symmetric, so :func:`_project_above`
projects them as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import bw2_gradient_from_inner, clamped_eigen, positive_part


# The descent stops at gradient mapping RESIDUAL_TOL * (1 + ||lambda||_2),
# or after MAX_ITER iterations; Gaussian solves run it at unit scale.
MAX_ITER = 10_000
RESIDUAL_TOL = 1e-8
# Barzilai-Borwein steps stay within [2 lambda_min / BB_BAND, 2 lambda_max * BB_BAND].
BB_BAND = 1e4
MAX_BACKTRACKS = 60
# Armijo fraction of the first-order decrease <G, S+ - S> a candidate must achieve.
ARMIJO = 1e-4


@dataclass
class PgdTrace:
    """Per accepted iteration: objective and gradient norm."""

    objective: list[float]
    grad_norm: list[float]


class PgdOutcome(NamedTuple):
    """The descent's last iterate ``covariance`` with its objective and
    ``gradient``, ``grad_S bw2(diag(lambda), S) = I - T``, where ``T`` is the
    transport map from ``N(0, S)`` onto ``N(0, diag(lambda))``, both in the
    target's eigenbasis; the Gaussian solver takes the order transform's
    basis from its eigenvectors.  ``evaluations`` counts the objective's
    evaluations: one at the start and one per Armijo candidate."""

    covariance: np.ndarray
    objective: float
    iterations: int
    residual: float
    converged: bool
    stop_reason: str
    gradient: np.ndarray
    evaluations: int


def _project_above(matrix: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Frobenius projection of ``matrix`` onto ``{S : S >= lower}``,
    ``matrix + (lower - matrix)^+``, for the descent's exactly symmetric
    iterates, steps and bound; the result is exactly symmetric, and PSD when
    ``lower`` is."""
    return matrix + positive_part(lower - matrix)


def _first_step(nu_vals: np.ndarray) -> float:
    """The midpoint of the Barzilai-Borwein band, from a spectrum in any order."""
    return float(nu_vals.min()) + float(nu_vals.max())


class _Objective:
    """bw2(diag(nu_vals), .) for a record's spectrum ``nu_vals``, positive for the gradient."""

    def __init__(self, nu_vals: np.ndarray):
        self.trace_nu = float(nu_vals.sum())
        self.root = np.sqrt(nu_vals)
        self.weights = self.root[:, None] * self.root

    def value(self, s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The value at ``s`` and the clamped eigenpairs of its inner matrix."""
        inner_vals, inner_vecs = clamped_eigen(s * self.weights)
        return (float(self.trace_nu + s.trace() - 2.0 * np.sqrt(inner_vals).sum()),
                inner_vals, inner_vecs)

    def value_and_gradient(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and gradient at ``s`` from one eigensolve."""
        value, inner_vals, inner_vecs = self.value(s)
        return value, bw2_gradient_from_inner(self.root, inner_vals, inner_vecs)


def pgd_project_above(nu_vals: np.ndarray, cov_mu: np.ndarray) -> tuple[PgdOutcome, PgdTrace]:
    """Minimize ``bw2(diag(nu_vals), S)`` over ``{S >= cov_mu}`` by projected
    descent, in the target's eigenbasis.

    Reads a pair record: ``nu_vals`` the target's clamped eigenvalues, in
    any order, and ``cov_mu`` the lower bound conjugated into the basis of
    their eigenvectors, exactly symmetric and finite; neither is checked or
    decomposed again.  ``nu_vals`` must be positive, as the record's rank
    says; ``cov_mu`` may be singular (the initializer dominates the target,
    and the gradient floors the inner eigenvalues of near-singular
    iterates).  The first step is ``lambda_min + lambda_max``; later ones
    start from a Barzilai-Borwein step ``<dS, dS> / <dS, dG>`` (doubled
    instead when the curvature estimate is not positive) clipped to ``[2
    lambda_min / BB_BAND, 2 lambda_max * BB_BAND]``.  Each iteration halves
    its step, at most ``MAX_BACKTRACKS`` times, until the candidate
    ``S+ = P(S - eta G)`` passes the Armijo test
    ``f(S+) <= f(S) + ARMIJO * <G, S+ - S>`` (up to a roundoff slack of
    ``1e-12 * (1 + |f(S)|)``).  A projection step has ``<G, S+ - S> <=
    -||S+ - S||^2 / eta``, so the objective never increases.  Stops when the
    gradient mapping ``||S - S+|| / eta`` at the accepted step falls below
    ``RESIDUAL_TOL * (1 + ||nu_vals||_2)`` or after ``MAX_ITER`` iterations,
    whichever comes first; ``residual`` reports that gradient mapping.  The
    mapping does not grow as ``eta`` grows, so it depends on the step: it is
    tested at the step taken, not at a fixed one.  Covariance and gradient
    are returned in the target's eigenbasis.
    """
    objective = _Objective(nu_vals)
    eta_lo = 2.0 * float(nu_vals.min()) / BB_BAND
    eta_hi = 2.0 * float(nu_vals.max()) * BB_BAND

    s = _project_above(np.diag(nu_vals), cov_mu)
    f, grad = objective.value_and_gradient(s)
    tol = RESIDUAL_TOL * (1.0 + math.sqrt(np.vdot(nu_vals, nu_vals)))
    trace = PgdTrace([], [])
    residual = np.inf
    converged = False
    reason = "max_iter"
    iterations, evaluations = 0, 1
    eta = _first_step(nu_vals)
    # the last accepted step S - S_prev and the gradient at S_prev
    prev: tuple[np.ndarray, np.ndarray] | None = None

    for iterations in range(1, MAX_ITER + 1):
        if prev is not None:
            ds, dg = prev[0], grad - prev[1]
            curvature = float(np.vdot(ds, dg))
            if curvature > 0.0:
                eta = float(np.vdot(ds, ds)) / curvature
            else:
                eta *= 2.0
            eta = min(max(eta, eta_lo), eta_hi)

        # near the optimum the decrease sinks below the roundoff of f
        slack = 1e-12 * (1.0 + abs(f))
        for _ in range(MAX_BACKTRACKS):
            candidate = _project_above(s - eta * grad, cov_mu)
            step = candidate - s
            f_cand, grad_cand = objective.value_and_gradient(candidate)
            evaluations += 1
            if f_cand <= f + ARMIJO * float(np.vdot(grad, step)) + slack:
                break
            eta *= 0.5
        else:  # no candidate passed
            reason = "stalled"
            break

        residual = math.sqrt(np.vdot(step, step)) / eta
        prev = (step, grad)
        trace.grad_norm.append(math.sqrt(np.vdot(grad, grad)))
        s, f, grad = candidate, f_cand, grad_cand
        trace.objective.append(f)
        if residual <= tol:
            converged = True
            reason = "residual"
            break

    outcome = PgdOutcome(covariance=s, objective=f, iterations=iterations, residual=residual,
                         converged=converged, stop_reason=reason, gradient=grad,
                         evaluations=evaluations)
    return outcome, trace
