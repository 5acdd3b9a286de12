"""Projected gradient descent on the cone of matrices dominating a bound.

Computes ``argmin bw2(cov_nu, S)`` over ``{S : S >= cov_mu}``, the
dominating-side projection, with the Frobenius projection onto that cone.
Iterations, initialization and the cone projection follow the positive-part
construction; Barzilai-Borwein steps are accepted by the Armijo test along
the projection arc (Bertsekas 1976; Birgin, Martinez and Raydan 2000).  The
descent is fully deterministic.  It runs on the Gaussian solver's pair
record, validated and decomposed once: it reads the record's spectra and
neither checks, symmetrises nor decomposes its input again.  Its iterates
and gradients are exactly symmetric, so :func:`_project_above` projects them
as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bures import bw2_gradient_from_inner
from .linalg import _rebuild, clamped_eigen, positive_part


# The descent stops at gradient mapping RESIDUAL_TOL * (1 + ||cov_nu||_F),
# or after MAX_ITER iterations; Gaussian solves run it at unit scale.
MAX_ITER = 10_000
RESIDUAL_TOL = 1e-8
# Barzilai-Borwein steps stay within [eta0 / BB_BAND, eta0 * BB_BAND].
BB_BAND = 1e4
# The default step floors the lower bound's spectrum at REG_FACTOR * tr(cov_nu).
REG_FACTOR = 1e-10
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
    ``gradient``, ``grad_S bw2(cov_nu, S) = I - T``, where ``T`` is the
    transport map from ``N(0, S)`` onto ``N(0, cov_nu)``; the Gaussian solver
    takes the order transform's basis from its eigenvectors."""

    covariance: np.ndarray
    objective: float
    iterations: int
    residual: float
    converged: bool
    stop_reason: str
    gradient: np.ndarray


def _project_above(matrix: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Frobenius projection of ``matrix`` onto ``{S : S >= lower}``,
    ``matrix + (lower - matrix)^+``, for exactly symmetric inputs, which the
    descent's iterates, steps and lower bound are (sums of Gram forms and the
    record's covariances); the result is exactly symmetric, and PSD when
    ``lower`` is."""
    return matrix + positive_part(lower - matrix)


class _Objective:
    """bw2(cov_nu, .) for the record's positive definite cov_nu, from its
    clamped eigenpairs ``nu_eig``."""

    def __init__(self, cov_nu: np.ndarray, nu_eig: tuple[np.ndarray, np.ndarray]):
        vals, vecs = nu_eig
        self.trace_nu = float(cov_nu.trace())
        self.half = _rebuild(np.sqrt(vals), vecs)

    def value_and_gradient(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and gradient at ``s`` from one eigensolve."""
        inner_vals, inner_vecs = clamped_eigen(self.half @ s @ self.half)
        value = float(self.trace_nu + s.trace() - 2.0 * np.sqrt(inner_vals).sum())
        return value, bw2_gradient_from_inner(self.half, inner_vals, inner_vecs)


def _default_step(nu_vals: np.ndarray, mu_vals: np.ndarray, reg: float) -> float:
    """Crude curvature bound from the spectra of the target and of the lower
    bound (each in any order): the gradient's inverse square root is
    controlled by the spectra entering it.

    The lower-bound spectrum is floored by the target's smallest eigenvalue:
    the initializer dominates the target, so iterates never start below it,
    and without the floor a singular ``cov_mu`` would collapse the step to
    the regularization scale and stall the descent.  Backtracking still
    halves the step whenever the objective would increase.
    """
    lo_nu = float(nu_vals.min())
    hi_nu = float(nu_vals.max())
    lo = max(float(mu_vals.min()), lo_nu) + reg
    return 0.5 * math.sqrt(lo_nu) / (1.0 + math.sqrt(hi_nu) / math.sqrt(lo))


def pgd_project_above(
    cov_nu: np.ndarray, nu_eig: tuple[np.ndarray, np.ndarray], cov_mu: np.ndarray,
    mu_vals: np.ndarray,
) -> tuple[PgdOutcome, PgdTrace]:
    """Minimize ``bw2(cov_nu, S)`` over ``{S >= cov_mu}`` by projected descent.

    Reads a pair record: ``cov_nu`` and ``cov_mu`` exactly symmetric and
    finite, ``nu_eig`` the clamped eigenpairs of ``cov_nu`` and ``mu_vals``
    the clamped eigenvalues of ``cov_mu``, in any order; none is checked or
    decomposed again.  ``cov_nu`` must be positive definite, as the record's
    rank says; ``cov_mu`` may be singular (the initializer dominates
    ``cov_nu``, and the gradient floors the inner eigenvalues of
    near-singular iterates).  Each iteration starts from a
    Barzilai-Borwein step ``<dS, dS> / <dS, dG>`` (doubled instead when the
    curvature estimate is not positive) clipped to ``[eta0 / BB_BAND,
    eta0 * BB_BAND]`` around the initial step ``eta0 = _default_step(...)``,
    then halves it, at most ``MAX_BACKTRACKS`` times, until the candidate
    ``S+ = P(S - eta G)`` passes the Armijo test
    ``f(S+) <= f(S) + ARMIJO * <G, S+ - S>`` (up to a roundoff slack of
    ``1e-12 * (1 + |f(S)|)``).  A projection step has ``<G, S+ - S> <=
    -||S+ - S||^2 / eta``, so the objective never increases.  Stops when the
    gradient mapping ``||S - S+|| / eta`` at the accepted step falls below
    ``RESIDUAL_TOL * (1 + ||cov_nu||_F)`` or after ``MAX_ITER`` iterations,
    whichever comes first; ``residual`` reports that gradient mapping.  The
    mapping does not grow as ``eta`` grows, so it depends on the step: it is
    tested at the step taken, not at a fixed one.
    """
    objective = _Objective(cov_nu, nu_eig)
    eta0 = _default_step(nu_eig[0], mu_vals, REG_FACTOR * objective.trace_nu)
    eta_lo, eta_hi = eta0 / BB_BAND, eta0 * BB_BAND

    s = _project_above(cov_nu, cov_mu)
    f, grad = objective.value_and_gradient(s)
    tol = RESIDUAL_TOL * (1.0 + math.sqrt(np.vdot(cov_nu, cov_nu)))
    trace = PgdTrace([], [])
    residual = np.inf
    converged = False
    reason = "max_iter"
    iterations = 0
    eta = eta0
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
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = _project_above(s - eta * grad, cov_mu)
            step = candidate - s
            f_cand, grad_cand = objective.value_and_gradient(candidate)
            if f_cand <= f + ARMIJO * float(np.vdot(grad, step)) + slack:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
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
                         converged=converged, stop_reason=reason, gradient=grad)
    return outcome, trace
