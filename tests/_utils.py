"""Shared random generators for the test suite (all explicitly seeded)."""

import numpy as np

from convex_order.linalg import spd_sqrt
from convex_order.measures import DiscreteMeasure
from convex_order.pgd import pgd_project_above


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def random_spd(rng, d, lo=0.2, hi=3.0):
    q = random_orthogonal(rng, d)
    return q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T


def random_psd_singular(rng, d, rank, lo=0.2, hi=3.0):
    q = random_orthogonal(rng, d)
    vals = np.zeros(d)
    vals[:rank] = rng.uniform(lo, hi, size=rank)
    return q @ np.diag(vals) @ q.T


def random_symmetric(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return 0.5 * (m + m.T)


def random_commuting_pair(rng, d, lo=0.1, hi=4.0):
    q = random_orthogonal(rng, d)
    a = rng.uniform(lo, hi, size=d)
    b = rng.uniform(lo, hi, size=d)
    return q @ np.diag(a) @ q.T, q @ np.diag(b) @ q.T, q, a, b


def random_discrete_1d(rng, max_atoms=8, scale=1.0):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure.from_1d(scale * rng.normal(size=n), rng.dirichlet(np.ones(n)))


def random_discrete(rng, d, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))


def moment_matched_discretization(cov):
    """Discrete measure with mean zero and exactly the given covariance."""
    d = cov.shape[0]
    root = spd_sqrt(cov)
    points = np.vstack([np.sqrt(d) * root[:, i] for i in range(d)]
                       + [-np.sqrt(d) * root[:, i] for i in range(d)])
    return DiscreteMeasure(points, np.full(2 * d, 1.0 / (2 * d)))


def reduced_descent(mu_cov, nu_cov):
    """The dominating-side projection onto a singular target, built apart
    from the library's rank reduction: numpy's eigendecomposition of the
    target (descending), the descent on its top block, and the entries of
    ``mu_cov`` in that frame everywhere else.  Returns ``(rank, basis,
    reduced_solution, assembled)``."""
    from convex_order.pgd import pgd_project_above

    vals, vecs = np.linalg.eigh(nu_cov)
    order = np.argsort(-vals, kind="stable")
    vals, basis = vals[order], vecs[:, order]
    rank = int(np.sum(vals > 1e-9 * vals[0]))
    conj_mu = basis.T @ mu_cov @ basis
    outcome, _ = pgd_project_above(np.diag(vals[:rank]), conj_mu[:rank, :rank])
    assembled = conj_mu.copy()
    assembled[:rank, :rank] = outcome.covariance
    return rank, basis, outcome.covariance, basis @ assembled @ basis.T
