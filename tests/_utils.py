"""Shared random generators and helpers for the test suite (all explicitly
seeded)."""

import sys

import numpy as np

from convex_order import linalg, pgd
from convex_order.linalg import bw2_gradient_from_inner, clamped_eigen, sym
from convex_order.measures import DiscreteMeasure

# the names project_pair gives its covariances, for tests that build its record
PAIR_NAMES = ("cov_mu", "cov_nu")


def psd_sqrt(cov):
    """Principal square root of a PSD test matrix, from its clamped spectrum."""
    vals, vecs = clamped_eigen(sym(cov))
    return sym((vecs * np.sqrt(vals)) @ vecs.T)


def eigen_convention(matrix):
    """Eigenpairs of a symmetric ``matrix`` in the library's eigen-convention,
    built column by column by :func:`conventional_order`."""
    return conventional_order(*np.linalg.eigh(sym(matrix)))


def conventional_order(vals, vecs):
    """Eigenpairs in the library's eigen-convention, built column by column:
    eigenvalues descending (ties keep their order), and the first entry of
    each eigenvector whose magnitude exceeds 1e-12 of the column maximum
    made positive."""
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order].copy(), vecs[:, order].copy()
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        significant = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if significant.size and col[significant[0]] < 0.0:
            vecs[:, k] = -col
    return vals, vecs


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


def product_measure(first, second, rotation, shift):
    """The product of the 1-d measures ``first`` and ``second`` (atoms the
    pairs of their atoms, weights the products of their weights), moved by
    the rigid motion ``x -> rotation @ x + shift`` of the plane."""
    a, b = np.meshgrid(first.values_1d, second.values_1d, indexing="ij")
    points = np.column_stack((a.ravel(), b.ravel()))
    weights = np.outer(first.weights, second.weights).ravel()
    return DiscreteMeasure(points @ np.asarray(rotation).T + shift, weights)


def moment_matched_discretization(cov):
    """Discrete measure with mean zero and exactly the given covariance."""
    d = cov.shape[0]
    root = psd_sqrt(cov)
    points = np.vstack([np.sqrt(d) * root[:, i] for i in range(d)]
                       + [-np.sqrt(d) * root[:, i] for i in range(d)])
    return DiscreteMeasure(points, np.full(2 * d, 1.0 / (2 * d)))


def reduced_descent(mu_cov, nu_cov):
    """The dominating-side projection onto a singular target, built apart
    from the library's rank reduction: numpy's eigendecomposition of the
    target (descending), the descent on its top block, and the entries of
    ``mu_cov`` in that frame everywhere else.  Returns ``(rank, basis,
    reduced_solution, assembled)``."""
    vals, vecs = np.linalg.eigh(nu_cov)
    order = np.argsort(-vals, kind="stable")
    vals, basis = vals[order], vecs[:, order]
    rank = int(np.sum(vals > 1e-9 * vals[0]))
    conj_mu = basis.T @ mu_cov @ basis
    outcome, _ = raw_descent(np.diag(vals[:rank]), conj_mu[:rank, :rank])
    assembled = conj_mu.copy()
    assembled[:rank, :rank] = outcome.covariance
    return rank, basis, outcome.covariance, basis @ assembled @ basis.T


def descent_frame(cov_nu, cov_mu):
    """A raw pair as the Gaussian solver's record hands it to the descent,
    in the pair's own units: both covariances read afresh (gated, checked
    PSD and decomposed at their own unit scale), the target's spectrum moved
    back to the caller's units and clamped, its eigenbasis, and ``cov_mu``
    conjugated into that basis.  Returns ``(nu_vals, frame, conjugated_mu)``."""
    _, nu_vals, frame, k_nu = linalg._validated_eigh(cov_nu, "cov_nu")
    mu = linalg._validated_eigh(cov_mu, "cov_mu")[0]
    return np.maximum(np.ldexp(nu_vals, 2 * k_nu), 0.0), frame, sym(frame.T @ mu @ frame)


def raw_descent(cov_nu, cov_mu):
    """The descent on a raw pair, run in the frame of :func:`descent_frame`,
    with its covariance and gradient mapped back to the caller's
    coordinates."""
    nu_vals, frame, mu = descent_frame(cov_nu, cov_mu)
    outcome, trace = pgd.pgd_project_above(nu_vals, mu)
    back = [sym(frame @ m @ frame.T) for m in (outcome.covariance, outcome.gradient)]
    return outcome._replace(covariance=back[0], gradient=back[1]), trace


def frobenius_project_above(matrix, lower):
    """Frobenius projection of ``sym(matrix)`` onto ``{S : S >= sym(lower)}``,
    by the descent's own cone projection."""
    return pgd._project_above(sym(matrix), sym(lower))


def bw2_gradient(cov_fixed, cov):
    """Gradient ``I - F^{1/2} (F^{1/2} S F^{1/2})^{-1/2} F^{1/2}`` of
    ``S -> bw2(F, S)`` at ``S = cov``, for positive definite ``F = cov_fixed``
    and ``cov``, by the solver's own formula in the eigenbasis of ``F``."""
    vals, frame = clamped_eigen(sym(cov_fixed))
    root = np.sqrt(vals)
    inner = (frame.T @ sym(cov) @ frame) * np.outer(root, root)
    grad = bw2_gradient_from_inner(root, *clamped_eigen(sym(inner)))
    return sym(frame @ grad @ frame.T)


def patch_everywhere(monkeypatch, name, replacement):
    """Replace the ``linalg`` function ``name`` under every library module
    name bound to it, so calls through any import see the replacement."""
    original = getattr(linalg, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("convex_order") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def tiny_target_pairs(count):
    """The first ``count`` pairs of a seeded family, ``default_rng([12, 9])``:
    4 to 39 atoms a side in d = 1 to 3, Dirichlet weights, and one atom of
    the target at weight 1e-9."""
    rng = np.random.default_rng([12, 9])
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n, m = (int(v) for v in rng.integers(4, 40, size=2))
        target_w = rng.dirichlet(np.ones(m)) * (1.0 - 1e-9)
        target_w[int(rng.integers(m))] = 1e-9
        mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))
        yield mu, DiscreteMeasure(0.8 * rng.normal(size=(m, d)), target_w / target_w.sum())


# (dimension, atoms of mu, atoms of nu) of the benchmark's wot-simplex
# workload, one problem each in turn
WOT_SIMPLEX_SIZES = ((2, 8, 8), (2, 10, 10), (1, 12, 12), (2, 12, 8), (2, 8, 12),
                     (2, 10, 12), (2, 12, 10), (1, 16, 16), (2, 9, 11), (2, 11, 9))


def wot_simplex_pairs(seed, count):
    """The first ``count`` problems of the benchmark's ``wot-simplex``
    workload at ``seed``, drawn as its generator draws them:
    ``default_rng([2, seed])``, points N(0, 1) for mu and N(0, 0.64) for nu,
    Dirichlet(1) weights."""
    rng = np.random.default_rng([2, seed])
    for k in range(count):
        dim, n, m = WOT_SIMPLEX_SIZES[k % len(WOT_SIMPLEX_SIZES)]
        yield tuple(DiscreteMeasure(spread * rng.normal(size=(size, dim)),
                                    rng.dirichlet(np.ones(size)))
                    for size, spread in ((n, 1.0), (m, 0.8)))
