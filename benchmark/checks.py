"""Correctness checks computed apart from the solvers.

Everything here uses plain numpy eigen-decompositions, a quantile-function
computation written for the benchmark, and ``scipy.optimize.linprog`` as the
LP solver; none of it calls ``convex_order``.  Each function returns the names
of the checks that failed, so an empty list means the answer is accepted.
Tolerances are relative to ``scale`` (one plus the traces or second moments of
the inputs).
"""

from __future__ import annotations

import numpy as np

ORDER_TOL = 1e-7  # Loewner certificates, as the library certifies them
TRACE_TOL = 1e-8
DIST_TOL = 1e-7  # bw2 at singular matrices carries sqrt(eps)-level noise
KKT_TOL = 1e-6
VALUE_TOL = 1e-9
GAP_TOL = 1e-6  # above HiGHS's 1e-7 feasibility tolerance
MARGINAL_TOL = 1e-9
BARY_TOL = 1e-9
CX_TOL = 1e-9


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym(m))[0])


def _power(m: np.ndarray, p: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sym(m))
    vals = np.clip(vals, 0.0, None)
    if p < 0:
        vals = np.where(vals > 0.0, vals, np.inf)
    return sym((vecs * vals**p) @ vecs.T)


def bw2(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A) + tr(B) - 2 tr((A^1/2 B A^1/2)^1/2)."""
    root = _power(a, 0.5)
    cross = np.clip(np.linalg.eigvalsh(sym(root @ b @ root)), 0.0, None)
    return float(np.trace(a) + np.trace(b) - 2.0 * np.sum(np.sqrt(cross)))


def gaussian_pair(cov_mu, cov_nu, below, above, distance_sq=None, kkt=True) -> list[str]:
    """Both Loewner certificates, the trace identity, distance equality and,
    for a nonsingular target, the KKT certificate of ``above``."""
    cov_mu, cov_nu = np.asarray(cov_mu, float), np.asarray(cov_nu, float)
    below, above = np.asarray(below, float), np.asarray(above, float)
    scale = 1.0 + abs(np.trace(cov_mu)) + abs(np.trace(cov_nu))
    failed = []
    if min_eig(cov_nu - below) < -ORDER_TOL * scale:
        failed.append("below_dominated")
    if min_eig(above - cov_mu) < -ORDER_TOL * scale:
        failed.append("above_dominates")
    trace_gap = np.trace(below) + np.trace(above) - np.trace(cov_mu) - np.trace(cov_nu)
    if abs(trace_gap) > TRACE_TOL * scale:
        failed.append("trace_identity")
    d_below = bw2(cov_mu, below)
    if abs(d_below - bw2(cov_nu, above)) > DIST_TOL * scale:
        failed.append("distance_equality")
    if distance_sq is not None and abs(distance_sq - d_below) > DIST_TOL * scale:
        failed.append("reported_distance")
    if kkt:
        # gradient of S -> bw2(nu, S) at S = above; optimality over {S >= mu}
        # needs it PSD and orthogonal to above - mu
        root = _power(cov_nu, 0.5)
        grad = np.eye(len(cov_nu)) - root @ _power(root @ above @ root, -0.5) @ root
        if min_eig(grad) < -KKT_TOL or abs(np.trace(grad @ (above - cov_mu))) > KKT_TOL * scale:
            failed.append("kkt_certificate")
    return failed


# -- one dimension ---------------------------------------------------------


def _quantile(points, weights):
    points = np.asarray(points, float).ravel()
    weights = np.asarray(weights, float).ravel()
    order = np.argsort(points, kind="stable")
    x, w = points[order], weights[order] / weights.sum()
    cuts = np.concatenate(([0.0], np.cumsum(w)))
    cuts[-1] = 1.0
    return x, cuts


def w2sq_1d(a_pts, a_w, b_pts, b_w) -> float:
    """Squared W2 on the line through the quantile coupling."""
    xa, ca = _quantile(a_pts, a_w)
    xb, cb = _quantile(b_pts, b_w)
    grid = np.union1d(ca, cb)
    mids = 0.5 * (grid[:-1] + grid[1:])
    qa = xa[np.clip(np.searchsorted(ca, mids) - 1, 0, xa.size - 1)]
    qb = xb[np.clip(np.searchsorted(cb, mids) - 1, 0, xb.size - 1)]
    return float(np.diff(grid) @ (qa - qb) ** 2)


def cx_leq_1d(a_pts, a_w, b_pts, b_w, tol: float) -> bool:
    """``a <=cx b``: integrated quantiles of ``a`` stay above those of ``b``
    and both end at the same mean."""
    xa, ca = _quantile(a_pts, a_w)
    xb, cb = _quantile(b_pts, b_w)
    grid = np.union1d(ca, cb)
    ka = np.interp(grid, ca, np.concatenate(([0.0], np.cumsum(np.diff(ca) * xa))))
    kb = np.interp(grid, cb, np.concatenate(([0.0], np.cumsum(np.diff(cb) * xb))))
    return bool(np.min(ka - kb) >= -tol and abs(ka[-1] - kb[-1]) <= tol)


def second_moment(points, weights) -> float:
    points = np.asarray(points, float).reshape(len(weights), -1)
    return float(np.asarray(weights, float) @ np.sum(points**2, axis=1))


def projection_1d(mu, nu, below, above, distance_sq) -> list[str]:
    """1-d projections: convex order on both sides, the second-moment
    identity and the reported distance.  Measures are ``(points, weights)``."""
    scale = 1.0 + second_moment(*mu) + second_moment(*nu)
    failed = []
    if not cx_leq_1d(*below, *nu, CX_TOL * scale):
        failed.append("below_in_convex_order")
    if not cx_leq_1d(*mu, *above, CX_TOL * scale):
        failed.append("above_in_convex_order")
    moments = second_moment(*below) + second_moment(*above)
    if abs(moments - second_moment(*mu) - second_moment(*nu)) > CX_TOL * scale:
        failed.append("second_moment_identity")
    if abs(w2sq_1d(*mu, *below) - distance_sq) > CX_TOL * scale or abs(
        w2sq_1d(*nu, *above) - distance_sq
    ) > CX_TOL * scale:
        failed.append("reported_distance")
    return failed


# -- discrete measures -----------------------------------------------------


def _transport_lp(cost: np.ndarray, row_w, col_w) -> np.ndarray:
    from scipy.optimize import linprog

    n, m = cost.shape
    a_eq = np.vstack((np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))))
    b_eq = np.concatenate((row_w, col_w))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.x.reshape(n, m)


def w2sq_lp(x, wx, y, wy) -> float:
    """Squared W2 between two discrete measures, by scipy's LP solver."""
    x = np.asarray(x, float).reshape(len(wx), -1)
    y = np.asarray(y, float).reshape(len(wy), -1)
    cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return float(np.sum(cost * _transport_lp(cost, wx, wy)))


def wot(x, wx, y, wy, coupling, value, projection) -> list[str]:
    """Weak-transport answer: marginals, the value recomputed from the
    coupling, the Frank-Wolfe gap recomputed with scipy's LP solver, and the
    barycenter of the pushforward ``projection = (points, weights)``."""
    x = np.asarray(x, float).reshape(len(wx), -1)
    y = np.asarray(y, float).reshape(len(wy), -1)
    pi = np.asarray(coupling, float)
    failed = []
    if (
        pi.min() < -1e-15
        or np.abs(pi.sum(axis=1) - wx).max() > MARGINAL_TOL
        or np.abs(pi.sum(axis=0) - wy).max() > MARGINAL_TOL
    ):
        failed.append("marginals")
    bary = (pi @ y) / wx[:, None]
    own_value = float(wx @ np.sum((x - bary) ** 2, axis=1))
    if abs(own_value - value) > VALUE_TOL * (1.0 + abs(own_value)):
        failed.append("value")
    grad = -2.0 * (x - bary) @ y.T
    vertex = _transport_lp(grad, wx, wy)
    gap = float(np.sum(grad * (pi - vertex)))
    if gap > GAP_TOL * (1.0 + abs(own_value)):
        failed.append("fw_gap")
    points, weights = projection
    shift = np.asarray(weights, float) @ np.asarray(points, float).reshape(len(weights), -1)
    target = wy @ y
    if np.linalg.norm(shift - target) > BARY_TOL * (1.0 + np.linalg.norm(target)):
        failed.append("pushforward_barycenter")
    return failed
