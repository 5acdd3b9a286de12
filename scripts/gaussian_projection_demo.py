"""Projection pairs for a few covariance configurations.

Runs the rank-deficient showcase instances plus a random positive definite
pair, and prints the projected covariances together with the structural
identities that certify them.
"""

import numpy as np

from convex_order import bw2, project_pair


def show(label, mu_cov, nu_cov):
    mu_cov = np.asarray(mu_cov, dtype=float)
    nu_cov = np.asarray(nu_cov, dtype=float)
    below, above = project_pair(mu_cov, nu_cov)
    print(f"== {label} (method: {below.method})")
    print("lower-source covariance:\n", mu_cov)
    print("upper-target covariance:\n", nu_cov)
    print("projection below:\n", below.covariance.round(10))
    print("projection above:\n", above.covariance.round(10))
    print(f"shared squared distance: {below.distance_sq:.10f}")
    trace_residual = (
        np.trace(below.covariance) + np.trace(above.covariance)
        - np.trace(mu_cov) - np.trace(nu_cov)
    )
    distance_residual = bw2(mu_cov, below.covariance) - bw2(nu_cov, above.covariance)
    print(f"trace identity residual:    {trace_residual:+.3e}")
    print(f"distance equality residual: {distance_residual:+.3e}")
    verdict = above.uniqueness
    print(f"projection above unique: {verdict.unique} ({verdict.reason})")
    print()


def main():
    show("identity vs rank-one", np.eye(2), np.diag([2.0, 0.0]))
    show("correlated vs rank-one", [[1.0, 1.0], [1.0, 1.0]], np.diag([2.0, 0.0]))
    show("commuting diagonals", np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = q @ np.diag(rng.uniform(0.3, 3.0, 3)) @ q.T
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    b = q2 @ np.diag(rng.uniform(0.3, 3.0, 3)) @ q2.T
    show("random positive definite pair", a, b)


if __name__ == "__main__":
    main()
