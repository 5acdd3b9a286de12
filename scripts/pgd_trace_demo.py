"""Descent trace for the dominating-side projection.

Solves one random pair with the projected gradient method, writes the
(iteration, objective, grad_norm) trace to CSV, and reports how close the
final objective sits to the closed-form answer when the certificate
accepts the transport-map candidate basis.
"""

import argparse

import numpy as np

from convex_order import pgd_project_above, project_pair


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="pgd_trace.csv")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)

    def rand_spd(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T

    mu_cov, nu_cov = rand_spd(args.dim), rand_spd(args.dim)
    outcome, trace = pgd_project_above(nu_cov, mu_cov)

    with open(args.out, "w") as handle:
        handle.write("iteration,objective,grad_norm\n")
        for i, (obj, grad) in enumerate(zip(trace.objective, trace.grad_norm), start=1):
            handle.write(f"{i},{obj!r},{grad!r}\n")

    print(f"iterations: {outcome.iterations} (converged: {outcome.converged})")
    print(f"objective:  {outcome.objective:.12f}")
    print(f"residual:   {outcome.residual:.3e}")
    print(f"trace written to {args.out}")

    _, above = project_pair(mu_cov, nu_cov)
    if above.method in ("commuting", "fast_path"):
        closed = above.distance_sq
        print(f"closed form available: {closed:.12f} "
              f"(gap {abs(outcome.objective - closed):.3e})")
    else:
        print("closed form not applicable to this pair; descent is the reference")


if __name__ == "__main__":
    main()
