"""Agreement experiment: 1-d quantile formulas against the transport solver.

Draws random one-dimensional pairs, projects with the hull-of-integrated-
quantiles formula and independently through the barycentric transport
program, and tabulates the Wasserstein gap between the two answers.
"""

import argparse

import numpy as np

from convex_order import (
    DiscreteMeasure,
    barycentric_pushforward,
    project_1d_detail,
    solve_wot,
    w2_1d,
)


def random_measure(rng, max_atoms):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure.from_1d(rng.normal(size=n), rng.dirichlet(np.ones(n)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--max-atoms", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'pair':>4} {'atoms':>7} {'value':>12} {'fw iters':>8} {'w2 gap':>10}")
    worst = 0.0
    for k in range(args.pairs):
        mu = random_measure(rng, args.max_atoms)
        nu = random_measure(rng, args.max_atoms)
        detail = project_1d_detail(mu, nu)
        result = solve_wot(mu, nu, fw_tol=1e-13)
        pushed = barycentric_pushforward(result.coupling)
        gap = w2_1d(detail.below, pushed)
        worst = max(worst, gap)
        print(f"{k:>4} {mu.size:>3}x{nu.size:<3} {result.value:>12.6f} "
              f"{result.iterations:>8} {gap:>10.2e}")
    print(f"\nworst Wasserstein gap over {args.pairs} pairs: {worst:.3e}")


if __name__ == "__main__":
    main()
