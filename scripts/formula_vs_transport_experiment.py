"""Agreement experiment: 1-d quantile formulas against the transport solver.

Draws random one-dimensional pairs, projects with the hull-of-integrated-
quantiles formula and independently through the barycentric transport
program, and tabulates the Wasserstein gap between the two answers.  Each
pair is also solved embedded on a line in R^2, where the solver's Newton
blocks are 3 x 3 rather than 2 x 2, and pulled back to the line for a
second gap.
"""

import argparse

import numpy as np

from convex_order import DiscreteMeasure, project_1d_detail, project_discrete, w2_1d


# unit direction of the line in R^2; both coordinates grow along it, so the
# embedded atoms keep their 1-d order
LINE = np.array([0.6, 0.8])


def random_measure(rng, max_atoms):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure.from_1d(rng.normal(size=n), rng.dirichlet(np.ones(n)))


def on_line(m):
    return DiscreteMeasure(m.points * LINE, m.weights)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--max-atoms", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'pair':>4} {'atoms':>7} {'value':>12} {'steps':>8} {'w2 gap':>10} "
          f"{'line gap':>10}")
    worst = np.zeros(2)
    for k in range(args.pairs):
        mu = random_measure(rng, args.max_atoms)
        nu = random_measure(rng, args.max_atoms)
        detail = project_1d_detail(mu, nu)
        projection, result = project_discrete(mu, nu)
        line = project_discrete(on_line(mu), on_line(nu))[0]
        pulled_back = DiscreteMeasure.from_1d(line.points @ LINE, line.weights)
        gaps = np.array([w2_1d(detail.below, projection), w2_1d(detail.below, pulled_back)])
        worst = np.maximum(worst, gaps)
        print(f"{k:>4} {mu.size:>3}x{nu.size:<3} {result.value:>12.6f} "
              f"{result.iterations:>8} {gaps[0]:>10.2e} {gaps[1]:>10.2e}")
    print(f"\nworst Wasserstein gap over {args.pairs} pairs: {worst[0]:.3e} "
          f"(on the line), {worst[1]:.3e} (on a line in R^2)")


if __name__ == "__main__":
    main()
