import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order import discrete, linalg, measures
from convex_order.discrete import (
    BudgetExceededError,
    Coupling,
    barycentric_pushforward,
    exact_w2_sq,
    project_discrete,
    solve_transport_lp,
    solve_wot,
)
from convex_order.measures import DiscreteMeasure, EmptyMeasureError, GaussianMeasure
from convex_order.one_dim import is_convex_ordered_1d, project_1d_detail, w2_1d
from _utils import (
    product_measure,
    random_discrete,
    random_discrete_1d,
    random_orthogonal,
    tiny_target_pairs,
    wot_simplex_pairs,
)


def measure_1d(values, weights):
    return DiscreteMeasure.from_1d(values, weights)


def brute_force_assignment(cost):
    """Optimal cost over the couplings of two uniform n-atom measures.

    By Birkhoff-von Neumann the transportation polytope is then the
    permutation matrices' hull, so enumerating them finds the optimum.
    """
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return float(cost[np.arange(n), perms].sum(axis=1).min()) / n


def barycentric_cost(pi, mu, nu):
    """The WOT objective ``sum_i w_i |x_i - m(pi_{x_i})|^2``, from its definition."""
    bary = (pi @ nu.points) / mu.weights[:, None]
    return float(mu.weights @ np.sum((mu.points - bary) ** 2, axis=1))


def wot_gradient(pi, mu, nu):
    """d/dpi_ij of ``barycentric_cost``: -2 (x_i - m(pi_{x_i})) . y_j."""
    bary = (pi @ nu.points) / mu.weights[:, None]
    return -2.0 * (mu.points - bary) @ nu.points.T


def northwest_corner(row, col):
    """The northwest-corner rule as a loop: the current cell takes the lesser
    remaining weight, then the walk moves down, or right when the column
    has less left (a tie moves down).  Returns the vertex and its cells."""
    n, m = row.size, col.size
    pi = np.zeros((n, m))
    left_row, left_col = row.copy(), col.copy()
    cells, i, j = [], 0, 0
    while True:
        amount = min(left_row[i], left_col[j])
        pi[i, j] = amount
        cells.append((i, j))
        left_row[i] -= amount
        left_col[j] -= amount
        if (i, j) == (n - 1, m - 1):
            return pi, cells
        if j == m - 1 or (left_row[i] <= left_col[j] and i < n - 1):
            i += 1
        else:
            j += 1


def merge_atoms_loop(points, weights):
    """Atom merge rule as one pass over the sorted atoms: an atom within
    ``MERGE_TOL`` of the atom before it adds its weight to the last kept
    atom, so a chain of close atoms is one atom however far it spans."""
    order = np.lexsort(points.T[::-1])
    points = points[order]
    weights = weights[order]
    keep = [0]
    for i in range(1, points.shape[0]):
        if np.max(np.abs(points[i] - points[i - 1])) <= measures.MERGE_TOL:
            weights[keep[-1]] += weights[i]
        else:
            keep.append(i)
    return points[keep], weights[keep]


def clustered_atoms(rng, dim):
    """Atoms on a coarse grid (ties in every coordinate), each repeated up to
    twelve times with per-coordinate offsets of 0, 1e-13 or 4e-13, so that
    every input carries exact duplicates, near-duplicates and a run of more
    than eight atoms."""
    centres = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), dim)) * 0.5
    centres = np.unique(centres, axis=0)
    counts = rng.integers(1, 13, size=len(centres))
    counts[0] = 9 + counts[0] % 4
    points = np.repeat(centres, counts, axis=0)
    points = points + rng.choice([0.0, 1e-13, 4e-13], size=points.shape)
    points = points[rng.permutation(len(points))]
    return points, rng.dirichlet(np.ones(len(points)))


class TestMeasureConstruction:
    def test_merges_duplicate_atoms(self):
        m = DiscreteMeasure([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5])
        assert m.size == 2
        np.testing.assert_allclose(m.weights, [0.5, 0.5])

    def test_merge_matches_the_per_atom_loop_bit_for_bit(self):
        def merges_alike(points, weights):
            expected = merge_atoms_loop(points.copy(), weights.copy())
            merged = measures._merge_atoms(points.copy(), weights.copy())
            return all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(merged, expected))

        rng = np.random.default_rng(20)
        for _ in range(2000):
            points, weights = clustered_atoms(rng, int(rng.integers(1, 4)))
            assert merges_alike(points, weights)
            if points.shape[1] == 1:
                # 1-d atoms in order, as the CLI's files and project_1d_detail
                # pass them, skip the sort; reversed ones take it
                order = np.argsort(points[:, 0], kind="stable")
                assert merges_alike(points[order], weights[order])
                assert merges_alike(points[order[::-1]], weights[order[::-1]])
        # signed zeros tie, so the first to arrive is kept, sorted or not;
        # a MERGE_TOL chain in order is one atom
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-1.0, -0.0, 0.0, -0.0],
                       [1.0, 0.0, -0.0], [0.0, 0.6e-12, 1.2e-12]):
            weights = rng.dirichlet(np.ones(len(values)))
            assert merges_alike(np.array(values)[:, None], weights)

    def test_run_of_close_atoms_merges_into_its_first(self):
        # each atom is within MERGE_TOL of the one before, the run spans more
        m = DiscreteMeasure.from_1d([1.2e-12, 0.0, 0.6e-12], [0.25, 0.5, 0.25])
        assert np.array_equal(m.points, [[0.0]])
        assert np.array_equal(m.weights, [1.0])

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(EmptyMeasureError):
            DiscreteMeasure(np.zeros((3, 0)), np.full(3, 1.0 / 3.0))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0]], [0.5])

    def test_rejects_non_finite_atoms_and_weights(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure.from_1d([0.0, np.nan], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([[0.0], [1.0]], [np.inf, 0.5])

    def test_rejects_coordinates_beyond_the_range(self):
        # squared distances and second moments of atoms beyond 2^500 can overflow
        m = DiscreteMeasure([[-measures.MAX_COORD, 0.0], [1.0, measures.MAX_COORD]], [0.5, 0.5])
        assert np.abs(m.points).max() == measures.MAX_COORD
        for far in (np.nextafter(measures.MAX_COORD, np.inf), -1e200):
            with pytest.raises(ValueError, match="support points must lie within 3.273e"):
                DiscreteMeasure([[0.0, far]], [1.0])

    def test_a_scalar_weight_is_one_atom(self):
        m = DiscreteMeasure([[2.0]], 1.0)
        assert m.weights.shape == (1,) and m.weights[0] == 1.0

    def test_renormalizes_near_one(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.5 + 1e-9, 0.5])
        assert float(np.sum(m.weights)) == pytest.approx(1.0, abs=1e-15)


class TestInputGuards:
    """The typed error and the message of each guard at the boundary of the
    measures and of the discrete engine."""

    def test_measures(self):
        cases = [
            (lambda: GaussianMeasure(np.zeros(2), np.eye(3)),
             r"covariance shape \(3, 3\) does not match mean of size 2"),
            (lambda: GaussianMeasure([[0.0, 1.0]], np.eye(2)),
             r"mean must be a vector, got shape \(1, 2\)"),
            (lambda: GaussianMeasure([[0.0, 1.0], [2.0, 3.0]], np.eye(4)),
             r"mean must be a vector, got shape \(2, 2\)"),
            (lambda: DiscreteMeasure([[0.0], [1.0]], [1.0]),
             "one weight per support point required"),
            (lambda: DiscreteMeasure(np.arange(4.0), [[0.25, 0.25], [0.25, 0.25]]),
             r"weights must be a vector, got shape \(2, 2\)"),
            (lambda: DiscreteMeasure([[0.0], [1.0]], [[0.5], [0.5]]),
             r"weights must be a vector, got shape \(2, 1\)"),
            (lambda: DiscreteMeasure([[0.0, 1.0]], [1.0]).values_1d,
             "measure lives in dimension 2, not 1"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=message) as refused:
                build()
            assert refused.type is ValueError

    def test_discrete(self):
        line = measure_1d([0.0, 1.0], [0.5, 0.5])
        plane = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        half = np.array([0.5, 0.5])
        cases = [
            (lambda: solve_wot(line, plane), ValueError, "dimension mismatch"),
            (lambda: exact_w2_sq(line, plane), ValueError, "dimension mismatch"),
            (lambda: Coupling(np.full((2, 3), 1.0 / 6.0), line, line), ValueError,
             "coupling shape must match the two supports"),
            (lambda: Coupling(np.array([[0.6, -0.1], [-0.1, 0.6]]), line, line), ValueError,
             "coupling must be entrywise nonnegative"),
            (lambda: Coupling(np.array([[0.3, 0.3], [0.2, 0.2]]), line, line), ValueError,
             r"marginal residuals \(1.000e-01, 0.000e\+00\) exceed 1e-09"),
            (lambda: solve_transport_lp(np.array([[0.0, np.inf], [1.0, 0.0]]), half, half),
             ValueError, "cost entries must be finite"),
            (lambda: solve_transport_lp(np.zeros((2, 2)), half, 2.0 * half),
             discrete.LpInfeasibleError, "row and column weights have different totals"),
        ]
        for call, error, message in cases:
            with pytest.raises(error, match=message) as refused:
                call()
            assert refused.type is error


class TestObjective:
    def test_single_target_atom(self):
        mu = measure_1d([-1.0, 1.0], [0.5, 0.5])
        nu = measure_1d([0.0], [1.0])
        assert solve_wot(mu, nu).value == pytest.approx(1.0)

    def test_product_coupling_collapses_to_target_mean(self):
        # a Dirac on either side leaves the product coupling as the only one
        rng = np.random.default_rng(0)
        spread = random_discrete(rng, 2, 5)
        for mu, nu in ((spread, random_discrete(rng, 2, 1)),
                       (random_discrete(rng, 2, 1), spread)):
            expected = float(
                mu.weights @ np.sum((mu.points - nu.barycenter) ** 2, axis=1)
            )
            assert solve_wot(mu, nu).value == pytest.approx(expected, abs=1e-12)


class TestTransportLp:
    def test_zero_cost_returns_northwest_corner(self):
        row = np.array([0.5, 0.5])
        col = np.array([0.25, 0.75])
        pi = solve_transport_lp(np.zeros((2, 2)), row, col)
        np.testing.assert_allclose(pi, [[0.25, 0.25], [0.0, 0.5]])

    def test_two_by_two_picks_cheap_diagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = solve_transport_lp(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(pi, 0.5 * np.eye(2))
        # the only other vertex is the anti-diagonal; it costs more
        anti = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.sum(pi * cost) <= np.sum(anti * cost)

    def test_sorted_quadratic_cost_gives_monotone_coupling(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.normal(size=n))
            ys = np.sort(rng.normal(size=n))
            cost = (xs[:, None] - ys[None, :]) ** 2
            uniform = np.full(n, 1.0 / n)
            pi = solve_transport_lp(cost, uniform, uniform)
            np.testing.assert_allclose(pi, np.eye(n) / n, atol=1e-12)

    def test_random_instances_beat_product_coupling(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            row = rng.dirichlet(np.ones(n))
            col = rng.dirichlet(np.ones(m))
            cost = rng.normal(size=(n, m))
            pi = solve_transport_lp(cost, row, col)
            np.testing.assert_allclose(pi.sum(axis=1), row, atol=1e-12)
            np.testing.assert_allclose(pi.sum(axis=0), col, atol=1e-12)
            assert np.sum(pi * cost) <= np.sum(np.outer(row, col) * cost) + 1e-12

    def test_basis_cells_price_far_inside_the_threshold(self, monkeypatch):
        # pricing reads the basis cells unmasked: a cell whose child node is
        # a column prices at exactly 0, one whose child is a row within a few
        # ulps of the potentials, which must stay 100x inside the threshold
        margins = []

        def price_basis(basis, cost):
            cells = np.array(basis.cell[1:])
            rows, cols = np.divmod(cells, basis.m)
            pot = np.array(basis.pot)
            reduced = (cost.ravel()[cells] - pot[rows]) - pot[basis.n + cols]
            assert (reduced[basis.n - 1:] == 0.0).all()  # the column children
            margins.append(np.abs(reduced).max() / (1e-12 * (1.0 + np.abs(cost).max())))

        cycle = discrete._basis_cycle
        for n, m in ((8, 12), (30, 30), (60, 45), (90, 90)):
            rng = np.random.default_rng([91, n, m])
            x, y = rng.normal(size=(n, 2)), 0.8 * rng.normal(size=(m, 2))
            row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            # rank-two costs -2 r y' at unit scale, then exact_w2_sq's
            # squared distances
            costs = [-2.0 * (2.0 * rng.normal(size=(n, 2))) @ y.T for _ in range(3)]
            costs.append(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
            for cost in costs:
                seen = []

                def priced_cycle(b, i, j, cost=cost, seen=seen):
                    price_basis(b, cost)
                    seen.append(b)
                    return cycle(b, i, j)
                monkeypatch.setattr(discrete, "_basis_cycle", priced_cycle)
                solve_transport_lp(cost, row, col)
                price_basis(seen[-1], cost)  # the optimal basis
        assert len(margins) > 4 * 4 and max(margins) <= 1e-2

    @pytest.mark.parametrize("row, col, message", [
        # unguarded, the simplex returns [[0.5, 1.0], [0.0, -0.5]]
        ([1.5, -0.5], [0.5, 0.5], "row_weights must be finite and nonnegative"),
        # and a NaN coupling
        ([math.nan, 0.5], [0.5, 0.5], "row_weights must be finite and nonnegative"),
        ([0.5, 0.5], [0.5, math.inf], "col_weights must be finite and nonnegative"),
        # and a bare IndexError
        ([0.5, 0.5], [0.25, 0.25, 0.5], r"cost must have the shape \(2, 3\) of the weights, "
                                        r"not \(2, 2\)"),
    ])
    def test_refuses_bad_weights_and_cost_shapes(self, row, col, message):
        with pytest.raises(ValueError, match=message) as refused:
            solve_transport_lp(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array(row), np.array(col))
        assert refused.type is ValueError

    def test_oracle_returns_valid_coupling(self):
        rng = np.random.default_rng(4)
        mu = random_discrete(rng, 2, 5)
        nu = random_discrete(rng, 2, 6)
        pi = solve_transport_lp(rng.normal(size=(mu.size, nu.size)), mu.weights, nu.weights)
        coupling = Coupling(pi, mu, nu)  # raises unless pi couples mu and nu
        assert isinstance(coupling, Coupling)


class TestTransportLpOracles:
    def test_equal_weights_match_permutation_brute_force(self):
        rng = np.random.default_rng(40)
        for d in (1, 2, 3):
            for n in range(1, 6):
                for _ in range(4):
                    uniform = np.full(n, 1.0 / n)
                    mu = DiscreteMeasure(rng.normal(size=(n, d)), uniform)
                    nu = DiscreteMeasure(rng.normal(size=(n, d)), uniform)
                    cost = np.sum((mu.points[:, None] - nu.points[None]) ** 2, axis=2)
                    best = brute_force_assignment(cost)
                    pi = solve_transport_lp(cost, uniform, uniform)
                    assert np.sum(pi * cost) == pytest.approx(best, abs=1e-12 * (1 + best))
                    assert exact_w2_sq(mu, nu) == pytest.approx(best, abs=1e-12 * (1 + best))

    @pytest.mark.parametrize("runs", [1, 0])
    def test_degenerate_integer_costs_terminate_at_the_optimum(self, monkeypatch, runs):
        # runs=0 prices every pivot with Bland's rule; with Dantzig pricing,
        # 40000 such instances never ran n + m degenerate pivots in a row
        monkeypatch.setattr(discrete, "_DEGENERATE_RUNS", runs)
        rng = np.random.default_rng(41)
        for n in range(2, 6):
            uniform = np.full(n, 1.0 / n)
            for _ in range(30):
                cost = rng.integers(0, 3, size=(n, n)).astype(float)
                pi = solve_transport_lp(cost, uniform, uniform)
                np.testing.assert_allclose(pi.sum(axis=1), uniform, atol=1e-15)
                np.testing.assert_allclose(pi.sum(axis=0), uniform, atol=1e-15)
                assert np.sum(pi * cost) == pytest.approx(
                    brute_force_assignment(cost), abs=1e-12
                )

    def test_simplex_solves_rank_one_costs(self):
        # rank-one costs -2 r y' with y ascending are solved by the
        # comonotone coupling of r with y, the northwest corner (the loop
        # reference) of the rows sorted by r, which the simplex must match
        for s in range(400):
            rng = np.random.default_rng([47, s])
            n, m = (int(v) for v in rng.integers(2, 17, size=2))
            row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            y = np.sort(rng.normal(size=m))
            r = rng.normal(size=n)
            tied = s % 4 == 0
            if tied:
                r = np.round(r)
            cost = -2.0 * np.outer(r, y)
            order = np.argsort(r, kind="stable")
            sorted_pi, _ = northwest_corner(row[order], col)
            pi = np.empty_like(sorted_pi)
            pi[order] = sorted_pi
            lp = solve_transport_lp(cost, row, col)
            value = float(np.sum(pi * cost))
            assert abs(np.sum(lp * cost) - value) <= 1e-12 * (1.0 + abs(value)), s
            if not tied:  # the optimum is unique
                np.testing.assert_allclose(lp, pi, rtol=0, atol=1e-14)

    def test_northwest_staircase_matches_the_loop_reference(self):
        # untied weights: the same cells, and the same flows up to the
        # roundoff of the cumulative weights
        rng = np.random.default_rng(49)
        for _ in range(300):
            n, m = (int(v) for v in rng.integers(1, 17, size=2))
            row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            pi, rows, cols = discrete._northwest_corner(row, col)
            reference, cells = northwest_corner(row, col)
            assert list(zip(rows.tolist(), cols.tolist())) == cells, (n, m)
            np.testing.assert_allclose(pi, reference, rtol=0,
                                       atol=(n + m) * np.finfo(float).eps)

    def test_northwest_staircase_is_a_basis_on_tied_weights(self):
        # small-integer weights tie cumulative row and column cuts, where
        # the staircase steps through cells that carry no mass
        rng = np.random.default_rng(48)
        for n, m in itertools.product(range(1, 13), repeat=2):
            counts = [rng.integers(1, 4, size=size).astype(float) for size in (n, m)]
            row, col = counts[0] / counts[0].sum(), counts[1] / counts[1].sum()
            pi, rows, cols = discrete._northwest_corner(row, col)
            basis = discrete._TransportBasis(pi, rows, cols)  # raises unless a spanning tree
            np.testing.assert_array_equal(basis.coupling(), pi)
            np.testing.assert_allclose(pi.sum(axis=1), row, rtol=0, atol=1e-15)
            np.testing.assert_allclose(pi.sum(axis=0), col, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("flows, leaving", [
        # (0, 1) and (1, 0) empty together, on the column and the row walk
        ((0.125, 0.25, 0.25, 0.0625, 0.3125), (0, 1)),
        # (1, 0) and (2, 2) empty together, on the row and the column walk
        ((0.125, 0.3125, 0.25, 0.0625, 0.25), (1, 0)),
    ])
    def test_pivot_drops_the_first_emptied_cell_in_row_major_order(self, flows, leaving):
        # the tree row 0 - col 0 - row 1 and row 0 - col 1 - row 2 - col 2;
        # entering (1, 2) closes the cycle +(1,2) -(2,2) +(2,1) -(0,1) +(0,0) -(1,0)
        cells = [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2)]
        pi = np.zeros((3, 3))
        for cell, flow in zip(cells, flows):
            pi[cell] = flow
        basis = discrete._TransportBasis(pi, *np.array(cells).T)
        cost = np.array([[0.0, 1.0, 5.0], [1.0, 3.0, 0.0], [4.0, 2.0, 1.0]])
        flat_cost = cost.ravel().tolist()
        basis.settle(0, flat_cost)
        theta = basis.pivot(1, 2, *discrete._basis_cycle(basis, 1, 2), flat_cost)
        assert theta == 0.25
        expected = pi.copy()
        for cell, sign in zip([(1, 2), (2, 2), (2, 1), (0, 1), (0, 0), (1, 0)], [1, -1] * 3):
            expected[cell] += sign * theta
        np.testing.assert_array_equal(basis.coupling(), expected)
        in_basis = {divmod(c, 3) for c in basis.cell[1:]}
        assert in_basis == set(cells) - {leaving} | {(1, 2)}
        for node in range(1, 6):
            i, j = divmod(basis.cell[node], 3)
            assert basis.pot[i] + basis.pot[3 + j] == cost[i, j]
            steps, up = 0, node
            while up != 0:
                steps, up = steps + 1, basis.parent[up]
            assert basis.depth[node] == steps
            assert node in basis.children[basis.parent[node]]


class TestSolveWot:
    def test_dirac_source_costs_nothing(self):
        mu = measure_1d([0.0], [1.0])
        nu = measure_1d([-1.0, 1.0], [0.5, 0.5])
        result = solve_wot(mu, nu)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.converged

    def test_dirac_target_forces_full_cost(self):
        mu = measure_1d([-1.0, 1.0], [0.5, 0.5])
        nu = measure_1d([0.0], [1.0])
        result = solve_wot(mu, nu)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_one_free_parameter_instance(self):
        # weights (1/2, 1/2) at (0, 2) against a Dirac at 0: the coupling is
        # forced, the conditional barycenters are both 0, and the value is 2
        mu = measure_1d([0.0, 2.0], [0.5, 0.5])
        nu = measure_1d([0.0], [1.0])
        projection, result = project_discrete(mu, nu)
        assert result.value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(projection.points, [[0.0]])

    def test_budget_guard(self, monkeypatch):
        rng = np.random.default_rng(5)
        mu = random_discrete(rng, 1, 5)
        nu = random_discrete(rng, 1, 5)
        monkeypatch.setattr(discrete, "BUDGET", 4)
        with pytest.raises(BudgetExceededError):
            solve_wot(mu, nu)

    @pytest.mark.parametrize("n, m, dim", [(2, 40, 1), (400, 2, 1), (2, 2, 30), (20, 30, 2)])
    def test_interior_point_budget_bounds_every_aspect(self, n, m, dim, monkeypatch):
        # the row blocks hold n (d + 1) (m + d) numbers and the Schur
        # complement m^2: at a budget of this shape's size it is solved, and
        # one atom more on either side, or one dimension more, is refused
        # before any array of that size is built
        monkeypatch.setattr(discrete, "WOT_BUDGET", n * (dim + 1) * (m + dim) + m * m)
        rng = np.random.default_rng([7, n, m, dim])

        def pair(rows, cols, d):
            return (DiscreteMeasure(rng.normal(size=(rows, d)), rng.dirichlet(np.ones(rows))),
                    DiscreteMeasure(rng.normal(size=(cols, d)), rng.dirichlet(np.ones(cols))))
        assert solve_wot(*pair(n, m, dim)).converged
        for rows, cols, d in ((n + 1, m, dim), (n, m + 1, dim), (n, m, dim + 1)):
            with pytest.raises(BudgetExceededError, match="interior-point budget"):
                solve_wot(*pair(rows, cols, d))
        # the transportation simplex needs n m numbers alone
        assert exact_w2_sq(*pair(n, m + 1, dim)) > 0.0

    def test_gradient_matches_finite_differences(self):
        # the objective's gradient in the coupling, -2 r y'
        rng = np.random.default_rng(6)
        mu = random_discrete(rng, 2, 4)
        nu = random_discrete(rng, 2, 5)
        pi = np.outer(mu.weights, nu.weights)
        grad = wot_gradient(pi, mu, nu)
        h = 1e-7
        for i in range(mu.size):
            for j in range(nu.size):
                bump = np.zeros_like(pi)
                bump[i, j] = h
                numeric = (barycentric_cost(pi + bump, mu, nu)
                           - barycentric_cost(pi - bump, mu, nu)) / (2 * h)
                assert numeric == pytest.approx(grad[i, j], abs=1e-5)

    def test_objective_is_convex_along_couplings(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = random_discrete(rng, 2, 5)
            nu = random_discrete(rng, 2, 5)
            pi_a, pi_b = (
                Coupling(solve_transport_lp(rng.normal(size=(mu.size, nu.size)),
                                            mu.weights, nu.weights), mu, nu)
                for _ in range(2)
            )
            mid = Coupling(0.5 * (pi_a.pi + pi_b.pi), mu, nu)
            assert barycentric_cost(mid.pi, mu, nu) <= 0.5 * (
                barycentric_cost(pi_a.pi, mu, nu) + barycentric_cost(pi_b.pi, mu, nu)
            ) + 1e-12

    @pytest.mark.usefixtures("tight_gap")
    def test_value_equals_projection_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            mu = random_discrete(rng, d, 6)
            nu = random_discrete(rng, d, 6)
            result = solve_wot(mu, nu)
            projection = barycentric_pushforward(result.coupling)
            assert result.value == pytest.approx(
                exact_w2_sq(mu, projection), abs=1e-8 * (1.0 + result.value)
            )

    @pytest.mark.usefixtures("tight_gap")
    def test_one_dimensional_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            below = project_1d_detail(mu, nu).below
            result = solve_wot(mu, nu)
            projection = barycentric_pushforward(result.coupling)
            assert w2_1d(below, projection) <= 1e-6

    @pytest.mark.usefixtures("tight_gap")
    def test_one_dimensional_agreement_at_30_atoms(self):
        rng = np.random.default_rng(44)
        for _ in range(2):
            mu = measure_1d(rng.normal(size=30), rng.dirichlet(np.ones(30)))
            nu = measure_1d(0.8 * rng.normal(size=30), rng.dirichlet(np.ones(30)))
            below = project_1d_detail(mu, nu).below
            result = solve_wot(mu, nu)
            projection = barycentric_pushforward(result.coupling)
            assert result.converged
            assert w2_1d(below, projection) <= 1e-6
            reference = project_1d_detail(mu, nu).distance_sq
            assert result.value == pytest.approx(reference, abs=1e-9 * (1 + reference))

    def test_diagnostics_count_the_work_and_name_the_stop(self, monkeypatch):
        rng = np.random.default_rng(45)
        mu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.normal(size=(7, 2)), rng.dirichlet(np.ones(7)))
        result = solve_wot(mu, nu)
        diag = result.diagnostics
        assert set(diag) == {"complementarity", "certificates", "polished", "scale_exponent",
                             "stop_reason", "least_squares"}
        assert diag["scale_exponent"] == -1  # the largest |coordinate| lies in [1, 2)
        assert diag["stop_reason"] == "gap" and result.converged and diag["polished"]
        assert isinstance(result.iterations, int) and 0 < result.iterations < discrete.MAX_ITER
        assert diag["certificates"] == 1
        # the certificate was tried once the complementarity met the target:
        # the early polish try's if the coupling is polished, else the gap's
        target = discrete._EARLY_POLISH if diag["polished"] else discrete.GAP_TOL
        assert 0.0 < diag["complementarity"] <= target * (1.0 + result.value)

        with monkeypatch.context() as patch:
            patch.setattr(discrete, "MAX_ITER", 1)
            capped = solve_wot(mu, nu)
        assert not capped.converged and capped.iterations == 1
        assert capped.diagnostics["stop_reason"] == "max_iter"
        assert capped.diagnostics["certificates"] == 1 and not capped.diagnostics["polished"]

        # a negative target is never met: the steps stop once the
        # complementarity is roundoff, and that iterate is certified
        with monkeypatch.context() as patch:
            patch.setattr(discrete, "GAP_TOL", -1.0)
            spent = solve_wot(mu, nu)
        assert spent.diagnostics["stop_reason"] == "roundoff"
        assert spent.diagnostics["certificates"] == 1 and not spent.diagnostics["polished"]
        assert not spent.converged
        assert 0.0 <= spent.gap <= 1e-14 and spent.iterations < discrete.MAX_ITER
        assert spent.diagnostics["complementarity"] <= 1e-15 * (4.0 + spent.value)

        # a Newton system that cannot be solved ends the solve, and the
        # iterate it was built at is certified
        solve = linalg._solve
        calls = []

        def failing(a, b):
            if a.ndim == 3:  # the row blocks, solved once per step
                calls.append(a.shape)
                if len(calls) > 4:
                    raise np.linalg.LinAlgError("singular")
            return solve(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(discrete, "_solve", failing)
            broken = solve_wot(mu, nu)
        assert broken.diagnostics["stop_reason"] == "singular"
        assert broken.iterations == 4 and not broken.converged
        assert broken.diagnostics["certificates"] == 1
        assert broken.value - broken.gap <= result.value <= broken.value

        # one atom on either side forces the product coupling
        dirac = measure_1d([0.0], [1.0])
        spread = measure_1d([-1.0, 1.0], [0.5, 0.5])
        for pair in ((dirac, spread), (spread, dirac)):
            forced = solve_wot(*pair)
            assert forced.diagnostics["stop_reason"] == "forced"
            assert forced.iterations == 0 and forced.converged

    def test_workload_instances_need_no_least_squares(self):
        # every Schur complement of the wot-simplex workload's seed 401 is
        # solved by LU; the runaway instance below pins the generator's draw
        np.testing.assert_array_equal(list(wot_simplex_pairs(603, 196))[195][0].points,
                                      RUNAWAY_X)
        for mu, nu in wot_simplex_pairs(401, 300):
            assert solve_wot(mu, nu).diagnostics["least_squares"] == 0

    def test_a_tiny_target_weight_gets_an_honest_certificate(self):
        # one target atom of weight 1e-9: on 15 of these pairs the restored
        # iterate missed a marginal (a ValueError from Coupling) or its
        # system was singular (numpy's LinAlgError); the product coupling is
        # certified instead, and its gap bounds the optimum
        unconverged = 0
        for mu, nu in tiny_target_pairs(160):
            result = solve_wot(mu, nu)
            value, gap = result.value, result.gap
            assert gap >= -ULPS_64 * (1.0 + value)
            if mu.dim == 1:
                reference = project_1d_detail(mu, nu).distance_sq
                assert value - gap <= reference + ULPS_64 * (1.0 + reference)
                assert reference <= value + 1e-10 * (1.0 + reference)
            if not result.converged:
                unconverged += 1
                assert result.diagnostics["stop_reason"] in ("roundoff", "singular")
                np.testing.assert_array_equal(result.coupling.pi,
                                              np.outer(mu.weights, nu.weights))
        assert 0 < unconverged <= 15

    def test_runaway_instance_converges(self):
        # a wot-simplex instance on which the corrective QP of the former
        # Frank-Wolfe engine ran away
        mu = DiscreteMeasure(RUNAWAY_X, RUNAWAY_WX)
        nu = DiscreteMeasure(RUNAWAY_Y, RUNAWAY_WY)
        result = solve_wot(mu, nu)
        assert result.converged
        assert result.diagnostics["stop_reason"] == "gap"

    def test_reruns_are_bit_identical(self):
        rng = np.random.default_rng(46)
        mu = DiscreteMeasure(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
        nu = DiscreteMeasure(rng.normal(size=(10, 2)), rng.dirichlet(np.ones(10)))
        first, second = solve_wot(mu, nu), solve_wot(mu, nu)
        np.testing.assert_array_equal(first.coupling.pi, second.coupling.pi)
        assert first.value == second.value
        assert first.diagnostics == second.diagnostics

    @pytest.mark.usefixtures("tight_gap")
    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_gap_at_max_iter_is_that_of_the_returned_coupling(self, max_iter, monkeypatch):
        rng = np.random.default_rng(45)
        mu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.normal(size=(7, 2)), rng.dirichlet(np.ones(7)))
        optimum = solve_wot(mu, nu)
        monkeypatch.setattr(discrete, "MAX_ITER", max_iter)
        result = solve_wot(mu, nu)
        assert result.diagnostics["stop_reason"] == "max_iter"
        assert result.iterations == max_iter
        # a coupling of (mu, nu) to the last bit, whose own cost is the value
        pi = result.coupling.pi
        assert np.abs(pi.sum(axis=1) - mu.weights).max() <= 1e-15
        assert np.abs(pi.sum(axis=0) - nu.weights).max() <= 1e-15
        assert result.value == pytest.approx(barycentric_cost(pi, mu, nu), rel=1e-12)
        # far from the optimum, which its certificate still brackets
        assert result.gap > 1e-3
        assert result.value - result.gap <= optimum.value <= result.value

    def test_large_scale_instances_scale_with_their_points(self):
        # the value of c mu against c nu is c^2 times the unit-scale value,
        # also far below unit scale, where an absolute gap target would stop
        # early
        for s in range(40):
            rng = np.random.default_rng([5, s])
            n = 6 + s % 7
            mu = DiscreteMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
            nu = DiscreteMeasure(0.8 * rng.normal(size=(n + 1, 2)),
                                 rng.dirichlet(np.ones(n + 1)))
            unit = solve_wot(mu, nu).value
            for c in (1e-6, 1e-4, 1e-2, 1e4, 1e6):
                result = solve_wot(DiscreteMeasure(c * mu.points, mu.weights),
                                   DiscreteMeasure(c * nu.points, nu.weights))
                assert result.diagnostics["stop_reason"] == "gap", (s, c)
                assert result.value == pytest.approx(c**2 * unit, rel=1e-12), (s, c)

    def test_dilations_by_powers_of_two_are_exact(self):
        # the solve runs on the points divided by a power of two, so 2^j
        # times the points gives the same coupling and 4^j times the value,
        # up to 2^480, close to measures.MAX_COORD; not down to 2^-480,
        # where the absolute MERGE_TOL merges every atom
        for s in range(3):
            rng = np.random.default_rng([5, s])
            n = 6 + s
            x, wx = rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n))
            y, wy = 0.8 * rng.normal(size=(n + 1, 2)), rng.dirichlet(np.ones(n + 1))
            base = solve_wot(DiscreteMeasure(x, wx), DiscreteMeasure(y, wy))
            for j in [*range(-10, 11), 480]:
                c = math.ldexp(1.0, j)
                result = solve_wot(DiscreteMeasure(c * x, wx), DiscreteMeasure(c * y, wy))
                np.testing.assert_array_equal(result.coupling.pi, base.coupling.pi)
                assert result.value == math.ldexp(base.value, 2 * j)
                assert result.gap == math.ldexp(base.gap, 2 * j)
                exponent = result.diagnostics["scale_exponent"]
                assert exponent == base.diagnostics["scale_exponent"] + j

    @pytest.mark.parametrize("dim", [2, 3])
    def test_measures_on_a_line_match_the_quantile_engine(self, dim):
        # every measure dominated by nu lives on the line through nu's atoms,
        # so 1-d data embedded as t u + b must give the 1-d projection
        for s in range(30):
            rng = np.random.default_rng([8, s])
            n, m = (int(v) for v in rng.integers(5, 11, size=2))
            t_mu, w_mu = rng.normal(size=n), rng.dirichlet(np.ones(n))
            t_nu, w_nu = 0.8 * rng.normal(size=m), rng.dirichlet(np.ones(m))
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            b = rng.normal(size=dim)
            mu = DiscreteMeasure(b + t_mu[:, None] * u, w_mu)
            nu = DiscreteMeasure(b + t_nu[:, None] * u, w_nu)
            projection, result = project_discrete(mu, nu)
            reference = project_1d_detail(measure_1d(t_mu, w_mu), measure_1d(t_nu, w_nu))
            assert result.value == pytest.approx(reference.distance_sq, rel=1e-12), s
            along = (projection.points - b) @ u
            off_line = projection.points - b - along[:, None] * u
            assert np.abs(off_line).max() <= 1e-12, s
            pulled_back = measure_1d(along, projection.weights)
            assert w2_1d(pulled_back, reference.below) <= 1e-12, s

    def test_rotations_and_translations_move_the_projection_along(self):
        # the cost sees only differences of points, so x -> Q x + b applied
        # to both measures keeps the value and maps the projection by it
        for s in range(40):
            rng = np.random.default_rng([9, s])
            dim, n = 2 + s % 2, 5 + s % 6
            atoms = []
            for size, spread in ((n, 1.0), (n + 1, 0.8)):
                points = spread * rng.normal(size=(size, dim))
                atoms.append((points[np.lexsort(points.T[::-1])], rng.dirichlet(np.ones(size))))
            q, b = random_orthogonal(rng, dim), 3.0 * rng.normal(size=dim)
            mu, nu = (DiscreteMeasure(x, w) for x, w in atoms)
            moved_mu, moved_nu = (DiscreteMeasure(x @ q.T + b, w) for x, w in atoms)
            projection, result = project_discrete(mu, nu)
            moved_projection, moved = project_discrete(moved_mu, moved_nu)
            assert moved.value == pytest.approx(result.value, rel=1e-12), s
            pulled_back = DiscreteMeasure((moved_projection.points - b) @ q,
                                          moved_projection.weights)
            assert exact_w2_sq(pulled_back, projection) <= 1e-12 * (1.0 + result.value), s

    def test_oracle_and_pivots_pass_through_the_traced_names(self, monkeypatch):
        # a benchmark tracer wraps the first two module globals to count LP
        # calls and pivots; a call that bypasses them would read as no work.
        # exact_w2_sq is their caller, and the WOT solve calls none of them
        counts = {"solve_transport_lp": 0, "_basis_cycle": 0, "_northwest_corner": 0}

        def counting(name):
            original = getattr(discrete, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(discrete, name, counting(name))
        rng = np.random.default_rng(46)
        for dim in (1, 2):
            counts.update(dict.fromkeys(counts, 0))
            mu = DiscreteMeasure(rng.normal(size=(12, dim)), rng.dirichlet(np.ones(12)))
            nu = DiscreteMeasure(rng.normal(size=(10, dim)), rng.dirichlet(np.ones(10)))
            exact_w2_sq(mu, nu)
            assert counts["solve_transport_lp"] == counts["_northwest_corner"] == 1
            # on the line the northwest corner of sorted atoms is optimal
            assert counts["_basis_cycle"] == 0 if dim == 1 else counts["_basis_cycle"] > 0
            counts.update(dict.fromkeys(counts, 0))
            assert solve_wot(mu, nu).converged
            assert counts == dict.fromkeys(counts, 0)


def equal_measure_pairs(count):
    """``count`` pairs mu = mu of ``default_rng(9001)``: 3 to 19 atoms in
    d = 1 to 3, N(0, 1) points and Dirichlet weights."""
    rng = np.random.default_rng(9001)
    for _ in range(count):
        n, d = int(rng.integers(3, 20)), int(rng.integers(1, 4))
        mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))
        yield mu, mu


def outcome(result):
    """Everything a solve returns, for bit-for-bit comparisons."""
    return (result.coupling.pi.tobytes(), result.value, result.gap, result.iterations,
            result.converged, result.diagnostics)


class TestEarlyPolish:
    """The one early polish try of ``solve_wot``.  ``_EARLY_POLISH = 0``
    turns it off, which is the solve without it."""

    @staticmethod
    def counted(monkeypatch):
        """``solve_wot`` that returns with its result its early tries, each as
        the least-norm solves it made, the error it raised (``None`` if it
        returned) and whether it ended the solve.  A try is a polish that
        ``solve_wot`` calls itself, not through its ``certify``; a try ends the
        solve only if no certificate's polish follows it."""
        polish = discrete._NewtonSystem.polish
        calls = []

        def counting(self, support, *start):
            early = sys._getframe(2).f_code.co_name == "solve_wot"
            before, error = self.least_squares, None
            try:
                return polish(self, support, *start)
            except np.linalg.LinAlgError as raised:
                error = str(raised)
                raise
            finally:
                calls.append((early, self.least_squares - before, error))
        monkeypatch.setattr(discrete._NewtonSystem, "polish", counting)

        def solve(mu, nu):
            calls.clear()
            result = solve_wot(mu, nu)
            last = len(calls) - 1
            return result, [(lstsq_calls, error, error is None and at == last)
                            for at, (early, lstsq_calls, error) in enumerate(calls) if early]
        return solve

    @staticmethod
    def split_support_pairs(count):
        """``count`` pairs of ``default_rng(7)``: n atoms against n of equal
        weights, d = 1 or 2, N(0, 1) against N(0, 0.64) points; the optimal
        support often splits, and its Schur complement is exactly singular."""
        rng = np.random.default_rng(7)
        for _ in range(count):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
            yield tuple(DiscreteMeasure(spread * rng.normal(size=(n, d)), np.full(n, 1 / n))
                        for spread in (1.0, 0.8))

    def test_a_failed_or_absent_try_changes_nothing_but_its_least_squares(self, monkeypatch):
        # mu = nu never settles, so no try is made; on the tiny-target family
        # every try fails: both solve bit for bit as without the try, but for
        # the least-norm solves the try made, which least_squares counts too
        pairs = list(equal_measure_pairs(60)) + list(tiny_target_pairs(40))
        solve = self.counted(monkeypatch)
        tried = [solve(mu, nu) for mu, nu in pairs]
        monkeypatch.setattr(discrete, "_EARLY_POLISH", 0.0)
        for (mu, nu), (result, tries) in zip(pairs, tried):
            reference, untried = solve(mu, nu)
            assert untried == [] and len(tries) <= 1
            assert not any(ended for *_, ended in tries)
            diagnostics = dict(reference.diagnostics)
            diagnostics["least_squares"] += sum(lstsq_calls for lstsq_calls, *_ in tries)
            assert outcome(result)[:-1] == outcome(reference)[:-1]
            assert result.diagnostics == diagnostics
        assert sum(len(tries) for _, tries in tried[60:]) > 0
        assert sum(result.diagnostics["least_squares"] for result, _ in tried[:60]) > 0

    def test_a_split_support_is_polished_by_the_try(self, monkeypatch):
        # a singular Schur complement no longer ends the try: it is solved by
        # least norm, as in the certificate's polish, so every pair is
        # polished in fewer factorizations (9.33 a solve when it ended the
        # try, 8.02 without)
        factor = discrete._NewtonSystem.factor
        factorizations = []

        def counting(self, *args):
            factorizations[-1] += 1
            return factor(self, *args)
        monkeypatch.setattr(discrete._NewtonSystem, "factor", counting)
        solve = self.counted(monkeypatch)
        tried = []
        for mu, nu in self.split_support_pairs(150):
            factorizations.append(0)
            tried.append(solve(mu, nu))
        for result, tries in tried:
            assert result.converged and result.diagnostics["polished"] and len(tries) <= 1
        assert sum(lstsq_calls for _, tries in tried for lstsq_calls, *_ in tries) > 0
        assert np.mean(factorizations) <= 8.5

    def test_the_workload_keeps_its_projections_in_fewer_steps(self, monkeypatch):
        pairs = list(wot_simplex_pairs(401, 300))
        solve = self.counted(monkeypatch)
        tried = [solve(mu, nu) for mu, nu in pairs]
        monkeypatch.setattr(discrete, "_EARLY_POLISH", 0.0)
        reference = [solve_wot(mu, nu) for mu, nu in pairs]
        for (result, tries), parent in zip(tried, reference):
            assert result.converged and len(tries) <= 1
            np.testing.assert_allclose(result.coupling.conditional_barycenters(),
                                       parent.coupling.conditional_barycenters(),
                                       rtol=0.0, atol=1e-12)
            assert abs(result.value - parent.value) <= 1e-15 * (1.0 + parent.value)
        assert (sum(r.diagnostics["polished"] for r, _ in tried)
                == sum(r.diagnostics["polished"] for r in reference))
        # some tries fail (raise, or miss the gap target), and the solve goes
        # on past them
        assert sum(not ended for _, tries in tried for *_, ended in tries) >= 5
        assert np.mean([r.iterations for r, _ in tried]) <= 10.0

    def test_a_try_on_the_wrong_support_is_not_accepted(self, monkeypatch):
        # a try forced after the first step, far from the optimal support:
        # only a polish that meets the gap target may end the solve
        monkeypatch.setattr(discrete, "_EARLY_POLISH", math.inf)
        monkeypatch.setattr(discrete, "_SETTLED", 1.0)
        for mu, nu in wot_simplex_pairs(401, 100):
            result = solve_wot(mu, nu)
            assert result.converged
            assert result.gap <= discrete.GAP_TOL * (1.0 + result.value)
            assert result.diagnostics["stop_reason"] == "gap"


class TestNewtonWork:
    """The Newton systems ``solve_wot`` factors on the ``wot-simplex``
    workload's seed 401, counted rather than timed, with the start and the
    polish steps that keep the count down."""

    @pytest.fixture(scope="class")
    def traced(self):
        """Each problem with its result and its trace: ``calls``, the solve's
        factorizations ``F`` and directions ``D`` in order; ``pi_s``, the
        ``(pi, s)`` of the first direction; ``z``, that of the first
        factorization; ``polishes``, each polish's calls, whether it
        returned, and the ``(s, z, v)`` it started from."""
        system = discrete._NewtonSystem
        factor, direction, polish = system.factor, system.direction, system.polish
        trace = {}

        def factoring(self, ratio, pi, z):
            trace["calls"].append("F")
            trace.setdefault("z", z.copy())
            return factor(self, ratio, pi, z)

        def directing(self, t, primal_slack):
            trace["calls"].append("D")
            trace.setdefault("pi_s", np.array(primal_slack))
            return direction(self, t, primal_slack)

        def polishing(self, support, pi, s, z, v):
            begin, returned, start = len(trace["calls"]), False, (s.copy(), z.copy(), v.copy())
            try:
                solution = polish(self, support, pi, s, z, v)
                returned = True
                return solution
            finally:
                trace["polishes"].append(("".join(trace["calls"][begin:]), returned, start))

        traced = []
        with pytest.MonkeyPatch.context() as patch:
            for name, wrapper in (("factor", factoring), ("direction", directing),
                                  ("polish", polishing)):
                patch.setattr(system, name, wrapper)
            for mu, nu in wot_simplex_pairs(401, 300):
                trace.clear()
                trace.update(calls=[], polishes=[])
                result = solve_wot(mu, nu)
                traced.append((mu, nu, result, dict(trace)))
        return traced

    @staticmethod
    def row_spread(mu, nu, result, s, z, v):
        """How far ``s - (z y' - v)`` is from constant along each row (the
        points at the solve's unit scale), over the size of its terms."""
        y = np.ldexp(nu.points, -result.diagnostics["scale_exponent"])
        zy = z @ y.T
        dual = s - (zy - v)
        size = np.abs(s).max() + np.abs(zy).max() + np.abs(v).max()
        return float((dual.max(axis=1) - dual.min(axis=1)).max()) / size

    def test_the_workload_factors_at_most_10_8_times_per_solve(self, traced):
        # it reads 10.18; 12.05 with slacks centred on the columns alone and
        # each polish step factored, 10.96 with only the former and 11.26
        # with only the latter
        factorizations = [trace["calls"].count("F") for *_, trace in traced]
        assert np.mean(factorizations) <= 10.8

    def test_each_polish_support_factors_once(self, traced):
        # the second step of a support solves at the first step's ratios
        steps = discrete._POLISH_STEPS
        returned = [calls for *_, trace in traced for calls, ok, _ in trace["polishes"] if ok]
        assert len(returned) >= 290
        for calls in returned:
            supports = calls.count("F")
            assert supports >= 1 and calls == ("F" + "D" * steps) * supports

    def test_the_start_is_centred_on_both_marginals(self, traced):
        # s_ij = z_i.y_j - min_k z_i.y_k + c (1 / w_i + 1 / nu_j) and v_j =
        # c / nu_m - c / nu_j, so pi_ij s_ij >= c (w_i + nu_j)
        c = discrete._START
        for mu, nu, result, trace in traced:
            pi, s = trace["pi_s"]
            col_w = nu.weights
            np.testing.assert_array_equal(pi, np.outer(mu.weights, col_w))
            assert (pi * s >= c * (mu.weights[:, None] + col_w) * (1.0 - 1e-14)).all()
            v = c / col_w[-1] - c / col_w
            assert self.row_spread(mu, nu, result, s, trace["z"], v) <= 1e-15

    def test_every_polish_starts_from_consistent_duals(self, traced):
        # s = z y' - u - v holds along the steps, with the tracked v, up to
        # the roundoff the steps add (3.7e-13 at most here)
        for mu, nu, result, trace in traced:
            for _, _, start in trace["polishes"]:
                assert self.row_spread(mu, nu, result, *start) <= 1e-10

    def test_the_refreshed_step_polishes_as_a_refactored_one(self, traced, monkeypatch):
        residual = discrete._NewtonSystem.residual

        def refactoring(self, pi, z, first):
            if first:  # a polish's second step: factor again at the same ratios
                return self.factor(self.ratio, pi, z)
            return residual(self, pi, z, first)
        monkeypatch.setattr(discrete._NewtonSystem, "residual", refactoring)
        for mu, nu, result, _ in traced:
            reference = solve_wot(mu, nu)
            assert result.diagnostics["polished"] == reference.diagnostics["polished"]
            np.testing.assert_allclose(result.coupling.conditional_barycenters(),
                                       reference.coupling.conditional_barycenters(),
                                       rtol=0.0, atol=1e-12)

    def test_steps_read_through_copies_solve_bit_for_bit_the_same(self, monkeypatch):
        # direction returns views of its work arrays, which its next call
        # overwrites; copies of its outputs are the solve without that
        # aliasing, so a caller that read a step after the next call (the
        # predictor after the corrector) would differ here
        pairs = list(wot_simplex_pairs(71, 60))
        shipped = [outcome(solve_wot(mu, nu)) for mu, nu in pairs]
        direction = discrete._NewtonSystem.direction

        def copying(self, t, primal_slack):
            step, dz, dv, reach = direction(self, t, primal_slack)
            return step.copy(), dz.copy(), dv.copy(), reach
        monkeypatch.setattr(discrete._NewtonSystem, "direction", copying)
        assert [outcome(solve_wot(mu, nu)) for mu, nu in pairs] == shipped


ULPS_64 = 64.0 * np.finfo(float).eps


@st.composite
def weighted_atoms_1d(draw, max_atoms=12):
    """A 1-d measure of up to ``max_atoms`` atoms in [-3.9, 3.9], the unit
    scale of the solve, with weights drawn in [0.01, 1] and normalised."""
    values = draw(st.lists(st.floats(-3.9, 3.9), min_size=1, max_size=max_atoms))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values), max_size=len(values)))
    return measure_1d(np.asarray(values), np.asarray(raw) / math.fsum(raw))


class TestCertificate:
    """The weak-duality bound ``LB(r, b)`` of ``discrete._lower_bound`` and
    the certificate ``gap = value - LB`` that every solve returns.

    The bound holds for any residuals and potentials, so it is checked
    against the cost of arbitrary couplings; it shares no code with the
    solver.  Each solve's bound must lie below its value (up to 64 ulps of
    1 + value) and within its target, and its coupling must meet both
    marginals to the last bits; in 1-d the value must also match the
    quantile engine.
    """

    @staticmethod
    def check(mu, nu):
        tol = discrete.GAP_TOL
        result = solve_wot(mu, nu)
        value, gap = result.value, result.gap
        unit = 4.0 ** result.diagnostics["scale_exponent"]
        assert result.converged
        assert gap >= -ULPS_64 * (1.0 + value)  # LB <= value
        assert gap <= tol * (unit + value)
        pi = result.coupling.pi
        assert np.abs(pi.sum(axis=1) - mu.weights).max() <= 1e-15
        assert np.abs(pi.sum(axis=0) - nu.weights).max() <= 1e-15
        assert value == pytest.approx(barycentric_cost(pi, mu, nu), rel=1e-12)
        if mu.dim == 1:
            reference = project_1d_detail(mu, nu).distance_sq
            assert abs(value - reference) <= tol * (1.0 + reference)
            assert value - gap <= reference + ULPS_64 * (1.0 + reference)
        return result

    def test_bound_lies_below_every_coupling(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            mu, nu = random_discrete(rng, d, 7), random_discrete(rng, d, 7)
            r = rng.normal(size=mu.points.shape)
            b = rng.normal(size=nu.size)
            bound = discrete._lower_bound(mu.points, mu.weights, nu.points, nu.weights, r, b)
            vertex = solve_transport_lp(rng.normal(size=(mu.size, nu.size)),
                                        mu.weights, nu.weights)
            for pi in (vertex, np.outer(mu.weights, nu.weights)):
                cost = barycentric_cost(pi, mu, nu)
                assert bound <= cost + ULPS_64 * (1.0 + abs(cost))

    def test_bound_is_attained_by_the_product_coupling_on_a_dirac(self):
        # against a single atom y the only coupling costs sum_i w_i |x_i - y|^2,
        # and r = x - y with any b attains it
        rng = np.random.default_rng(71)
        mu = random_discrete(rng, 2, 6)
        y = rng.normal(size=(1, 2))
        cost = float(mu.weights @ np.sum((mu.points - y) ** 2, axis=1))
        bound = discrete._lower_bound(mu.points, mu.weights, y, np.ones(1), mu.points - y,
                                      rng.normal(size=1))
        assert bound == pytest.approx(cost, rel=1e-14)

    @pytest.mark.parametrize("polish", [True, False])
    def test_seeded_instances_in_one_and_two_dimensions(self, polish, monkeypatch, gap_tol):
        # without the polish, the restored interior iterate is certified
        if not polish:
            def fail(*args):
                raise np.linalg.LinAlgError("no polish")
            monkeypatch.setattr(discrete._NewtonSystem, "polish", fail)
        rng = np.random.default_rng(72)
        for s in range(60):
            d = 1 + s % 2
            n, m = (int(v) for v in rng.integers(2, 13, size=2))
            mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))
            nu = DiscreteMeasure(0.8 * rng.normal(size=(m, d)), rng.dirichlet(np.ones(m)))
            for tol in (1e-8, 1e-10, 1e-12):
                gap_tol(tol)
                self.check(mu, nu)

    @settings(max_examples=60, deadline=None)
    @given(weighted_atoms_1d(), weighted_atoms_1d())
    def test_hypothesis_pairs_on_the_line(self, mu, nu):
        self.check(mu, nu)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1,
                    max_size=9, unique=True),
           st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1,
                    max_size=9, unique=True),
           st.integers(0, 2**32 - 1))
    def test_hypothesis_pairs_on_a_grid_in_the_plane(self, atoms_mu, atoms_nu, seed):
        # atoms on the grid of step 1/4, where rows and columns tie, points
        # line up and target atoms fall inside the source's hull
        rng = np.random.default_rng(seed)
        mu, nu = (DiscreteMeasure(np.asarray(atoms, dtype=float) / 4.0,
                                  rng.dirichlet(np.ones(len(atoms))))
                  for atoms in (atoms_mu, atoms_nu))
        self.check(mu, nu)

    def test_both_atoms_at_the_ends_of_the_target(self, gap_tol):
        # mu = {-1, 1} against nu = {0, 1}: each row ends on one cell, so
        # the Schur complement on the column dual, the sum of the other
        # cells' d_ij, tends to 0
        for tol in (1e-8, 1e-10, 1e-12):
            gap_tol(tol)
            result = self.check(measure_1d([-1.0, 1.0], [0.5, 0.5]),
                                measure_1d([0.0, 1.0], [0.5, 0.5]))
            assert result.value == pytest.approx(0.5, abs=tol)

    def test_a_cycle_that_the_centring_step_breaks(self, gap_tol):
        # an 8 x 6 instance on the grid of step 1/4 on which Mehrotra's steps
        # alone cycle (complementarity near 3e-4 after 100 steps): each
        # predictor blocked before a tenth of its step is followed by a
        # centring step instead
        mu = DiscreteMeasure(np.array([
            [-12.0, -8.0], [-5.0, -1.0], [1.0, -12.0], [4.0, 4.0], [5.0, 4.0],
            [7.0, -12.0], [9.0, -2.0], [11.0, 8.0]]) / 4.0, np.array([
            0.22632760250259834, 0.0996029935804375, 0.14316514356777058,
            0.0011664154799992015, 0.2656653991030679, 0.05883558915848597,
            0.14281635876623064, 0.06242049784140992]))
        nu = DiscreteMeasure(np.array([
            [3.0, 4.0], [3.0, 5.0], [6.0, 0.0], [8.0, 12.0], [10.0, 6.0],
            [10.0, 11.0]]) / 4.0, np.array([
            0.32917089070992794, 0.1828683213584959, 0.045687474641119316,
            0.038890425003179976, 0.11501405239738338, 0.28836883588989354]))
        for tol in (1e-10, 1e-12):
            gap_tol(tol)
            assert self.check(mu, nu).iterations < 30

    @pytest.mark.parametrize("pair", [
        ([0.0, 1.0, 2.0], [80 / 97, 1 / 97, 16 / 97], [-2.0, 0.0], [0.8, 0.2]),
        ([-1.0, 0.0], [0.0099, 0.9901], [-1.0, 1.0], [0.1015, 0.8985]),
        ([1.0, 2.0], [0.9938, 0.0062], [0.0, 2.0], [0.9524, 0.0476]),
    ])
    def test_a_light_row_on_the_weighted_central_path(self, gap_tol, pair):
        # on the uniform central path pi_ij s_ij = mu, the light row swung
        # between the corners of its cells and the steps cycled to MAX_ITER
        # (complementarity near 0.05 on the first pair); on pi_ij s_ij =
        # mu (w_i + nu_j) each pair certifies in a few steps
        mu, nu = measure_1d(pair[0], pair[1]), measure_1d(pair[2], pair[3])
        for tol in (1e-10, 1e-12):
            gap_tol(tol)
            result = self.check(mu, nu)
            assert result.diagnostics["stop_reason"] == "gap"
            assert result.iterations < 30

    @pytest.mark.usefixtures("tight_gap")
    def test_equal_measures_cost_nothing(self):
        rng = np.random.default_rng(74)
        for d in (1, 2, 3):
            mu = random_discrete(rng, d, 9)
            result = self.check(mu, mu)
            assert 0.0 <= result.value <= 1e-12 * (1.0 + result.gap)
            # the Schur complement is exactly singular: numpy's rule raised
            # LinAlgError, and the least-norm solution took over
            assert result.diagnostics["least_squares"] >= 1
            np.testing.assert_allclose(barycentric_pushforward(result.coupling).points,
                                       mu.points, atol=1e-5)

    def test_a_coupling_refuses_non_finite_marginals(self):
        # a NaN residual once passed the marginal check
        mu = measure_1d([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="marginal residuals"):
            Coupling(np.array([[0.5, 0.0], [0.0, np.nan]]), mu, mu)

    def test_restoration_meets_both_marginals(self):
        # an interior coupling whose marginals are off by up to 1e-8: one
        # multiplicative step restores both to roundoff, moving every cell by
        # about the size of the residuals
        rng = np.random.default_rng(75)
        for _ in range(100):
            n, m = (int(v) for v in rng.integers(2, 15, size=2))
            row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            pi = np.outer(row, col) * rng.uniform(0.5, 1.5, size=(n, m))
            pi = discrete._restore_marginals(pi, row, col)
            noisy = pi * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, size=(n, m)))
            restored = discrete._restore_marginals(noisy, row, col)
            assert np.abs(restored.sum(axis=1) - row).max() <= 1e-15
            assert np.abs(restored.sum(axis=0) - col).max() <= 1e-15
            assert np.abs(restored / noisy - 1.0).max() <= 1e-7

    @staticmethod
    def seeded_pair(seed):
        """20 to 49 atoms a side, on the line for even seeds, else in the plane."""
        rng = np.random.default_rng([11, seed])
        d = 1 + seed % 2
        n, m = (int(v) for v in rng.integers(20, 50, size=2))
        return (DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n))),
                DiscreteMeasure(0.8 * rng.normal(size=(m, d)), rng.dirichlet(np.ones(m))))

    @pytest.mark.parametrize("seed", [0, 18, 42])
    def test_polish_drops_negative_cells_from_its_support(self, seed):
        # the solution on the first support has negative cells; on the
        # support without them it is the optimum, to roundoff
        result = self.check(*self.seeded_pair(seed))
        assert result.diagnostics["polished"]
        assert result.gap <= ULPS_64 * (1.0 + result.value)

    @pytest.mark.parametrize("seed", [68, 146])
    def test_a_failed_polish_certifies_the_restored_iterate(self, seed):
        # every support the polish tries leaves a negative cell
        result = self.check(*self.seeded_pair(seed))
        assert not result.diagnostics["polished"]

    def test_a_polish_off_the_marginals_is_refused(self, monkeypatch):
        # with no Newton steps the polish returns the iterate cut to its
        # support, nonnegative and within the gap target but off the
        # marginals by about the complementarity: it must not be certified
        monkeypatch.setattr(discrete, "_POLISH_STEPS", 0)
        result = self.check(*self.seeded_pair(0))
        assert not result.diagnostics["polished"]


@st.composite
def grid_factor(draw, max_atoms=6):
    """A 1-d measure of up to ``max_atoms`` distinct atoms on the grid of
    step 1/64 in [-5, 5], with weights drawn in [0.05, 1] and normalised."""
    ticks = draw(st.lists(st.integers(-320, 320), min_size=1, max_size=max_atoms, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(ticks), max_size=len(ticks)))
    return measure_1d(np.asarray(ticks) / 64.0, np.asarray(raw) / math.fsum(raw))


@pytest.mark.usefixtures("tight_gap")
class TestProductMeasures:
    """Tensorisation as an exact oracle in 2-d.  For mu = mu1 x mu2 and
    nu = nu1 x nu2 the barycentric WOT value is V(mu1, nu1) + V(mu2, nu2):
    conditional Jensen bounds it below block by block, and the product of
    the optimal block couplings attains the sum.  A rigid motion of the
    plane applied to both measures leaves it unchanged.  The 1-d engine
    gives each block's value, so the interior-point solve is checked against
    an exact value at scale, products with a block where mu_k equals nu_k
    included.

    Every solve at ``tol = 1e-12`` must converge, and its certified bracket
    ``[value - gap, value]`` must hold the exact sum.  The gap target is
    relative to the unit scale ``4^k`` of the solve, so the value lies within
    ``1e-12 (4^k + value)`` of the sum.
    """

    @staticmethod
    def check(factors, rotation, shift):
        mu1, mu2, nu1, nu2 = factors
        mu = product_measure(mu1, mu2, rotation, shift)
        nu = product_measure(nu1, nu2, rotation, shift)
        result = solve_wot(mu, nu)
        blocks = project_1d_detail(mu1, nu1).distance_sq + project_1d_detail(mu2, nu2).distance_sq
        unit = 4.0 ** result.diagnostics["scale_exponent"]
        slack = 64.0 * np.finfo(float).eps * (unit + blocks)
        assert result.converged  # stopped on "gap", or "forced" by a one-atom side
        assert result.gap <= 1e-12 * (unit + result.value)
        assert -slack <= result.value - blocks <= result.gap + slack

    @settings(max_examples=30, deadline=None)
    @given(st.lists(grid_factor(), min_size=4, max_size=4), st.floats(0.0, 2.0 * math.pi),
           st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    def test_value_is_the_sum_of_the_block_values(self, factors, angle, shift):
        c, s = math.cos(angle), math.sin(angle)
        self.check(factors, [[c, -s], [s, c]], np.asarray(shift))

    def test_seeded_products_of_small_factors(self):
        # factors of 1 to 4 atoms, where one coupling cell more or less
        # moves the value well beyond the tolerance
        for seed in range(20):
            rng = np.random.default_rng([64, seed])
            factors = []
            for spread in (1.0, 1.0, 0.8, 0.8):
                n = int(rng.integers(1, 5))
                factors.append(DiscreteMeasure.from_1d(spread * rng.normal(size=n),
                                                       rng.dirichlet(np.ones(n))))
            self.check(factors, random_orthogonal(rng, 2), rng.uniform(-3.0, 3.0, size=2))

    def test_sixty_four_atoms_a_side(self):
        rng = np.random.default_rng(0)
        factors = [DiscreteMeasure.from_1d(spread * rng.normal(size=8), rng.dirichlet(np.ones(8)))
                   for spread in (1.0, 1.0, 0.8, 0.8)]
        self.check(factors, random_orthogonal(rng, 2), rng.uniform(-3.0, 3.0, size=2))

    @pytest.mark.parametrize("seed", range(5))
    def test_a_block_with_equal_factors(self, seed):
        # mu_1 = nu_1: on the seeded 36 x 36 product (seed 0) and four more
        # of 6-atom factors, the former Frank-Wolfe engine crept towards the
        # identity coupling of the matched block without converging
        rng = np.random.default_rng(36 if seed == 0 else [5, seed])
        block, other, target = (
            DiscreteMeasure.from_1d(spread * rng.normal(size=6), rng.dirichlet(np.ones(6)))
            for spread in (1.0, 1.0, 0.8))
        self.check((block, other, block, target), np.eye(2), np.zeros(2))

    def test_a_rotated_line_with_a_far_atom(self):
        # nu's atoms on a line through 0, mu's the same shifted off it except
        # the last, far away, which must travel to 0: the rows' largest
        # cells hold nearly all the row's d_ij, and unless total_i - d_ij
        # and ybar_i - y_j are summed over the other cells the steps lose
        # the marginals (residuals near 5e-7) and stall at a gap of 1e-10
        weights = np.array([8.0, 8.0, 7.0]) / 23.0
        first = DiscreteMeasure.from_1d(np.array([-289.0, -35.0, 319.0]) / 64.0, weights)
        target = DiscreteMeasure.from_1d(np.array([-289.0, -35.0, 0.0]) / 64.0, weights)
        c, s = math.cos(1.0), math.sin(1.0)
        self.check((first, measure_1d([1.0 / 64.0], [1.0]), target, measure_1d([0.0], [1.0])),
                   [[c, -s], [s, c]], np.zeros(2))

    def test_rows_split_over_more_cells_than_a_vertex_has(self):
        # five atoms on a rotated line, one of them moved in the target: the
        # optimum is not unique, rows end up split over four cells, and the
        # Schur complement rounds to an exact zero pivot, where the
        # least-norm solve takes over
        weights = np.array([0.25312269130363735, 0.04317724787011777, 0.07370311033291141,
                            0.3429755335129573, 0.28702141698037614])
        first = DiscreteMeasure.from_1d(np.array([-312.0, 317.0, 28.0, -149.0, -56.0]) / 64.0,
                                        weights)
        target = DiscreteMeasure.from_1d(np.array([193.0, 317.0, 28.0, -149.0, -56.0]) / 64.0,
                                         weights)
        c, s = math.cos(5.532671935411244), math.sin(5.532671935411244)
        self.check((first, measure_1d([-45.0 / 64.0], [1.0]), target, measure_1d([0.0], [1.0])),
                   [[c, -s], [s, c]], np.zeros(2))

    def test_duplicated_rows_of_unequal_weight(self):
        # nu on a horizontal line, mu three copies of five abscissae with
        # unequal weights: from slacks of at least 1, Mehrotra's corrector
        # alone cycled here, with the complementarity stuck near 0.1
        first = DiscreteMeasure.from_1d(
            [-4.40625, -4.34375, -0.734375, 1.234375, 2.796875],
            [0.27638938, 0.08836898, 0.22074345, 0.32606871, 0.08842947])
        second = DiscreteMeasure.from_1d([-3.203125, 1.78125, 2.640625],
                                         [0.47955558, 0.04866332, 0.4717811])
        target = DiscreteMeasure.from_1d([-2.421875, 4.40625], [0.88590825, 0.11409175])
        self.check((first, second, target, DiscreteMeasure.from_1d([-0.65625], [1.0])),
                   np.eye(2), np.zeros(2))


class TestPushforward:
    def test_product_coupling_gives_target_mean_dirac(self):
        rng = np.random.default_rng(10)
        mu = random_discrete(rng, 2, 5)
        nu = random_discrete(rng, 2, 5)
        pushed = barycentric_pushforward(Coupling(np.outer(mu.weights, nu.weights), mu, nu))
        assert pushed.size == 1
        np.testing.assert_allclose(pushed.points[0], nu.barycenter, atol=1e-12)

    def test_diagonal_coupling_recovers_the_measure(self):
        rng = np.random.default_rng(11)
        mu = random_discrete(rng, 2, 5)
        pushed = barycentric_pushforward(Coupling(np.diag(mu.weights), mu, mu))
        np.testing.assert_allclose(pushed.points, mu.points, atol=1e-12)

    def test_barycenter_matches_target(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu = random_discrete(rng, 2, 5)
            nu = random_discrete(rng, 2, 5)
            result = solve_wot(mu, nu)
            pushed = barycentric_pushforward(result.coupling)
            assert np.linalg.norm(pushed.barycenter - nu.barycenter) <= 1e-10

    def test_mass_splitting_kernel_preserves_the_mean_map(self):
        # two-point vertical split (y1 -+ y2, y2) with equal masses has
        # conditional barycenter equal to the source point itself, so the
        # pushforward returns the source measure
        grid = np.array(
            [[a, b] for a in (-1.5, -0.5, 0.5, 1.5) for b in (-1.5, -0.5, 0.5, 1.5)]
        )
        weights = np.exp(-0.5 * np.sum(grid**2, axis=1))
        weights /= weights.sum()
        mu = DiscreteMeasure(grid, weights)
        targets = np.vstack(
            [np.column_stack((grid[:, 0] - grid[:, 1], grid[:, 1])),
             np.column_stack((grid[:, 0] + grid[:, 1], grid[:, 1]))]
        )
        eta = DiscreteMeasure(targets, np.concatenate((weights, weights)) / 2.0)
        pi = np.zeros((mu.size, eta.size))
        for i, point in enumerate(mu.points):
            for shift in (-1.0, 1.0):
                target = np.array([point[0] + shift * point[1], point[1]])
                j = int(np.argmin(np.sum((eta.points - target) ** 2, axis=1)))
                pi[i, j] += mu.weights[i] / 2.0
        pushed = barycentric_pushforward(Coupling(pi, mu, eta))
        assert exact_w2_sq(pushed, mu) <= 1e-18


class TestConvexOrder1d:
    def test_dirac_below_spread(self):
        assert is_convex_ordered_1d(
            measure_1d([0.0], [1.0]), measure_1d([-1.0, 1.0], [0.5, 0.5])
        )

    def test_spread_not_below_dirac(self):
        assert not is_convex_ordered_1d(
            measure_1d([-1.0, 1.0], [0.5, 0.5]), measure_1d([0.0], [1.0])
        )

    def test_reflexive(self):
        rng = np.random.default_rng(14)
        m = random_discrete_1d(rng)
        assert is_convex_ordered_1d(m, m)

    def test_mean_shift_breaks_it(self):
        m = measure_1d([0.0, 1.0], [0.5, 0.5])
        shifted = measure_1d([0.5, 1.5], [0.5, 0.5])
        assert not is_convex_ordered_1d(m, shifted)


@pytest.mark.usefixtures("tight_gap")
class TestRegularity:
    """The paper's regularity theorems for the dominated-side projection in
    2-d, with W2 from the transportation LP.

    The computed projection lies within sqrt(gap) of the exact one in W2:
    the objective is ``sum_i |p_i|^2 / w_i`` plus terms linear in the image
    ``p = pi @ y``, so ``f(p) - f* >= sum_i |p_i - p*_i|^2 / w_i``, which
    bounds the squared W2 distance of the two pushforwards, and the duality
    gap bounds ``f - f*``.
    """

    @staticmethod
    def projection(mu, nu):
        result = solve_wot(mu, nu)
        projection = barycentric_pushforward(result.coupling)
        return projection, np.sqrt(max(result.gap, 0.0))

    @staticmethod
    def pair(seed, moved):
        # the pair's second measure is its first with the points moved
        rng = np.random.default_rng([4, seed])
        n, m = (int(v) for v in rng.integers(3, 9, size=2))
        mu = DiscreteMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(0.8 * rng.normal(size=(m, 2)), rng.dirichlet(np.ones(m)))
        first = mu if moved == "mu" else nu
        second = DiscreteMeasure(first.points + 0.05 * rng.normal(size=first.points.shape),
                                 first.weights)
        return mu, nu, second

    @pytest.mark.parametrize("seed", range(25))
    def test_non_expansive_in_mu(self, seed):
        mu1, nu, mu2 = self.pair(seed, "mu")
        (p1, s1), (p2, s2) = self.projection(mu1, nu), self.projection(mu2, nu)
        assert np.sqrt(exact_w2_sq(p1, p2)) <= np.sqrt(exact_w2_sq(mu1, mu2)) + s1 + s2

    @pytest.mark.parametrize("seed", range(25))
    def test_half_holder_in_nu(self, seed):
        mu, nu1, nu2 = self.pair(seed, "nu")
        (p1, s1), (p2, s2) = self.projection(mu, nu1), self.projection(mu, nu2)
        apart = max(np.sqrt(exact_w2_sq(p1, p2)) - s1 - s2, 0.0)
        reach = np.sqrt(exact_w2_sq(mu, p1)) + s1 + np.sqrt(exact_w2_sq(mu, p2)) + s2
        assert apart**2 <= reach * np.sqrt(exact_w2_sq(nu1, nu2))

    def test_barycentric_map_is_firmly_non_expansive(self):
        # Gozlan and Juillet (Proc. LMS 120, 2020): the optimal barycentric
        # map T is the gradient of a convex function with a 1-Lipschitz
        # gradient, so |T(x) - T(y)|^2 <= <T(x) - T(y), x - y>.  By the
        # bound in the class docstring, each computed T(x_i) lies within
        # e_i = sqrt(gap / w_i) of the exact one, which moves the two sides
        # apart by at most e (2 |dT| + |dx|) + 3 e^2, e = e_i + e_k.  The
        # reported gap is itself exact only up to its roundoff, taken as
        # 64 ulps of 1 + value.
        for s in range(200):
            rng = np.random.default_rng([41, s])
            dim, n = 1 + s % 3, int(rng.integers(4, 13))
            atoms = []
            for size, spread in ((n, 1.0), (n + 1, 0.8)):
                points = spread * rng.normal(size=(size, dim))
                atoms.append((points[np.lexsort(points.T[::-1])], rng.dirichlet(np.ones(size))))
            mu, nu = (DiscreteMeasure(x, w) for x, w in atoms)
            result = solve_wot(mu, nu)
            assert result.converged, s
            t = result.coupling.conditional_barycenters()
            gap = max(result.gap, 0.0) + 64.0 * np.finfo(float).eps * (1.0 + result.value)
            err = np.sqrt(gap / mu.weights)
            i, k = np.triu_indices(mu.size, 1)
            dt, dx, e = t[i] - t[k], mu.points[i] - mu.points[k], err[i] + err[k]
            excess = np.sum(dt**2, axis=1) - np.sum(dt * dx, axis=1)
            norm_dt, norm_dx = np.linalg.norm(dt, axis=1), np.linalg.norm(dx, axis=1)
            assert np.all(excess <= e * (2.0 * norm_dt + norm_dx) + 3.0 * e**2), s


# wot-simplex seed 603, problem 195 (10 x 12 atoms in 2-d), as the benchmark
# generator draws it: WotSimplex().generate(default_rng([2, 603]), 196)[195]
RUNAWAY_X = np.array([
    [-0.7484138228839391, 1.1760701761596022],
    [-0.16298006694569714, -0.7867065421876419],
    [0.0021680597921651156, -0.8879749472810006],
    [0.0064950988079253945, -0.9635979539192342],
    [0.07710582577192761, 0.5828972007901464],
    [0.07888657947522143, -1.5531992814976117],
    [0.2760304409742831, -0.5291857202952823],
    [1.0756359798847888, -0.1169394882551191],
    [1.5806404602574091, 0.7166136839328756],
    [2.413795269823661, -2.200684070034568],
])
RUNAWAY_WX = np.array([
    0.0036595693809986837, 0.08656131389896371, 0.13238087781452856,
    0.29104561622104785, 0.13956074416178077, 0.08214570789607219, 0.13180122469426406,
    0.09188904165084387, 0.03997028095864469, 0.0009856233228557412
])
RUNAWAY_Y = np.array([
    [-1.5588551743198646, 0.02279061650541676],
    [-0.8613905502340338, 0.317287030965127],
    [-0.6807217532104987, 0.6500397721124923],
    [-0.18331705113260605, -0.5313581145539962],
    [-0.048694241192508037, -1.339092286717784],
    [0.13610138736922428, -0.5344398117977053],
    [0.2847919436796139, -0.3690493435984362],
    [0.3087345050826356, -0.052277342746687196],
    [0.39524178849490665, -0.36364040032826533],
    [0.7918958091982452, 1.7023593289259975],
    [0.9028985867666137, 2.1146077843494004],
    [1.0347804004891317, 2.1319423275712297],
])
RUNAWAY_WY = np.array([
    0.11489930773593046, 0.02301554772735182, 0.06510391997418438, 0.22399719457360964,
    0.008364504024586005, 0.1293641967868597, 0.26702826243522826, 0.013324246760727972,
    0.004065043333792953, 0.06820824385845625, 0.07281007820931103, 0.009819454579961582
])
