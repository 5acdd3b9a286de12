import itertools
import math

import numpy as np
import pytest

from convex_order import discrete, measures
from convex_order.discrete import (
    BudgetExceededError,
    Coupling,
    barycentric_pushforward,
    exact_w2_sq,
    project_discrete,
    solve_transport_lp,
    solve_wot,
)
from convex_order.measures import DiscreteMeasure, EmptyMeasureError
from convex_order.one_dim import is_convex_ordered_1d, project_1d_detail, w2_1d
from _utils import random_discrete, random_discrete_1d, random_orthogonal


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


def cold_basis(row, col):
    return discrete._TransportBasis(*discrete._comonotone_vertex(np.arange(row.size), row, col))


def qp_value(quad, lin, alpha):
    return float(alpha @ quad @ alpha + lin @ alpha)


def brute_force_simplex_qp(quad, lin):
    """Minimum of ``a' quad a + lin' a`` over the probability simplex.

    A minimizer of smallest support is the only stationary point of the
    problem restricted to the affine hull of that support (otherwise a
    move along the stationary set would empty one more weight), so solving
    the KKT system on every support and keeping the nonnegative solutions
    finds the minimum.
    """
    k = len(lin)
    best = np.inf
    for size in range(1, k + 1):
        for idx in map(list, itertools.combinations(range(k), size)):
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * quad[np.ix_(idx, idx)]
            kkt[:size, size] = kkt[size, :size] = 1.0
            sol = np.linalg.lstsq(kkt, np.append(-lin[idx], 1.0), rcond=None)[0]
            if np.all(sol[:size] >= -1e-14):
                alpha = np.zeros(k)
                alpha[idx] = np.clip(sol[:size], 0.0, None)
                best = min(best, qp_value(quad, lin, alpha / alpha.sum()))
    return best


def corrective_qp_instance(rng, k, atoms, repeats):
    """The corrective QP over ``k`` vertices whose row images are random
    ``atoms``-vectors, the last ``repeats`` of them copies of the first
    ones (vertices with the same image, as 1-d instances produce)."""
    weights = rng.dirichlet(np.ones(atoms))
    x = rng.normal(size=atoms)
    images = rng.normal(size=(k, atoms))
    images[k - repeats:] = images[:repeats]
    return (images / weights) @ images.T, -2.0 * images @ x


def corral_instance(seed):
    """A 2-d 12 x 10 instance, the largest 2-d size of the benchmark."""
    rng = np.random.default_rng([47, seed])
    mu = DiscreteMeasure(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
    nu = DiscreteMeasure(0.8 * rng.normal(size=(10, 2)), rng.dirichlet(np.ones(10)))
    return mu, nu


def recording_qp(calls):
    """``_simplex_qp`` that appends, per call, the number of stored vertices
    and how many of them the minimizer leaves without weight."""
    qp = discrete._simplex_qp

    def recording(quad, lin, start, enter):
        weights, steps = qp(quad, lin, start, enter)
        calls.append((lin.size, int(np.count_nonzero(weights <= 1e-15))))
        return weights, steps
    return recording


def solve_wot_restacking(mu, nu):
    """``solve_wot`` in two or more dimensions with the corral re-stacked
    and re-filtered on every iteration: the same arithmetic as the solver,
    so the same bits.  Returns the coupling, value, gap, iterations, QP
    steps and the number of vertices that carry the coupling."""
    top = max(float(np.abs(mu.points).max()), float(np.abs(nu.points).max()))
    k = math.frexp(top)[1] - 2
    unit = math.ldexp(1.0, -k)
    x, y, w = unit * mu.points, unit * nu.points, mu.weights
    root_w = np.sqrt(w[:, None])
    pi, rows, cols = discrete._comonotone_vertex(np.arange(w.size), w, nu.weights)
    basis = discrete._TransportBasis(pi, rows, cols)
    vertices, keys = [pi], [pi.tobytes()]
    p = pi @ y
    scaled = (p / root_w).reshape(1, -1)
    lin = np.array([-2.0 * float(np.vdot(x, p))])
    alpha = np.ones(1)
    residual = x - p / w[:, None]
    value = float(w @ np.sum(residual**2, axis=1))
    qp_steps = 0
    for iterations in itertools.count(1):
        vertex = solve_transport_lp(-2.0 * residual @ y.T, w, nu.weights, basis=basis)
        q = vertex @ y
        gap = 2.0 * float(np.vdot(residual, q - p))
        if gap <= 1e-8 * (1.0 + abs(value)) or vertex.tobytes() in keys:
            break
        vertices.append(vertex)
        keys.append(vertex.tobytes())
        scaled = np.vstack((scaled, (q / root_w).ravel()))
        lin = np.append(lin, -2.0 * float(np.vdot(x, q)))
        weights, steps = discrete._simplex_qp(
            scaled @ scaled.T, lin, np.append(alpha, 0.0), alpha.size
        )
        qp_steps += steps
        keep = weights > 1e-15
        candidate = (weights[keep] @ scaled[keep]).reshape(x.shape) * root_w
        cand_residual = x - candidate / w[:, None]
        cand_value = float(w @ np.sum(cand_residual**2, axis=1))
        if cand_value > value + 1e-15 * (1.0 + abs(value)):
            break
        p, residual, value = candidate, cand_residual, cand_value
        alpha = weights[keep]
        vertices = [v for v, kept in zip(vertices, keep) if kept]
        keys = [b for b, kept in zip(keys, keep) if kept]
        scaled, lin = scaled[keep], lin[keep]
    pi = np.tensordot(alpha, vertices[: alpha.size], axes=1)
    return pi, math.ldexp(value, 2 * k), math.ldexp(gap, 2 * k), iterations, qp_steps, alpha.size


def merge_atoms_loop(points, weights):
    """Atom merge rule as one pass over the sorted atoms: an atom within
    ``MERGE_TOL`` of the last kept atom adds its weight to it."""
    order = np.lexsort(points.T[::-1])
    points = points[order]
    weights = weights[order]
    keep = [0]
    for i in range(1, points.shape[0]):
        if np.max(np.abs(points[i] - points[keep[-1]])) <= measures.MERGE_TOL:
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
        rng = np.random.default_rng(20)
        for _ in range(2000):
            points, weights = clustered_atoms(rng, int(rng.integers(1, 4)))
            expected = merge_atoms_loop(points.copy(), weights.copy())
            merged = measures._merge_atoms(points.copy(), weights.copy())
            assert np.array_equal(merged[0], expected[0])
            assert np.array_equal(merged[1], expected[1])

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

    def test_renormalizes_near_one(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.5 + 1e-9, 0.5])
        assert float(np.sum(m.weights)) == pytest.approx(1.0, abs=1e-15)


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

    def test_warm_start_matches_cold_start(self):
        rng = np.random.default_rng(42)
        row, col = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(11))
        warm = cold_basis(row, col)
        cold_pivots = 0
        cost = rng.normal(size=(9, 11))
        for _ in range(30):
            cost = cost + 0.05 * rng.normal(size=cost.shape)
            cold = cold_basis(row, col)
            pi_cold = solve_transport_lp(cost, row, col, basis=cold)
            pi_warm = solve_transport_lp(cost, row, col, basis=warm)
            cold_pivots += cold.pivots
            np.testing.assert_allclose(pi_warm.sum(axis=1), row, atol=1e-12)
            np.testing.assert_allclose(pi_warm.sum(axis=0), col, atol=1e-12)
            value = float(np.sum(pi_cold * cost))
            assert np.sum(pi_warm * cost) == pytest.approx(value, abs=1e-12 * (1 + abs(value)))
            np.testing.assert_array_equal(pi_cold, solve_transport_lp(cost, row, col))
        assert warm.pivots < cold_pivots / 2

    def test_zero_cost_keeps_the_warm_vertex(self):
        rng = np.random.default_rng(43)
        row, col = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(4))
        basis = cold_basis(row, col)
        pi = solve_transport_lp(rng.normal(size=(5, 4)), row, col, basis=basis)
        np.testing.assert_array_equal(
            solve_transport_lp(np.zeros((5, 4)), row, col, basis=basis), pi
        )

    def test_basis_of_the_wrong_shape_is_refused(self):
        row = np.full(3, 1.0 / 3)
        basis = cold_basis(np.full(2, 0.5), row)
        with pytest.raises(ValueError, match="basis"):
            solve_transport_lp(np.zeros((3, 3)), row, row, basis=basis)

    def test_comonotone_vertex_solves_rank_one_costs(self):
        # the 1-d Frank-Wolfe oracle: the cost -2 r y' with y ascending
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
            pi, rows, cols = discrete._comonotone_vertex(r, row, col)
            lp = solve_transport_lp(cost, row, col)
            assert pi.min() >= 0.0, s
            # n + m - 1 distinct cells that carry all of the mass
            assert len({*zip(rows.tolist(), cols.tolist())}) == rows.size == n + m - 1, s
            off_cells = pi.copy()
            off_cells[rows, cols] = 0.0
            assert not off_cells.any(), s
            np.testing.assert_allclose(pi.sum(axis=1), row, rtol=0, atol=1e-15)
            np.testing.assert_allclose(pi.sum(axis=0), col, rtol=0, atol=1e-15)
            value = float(np.sum(lp * cost))
            assert abs(np.sum(pi * cost) - value) <= 1e-12 * (1.0 + abs(value)), s
            if not tied:  # the optimum is unique
                np.testing.assert_allclose(pi, lp, rtol=0, atol=1e-14)

    def test_northwest_staircase_matches_the_loop_reference(self):
        # untied weights: the same cells, and the same flows up to the
        # roundoff of the cumulative weights
        rng = np.random.default_rng(49)
        for _ in range(300):
            n, m = (int(v) for v in rng.integers(1, 17, size=2))
            row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            pi, rows, cols = discrete._comonotone_vertex(np.arange(n), row, col)
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
            pi, rows, cols = discrete._comonotone_vertex(np.arange(n), row, col)
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
        assert {divmod(int(c), 3) for c in np.flatnonzero(basis.in_basis)} == in_basis
        for node in range(1, 6):
            i, j = divmod(basis.cell[node], 3)
            assert basis.pot[i] + basis.pot[3 + j] == cost[i, j]
            steps, up = 0, node
            while up != 0:
                steps, up = steps + 1, basis.parent[up]
            assert basis.depth[node] == steps
            assert node in basis.children[basis.parent[node]]


class TestSimplexQp:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_brute_force_from_any_start(self, k):
        rng = np.random.default_rng(50 + k)
        instances = [corrective_qp_instance(rng, k, k + 2, 0) for _ in range(4)]
        # singular: fewer atoms than vertices, and repeated image rows
        instances += [corrective_qp_instance(rng, k, 2, 0) for _ in range(4)]
        instances += [corrective_qp_instance(rng, k, 3, k // 2) for _ in range(4)]
        for quad, lin in instances:
            best = brute_force_simplex_qp(quad, lin)
            starts = [np.eye(k)[int(rng.integers(k))], np.full(k, 1.0 / k),
                      rng.dirichlet(np.ones(k))]
            for start in starts:
                given = start.copy()
                alpha, steps = discrete._simplex_qp(quad, lin, start, k - 1)
                np.testing.assert_array_equal(start, given)  # the caller's array
                assert steps >= 1
                assert np.all(alpha >= 0.0) and alpha.sum() == pytest.approx(1.0, abs=1e-15)
                assert qp_value(quad, lin, alpha) == pytest.approx(
                    best, abs=1e-12 * (1.0 + abs(best))
                )

    def test_start_at_the_minimizer_takes_one_solve(self):
        rng = np.random.default_rng(57)
        for k in range(1, 7):
            for _ in range(4):
                quad, lin = corrective_qp_instance(rng, k, k + 2, 0)
                alpha, _ = discrete._simplex_qp(quad, lin, np.eye(k)[0], k - 1)
                again, steps = discrete._simplex_qp(quad, lin, alpha, int(np.argmax(alpha)))
                assert steps == 1
                np.testing.assert_allclose(again, alpha, atol=1e-12)

    def test_singular_gram_with_a_descending_flat_direction(self):
        # the Gram matrix of 15 stored vertices has an eigenvalue of 1.8e-14,
        # and the linear term descends along that direction, so the minimum
        # lies on a face the least-squares step alone does not reach
        k = SINGULAR_GRAM.shape[0]
        assert np.linalg.eigvalsh(SINGULAR_GRAM)[0] < 1e-13
        best = brute_force_simplex_qp(SINGULAR_GRAM, SINGULAR_GRAM_LIN)
        entered_at_zero = SINGULAR_GRAM_START.copy()
        entered_at_zero[-1] = 0.0
        entered_at_zero /= entered_at_zero.sum()
        for start in (SINGULAR_GRAM_START, entered_at_zero, np.full(k, 1.0 / k)):
            alpha, steps = discrete._simplex_qp(SINGULAR_GRAM, SINGULAR_GRAM_LIN, start, k - 1)
            assert steps < 60 * k + 40  # the budget is 60 k + 40 solves
            assert np.all(alpha >= 0.0) and alpha.sum() == pytest.approx(1.0, abs=1e-15)
            assert qp_value(SINGULAR_GRAM, SINGULAR_GRAM_LIN, alpha) == pytest.approx(
                best, abs=1e-12 * (1.0 + abs(best))
            )


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

    def test_gradient_matches_finite_differences(self):
        # the gradient the gap oracles below rely on
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

    def test_value_equals_projection_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            mu = random_discrete(rng, d, 6)
            nu = random_discrete(rng, d, 6)
            result = solve_wot(mu, nu, fw_tol=1e-12)
            projection = barycentric_pushforward(result.coupling)
            assert result.value == pytest.approx(
                exact_w2_sq(mu, projection), abs=1e-8 * (1.0 + result.value)
            )

    def test_one_dimensional_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            below = project_1d_detail(mu, nu).below
            result = solve_wot(mu, nu, fw_tol=1e-13)
            projection = barycentric_pushforward(result.coupling)
            assert w2_1d(below, projection) <= 1e-6

    def test_one_dimensional_agreement_at_30_atoms(self):
        rng = np.random.default_rng(44)
        for _ in range(2):
            mu = measure_1d(rng.normal(size=30), rng.dirichlet(np.ones(30)))
            nu = measure_1d(0.8 * rng.normal(size=30), rng.dirichlet(np.ones(30)))
            below = project_1d_detail(mu, nu).below
            result = solve_wot(mu, nu, fw_tol=1e-12)
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
        assert set(diag) == {
            "active_vertices", "lp_calls", "pivots", "qp_steps", "scale_exponent", "stop_reason"
        }
        assert diag["scale_exponent"] == -1  # the largest |coordinate| lies in [1, 2)
        assert diag["stop_reason"] == "gap" and result.converged
        assert diag["lp_calls"] == result.iterations
        assert isinstance(diag["pivots"], int) and diag["pivots"] > 0
        # at least one KKT solve per corrective step, one of those per
        # iteration that moved
        assert isinstance(diag["qp_steps"], int)
        assert diag["qp_steps"] >= result.iterations - 1

        with monkeypatch.context() as patch:
            patch.setattr(discrete, "MAX_ITER", 1)
            capped = solve_wot(mu, nu)
        assert not capped.converged
        assert capped.diagnostics["stop_reason"] == "max_iter"
        assert capped.diagnostics["lp_calls"] == 1

        # a negative gap target is never met; the loop ends when no step descends
        dirac = measure_1d([0.0], [1.0])
        spread = measure_1d([-1.0, 1.0], [0.5, 0.5])
        stalled = solve_wot(dirac, spread, fw_tol=-1.0)
        assert stalled.diagnostics["stop_reason"] == "no_descent"
        assert stalled.diagnostics["qp_steps"] == 0
        assert not stalled.converged

    def test_stored_vertices_stay_within_the_caratheodory_bound(self):
        # the objective sees a coupling only through its image pi @ y, a
        # point of R^(n x d), so some optimum mixes at most n d + 1 vertices
        rng = np.random.default_rng(51)
        for d in (1, 2):
            for _ in range(15):
                n, m = (int(v) for v in rng.integers(3, 13, size=2))
                mu = DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))
                nu = DiscreteMeasure(0.8 * rng.normal(size=(m, d)), rng.dirichlet(np.ones(m)))
                result = solve_wot(mu, nu, fw_tol=1e-12)
                assert result.diagnostics["stop_reason"] != "max_iter"
                assert 1 <= result.diagnostics["active_vertices"] <= mu.size * d + 1

    def test_singular_gram_instance_converges(self, monkeypatch):
        # in later iterations the stored vertices' Gram matrix is singular to
        # roundoff; the corrective QP must not spend its budget there
        mu = DiscreteMeasure(RUNAWAY_X, RUNAWAY_WX)
        nu = DiscreteMeasure(RUNAWAY_Y, RUNAWAY_WY)
        monkeypatch.setattr(discrete, "MAX_ITER", 200)
        result = solve_wot(mu, nu)
        assert result.converged
        assert result.diagnostics["stop_reason"] == "gap"
        assert result.diagnostics["qp_steps"] <= 3 * result.iterations

    def test_reruns_are_bit_identical(self):
        rng = np.random.default_rng(46)
        mu = DiscreteMeasure(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
        nu = DiscreteMeasure(rng.normal(size=(10, 2)), rng.dirichlet(np.ones(10)))
        first, second = solve_wot(mu, nu), solve_wot(mu, nu)
        np.testing.assert_array_equal(first.coupling.pi, second.coupling.pi)
        assert first.value == second.value
        assert first.diagnostics == second.diagnostics

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_gap_at_max_iter_is_that_of_the_returned_coupling(self, max_iter, monkeypatch):
        rng = np.random.default_rng(45)
        mu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.dirichlet(np.ones(6)))
        nu = DiscreteMeasure(rng.normal(size=(7, 2)), rng.dirichlet(np.ones(7)))
        monkeypatch.setattr(discrete, "MAX_ITER", max_iter)
        result = solve_wot(mu, nu)
        assert result.diagnostics["stop_reason"] == "max_iter"
        assert result.diagnostics["lp_calls"] == result.iterations == max_iter
        # the LP oracle re-run on the returned coupling
        pi = result.coupling.pi
        grad = wot_gradient(pi, mu, nu)
        vertex = solve_transport_lp(grad, mu.weights, nu.weights)
        assert result.gap == pytest.approx(float(np.sum(grad * (pi - vertex))), rel=1e-12)
        assert result.value == pytest.approx(barycentric_cost(pi, mu, nu), rel=1e-12)

    @pytest.mark.parametrize("seed, event", [(4, "outgrows"), (0, "drops")])
    def test_corral_growth_and_compaction_keep_the_coupling(self, seed, event, monkeypatch):
        # seed 4: the corral outgrows its first allocation; seed 0: it stays
        # within it, and a QP drops stored vertices mid-run
        mu, nu = corral_instance(seed)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(discrete, "_simplex_qp", recording_qp(calls))
            result = solve_wot(mu, nu)
        sizes = [size for size, _ in calls]
        if event == "outgrows":
            first = next(t for t, size in enumerate(sizes) if size > discrete._CORRAL_ROWS)
        else:
            assert max(sizes) <= discrete._CORRAL_ROWS
            first, dropped = next((t, d) for t, (_, d) in enumerate(calls) if d)
            # the next QP sees the compacted corral and one entering vertex
            assert sizes[first + 1] == sizes[first] - dropped + 1
        assert result.converged
        pi = result.coupling.pi
        assert result.value == pytest.approx(barycentric_cost(pi, mu, nu), rel=1e-12)
        # the oracle re-run on the returned coupling finds its gap, met
        grad = wot_gradient(pi, mu, nu)
        vertex = solve_transport_lp(grad, mu.weights, nu.weights)
        assert result.gap == pytest.approx(
            float(np.sum(grad * (pi - vertex))), abs=1e-12 * (1.0 + result.value)
        )
        # the bits of the loop that re-stacks the corral on every iteration
        reference = solve_wot_restacking(mu, nu)
        assert reference[0].tobytes() == pi.tobytes()
        assert reference[1:] == (
            result.value, result.gap, result.iterations, result.diagnostics["qp_steps"],
            result.diagnostics["active_vertices"],
        )
        # stopped on the iteration after the event, with a gap far from 0
        monkeypatch.setattr(discrete, "MAX_ITER", first + 2)
        capped = solve_wot(mu, nu)
        assert capped.diagnostics["stop_reason"] == "max_iter"
        pi = capped.coupling.pi
        grad = wot_gradient(pi, mu, nu)
        vertex = solve_transport_lp(grad, mu.weights, nu.weights)
        assert capped.gap > 1e-6
        assert capped.gap == pytest.approx(float(np.sum(grad * (pi - vertex))), rel=1e-12)
        assert capped.value == pytest.approx(barycentric_cost(pi, mu, nu), rel=1e-12)

    @pytest.mark.parametrize("fw_tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_gap_target_is_refused(self, fw_tol):
        # an infinite target would pass the first vertex as converged
        mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]]),
                             np.array([0.2, 0.3, 0.5]))
        nu = DiscreteMeasure(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 3.0], [2.0, 2.0]]),
                             np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValueError, match="fw_tol must be finite"):
            solve_wot(mu, nu, fw_tol)

    def test_large_scale_instances_scale_with_their_points(self, monkeypatch):
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
                with monkeypatch.context() as patch:
                    patch.setattr(discrete, "MAX_ITER", 300)
                    result = solve_wot(DiscreteMeasure(c * mu.points, mu.weights),
                                       DiscreteMeasure(c * nu.points, nu.weights))
                assert result.diagnostics["stop_reason"] == "gap", (s, c)
                assert result.value == pytest.approx(c**2 * unit, rel=1e-12), (s, c)

    def test_dilations_by_powers_of_two_are_exact(self):
        # the solve runs on the points divided by a power of two, so 2^j
        # times the points gives the same coupling and 4^j times the value
        for s in range(3):
            rng = np.random.default_rng([5, s])
            n = 6 + s
            x, wx = rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n))
            y, wy = 0.8 * rng.normal(size=(n + 1, 2)), rng.dirichlet(np.ones(n + 1))
            base = solve_wot(DiscreteMeasure(x, wx), DiscreteMeasure(y, wy))
            for j in range(-10, 11):
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
        # calls and pivots; a call that bypasses them would read as no work
        counts = {"solve_transport_lp": 0, "_basis_cycle": 0, "_comonotone_vertex": 0}

        def counting(name):
            original = getattr(discrete, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(discrete, name, counting(name))
        rng = np.random.default_rng(46)
        mu = DiscreteMeasure(rng.normal(size=(12, 2)), rng.dirichlet(np.ones(12)))
        nu = DiscreteMeasure(rng.normal(size=(10, 2)), rng.dirichlet(np.ones(10)))
        result = solve_wot(mu, nu)
        assert counts["solve_transport_lp"] == result.diagnostics["lp_calls"] > 1
        assert counts["_basis_cycle"] == result.diagnostics["pivots"] > 0
        # the northwest corner: the first vertex and the warm-start basis
        assert counts["_comonotone_vertex"] == 1

        # in 1-d every oracle call is the comonotone coupling: no LP, no pivot
        counts.update(dict.fromkeys(counts, 0))
        mu = measure_1d(rng.normal(size=16), rng.dirichlet(np.ones(16)))
        nu = measure_1d(0.8 * rng.normal(size=16), rng.dirichlet(np.ones(16)))
        result = solve_wot(mu, nu)
        assert result.converged
        assert result.diagnostics["lp_calls"] == result.diagnostics["pivots"] == 0
        assert counts["solve_transport_lp"] == counts["_basis_cycle"] == 0
        assert counts["_comonotone_vertex"] == result.iterations + 1 > 2


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
        result = solve_wot(mu, nu, fw_tol=1e-12)
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
            result = solve_wot(mu, nu, fw_tol=1e-12)
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
# a corrective QP captured while solving that instance: 15 stored vertices,
# the last one just entered with a small weight
SINGULAR_GRAM = np.array([
    [0.9086336333772139, 0.48140879695923033, 0.4297560930378555, 0.6421816167261357,
     0.3743156502295904, 0.34047651370387005, 0.46070851299477156, 0.4276703749981747,
     0.27965744330273895, 0.5135216447232039, 0.4621913254965676, 0.31369228534451477,
     0.30738881117397876, 0.4823611728822839, 0.6756902829021446],
    [0.48140879695923033, 0.7301937622075207, 0.4275005657822774, 0.4801357339285943,
     0.5211155102560224, 0.43079805762505385, 0.36091692756564486, 0.38430022182063606,
     0.41411973262311713, 0.23942037797638782, 0.24710372321251478, 0.467649384301975,
     0.4820191952578234, 0.42756443522899673, 0.66729018108761],
    [0.4297560930378555, 0.4275005657822774, 0.8148516634565561, 0.45135040562691675,
     0.4008119343027008, 0.6203894201722975, 0.6232996032325119, 0.592011784733141,
     0.35979478745844823, 0.5252691581827824, 0.5412380436278993, 0.5588354369703611,
     0.42255585032293386, 0.745496815054042, 0.5803285195178759],
    [0.6421816167261357, 0.4801357339285943, 0.45135040562691675, 0.7281911483871986,
     0.49794695156812746, 0.3223907636262433, 0.3262356663055372, 0.5039103233984459,
     0.5141263077569355, 0.3969450343263633, 0.4288247456696434, 0.3142704316338518,
     0.27266925903677514, 0.5543101746911028, 0.49745715628717113],
    [0.3743156502295904, 0.5211155102560224, 0.4008119343027008, 0.49794695156812746,
     0.6508403703816182, 0.2901301940977392, 0.3293169749667029, 0.39651332991630467,
     0.589749506850596, 0.27876671104789696, 0.4040618374388534, 0.3718762318282837,
     0.32630235704250554, 0.5034322610805554, 0.38315116752653644],
    [0.34047651370387005, 0.43079805762505385, 0.6203894201722975, 0.3223907636262433,
     0.2901301940977392, 0.9117161714198282, 0.39513557543311206, 0.449320758820959,
     0.26126340179115054, 0.590709571801087, 0.2539282941785453, 0.743994788351318,
     0.33323514818728495, 0.4170901813466216, 0.6862669635381239],
    [0.46070851299477156, 0.36091692756564486, 0.6232996032325119, 0.3262356663055372,
     0.3293169749667029, 0.39513557543311206, 0.6616009179647416, 0.45601720387455585,
     0.2851352499128611, 0.44696622186817125, 0.525691836476494, 0.4291759648187078,
     0.38742854777192304, 0.5952564830472318, 0.4338129137036312],
    [0.4276703749981747, 0.38430022182063606, 0.592011784733141, 0.5039103233984459,
     0.39651332991630467, 0.449320758820959, 0.45601720387455585, 0.5843000322185135,
     0.42453726658450447, 0.45700040983189516, 0.43729621610609315, 0.4323903605611066,
     0.2579863506608562, 0.6337441218846269, 0.43169234001085494],
    [0.27965744330273895, 0.41411973262311713, 0.35979478745844823, 0.5141263077569355,
     0.589749506850596, 0.26126340179115054, 0.2851352499128611, 0.42453726658450447,
     0.7097300400029161, 0.3167101480894739, 0.4130789134159245, 0.34285765451630956,
     0.25981600620894785, 0.4719778232611898, 0.1613968799229508],
    [0.5135216447232039, 0.23942037797638782, 0.5252691581827824, 0.3969450343263633,
     0.27876671104789696, 0.590709571801087, 0.44696622186817125, 0.45700040983189516,
     0.3167101480894739, 0.6964901053026028, 0.47725309824267664, 0.48025686405532775,
     0.259527569270935, 0.4703730448924416, 0.4322178158718715],
    [0.4621913254965676, 0.24710372321251478, 0.5412380436278993, 0.4288247456696434,
     0.4040618374388534, 0.2539282941785453, 0.525691836476494, 0.43729621610609315,
     0.4130789134159245, 0.47725309824267664, 0.6097539327142244, 0.27163308653441315,
     0.30851747518577566, 0.6050844387985804, 0.25339386166937283],
    [0.31369228534451477, 0.467649384301975, 0.5588354369703611, 0.3142704316338518,
     0.3718762318282837, 0.743994788351318, 0.4291759648187078, 0.4323903605611066,
     0.34285765451630956, 0.48025686405532775, 0.27163308653441315, 0.7422170872397383,
     0.33011676825614156, 0.39074551820833414, 0.6124775035225236],
    [0.30738881117397876, 0.4820191952578234, 0.42255585032293386, 0.27266925903677514,
     0.32630235704250554, 0.33323514818728495, 0.38742854777192304, 0.2579863506608562,
     0.25981600620894785, 0.259527569270935, 0.30851747518577566, 0.33011676825614156,
     0.5431746797862995, 0.36682259222603597, 0.46214957057551076],
    [0.4823611728822839, 0.42756443522899673, 0.745496815054042, 0.5543101746911028,
     0.5034322610805554, 0.4170901813466216, 0.5952564830472318, 0.6337441218846269,
     0.4719778232611898, 0.4703730448924416, 0.6050844387985804, 0.39074551820833414,
     0.36682259222603597, 0.8250793447835741, 0.4578981641760635],
    [0.6756902829021446, 0.66729018108761, 0.5803285195178759, 0.49745715628717113,
     0.38315116752653644, 0.6862669635381239, 0.4338129137036312, 0.43169234001085494,
     0.1613968799229508, 0.4322178158718715, 0.25339386166937283, 0.6124775035225236,
     0.46214957057551076, 0.4578981641760635, 1.020952320993926],
])
SINGULAR_GRAM_LIN = np.array([
    -0.9407144906328647, -0.8927156303253586, -1.12707398563902, -0.9285867183920974,
    -0.8540383072895404, -1.054273588731199, -0.9253368538010315, -0.9512106234139427,
    -0.8084185385153505, -0.9543028876435857, -0.8524307680872006, -1.0073066699521942,
    -0.6975283929654031, -1.0707609302702346, -1.049824122102684
])
SINGULAR_GRAM_START = np.array([
    0.09257810341976513, 0.026296919756972237, 0.07723365100876929, 0.08709034472758048,
    0.07033296460710001, 0.15126307767812366, 0.07830554611224946, 0.012225263967790868,
    0.06692930471458035, 0.03632253868449542, 0.06776721859032209, 0.1495600729673636,
    0.020785635017767236, 0.06330819010697035, 1.1686401499828828e-06
])
