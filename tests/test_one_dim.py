import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order import one_dim
from convex_order.discrete import barycentric_pushforward, exact_w2_sq, solve_wot
from convex_order.measures import DiscreteMeasure, EmptyMeasureError
from convex_order.one_dim import (
    QuantileOrderError,
    _quantile_grid,
    convex_order_tol,
    convex_order_violation,
    g_function,
    is_convex_ordered_1d,
    lower_convex_hull,
    project_1d_detail,
    w2_1d,
)
from _utils import random_discrete_1d


def quantile(measure):
    """Breakpoints and values of a measure's own quantile function."""
    grid, values, _, _ = _quantile_grid(measure, measure)
    return grid, values


def measure_1d(values, weights):
    return DiscreteMeasure.from_1d(values, weights)


@st.composite
def discrete_1d(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    values = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    weights = np.asarray(raw) / np.sum(raw)
    return measure_1d(values, weights)


class TestQuantile:
    def test_dirac(self):
        breakpoints, values = quantile(measure_1d([0.0], [1.0]))
        np.testing.assert_allclose(breakpoints, [0.0, 1.0])
        np.testing.assert_allclose(values, [0.0])

    def test_symmetric_two_point(self):
        breakpoints, values = quantile(measure_1d([-1.0, 1.0], [0.5, 0.5]))
        np.testing.assert_allclose(breakpoints, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(values, [-1.0, 1.0])

    def test_uneven_weights(self):
        breakpoints, values = quantile(measure_1d([0.0, 2.0], [0.25, 0.75]))
        np.testing.assert_allclose(breakpoints, [0.0, 0.25, 1.0])
        np.testing.assert_allclose(values, [0.0, 2.0])

    def test_empty_measure_rejected(self):
        with pytest.raises(EmptyMeasureError):
            DiscreteMeasure(np.zeros((0, 1)), [])

    @settings(max_examples=50, deadline=None)
    @given(discrete_1d())
    def test_quantile_roundtrip(self, measure):
        breakpoints, values = quantile(measure)
        assert np.all(np.diff(values) >= 0)
        back = DiscreteMeasure.from_1d(values, np.diff(breakpoints))
        np.testing.assert_allclose(back.points, measure.points, atol=1e-12)
        np.testing.assert_allclose(back.weights, measure.weights, atol=1e-12)
        mean = float(np.diff(breakpoints) @ values)
        assert mean == pytest.approx(float(measure.barycenter[0]), abs=1e-12)


class TestGFunction:
    def test_identical_measures_give_zero(self):
        m = measure_1d([-1.0, 1.0], [0.5, 0.5])
        _, nodes = g_function(m, m)
        np.testing.assert_allclose(nodes, 0.0, atol=1e-15)

    def test_spread_minus_dirac_is_a_vee(self):
        grid, nodes = g_function(measure_1d([-1.0, 1.0], [0.5, 0.5]), measure_1d([0.0], [1.0]))
        np.testing.assert_allclose(grid, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(nodes, [0.0, -0.5, 0.0], atol=1e-15)

    def test_dirac_minus_spread_is_a_tent(self):
        _, nodes = g_function(measure_1d([0.0], [1.0]), measure_1d([-1.0, 1.0], [0.5, 0.5]))
        np.testing.assert_allclose(nodes, [0.0, 0.5, 0.0], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(discrete_1d(), discrete_1d())
    def test_endpoint_is_mean_difference(self, mu, nu):
        _, nodes = g_function(mu, nu)
        assert nodes[0] == 0.0
        expected = float(mu.barycenter[0] - nu.barycenter[0])
        assert nodes[-1] == pytest.approx(expected, abs=1e-12)


def monotone_chain(x, y):
    """The lower hull as a plain monotone chain over every node: the
    reference that the pruned :func:`lower_convex_hull` must reproduce."""
    xs, ys = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a]) > 0.0:
                break
            hull.pop()
        hull.append(i)
    return np.asarray(hull)


HULL_FAMILIES = ("gaussian", "integer", "cauchy", "even", "exponential")


def family_measure(rng, family, n, spread):
    """``n`` atoms of one family; integer atoms with uniform weights (and
    merged repeats) give ``g`` exactly collinear runs, up to the grid's
    roundoff."""
    weights = rng.dirichlet(np.ones(n))
    if family == "gaussian":
        values = spread * rng.normal(size=n)
    elif family == "integer":
        values, weights = rng.integers(-20, 21, size=n).astype(float), np.full(n, 1.0 / n)
    elif family == "cauchy":
        values = spread * rng.standard_cauchy(size=n)
    elif family == "even":
        values, weights = spread * np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n)
    else:
        values = spread * rng.exponential(size=n)
    return measure_1d(values, weights)


def hull_family_pairs():
    """400 seeded pairs of one family each, up to 2000 atoms a side."""
    for s in range(400):
        rng = np.random.default_rng([18, s])
        family = HULL_FAMILIES[s % len(HULL_FAMILIES)]
        high = 30 if s % 3 == 0 else 2001
        mu = family_measure(rng, family, int(rng.integers(1, high)), 1.0)
        nu = family_measure(rng, family, int(rng.integers(1, high)), 0.8)
        yield mu, nu


def evenly_spaced_pairs():
    """300 pairs of uniform weights on evenly spaced atoms, whose cuts
    coincide in exact arithmetic (see test_coincident_cuts_keep_the_projection_monotone)."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = (int(x) for x in rng.integers(2, 4001, size=2))
        yield (measure_1d(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n)),
               measure_1d(np.linspace(-0.8, 0.8, m), np.full(m, 1.0 / m)))


def projection_or_error(mu, nu):
    """The projection, or the message of the monotonicity guard's error."""
    try:
        return project_1d_detail(mu, nu)
    except QuantileOrderError as exc:
        return str(exc)


def assert_same_projection(got, want):
    for side in ("below", "above"):
        np.testing.assert_array_equal(getattr(got, side).points, getattr(want, side).points)
        np.testing.assert_array_equal(getattr(got, side).weights, getattr(want, side).weights)
    assert got.distance_sq == want.distance_sq
    assert got.cross_distance_sq == want.cross_distance_sq


class TestLowerConvexHull:
    def test_convex_input_is_unchanged(self):
        x, y = np.array([0.0, 0.5, 1.0]), np.array([0.0, -0.5, 0.0])
        idx = lower_convex_hull(x, y)
        np.testing.assert_allclose(x[idx], x)
        np.testing.assert_allclose(y[idx], y)

    def test_tent_collapses_to_chord(self):
        x, y = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.0])
        idx = lower_convex_hull(x, y)
        np.testing.assert_allclose(x[idx], [0.0, 1.0])
        np.testing.assert_allclose(y[idx], [0.0, 0.0])

    def test_matches_the_monotone_chain(self, monkeypatch):
        # grids of up to 4000 atoms, where several prune passes run, then the
        # 3000 x 1000 shape, whose first pass drops just under a quarter
        rng = np.random.default_rng([18, 3000, 1000])
        wide = (family_measure(rng, "gaussian", 3000, 1.0),
                family_measure(rng, "gaussian", 1000, 0.8))
        for s, (mu, nu) in enumerate([*hull_family_pairs(), wide]):
            grid, _, _, nodes = _quantile_grid(mu, nu)
            np.testing.assert_array_equal(lower_convex_hull(grid, nodes),
                                          monotone_chain(grid, nodes))
            pruned = projection_or_error(mu, nu)
            with monkeypatch.context() as patch:
                patch.setattr(one_dim, "lower_convex_hull", monotone_chain)
                chain = projection_or_error(mu, nu)
            if isinstance(chain, str):  # s = 43 trips the guard on both hulls (see
                # test_coincident_cuts_keep_the_projection_monotone)
                assert pruned == chain
            else:
                assert_same_projection(pruned, chain)

    def test_cascade_falls_back_to_the_chain(self):
        # a parabola whose last node lies deep below: each node is dropped
        # only once its right neighbour is, one node a pass
        x = np.linspace(0.0, 1.0, 5000)
        y = x**2
        y[-1] = -100.0
        np.testing.assert_array_equal(lower_convex_hull(x, y), [0, 4999])
        np.testing.assert_array_equal(monotone_chain(x, y), [0, 4999])

    def test_collinear_nodes_keep_only_the_endpoints(self):
        # integer nodes: every cross product is exactly zero
        rng = np.random.default_rng(18)
        for x in (np.arange(5000.0), np.unique(rng.integers(0, 10**6, size=3000)).astype(float)):
            y = 3.0 * x - 7.0
            np.testing.assert_array_equal(lower_convex_hull(x, y), [0, x.size - 1])
            np.testing.assert_array_equal(monotone_chain(x, y), [0, x.size - 1])

    def test_the_chain_drops_collinear_nodes_that_survive_the_prune(self):
        # a strictly convex arc, its vertex (2000, 0), then a flat run at
        # y = 0 with unit bumps at odd offsets: the first prune pass drops
        # only the 20 bumps, under an eighth of the nodes, and stops, so the
        # chain meets the run's 21 exactly collinear nodes and keeps only
        # the run's endpoints
        x = np.arange(2041.0)
        y = np.where(x < 2000.0, (x - 2000.0) ** 2, (x - 2000.0) % 2.0)
        idx = lower_convex_hull(x, y)
        np.testing.assert_array_equal(idx, [*range(2001), 2040])
        np.testing.assert_array_equal(monotone_chain(x, y), idx)
        assert (np.diff(np.diff(y[idx]) / np.diff(x[idx])) > 0.0).all()

    @pytest.mark.parametrize("y", [[0.5], [1.0, -2.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0],
                                   [0.0, 1.0, 2.0]])
    def test_few_nodes(self, y):
        x = np.arange(float(len(y)))
        np.testing.assert_array_equal(lower_convex_hull(x, y), monotone_chain(x, y))

    def test_translates_agree_to_roundoff(self, monkeypatch):
        # mu against its translate: g is a line up to the grid's roundoff,
        # and the pruned hull may keep other roundoff vertices than the chain
        for s in range(40):
            rng = np.random.default_rng([19, s])
            n = int(rng.integers(2, 2001))
            values, weights = rng.normal(size=n), rng.dirichlet(np.ones(n))
            mu, nu = measure_1d(values, weights), measure_1d(values + rng.normal(), weights)
            pruned = project_1d_detail(mu, nu)
            with monkeypatch.context() as patch:
                patch.setattr(one_dim, "lower_convex_hull", monotone_chain)
                chain = project_1d_detail(mu, nu)
            for side in ("below", "above"):
                got, want = getattr(pruned, side), getattr(chain, side)
                np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
            assert pruned.distance_sq == pytest.approx(chain.distance_sq, rel=1e-12)
            assert pruned.cross_distance_sq == pytest.approx(chain.cross_distance_sq,
                                                             abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=300))
    def test_hull_is_convex_minorant_and_idempotent(self, nodes):
        grid = np.linspace(0.0, 1.0, len(nodes))
        y = np.asarray(nodes, dtype=float)
        idx = lower_convex_hull(grid, y)
        hull_x, hull_y = grid[idx], y[idx]
        hull_slopes = np.diff(hull_y) / np.diff(hull_x)
        assert np.all(np.diff(hull_slopes) >= -1e-12)
        assert hull_y[0] == y[0]
        assert hull_y[-1] == y[-1]
        # minorant on the original nodes
        piece = np.searchsorted(hull_x, grid, side="right") - 1
        piece = np.clip(piece, 0, hull_x.size - 2)
        values = hull_y[piece] + hull_slopes[piece] * (grid - hull_x[piece])
        assert np.all(values <= y + 1e-9)
        again = lower_convex_hull(hull_x, hull_y)
        np.testing.assert_allclose(hull_y[again], hull_y, atol=1e-12)


class TestProject1d:
    def test_spread_above_dirac(self):
        mu = measure_1d([-1.0, 1.0], [0.5, 0.5])
        nu = measure_1d([0.0], [1.0])
        detail = project_1d_detail(mu, nu)
        below, above = detail.below, detail.above
        np.testing.assert_allclose(below.points, [[0.0]])
        np.testing.assert_allclose(above.points, mu.points)
        np.testing.assert_allclose(above.weights, mu.weights)

    def test_dirac_below_spread(self):
        mu = measure_1d([0.0], [1.0])
        nu = measure_1d([-1.0, 1.0], [0.5, 0.5])
        detail = project_1d_detail(mu, nu)
        below, above = detail.below, detail.above
        np.testing.assert_allclose(below.points, [[0.0]])
        np.testing.assert_allclose(above.points, nu.points)

    def test_shifted_spread_against_dirac(self):
        # brute force on this instance: the only measure dominated by a
        # Dirac is the Dirac itself, and the projection above must equal mu
        mu = measure_1d([0.0, 2.0], [0.5, 0.5])
        nu = measure_1d([0.0], [1.0])
        detail = project_1d_detail(mu, nu)
        np.testing.assert_allclose(detail.below.points, [[0.0]])
        np.testing.assert_allclose(detail.above.points, mu.points)
        assert detail.distance_sq == pytest.approx(2.0, abs=1e-12)
        assert w2_1d(mu, detail.below) ** 2 == pytest.approx(2.0, abs=1e-12)
        assert w2_1d(nu, detail.above) ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_means_are_exchanged(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            below, above = detail.below, detail.above
            assert float(below.barycenter[0]) == pytest.approx(
                float(nu.barycenter[0]), abs=1e-12
            )
            assert float(above.barycenter[0]) == pytest.approx(
                float(mu.barycenter[0]), abs=1e-12
            )

    def test_projections_are_convex_ordered(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            below, above = detail.below, detail.above
            assert is_convex_ordered_1d(below, nu)
            assert is_convex_ordered_1d(mu, above)

    def test_second_moment_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            below, above = detail.below, detail.above
            lhs = below.second_moment() + above.second_moment()
            rhs = mu.second_moment() + nu.second_moment()
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(rhs)))

    def test_distance_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            scale = 1.0 + detail.cross_distance_sq
            assert w2_1d(nu, detail.below) ** 2 == pytest.approx(
                detail.cross_distance_sq, abs=1e-12 * scale
            )
            assert w2_1d(mu, detail.above) ** 2 == pytest.approx(
                detail.cross_distance_sq, abs=1e-12 * scale
            )

    def test_distance_equality_both_sides(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            scale = 1.0 + detail.distance_sq
            assert w2_1d(mu, detail.below) ** 2 == pytest.approx(
                detail.distance_sq, abs=1e-12 * scale
            )
            assert w2_1d(nu, detail.above) ** 2 == pytest.approx(
                detail.distance_sq, abs=1e-12 * scale
            )

    @pytest.mark.usefixtures("tight_gap")
    def test_agreement_with_transport_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            below = project_1d_detail(mu, nu).below
            result = solve_wot(mu, nu)
            pushed = barycentric_pushforward(result.coupling)
            assert w2_1d(below, pushed) <= 1e-6


class TestLargeScale:
    """The monotonicity guard and the convex-order test scale with the atoms."""

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_projections_at_large_scale(self, scale):
        for s in range(100):
            rng = np.random.default_rng([9, s])
            mu = random_discrete_1d(rng, scale=scale)
            nu = random_discrete_1d(rng, scale=scale)
            detail = project_1d_detail(mu, nu)
            assert is_convex_ordered_1d(detail.below, nu)
            assert is_convex_ordered_1d(mu, detail.above)
            lhs = detail.below.second_moment() + detail.above.second_moment()
            rhs = mu.second_moment() + nu.second_moment()
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(rhs)))

    def test_narrow_hull_segments_keep_the_projections_monotone(self):
        # 3e4 atoms a side: hull segments as narrow as 2e-11, over which a
        # difference of g's cumulative sums lost the slope's precision
        n = 30000
        rng = np.random.default_rng([77, n, 7])
        mu = measure_1d(rng.normal(size=n), rng.dirichlet(np.ones(n)))
        nu = measure_1d(0.8 * rng.normal(size=n), rng.dirichlet(np.ones(n)))
        detail = project_1d_detail(mu, nu)
        assert is_convex_ordered_1d(detail.below, nu)
        assert is_convex_ordered_1d(mu, detail.above)

    def test_coincident_cuts_keep_the_projection_monotone(self):
        # evenly spaced atoms, uniform weights: k/969 = j/1530 at each
        # multiple of 1/51, but the cumulative sums leave such cuts 1.05e-15
        # apart; unmerged, one quantile jumps a node before the other and the
        # hull's slope change shows as a drop
        mu = measure_1d(np.linspace(-1.0, 1.0, 969), np.full(969, 1.0 / 969))
        nu = measure_1d(np.linspace(-0.8, 0.8, 1530), np.full(1530, 1.0 / 1530))
        detail = project_1d_detail(mu, nu)
        assert is_convex_ordered_1d(detail.below, nu)
        assert is_convex_ordered_1d(mu, detail.above)

    def test_coincident_cuts_on_evenly_spaced_families(self):
        # 300 such pairs of random sizes; under a fixed 1e-15 merge, 9 of
        # them (s = 63, 77, 120, 144, 175, 189, 254, 279, 297) lost
        # monotonicity by far more than the guard's tolerance
        for s, (mu, nu) in enumerate(evenly_spaced_pairs()):
            detail = project_1d_detail(mu, nu)
            assert is_convex_ordered_1d(detail.below, nu), s
            assert is_convex_ordered_1d(mu, detail.above), s

    def test_a_lost_order_is_a_typed_error(self, monkeypatch):
        # the old fixed merge brings the drop back; the guard names it
        monkeypatch.setattr(one_dim, "_EPS", 1e-15 / (969 + 1530))
        mu = measure_1d(np.linspace(-1.0, 1.0, 969), np.full(969, 1.0 / 969))
        nu = measure_1d(np.linspace(-0.8, 0.8, 1530), np.full(1530, 1.0 / 1530))
        with pytest.raises(QuantileOrderError, match="lost monotonicity"):
            project_1d_detail(mu, nu)


class TestTinyWeights:
    """An atom whose weight is below the grid's resolution takes no piece."""

    mu = measure_1d([0.0, 1.0, 2.0], [0.5, 1e-17, 0.5 - 1e-17])
    mu_plain = measure_1d([0.0, 2.0], [0.5, 0.5])
    nu = measure_1d([-1.0, 3.0], [0.5, 0.5])

    def test_matches_the_measure_without_the_atom(self):
        assert self.mu.size == 3
        assert w2_1d(self.mu, self.nu) == w2_1d(self.mu_plain, self.nu) == 1.0
        detail = project_1d_detail(self.mu, self.nu)
        plain = project_1d_detail(self.mu_plain, self.nu)
        for got, want in ((detail.below, plain.below), (detail.above, plain.above)):
            np.testing.assert_array_equal(got.points, want.points)
            np.testing.assert_array_equal(got.weights, want.weights)
        assert detail.distance_sq == plain.distance_sq == 0.0
        assert detail.cross_distance_sq == plain.cross_distance_sq
        assert is_convex_ordered_1d(self.mu, self.nu)
        assert is_convex_ordered_1d(self.mu_plain, self.nu)
        assert not is_convex_ordered_1d(self.nu, self.mu)

    @pytest.mark.usefixtures("tight_gap")
    def test_matches_the_transport_solver(self):
        below = project_1d_detail(self.mu, self.nu).below
        result = solve_wot(self.mu, self.nu)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert w2_1d(below, barycentric_pushforward(result.coupling)) <= 1e-6
        assert w2_1d(self.mu, self.nu) ** 2 == pytest.approx(
            exact_w2_sq(self.mu, self.nu), abs=1e-12
        )


def midpoint_grid(mu, nu):
    """The common grid by a sort with duplicates removed and one binary
    search per measure and piece: the reference that the merged
    :func:`_quantile_grid` must reproduce."""
    cuts = [np.concatenate(([0.0], np.cumsum(m.weights[:-1]), [1.0])) for m in (mu, nu)]
    grid = np.unique(np.concatenate(cuts))
    grid = grid[np.concatenate((np.diff(grid) > (mu.size + nu.size) * one_dim._EPS, [True]))]
    grid[0] = 0.0
    mids = 0.5 * (grid[:-1] + grid[1:])
    q_mu, q_nu = (
        m.values_1d[np.clip(np.searchsorted(cut, mids) - 1, 0, m.size - 1)]
        for m, cut in zip((mu, nu), cuts)
    )
    g_nodes = np.concatenate(([0.0], np.cumsum((q_mu - q_nu) * np.diff(grid))))
    return grid, q_mu, q_nu, g_nodes


class TestQuantileGrid:
    def test_matches_the_midpoint_grid(self):
        rng = np.random.default_rng([30, 10**5])
        large = tuple(measure_1d(spread * rng.normal(size=n), rng.dirichlet(np.ones(n)))
                      for n, spread in ((10**5, 1.0), (33000, 0.8)))
        # a chain of atoms below the grid's resolution: cuts 4e-15 apart from
        # 0.5 + 1e-14 to 0.5 + 9e-14 are one cluster, which starts below the
        # midpoint of its piece (0.5, 0.5 + 9e-14], so more cuts lie below
        # that midpoint than up to the node 0.5 (read there, w2_1d gives
        # 7.280109889285003, not 7.280109889282401)
        weights = [0.5, 1e-14] + [4e-15] * 20
        late = (measure_1d([0.0, 1.0, *range(2, 22), 21.0], [*weights, 1.0 - sum(weights)]),
                measure_1d([-5.0, 30.0], [0.5, 0.5]))
        # the first cluster, whose node is reset to 0, runs past the first
        # piece's midpoint: cuts at 0, 6e-16 and 1.2e-15, then 2.35e-15
        first = (measure_1d([0.0, 1.0, 2.0], [6e-16, 6e-16, 1.0 - 1.2e-15]),
                 measure_1d([-5.0, 30.0], [2.35e-15, 1.0 - 2.35e-15]))
        tiny = (TestTinyWeights.mu, TestTinyWeights.nu)
        pairs = [*hull_family_pairs(), *evenly_spaced_pairs(), tiny, large, late, first]
        for s, (mu, nu) in enumerate(pairs):
            for a, b in ((mu, nu), (nu, mu)):
                for got, want in zip(_quantile_grid(a, b), midpoint_grid(a, b)):
                    np.testing.assert_array_equal(got, want, err_msg=f"pair {s}")


def stop_loss_margin(eta, nu):
    """Independent convex-order oracle: ``eta <=cx nu`` iff the means agree
    and ``E(eta - k)+ <= E(nu - k)+`` at every atom ``k`` of either measure.

    Returns the mean difference and the smallest ``E(nu - k)+ - E(eta - k)+``
    over the atoms strictly inside the joint support (``inf`` if none): at
    the outermost atoms that gap is the mean difference and 0.
    """
    atoms = np.union1d(eta.values_1d, nu.values_1d)[1:-1]

    def stop_loss(m):
        return np.maximum(m.values_1d[None, :] - atoms[:, None], 0.0) @ m.weights

    gap = stop_loss(nu) - stop_loss(eta)
    mean_gap = float(eta.barycenter[0] - nu.barycenter[0])
    return mean_gap, float(gap.min()) if gap.size else np.inf


class TestConvexOrderViolation:
    def test_spread_is_not_below_a_dirac(self):
        dirac = measure_1d([0.0], [1.0])
        for scale in (1.0, 2.0**-34):  # the verdict has no absolute floor
            spread = measure_1d([-scale, scale], [0.5, 0.5])
            # g dips to -scale/2 at u = 1/2 and ends at 0
            assert convex_order_violation(spread, dirac) == 0.5 * scale
            assert convex_order_violation(dirac, spread) == 0.0
            assert not is_convex_ordered_1d(spread, dirac)
            assert is_convex_ordered_1d(dirac, spread)

    def test_verdicts_scale_with_the_atoms(self):
        # both measures times 2^j: g scales exactly, and so must the
        # tolerance; the sweep stops where the constructor's absolute merge
        # tolerance starts to merge distinct atoms
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, m = rng.integers(2, 12), rng.integers(2, 12)
            x, wx = rng.normal(size=n), rng.dirichlet(np.ones(n))
            y, wy = 0.8 * rng.normal(size=m), rng.dirichlet(np.ones(m))
            mu, nu = measure_1d(x, wx), measure_1d(y, wy)
            verdict, violation = is_convex_ordered_1d(mu, nu), convex_order_violation(mu, nu)
            for j in range(-27, 41):
                c = 2.0**j
                mu_c, nu_c = measure_1d(c * x, wx), measure_1d(c * y, wy)
                assert convex_order_violation(mu_c, nu_c) == c * violation, j
                assert is_convex_ordered_1d(mu_c, nu_c) is verdict, j
                project_1d_detail(mu_c, nu_c)  # the monotonicity guard holds

    def test_barycenter_gap_is_a_violation(self):
        # g rises to 1 and ends there: only |g(1)| counts
        assert convex_order_violation(measure_1d([1.0], [1.0]), measure_1d([0.0], [1.0])) == 1.0

    def test_verdict_is_violation_within_tolerance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            eta, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            _, nodes = g_function(eta, nu)
            value = convex_order_violation(eta, nu)
            assert value == max(-nodes.min(), abs(nodes[-1]))
            assert is_convex_ordered_1d(eta, nu) is (value <= convex_order_tol(eta, nu))


class TestConvexOrderOracle:
    def test_projections_are_ordered_for_the_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            detail = project_1d_detail(mu, nu)
            below, above = detail.below, detail.above
            for eta, target in ((below, nu), (mu, above)):
                assert is_convex_ordered_1d(eta, target)
                mean_gap, margin = stop_loss_margin(eta, target)
                assert abs(mean_gap) <= 1e-12
                assert margin >= -1e-12

    def test_verdicts_match_the_oracle(self):
        rng = np.random.default_rng(22)
        verdicts = []
        for _ in range(600):
            mu, nu = random_discrete_1d(rng), random_discrete_1d(rng)
            # recentre mu on nu's mean (most of the time) and rescale it, so
            # that both verdicts are common
            centre = nu.barycenter[0] if rng.random() < 0.8 else mu.barycenter[0]
            spread = rng.uniform(0.1, 1.5)
            eta = measure_1d(centre + spread * (mu.values_1d - mu.barycenter[0]), mu.weights)
            mean_gap, margin = stop_loss_margin(eta, nu)
            if abs(mean_gap) > 1e-6:
                expected = False
            elif abs(margin) > 1e-6:
                expected = margin > 0.0
            else:
                continue
            assert is_convex_ordered_1d(eta, nu) is expected
            verdicts.append(expected)
        assert len(verdicts) >= 500
        assert 100 <= sum(verdicts) <= len(verdicts) - 100


class TestRegularity:
    """The paper's regularity bounds for the dominated-side projection,
    checked with ``w2_1d`` and a roundoff slack only."""

    def test_bounds_on_random_pairs(self):
        for s in range(500):
            rng = np.random.default_rng([3, s])
            mu, mu2, nu, nu2 = (random_discrete_1d(rng) for _ in range(4))
            below = project_1d_detail(mu, nu).below
            below_mu2 = project_1d_detail(mu2, nu).below
            below_nu2 = project_1d_detail(mu, nu2).below
            scale = 1.0 + max(m.second_moment() for m in (mu, mu2, nu, nu2))
            slack = 1e-12 * scale
            w2_mu = w2_1d(mu, mu2)
            dist, dist_mu2, dist_nu2 = (
                w2_1d(m, b) for m, b in ((mu, below), (mu2, below_mu2), (mu, below_nu2))
            )
            w2_nu = w2_1d(nu, nu2)
            # non-expansive in mu
            assert w2_1d(below, below_mu2) <= w2_mu + slack
            # 1/2-Hoelder in nu
            assert w2_1d(below, below_nu2) ** 2 <= (dist + dist_nu2) * w2_nu + slack
            # the projection distance is 1-Lipschitz in mu, and in nu too,
            # since it is also the distance from nu to its projection above mu
            assert abs(dist - dist_mu2) <= w2_mu + slack
            assert abs(dist - dist_nu2) <= w2_nu + slack
