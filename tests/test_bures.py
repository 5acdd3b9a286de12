import json

import numpy as np
import pytest
from click.testing import CliRunner

from convex_order.bures import bw2
from convex_order.cli import main
from convex_order.discrete import exact_w2_sq, solve_wot
from convex_order.linalg import bw2_gradient_from_inner, clamped_eigen
from convex_order.measures import GaussianMeasure
from _exact_gaussian import FAMILIES, exact_bw2, oracle_pairs
from _utils import (
    bw2_gradient,
    moment_matched_discretization,
    random_orthogonal,
    random_spd,
    random_symmetric,
)


class TestBw2:
    def test_zero_distance_to_itself(self):
        rng = np.random.default_rng(0)
        s = random_spd(rng, 4)
        assert bw2(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonals(self):
        # (2-1)^2 + (1-2)^2
        assert bw2(np.diag([4.0, 1.0]), np.diag([1.0, 4.0])) == pytest.approx(2.0)

    def test_against_zero_matrix(self):
        assert bw2(np.eye(2), np.zeros((2, 2))) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a, b = random_spd(rng, d), random_spd(rng, d)
            assert bw2(a, b) == pytest.approx(bw2(b, a), abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a, b = random_spd(rng, d), random_spd(rng, d)
            q = random_orthogonal(rng, d)
            assert bw2(a, b) == pytest.approx(bw2(q.T @ a @ q, q.T @ b @ q), abs=1e-9)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            ref = random_spd(rng, d)
            a, b = random_spd(rng, d), random_spd(rng, d)
            mid = bw2(ref, 0.5 * (a + b))
            assert mid <= 0.5 * (bw2(ref, a) + bw2(ref, b)) + 1e-9


# the largest error of bw2 against the 60-digit reference, over (1 + value):
# twice the largest over 3,000 pairs a family (default_rng([78, family]))
ORACLE_BOUNDS = {"full_rank": 5e-15, "rank_one_a": 4e-8, "rank_one_b": 2e-8,
                 "both_rank_one": 1e-13}


class TestExtendedPrecisionOracle:
    """``bw2`` against the d = 2 closed form in ``decimal``.  A rank-one
    float matrix keeps an eigenvalue of about 1e-17 of either sign, and the
    value is only 1/2-Hoelder in the covariance there, so a rank-one side
    costs about sqrt(eps); two rank-one sides cost roundoff alone."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_closed_form(self, family):
        rng = np.random.default_rng([78, FAMILIES.index(family)])
        worst = 0.0
        for a, b in oracle_pairs(rng, family, 200):
            reference = float(exact_bw2(a, b))
            worst = max(worst, abs(bw2(a, b) - reference) / (1.0 + reference))
        assert worst <= ORACLE_BOUNDS[family]


def distance_report(tmp_path, a: GaussianMeasure, b: GaussianMeasure) -> dict:
    """The ``distance`` command's report on the pair ``(a, b)``."""
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        side: {"mean": g.mean.tolist(), "cov": g.cov.tolist()}
        for side, g in (("mu", a), ("nu", b))
    }))
    result = CliRunner().invoke(main, ["distance", str(problem)])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestGaussianW2:
    def test_identical(self, tmp_path):
        # bw2(S, S) is roundoff, up to 8.6 eps (1 + tr S) over 8000 such
        # matrices (default_rng(0..9), 100 of each d = 1..8), so 64 leaves
        # 7x headroom; w2 = sqrt(bw2) would turn one ulp of it into ~sqrt(eps)
        rng = np.random.default_rng(70)
        eps = np.finfo(float).eps
        for d in list(range(1, 9)) * 4:
            cov = random_spd(rng, d)
            g = GaussianMeasure(rng.normal(size=d), cov)
            report = distance_report(tmp_path, g, g)
            assert 0.0 <= report["bw2"] <= 64.0 * eps * (1.0 + np.trace(cov))

    def test_point_masses(self, tmp_path):
        a = GaussianMeasure([0.0, 0.0], np.zeros((2, 2)))
        b = GaussianMeasure([3.0, 4.0], np.zeros((2, 2)))
        assert distance_report(tmp_path, a, b)["w2"] == pytest.approx(5.0)

    def test_translation_of_equal_covariances(self, tmp_path):
        a = GaussianMeasure([0.0, 0.0], np.eye(2))
        b = GaussianMeasure([1.0, 0.0], np.eye(2))
        assert distance_report(tmp_path, a, b)["w2"] == pytest.approx(1.0)


class TestCenteredW2:
    def test_equal_covariances_any_means(self, tmp_path):
        a = GaussianMeasure([5.0, -3.0], np.eye(2))
        b = GaussianMeasure([0.0, 7.0], np.eye(2))
        assert distance_report(tmp_path, a, b)["centered_w2"] == pytest.approx(0.0, abs=1e-9)

    def test_commuting_value(self, tmp_path):
        a = GaussianMeasure([5.0, 5.0], np.eye(2))
        b = GaussianMeasure([0.0, 0.0], 4.0 * np.eye(2))
        assert distance_report(tmp_path, a, b)["centered_w2"] == pytest.approx(np.sqrt(2.0))

    def test_mean_invariance(self, tmp_path):
        rng = np.random.default_rng(4)
        s1, s2 = random_spd(rng, 3), random_spd(rng, 3)
        a = GaussianMeasure(rng.normal(size=3), s1)
        b = GaussianMeasure(rng.normal(size=3), s2)
        a0 = GaussianMeasure(np.zeros(3), s1)
        b0 = GaussianMeasure(np.zeros(3), s2)
        assert distance_report(tmp_path, a, b)["centered_w2"] == pytest.approx(
            distance_report(tmp_path, a0, b0)["centered_w2"], abs=1e-12
        )


class TestGradient:
    def test_zero_at_the_center(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 3)
        np.testing.assert_allclose(bw2_gradient(s, s), np.zeros((3, 3)), atol=1e-10)

    def test_diagonal_cases(self):
        np.testing.assert_allclose(
            bw2_gradient(np.eye(2), np.diag([4.0, 1.0])), np.diag([0.5, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            bw2_gradient(np.diag([4.0, 1.0]), np.eye(2)), np.diag([-1.0, 0.0]), atol=1e-12
        )

    def test_exactly_symmetric(self):
        # I - w @ w.T goes through BLAS syrk, so no symmetrisation is needed
        rng = np.random.default_rng(7)
        for d in range(1, 13):
            root = np.sqrt(rng.uniform(0.2, 3.0, size=d))
            inner = random_spd(rng, d) * (root[:, None] * root)
            grad = bw2_gradient_from_inner(root, *clamped_eigen(inner))
            assert np.array_equal(grad, grad.T), d

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(60):
            d = int(rng.integers(2, 6))
            fixed = random_spd(rng, d)
            s = random_spd(rng, d)
            delta = random_symmetric(rng, d)
            delta /= np.linalg.norm(delta)
            grad = bw2_gradient(fixed, s)
            analytic = float(np.sum(grad * delta))
            numeric = (bw2(fixed, s + h * delta) - bw2(fixed, s - h * delta)) / (2 * h)
            assert abs(numeric - analytic) <= 1e-4 * (1.0 + abs(analytic))


class TestCouplingLowerBound:
    def test_discrete_transport_dominates_gaussian_formula(self):
        # any coupling of measures with matched first two moments costs at
        # least the Gaussian closed form
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            a, b = random_spd(rng, d), random_spd(rng, d)
            ma = moment_matched_discretization(a)
            mb = moment_matched_discretization(b)
            assert exact_w2_sq(ma, mb) >= bw2(a, b) - 1e-9

    @pytest.mark.usefixtures("tight_gap")
    def test_wot_value_dominates_projection_distance(self):
        from convex_order.gaussian import project_pair

        rng = np.random.default_rng(8)
        for _ in range(5):
            d = int(rng.integers(2, 4))
            a, b = random_spd(rng, d), random_spd(rng, d)
            ma = moment_matched_discretization(a)
            mb = moment_matched_discretization(b)
            value = solve_wot(ma, mb).value
            assert value >= project_pair(a, b)[0].distance_sq - 1e-9
