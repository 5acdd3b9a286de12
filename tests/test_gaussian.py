import json

import numpy as np
import pytest
from click.testing import CliRunner

from convex_order import gaussian, pgd
from convex_order.bures import bw2
from convex_order.cli import main
from convex_order.gaussian import (
    DominanceVerdict,
    dominance_check,
    is_above_projection_unique,
    project_below,
    project_pair,
    reduce_singular_above,
    shared_correlation_fast_path,
)
from convex_order.linalg import conjugate_to_shared_correlation, loewner_leq, psd_eigen
from convex_order.measures import GaussianMeasure
from _utils import random_commuting_pair, random_orthogonal, random_psd_singular, random_spd


def assert_transform_valid(t, cov_mu, cov_nu, tol=1e-7):
    basis, ratios = t.basis, t.ratios
    d = basis.shape[0]
    np.testing.assert_allclose(basis.T @ basis, np.eye(d), atol=1e-10)
    m_mu = basis.T @ cov_mu @ basis
    m_nu = basis.T @ cov_nu @ basis
    # the diagonal contraction is exactly min(1, sqrt(nu_ii / mu_ii)),
    # with sub-cutoff diagonals treated as exact zeros
    cut_mu = d * max(np.diag(m_mu).max(), 0.0) * 2.0**-50
    cut_nu = d * max(np.diag(m_nu).max(), 0.0) * 2.0**-50
    for i in range(d):
        if m_mu[i, i] > cut_mu:
            nu_ii = m_nu[i, i] if m_nu[i, i] > cut_nu else 0.0
            expected = min(1.0, np.sqrt(nu_ii / m_mu[i, i]))
            assert ratios[i] == pytest.approx(expected, abs=1e-12)
        else:
            assert ratios[i] == 1.0
    assert loewner_leq(ratios[:, None] * m_mu * ratios[None, :], m_nu, tol)
    assert t.certified

NAN_COV = np.array([[np.nan, 0.0], [0.0, 1.0]])


class TestNonFiniteInput:
    def test_measure_rejects_nan_covariance(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianMeasure([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]])

    def test_measure_rejects_inf_mean(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianMeasure([0.0, np.inf], np.eye(2))

    def test_project_pair_rejects_non_finite_matrix(self):
        with pytest.raises(ValueError, match="finite"):
            project_pair(np.eye(2), np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_fast_path_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            shared_correlation_fast_path(np.eye(2), NAN_COV)

    def test_singular_reduction_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            reduce_singular_above(NAN_COV, np.eye(2))


class TestOrderTransform:
    def test_equal_covariances(self):
        rng = np.random.default_rng(0)
        s = random_spd(rng, 3)
        t = project_pair(s, s)[0].transform
        np.testing.assert_allclose(t.ratios, np.ones(3), atol=1e-12)
        assert_transform_valid(t, s, s)

    def test_commuting_diagonals(self):
        mu_cov, nu_cov = np.diag([4.0, 1.0]), np.diag([1.0, 4.0])
        t = project_pair(mu_cov, nu_cov)[0].transform
        assert_transform_valid(t, mu_cov, nu_cov)
        # the contraction shrinks exactly the too-wide coordinate
        contracted = t.basis @ np.diag(t.ratios) @ t.basis.T
        np.testing.assert_allclose(
            contracted @ mu_cov @ contracted, np.eye(2), atol=1e-10
        )

    def test_singular_bound_uses_unit_convention(self):
        t = project_pair(np.eye(2), np.diag([2.0, 0.0]))[0].transform
        assert_transform_valid(t, np.eye(2), np.diag([2.0, 0.0]))
        assert sorted(t.ratios) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_random_pairs_certify(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            a, b = random_spd(rng, d), random_spd(rng, d)
            assert_transform_valid(project_pair(a, b)[0].transform, a, b)


class TestProjectBelow:
    def test_already_dominated(self):
        res = project_below(np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(res.covariance, np.eye(2), atol=1e-10)
        assert res.distance_sq == pytest.approx(0.0, abs=1e-12)

    def test_commuting_minimum(self):
        res = project_below(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        np.testing.assert_allclose(res.covariance, np.eye(2), atol=1e-10)
        assert res.distance_sq == pytest.approx(1.0, abs=1e-12)

    def test_singular_bound(self):
        # oracle: feasible set for the bound diag(2, 0) is {diag(a, 0), a in [0, 2]}
        # and the objective 2 + a - 2 sqrt(a) over it is minimized at a = 1
        res = project_below(np.eye(2), np.diag([2.0, 0.0]))
        np.testing.assert_allclose(res.covariance, np.diag([1.0, 0.0]), atol=1e-8)
        assert res.distance_sq == pytest.approx(1.0, abs=1e-10)

    def test_zero_bound(self):
        res = project_below(np.eye(3), np.zeros((3, 3)))
        np.testing.assert_allclose(res.covariance, np.zeros((3, 3)), atol=1e-12)
        assert res.distance_sq == pytest.approx(3.0)


class TestProjectAbove:
    def test_rank_one_bound_identity_lower(self):
        res = project_pair(np.eye(2), np.diag([2.0, 0.0]))[1]
        np.testing.assert_allclose(res.covariance, np.diag([2.0, 1.0]), atol=1e-8)

    def test_rank_one_bound_correlated_lower(self):
        res = project_pair(np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.0]))[1]
        np.testing.assert_allclose(
            res.covariance, np.array([[2.0, 1.0], [1.0, 1.0]]), atol=1e-8
        )

    def test_dominating_lower_bound_forces_itself(self):
        res = project_pair(2.0 * np.eye(2), np.eye(2))[1]
        np.testing.assert_allclose(res.covariance, 2.0 * np.eye(2), atol=1e-10)
        assert res.distance_sq == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0) ** 2, abs=1e-10)

    def test_zero_target(self):
        rng = np.random.default_rng(2)
        s = random_spd(rng, 3)
        res = project_pair(s, np.zeros((3, 3)))[1]
        np.testing.assert_allclose(res.covariance, s, atol=1e-12)


class TestFastPath:
    def test_commuting_applies(self):
        out = shared_correlation_fast_path(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        assert out is not None
        _, below, above = out
        np.testing.assert_allclose(below.covariance, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(above.covariance, 4.0 * np.eye(2), atol=1e-10)

    def test_scalar_multiple_applies(self):
        rng = np.random.default_rng(3)
        s = random_spd(rng, 3)
        out = shared_correlation_fast_path(0.25 * s, s)
        assert out is not None
        _, below, _ = out
        np.testing.assert_allclose(below.covariance, 0.25 * s, atol=1e-10)

    def test_two_dim_threshold(self):
        # in dimension 2 applicability is exactly a bound on the squared
        # correlation in terms of the contracted diagonal ratios
        rng = np.random.default_rng(4)
        checked_apply = checked_refuse = 0
        for _ in range(200):
            a, b = random_spd(rng, 2), random_spd(rng, 2)
            basis, corr, _, _ = conjugate_to_shared_correlation(a, b, psd_eigen(a))
            m_mu = np.diag(basis.T @ a @ basis)
            m_nu = np.diag(basis.T @ b @ basis)
            d_hat = np.minimum(1.0, np.sqrt(m_mu / m_nu))
            rho_sq = corr[0, 1] ** 2
            if np.allclose(d_hat, 1.0):
                expected = True
            else:
                bound = 1.0 - (d_hat[0] - d_hat[1]) ** 2 / (1.0 - d_hat[0] * d_hat[1]) ** 2
                margin = rho_sq - bound
                if abs(margin) < 1e-9:
                    continue  # skip knife-edge cases, both answers defensible
                expected = margin < 0
            out = shared_correlation_fast_path(a, b)
            assert (out is not None) == expected
            checked_apply += expected
            checked_refuse += not expected
        assert checked_apply > 10 and checked_refuse > 10


    def test_singular_pairs_give_none(self):
        # the shared-correlation path needs both covariances nonsingular
        rng = np.random.default_rng(27)
        pairs = [_rotated_disjoint_pair(1e6), _disjoint_rank_two_against_rank_one()]
        for _ in range(40):
            d = int(rng.integers(2, 6))
            scale = 10.0 ** rng.integers(-6, 7)
            mu_cov = random_psd_singular(rng, d, int(rng.integers(0, d)))
            nu_cov = random_spd(rng, d) if rng.uniform() < 0.5 else random_psd_singular(
                rng, d, int(rng.integers(0, d + 1))
            )
            pairs += [(scale * mu_cov, scale * nu_cov), (scale * nu_cov, scale * mu_cov)]
        for mu_cov, nu_cov in pairs:
            assert shared_correlation_fast_path(mu_cov, nu_cov) is None


class TestSingularReduction:
    def test_identity_lower(self):
        red = reduce_singular_above(np.diag([2.0, 0.0]), np.eye(2))
        assert red.rank == 1
        np.testing.assert_allclose(red.reduced_solution, [[2.0]], atol=1e-10)
        np.testing.assert_allclose(red.assembled, np.diag([2.0, 1.0]), atol=1e-8)

    def test_correlated_lower(self):
        red = reduce_singular_above(np.diag([2.0, 0.0]), np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(red.reduced_solution, [[2.0]], atol=1e-10)
        np.testing.assert_allclose(
            red.assembled, np.array([[2.0, 1.0], [1.0, 1.0]]), atol=1e-8
        )

    def test_embedding_keeps_lower_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d))
            nu_cov = random_psd_singular(rng, d, rank)
            mu_cov = random_spd(rng, d)
            red = reduce_singular_above(nu_cov, mu_cov)
            conj_mu = red.basis.T @ mu_cov @ red.basis
            conj_star = red.basis.T @ red.assembled @ red.basis
            r = red.rank
            np.testing.assert_allclose(conj_star[:r, :r], red.reduced_solution, atol=1e-8)
            np.testing.assert_allclose(conj_star[r:, :], conj_mu[r:, :], atol=1e-8)
            np.testing.assert_allclose(conj_star[:r, r:], conj_mu[:r, r:], atol=1e-8)
            # the spectral frame diagonalizes the bound with the kernel last
            conj_nu = red.basis.T @ nu_cov @ red.basis
            np.testing.assert_allclose(conj_nu, np.diag(np.diag(conj_nu)), atol=1e-10)
            assert np.all(np.diag(conj_nu)[:r] > 0)
            assert loewner_leq(mu_cov, red.assembled, 1e-7)


class TestUniqueness:
    def test_nondegenerate_counterexample(self):
        verdict = is_above_projection_unique(np.eye(2), np.diag([2.0, 0.0]))
        assert not verdict.unique

    def test_correlated_counterexample(self):
        verdict = is_above_projection_unique(
            np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.0])
        )
        assert not verdict.unique

    def test_saturation_clause(self):
        verdict = is_above_projection_unique(2.0 * np.eye(2), np.diag([1.0, 0.0]))
        assert verdict.unique
        assert "saturation" in verdict.reason

    def test_nonsingular_is_always_unique(self):
        rng = np.random.default_rng(6)
        verdict = is_above_projection_unique(random_spd(rng, 3), random_spd(rng, 3))
        assert verdict.unique
        assert "nonsingular" in verdict.reason

    def test_rank_preserving_clause(self):
        # lower bound supported inside the range of the target: the assembled
        # covariance keeps the target's rank
        verdict = is_above_projection_unique(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        assert verdict.unique


class TestDominance:
    def test_dominated_target(self):
        rng = np.random.default_rng(7)
        mu_cov = random_spd(rng, 3)
        nu_cov = mu_cov - 0.5 * random_spd(rng, 3, 0.1, 0.4)
        assert loewner_leq(nu_cov, mu_cov)
        assert dominance_check(mu_cov, nu_cov) is DominanceVerdict.SATURATED

    def test_zero_lower_nonzero_target(self):
        assert dominance_check(np.zeros((2, 2)), np.eye(2)) is DominanceVerdict.NEITHER

    def test_equal(self):
        rng = np.random.default_rng(8)
        s = random_spd(rng, 3)
        assert dominance_check(s, s) is DominanceVerdict.SATURATED


class TestRecoverBelow:
    # the descent route recovers the dominated side from the dominating one
    def test_from_exact_dominating_projection(self):
        below, _ = project_pair(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]), method="pgd")
        assert below.method == "pgd"
        np.testing.assert_allclose(below.covariance, np.eye(2), atol=1e-10)

    def test_trivial_case(self):
        # lower bound already dominated: the dominating projection is the
        # target itself and the recovered matrix is the lower bound
        below, _ = project_pair(np.eye(2), 2.0 * np.eye(2), method="pgd")
        np.testing.assert_allclose(below.covariance, np.eye(2), atol=1e-10)

    def test_distance_equality_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov, method="pgd")
            assert bw2(mu_cov, below.covariance) == pytest.approx(
                bw2(nu_cov, above.covariance), abs=1e-6
            )


class TestBruteForceOptimality:
    def test_no_sampled_feasible_point_beats_the_projections(self):
        # independent oracle: the claimed optima must win against random
        # feasible covariances drawn on both sides of the constraint
        rng = np.random.default_rng(22)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov)
            for _ in range(300):
                bump = rng.normal(size=(d, d)) * rng.uniform(0.0, 0.8)
                feasible_above = above.covariance + bump @ bump.T
                assert bw2(nu_cov, feasible_above) >= above.distance_sq - 1e-9
                shrink = rng.normal(size=(d, d)) * rng.uniform(0.0, 0.8)
                candidate = nu_cov - shrink @ shrink.T
                if np.linalg.eigvalsh(candidate)[0] < 0:
                    continue
                assert bw2(mu_cov, candidate) >= below.distance_sq - 1e-9

    def test_perturbations_of_the_optimum_do_not_improve(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov)
            for scale in (1e-3, 1e-2, 1e-1):
                for _ in range(100):
                    bump = rng.normal(size=(d, d)) * scale
                    candidate = above.covariance + bump @ bump.T
                    assert bw2(nu_cov, candidate) >= above.distance_sq - 1e-9


class TestSingularConfigurations:
    def test_singular_target_random_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            nu_cov = random_psd_singular(rng, d, int(rng.integers(1, d)))
            if rng.uniform() < 0.4:
                mu_cov = random_psd_singular(rng, d, int(rng.integers(1, d + 1)))
            else:
                mu_cov = random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov)
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            assert loewner_leq(below.covariance, nu_cov, tol)
            assert loewner_leq(mu_cov, above.covariance, tol)
            assert abs(
                np.trace(below.covariance) + np.trace(above.covariance)
                - np.trace(mu_cov) - np.trace(nu_cov)
            ) <= 1e-8
            red = reduce_singular_above(nu_cov, mu_cov)
            np.testing.assert_allclose(red.assembled, above.covariance, atol=1e-6)

    def test_singular_lower_with_definite_target(self):
        # a flat lower bound exercises the descent with the step floor
        rng = np.random.default_rng(20)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            nu_cov = random_spd(rng, d)
            mu_cov = random_psd_singular(rng, d, int(rng.integers(0, d)))
            below, above = project_pair(mu_cov, nu_cov)
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            assert loewner_leq(below.covariance, nu_cov, tol)
            assert loewner_leq(mu_cov, above.covariance, tol)

    def test_both_singular(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            nu_cov = random_psd_singular(rng, d, int(rng.integers(0, d + 1)))
            mu_cov = random_psd_singular(rng, d, int(rng.integers(0, d + 1)))
            below, above = project_pair(mu_cov, nu_cov)
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            assert loewner_leq(below.covariance, nu_cov, tol)
            assert loewner_leq(mu_cov, above.covariance, tol)


def _rotated_disjoint_pair(scale):
    # rotated diag(1, 0) against diag(0, 1): the ranges are disjoint, so
    # every product of the two covariances is roundoff at the pair's scale
    theta = 0.2690747942844946
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return scale * q @ np.diag([1.0, 0.0]) @ q.T, scale * q @ np.diag([0.0, 1.0]) @ q.T


def _disjoint_rank_two_against_rank_one(scale=1e4):
    rng = np.random.default_rng(2)
    q = random_orthogonal(rng, 3)
    mu_cov = scale * (q[:, :2] * rng.uniform(0.2, 3.0, 2)) @ q[:, :2].T
    nu_cov = scale * rng.uniform(0.2, 3.0) * np.outer(q[:, 2], q[:, 2])
    return mu_cov, nu_cov


DISJOINT_PAIRS = {
    "rotated_2d_1e3": _rotated_disjoint_pair(1e3),
    "rotated_2d_1e6": _rotated_disjoint_pair(1e6),
    "rank2_vs_rank1_3d_1e4": _disjoint_rank_two_against_rank_one(),
}


class TestDisjointRangesAtScale:
    """Derived matrices (the reduced block of Smu, A^1/2 B A^1/2) are
    roundoff at the pair's scale here; they must be clamped, not rejected
    as non-PSD against their own tiny scale."""

    @pytest.mark.parametrize("name", sorted(DISJOINT_PAIRS))
    def test_projection_certifies(self, name):
        mu_cov, nu_cov = DISJOINT_PAIRS[name]
        below, above = project_pair(mu_cov, nu_cov)
        assert below.method == "singular_reduction"
        assert below.transform.certified
        scale = 1.0 + np.trace(mu_cov) + np.trace(nu_cov)
        assert abs(
            np.trace(below.covariance) + np.trace(above.covariance)
            - np.trace(mu_cov) - np.trace(nu_cov)
        ) <= 1e-8 * scale
        assert abs(
            bw2(mu_cov, below.covariance) - bw2(nu_cov, above.covariance)
        ) <= 1e-7 * scale
        assert is_above_projection_unique(mu_cov, nu_cov, above.reduction).reason
        assert is_above_projection_unique(mu_cov, nu_cov).reason

    # the cross term is sqrt of roundoff, about sqrt(eps) relative; on the
    # rotated pairs the sum of traces is twice the scale
    @pytest.mark.parametrize("name", sorted(DISJOINT_PAIRS))
    def test_bw2_is_the_sum_of_traces(self, name):
        mu_cov, nu_cov = DISJOINT_PAIRS[name]
        expected = np.trace(mu_cov) + np.trace(nu_cov)
        assert bw2(mu_cov, nu_cov) == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("name", sorted(DISJOINT_PAIRS))
    @pytest.mark.parametrize("command", ["project-gaussian", "check", "distance"])
    def test_cli_commands_succeed(self, name, command, tmp_path):
        mu_cov, nu_cov = DISJOINT_PAIRS[name]
        d = mu_cov.shape[0]
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": {"mean": [0.0] * d, "cov": mu_cov.tolist()},
            "nu": {"mean": [0.0] * d, "cov": nu_cov.tolist()},
        }))
        result = CliRunner().invoke(main, [command, str(problem)])
        assert result.exit_code == 0, result.output


class TestPairInvariants:
    def test_trace_identity_and_distance_equality(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            a, b = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(a, b)
            trace_residual = abs(
                np.trace(below.covariance) + np.trace(above.covariance)
                - np.trace(a) - np.trace(b)
            )
            assert trace_residual <= 1e-8
            assert bw2(a, below.covariance) == pytest.approx(
                bw2(b, above.covariance), abs=1e-8
            )
            assert bw2(a, below.covariance) == pytest.approx(below.distance_sq, abs=1e-8)

    def test_order(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            a, b = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(a, b)
            tol = 1e-7 * (1.0 + np.linalg.norm(b, 2))
            assert loewner_leq(below.covariance, b, tol)
            assert loewner_leq(a, above.covariance, tol)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            a, b = random_spd(rng, d), random_spd(rng, d)
            q = random_orthogonal(rng, d)
            below, above = project_pair(a, b)
            below_rot, above_rot = project_pair(q.T @ a @ q, q.T @ b @ q)
            np.testing.assert_allclose(
                q @ below_rot.covariance @ q.T, below.covariance, atol=1e-6
            )
            np.testing.assert_allclose(
                q @ above_rot.covariance @ q.T, above.covariance, atol=1e-6
            )

    def test_idempotence(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            d = int(rng.integers(1, 5))
            a, b = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(a, b)
            again_below = project_below(below.covariance, b)
            np.testing.assert_allclose(
                again_below.covariance, below.covariance, atol=1e-8
            )
            again_above = project_pair(a, above.covariance)[1]
            np.testing.assert_allclose(
                again_above.covariance, above.covariance, atol=1e-8
            )

    def test_residual_covariance_identity(self):
        # the displacement covariances of both optimal couplings coincide
        # whenever every transformed target diagonal is positive
        rng = np.random.default_rng(14)
        for _ in range(15):
            d = int(rng.integers(1, 5))
            a, b = random_spd(rng, d), random_spd(rng, d)
            below, _ = project_pair(a, b)
            t = below.transform
            contraction = t.basis @ np.diag(t.ratios) @ t.basis.T
            expansion = t.basis @ np.diag(1.0 / t.ratios) @ t.basis.T
            eye = np.eye(d)
            lhs = (eye - contraction) @ a @ (eye - contraction)
            rhs = (eye - expansion) @ b @ (eye - expansion)
            np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_commuting_closed_form(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            d = int(rng.integers(1, 7))
            a, b, q, av, bv = random_commuting_pair(rng, d)
            below, above = project_pair(a, b)
            np.testing.assert_allclose(
                below.covariance, q @ np.diag(np.minimum(av, bv)) @ q.T, atol=1e-9
            )
            np.testing.assert_allclose(
                above.covariance, q @ np.diag(np.maximum(av, bv)) @ q.T, atol=1e-9
            )
            expected = float(np.sum(np.clip(np.sqrt(av) - np.sqrt(bv), 0.0, None) ** 2))
            assert below.distance_sq == pytest.approx(expected, abs=1e-9)

    def test_nonexpansive_in_the_projected_argument(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            a, a2, b = random_spd(rng, d), random_spd(rng, d), random_spd(rng, d)
            i1 = project_below(a, b).covariance
            i2 = project_below(a2, b).covariance
            assert np.sqrt(bw2(i1, i2)) <= np.sqrt(bw2(a, a2)) + 1e-7

    def test_holder_bound_in_the_bounding_argument(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            a, b, b2 = random_spd(rng, d), random_spd(rng, d), random_spd(rng, d)
            i1 = project_below(a, b).covariance
            i2 = project_below(a, b2).covariance
            lhs = bw2(i1, i2)
            rhs = (np.sqrt(bw2(a, i1)) + np.sqrt(bw2(a, i2))) * np.sqrt(bw2(b, b2))
            assert lhs <= rhs + 1e-7

    def test_distance_lipschitz_bounds(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            a, a2, b, b2 = (random_spd(rng, d) for _ in range(4))
            below_1, above_1 = project_pair(a, b)
            below_2, above_2 = project_pair(a2, b2)
            slack = np.sqrt(bw2(a, a2)) + np.sqrt(bw2(b, b2)) + 1e-7
            assert abs(
                np.sqrt(bw2(a, below_1.covariance)) - np.sqrt(bw2(a2, below_2.covariance))
            ) <= slack
            assert abs(
                np.sqrt(bw2(b, above_1.covariance)) - np.sqrt(bw2(b2, above_2.covariance))
            ) <= slack


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts ``numpy.linalg.eigh``/``eigvalsh`` calls, one per call."""
    count = {"n": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            count["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    return count


class TestSpectralWork:
    """Each solve decomposes both covariances once; the ceilings below pin
    the eigensolves each route makes."""

    def test_commuting_pair(self, eigensolves):
        rng = np.random.default_rng(24)
        a, b, *_ = random_commuting_pair(rng, 4)
        below, _ = project_pair(a, b)
        assert below.method == "commuting"
        assert eigensolves["n"] <= 6

    def test_descent_route(self, eigensolves, monkeypatch):
        inside = {"eig": 0, "cone": 0}
        descend = gaussian.pgd_project_above
        cone = pgd.frobenius_project_above

        def counted_descent(*args, **kwargs):
            before = eigensolves["n"]
            result = descend(*args, **kwargs)
            inside["eig"] += eigensolves["n"] - before
            return result

        def counted_cone(*args, **kwargs):
            inside["cone"] += 1
            return cone(*args, **kwargs)

        monkeypatch.setattr(gaussian, "pgd_project_above", counted_descent)
        monkeypatch.setattr(pgd, "frobenius_project_above", counted_cone)
        rng = np.random.default_rng(25)
        for d in (3, 6, 9):
            eigensolves["n"] = inside["eig"] = inside["cone"] = 0
            below, _ = project_pair(random_spd(rng, d), random_spd(rng, d))
            assert below.method == "pgd"
            assert eigensolves["n"] - inside["eig"] <= 8
            # set-up decomposes both inputs once; each cone projection is
            # followed by one objective-and-gradient eigensolve
            assert inside["eig"] == 2 + 2 * inside["cone"]

    def test_singular_lower_with_definite_target(self, eigensolves, monkeypatch):
        # no shared-correlation attempt: the fast path needs both covariances
        # nonsingular; outside the descent remain the two decompositions, the
        # transport map (2) and the certificate
        inside = {"eig": 0}
        descend = gaussian.pgd_project_above

        def counted_descent(*args, **kwargs):
            before = eigensolves["n"]
            result = descend(*args, **kwargs)
            inside["eig"] += eigensolves["n"] - before
            return result

        monkeypatch.setattr(gaussian, "pgd_project_above", counted_descent)
        rng = np.random.default_rng(26)
        for d in (3, 5, 7):
            eigensolves["n"] = inside["eig"] = 0
            below, _ = project_pair(random_psd_singular(rng, d, d - 1), random_spd(rng, d))
            assert below.method == "pgd"
            assert eigensolves["n"] - inside["eig"] <= 5

    def test_fast_path_on_a_singular_lower_covariance(self, eigensolves):
        rng = np.random.default_rng(26)
        for d in (3, 5, 7):
            eigensolves["n"] = 0
            mu_cov, nu_cov = random_psd_singular(rng, d, d - 1), random_spd(rng, d)
            assert shared_correlation_fast_path(mu_cov, nu_cov) is None
            assert eigensolves["n"] <= 2

    def test_project_gaussian_on_a_singular_target(self, eigensolves, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 0.0]]},
        }))
        result = CliRunner().invoke(main, ["project-gaussian", str(problem)])
        assert result.exit_code == 0
        assert json.loads(result.output)["method"] == "singular_reduction"
        assert eigensolves["n"] <= 19
