"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; every random stream is seeded.
"""

import time

import numpy as np
import pytest

from convex_order.bures import bw2
from convex_order.discrete import (
    barycentric_pushforward,
    solve_wot,
)
from convex_order import gaussian
from convex_order.gaussian import project_pair
from convex_order.linalg import loewner_leq, spd_sqrt
from convex_order.one_dim import project_1d_detail, w2_1d
from _utils import (
    bw2_gradient,
    frobenius_project_above,
    random_commuting_pair,
    random_discrete_1d,
    random_spd,
    random_symmetric,
    raw_descent,
    reduced_descent,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_01_singular_pair_reproduction():
    start = time.monotonic()
    cases = [
        (np.eye(2), np.diag([2.0, 0.0]), np.diag([2.0, 1.0])),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.0]),
         np.array([[2.0, 1.0], [1.0, 1.0]])),
    ]
    for mu_cov, nu_cov, expected_above in cases:
        below, above = project_pair(mu_cov, nu_cov)
        np.testing.assert_allclose(above.covariance, expected_above, atol=1e-8)

        # the same answer through descent on the reduced nonsingular block,
        # in the frame of numpy's eigendecomposition of the target
        *_, assembled = reduced_descent(mu_cov, nu_cov)
        np.testing.assert_allclose(assembled, expected_above, atol=1e-5)

        assert above.uniqueness.unique is False
        assert "non-Gaussian projections" in above.uniqueness.reason
        assert below.uniqueness == above.uniqueness
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 1 PASS: rank-deficient pair reproduction ({elapsed:.2f}s)")


def test_criterion_02_commuting_closed_form():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        mu_cov, nu_cov, basis, mu_vals, nu_vals = random_commuting_pair(rng, d)
        below, above = project_pair(mu_cov, nu_cov)
        np.testing.assert_allclose(
            below.covariance, basis @ np.diag(np.minimum(mu_vals, nu_vals)) @ basis.T,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            above.covariance, basis @ np.diag(np.maximum(mu_vals, nu_vals)) @ basis.T,
            atol=1e-9,
        )
        expected = float(np.sum(np.clip(np.sqrt(mu_vals) - np.sqrt(nu_vals), 0, None) ** 2))
        assert abs(bw2(mu_cov, below.covariance) - expected) <= 1e-9
    report("criterion 2 PASS: 100 commuting pairs match the eigenwise min/max forms")


def test_criterion_03_trace_identity_and_distance_equality():
    rng = np.random.default_rng(1003)
    worst_trace = worst_distance = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 7))
        mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
        below, above = project_pair(mu_cov, nu_cov)
        worst_trace = max(worst_trace, abs(
            np.trace(below.covariance) + np.trace(above.covariance)
            - np.trace(mu_cov) - np.trace(nu_cov)
        ))
        worst_distance = max(worst_distance, abs(
            bw2(mu_cov, below.covariance) - bw2(nu_cov, above.covariance)
        ))
    assert worst_trace <= 1e-8
    assert worst_distance <= 1e-8
    report(
        "criterion 3 PASS: 500 pairs, trace residual "
        f"{worst_trace:.2e}, distance residual {worst_distance:.2e}"
    )


def test_criterion_04_descent_matches_closed_form():
    # closed forms that need no route, 34 pairs of each kind: a commuting
    # pair's eigenwise maximum; Smu <= Snu, where the dominating projection
    # is Snu at distance 0 (and the dominated one Smu); and Snu = T Smu T for
    # a map T <= I, the optimal map from mu onto nu, where it is Smu at
    # W2^2 = tr((I - T) Smu (I - T)), the bound in the eigenbasis of T
    rng = np.random.default_rng(1004)
    worst_rel = worst_cov = 0.0
    for k in range(102):
        d = int(rng.integers(2, 6))
        if k % 3 == 0:
            mu_cov, nu_cov, q, mu_vals, nu_vals = random_commuting_pair(rng, d)
            closed_above = q @ np.diag(np.maximum(mu_vals, nu_vals)) @ q.T
            closed = float(np.sum(np.clip(np.sqrt(mu_vals) - np.sqrt(nu_vals), 0.0, None) ** 2))
            assert project_pair(mu_cov, nu_cov)[0].method == "commuting"
        elif k % 3 == 1:
            mu_cov = random_spd(rng, d)
            nu_cov = mu_cov + random_spd(rng, d, 0.0, 1.0)
            closed_above, closed = nu_cov, 0.0
            below, _ = project_pair(mu_cov, nu_cov)
            np.testing.assert_allclose(below.covariance, mu_cov, atol=1e-9)
            assert below.distance_sq == pytest.approx(0.0, abs=1e-12)
        else:
            mu_cov, t = random_spd(rng, d), random_spd(rng, d, 0.1, 1.0)
            nu_cov = t @ mu_cov @ t
            gap = np.eye(d) - t
            closed_above, closed = mu_cov, float(np.trace(gap @ mu_cov @ gap))
        outcome, trace = raw_descent(nu_cov, mu_cov)
        assert outcome.iterations <= 10_000
        worst_rel = max(worst_rel, abs(outcome.objective - closed) / (1.0 + closed))
        worst_cov = max(worst_cov, float(np.abs(outcome.covariance - closed_above).max()))
        objective = np.asarray(trace.objective)
        if objective.size > 1:
            assert float(np.max(np.diff(objective))) <= 1e-9
    assert worst_rel <= 1e-5
    assert worst_cov <= 1e-4
    report(f"criterion 4 PASS: 102 descent runs, worst relative objective gap {worst_rel:.2e}, "
           f"worst covariance entry {worst_cov:.2e}")


def test_criterion_05_gradient_finite_differences():
    rng = np.random.default_rng(1005)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        fixed = random_spd(rng, d)
        s = random_spd(rng, d)
        delta = random_symmetric(rng, d)
        delta /= np.linalg.norm(delta)
        analytic = float(np.sum(bw2_gradient(fixed, s) * delta))
        numeric = (bw2(fixed, s + h * delta) - bw2(fixed, s - h * delta)) / (2 * h)
        worst = max(worst, abs(numeric - analytic) / (1.0 + abs(analytic)))
    assert worst <= 1e-4
    report(f"criterion 5 PASS: 100 gradient checks, worst relative error {worst:.2e}")


def test_criterion_06_monotone_sqrt_and_convexity():
    rng = np.random.default_rng(1006)
    for _ in range(500):
        d = int(rng.integers(1, 7))
        m = random_spd(rng, d, 0.0, 3.0)
        n = m + random_spd(rng, d, 0.0, 2.0)
        assert loewner_leq(spd_sqrt(m), spd_sqrt(n), 1e-8)
    for _ in range(500):
        d = int(rng.integers(1, 7))
        ref = random_spd(rng, d)
        a, b = random_spd(rng, d), random_spd(rng, d)
        assert bw2(ref, 0.5 * (a + b)) <= 0.5 * (bw2(ref, a) + bw2(ref, b)) + 1e-8
    report("criterion 6 PASS: 500 square-root order checks and 500 midpoint checks")


def test_criterion_07_frobenius_cone_projections():
    rng = np.random.default_rng(1007)
    lower = random_spd(rng, 4)
    target = random_symmetric(rng, 4, 2.0)
    projected = frobenius_project_above(target, lower)
    assert loewner_leq(lower, projected, 1e-10)
    best = np.linalg.norm(target - projected)
    for _ in range(1000):
        feasible = lower + random_spd(rng, 4, 0.0, 2.0)
        assert best <= np.linalg.norm(target - feasible) + 1e-9
    report("criterion 7 PASS: cone projection above optimal")


def test_criterion_08_quantile_formula_versus_transport():
    rng = np.random.default_rng(1008)
    worst_w2 = worst_moment = worst_symmetry = 0.0
    for _ in range(200):
        mu = random_discrete_1d(rng, max_atoms=8)
        nu = random_discrete_1d(rng, max_atoms=8)
        detail = project_1d_detail(mu, nu)
        result = solve_wot(mu, nu, fw_tol=1e-13)
        pushed = barycentric_pushforward(result.coupling)
        worst_w2 = max(worst_w2, w2_1d(detail.below, pushed))
        worst_moment = max(worst_moment, abs(
            detail.below.second_moment() + detail.above.second_moment()
            - mu.second_moment() - nu.second_moment()
        ))
        worst_symmetry = max(
            worst_symmetry,
            abs(w2_1d(nu, detail.below) ** 2 - detail.cross_distance_sq),
            abs(w2_1d(mu, detail.above) ** 2 - detail.cross_distance_sq),
        )
    assert worst_w2 <= 1e-6
    assert worst_moment <= 1e-12
    assert worst_symmetry <= 1e-12
    report(
        "criterion 8 PASS: 200 pairs, formula vs transport "
        f"{worst_w2:.2e}, moment {worst_moment:.2e}, symmetry {worst_symmetry:.2e}"
    )


def test_criterion_09_regularity_certificates():
    rng = np.random.default_rng(1009)
    slack = 1e-7
    for _ in range(300):
        d = int(rng.integers(2, 5))
        mu_cov, mu2_cov, nu_cov, nu2_cov = (random_spd(rng, d) for _ in range(4))
        below_11, above_11 = project_pair(mu_cov, nu_cov)
        below_21, _ = project_pair(mu2_cov, nu_cov)
        below_12, _ = project_pair(mu_cov, nu2_cov)
        below_22, above_22 = project_pair(mu2_cov, nu2_cov)

        # non-expansiveness in the projected measure
        assert np.sqrt(bw2(below_11.covariance, below_21.covariance)) <= (
            np.sqrt(bw2(mu_cov, mu2_cov)) + slack
        )
        # 1/2-Holder modulus in the bounding measure
        lhs = bw2(below_11.covariance, below_12.covariance)
        rhs = (
            np.sqrt(bw2(mu_cov, below_11.covariance))
            + np.sqrt(bw2(mu_cov, below_12.covariance))
        ) * np.sqrt(bw2(nu_cov, nu2_cov))
        assert lhs <= rhs + slack
        # Lipschitz continuity of both projection distances
        budget = np.sqrt(bw2(mu_cov, mu2_cov)) + np.sqrt(bw2(nu_cov, nu2_cov)) + slack
        assert abs(
            np.sqrt(bw2(mu_cov, below_11.covariance))
            - np.sqrt(bw2(mu2_cov, below_22.covariance))
        ) <= budget
        assert abs(
            np.sqrt(bw2(nu_cov, above_11.covariance))
            - np.sqrt(bw2(nu2_cov, above_22.covariance))
        ) <= budget
    report("criterion 9 PASS: 300 quadruples satisfy all four regularity bounds")


def test_criterion_10_dominance_classifier():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        nu_cov = random_spd(rng, d)
        mu_cov = nu_cov + random_spd(rng, d, 0.0, 2.0)
        assert gaussian._saturated(gaussian._decompose(mu_cov, nu_cov))
        below = project_pair(mu_cov, nu_cov)[0]
        np.testing.assert_allclose(below.covariance, nu_cov, atol=1e-8)
    assert not gaussian._saturated(gaussian._decompose(np.zeros((2, 2)), np.eye(2)))
    report("criterion 10 PASS: 200 dominated pairs saturate; zero counterexample refused")
