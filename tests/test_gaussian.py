import json
import math
import types

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order import gaussian, linalg, measures, pgd
from convex_order.bures import bw2
from convex_order.cli import main
from convex_order.gaussian import CertificationError, project_pair
from convex_order.linalg import NotPsdError, loewner_gap, positive_part, sym
from convex_order.measures import GaussianMeasure
from _exact_gaussian import DISTANCE_FAMILIES, bound_maximum, distance_pairs
from _utils import (
    PAIR_NAMES,
    bw2_gradient,
    conventional_order,
    dense_saturated,
    descent_frame,
    eigen_convention,
    patch_everywhere,
    random_commuting_pair,
    random_orthogonal,
    random_psd_singular,
    random_spd,
    raw_descent,
    reduced_descent,
)


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
    assert loewner_gap(ratios[:, None] * m_mu * ratios[None, :], m_nu) >= -tol
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

    def test_full_rank_pair_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            project_pair(NAN_COV, np.eye(2))

    def test_singular_reduction_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            project_pair(np.eye(2), NAN_COV)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["cov_mu", "cov_nu"])
    def test_project_pair_names_the_non_finite_covariance(self, side, bad):
        pair = {"cov_mu": np.eye(3), "cov_nu": np.diag([2.0, 1.0, 0.0])}
        pair[side] = pair[side].copy()
        pair[side][1, 2] = bad
        with pytest.raises(ValueError, match=f"^{side} must be finite"):
            project_pair(pair["cov_mu"], pair["cov_nu"])


class TestShape:
    """Empty and non-square covariances are refused by shape at the boundary."""

    def test_project_pair_rejects_empty_covariances(self):
        with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
            project_pair(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_measure_rejects_empty_covariance(self):
        with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
            GaussianMeasure(np.zeros(0), np.zeros((0, 0)))

    def test_project_pair_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="^dimension mismatch$") as refused:
            project_pair(np.eye(2), np.eye(3))
        assert refused.type is ValueError

    def test_project_pair_rejects_non_square_covariance(self):
        with pytest.raises(ValueError, match=r"cov_nu .*shape \(2, 3\)"):
            project_pair(np.eye(2), np.ones((2, 3)))


class TestValidatedOnce:
    """Every public Gaussian call validates its pair through one record."""

    def test_reduction_rejects_a_non_psd_lower_covariance(self):
        with pytest.raises((NotPsdError, ValueError)):
            project_pair(np.diag([1.0, -1.0]), np.diag([2.0, 0.0]))

    @pytest.mark.parametrize("cov_mu, cov_nu", [
        (np.diag([1.0, -1.0]), np.eye(2)),
        (np.diag([1.0, np.nan]), np.eye(2)),
        (np.diag([1.0, -1.0]), np.diag([2.0, 0.0])),
    ])
    def test_uniqueness_rejects_an_invalid_pair(self, cov_mu, cov_nu):
        # the verdict comes only with a solve, which validates the pair first
        with pytest.raises((NotPsdError, ValueError)):
            project_pair(cov_mu, cov_nu)


def route_of(result):
    """A solve's route: its method and the rank of its target, ``full``,
    ``singular`` or ``zero``."""
    rank, d = result.diagnostics["rank_nu"], len(result.covariance)
    return result.method, "full" if rank == d else "zero" if rank == 0 else "singular"


EVERY_ROUTE = {("commuting", "zero"), ("commuting", "full"), ("commuting", "singular"),
               ("pgd", "full"), ("pgd", "singular")}


def sym_of(q, vals):
    """``q diag(vals) q'``, symmetrised."""
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def spd(rng, d, rank=None):
    """Covariance with eigenvalues drawn from [0.2, 3] (the benchmark's
    generator); ``rank`` zeroes the rest."""
    q = random_orthogonal(rng, d)[:, : rank or d]
    return sym_of(q, rng.uniform(0.2, 3.0, size=q.shape[1]))


def assert_diagnostics_in_caller_units(scaled, unit, c):
    """``scaled`` holds the diagnostics of the pair ``unit`` was solved on,
    dilated by ``c = 4^j``: those in covariance units (order residuals,
    descent objectives and their traces) are exactly ``c`` times the unit
    ones, and the rest are unchanged."""
    assert scaled.keys() == unit.keys()
    for key, value in unit.items():
        if key in ("order_residual", "pgd_objective"):
            assert scaled[key] == c * value, key
        elif key == "trace":
            assert scaled[key]["objective"] == [c * f for f in value["objective"]], key
            assert scaled[key]["grad_norm"] == value["grad_norm"], key
        elif key != "scale_exponent":
            assert scaled[key] == value, key


def dilation_pairs():
    """60 seeded pairs, d = 2..7: commuting, generic, and singular targets."""
    rng = np.random.default_rng(38)
    pairs = []
    for k in range(20):
        d = 2 + k % 6
        pairs.append(random_commuting_pair(rng, d)[:2])
        pairs.append((spd(rng, d), spd(rng, d)))
        pairs.append((spd(rng, d), spd(rng, d, rank=1 + k % (d - 1))))
    return pairs


class TestUnitScale:
    """Each call solves its pair divided by the power of four that brings
    the larger top eigenvalue into [1, 4), and multiplies the outputs back."""

    def test_dilations_by_powers_of_four_are_exact(self):
        pairs = []
        for d in range(2, 9):
            rng = np.random.default_rng([12, d])
            pairs.append((spd(rng, d), spd(rng, d)))
        for d in (2, 3, 4):
            rng = np.random.default_rng([13, d])
            pairs.append((spd(rng, d), spd(rng, d, rank=d - 1)))
        keys, routes = set(), set()
        for mu_cov, nu_cov in pairs:
            base = project_pair(mu_cov, nu_cov)
            base_t = base[0].transform
            keys |= base[0].diagnostics.keys()
            routes.add(route_of(base[0]))
            for j in range(-10, 11):
                c = math.ldexp(1.0, 2 * j)
                results = project_pair(c * mu_cov, c * nu_cov)
                t = results[0].transform
                assert results[0].method == base[0].method
                np.testing.assert_array_equal(t.basis, base_t.basis)
                np.testing.assert_array_equal(t.ratios, base_t.ratios)
                assert t.order_residual == c * base_t.order_residual
                for result, unit in zip(results, base):
                    np.testing.assert_array_equal(result.covariance, c * unit.covariance)
                    assert result.distance_sq == c * unit.distance_sq
                    assert_diagnostics_in_caller_units(result.diagnostics, unit.diagnostics, c)
                exponent = results[0].diagnostics["scale_exponent"]
                assert exponent == base[0].diagnostics["scale_exponent"] + j
                assert results[1].uniqueness == base[1].uniqueness
        # the rank-3 target at d = 4 descends on the block on its range
        assert {"pgd_objective", "pgd_residual", "trace", "iterations", "stop_reason",
                "rank_nu", "order_residual"} <= keys
        assert ("pgd", "singular") in routes

    @pytest.mark.parametrize("e", [-900, -520, 500, 900])
    def test_dilations_beyond_the_eigensolver_range_are_exact(self, e):
        # beyond about 1e146, and below about 1e-145, LAPACK rescales a
        # matrix by a factor that is not a power of two; the record's
        # eigensolves run at unit scale, so 2^e times a pair still gives
        # exactly 2^e times its answer
        c = math.ldexp(1.0, e)
        for mu_cov, nu_cov in dilation_pairs():
            base = project_pair(mu_cov, nu_cov)
            results = project_pair(c * mu_cov, c * nu_cov)
            assert results[0].method == base[0].method
            assert results[0].transform.order_residual == c * base[0].transform.order_residual
            for result, unit in zip(results, base):
                np.testing.assert_array_equal(result.covariance, c * unit.covariance)
                assert result.distance_sq == c * unit.distance_sq
            assert results[1].uniqueness.unique == base[1].uniqueness.unique

    def test_refused_certificate_reports_its_residual_in_caller_units(self, monkeypatch):
        # one descent iteration leaves this pair's transform uncertified
        monkeypatch.setattr(pgd, "MAX_ITER", 1)
        mu_cov, nu_cov = np.diag([2.5, 0.4]), np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(CertificationError) as unit:
            project_pair(mu_cov, nu_cov)
        residual = unit.value.transform.order_residual
        assert residual < 0.0 and not unit.value.transform.certified
        for j in (-6, -1, 1, 5):
            c = math.ldexp(1.0, 2 * j)
            with pytest.raises(CertificationError) as scaled:
                project_pair(c * mu_cov, c * nu_cov)
            assert scaled.value.transform.order_residual == c * residual, j

    def test_refused_candidate_on_a_singular_target_is_in_caller_units(self, monkeypatch):
        # a singular target's candidate is built and certified on the
        # solve's own record, so a refusal carries the d x d transform, as
        # on a full-rank target, and its residual in the caller's units
        monkeypatch.setattr(gaussian, "ORDER_REL", -1.0)
        mu_cov = np.array([[1.5, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.8]])
        nu_cov = np.diag([2.0, 1.0, 0.0])
        with pytest.raises(CertificationError) as unit:
            project_pair(mu_cov, nu_cov)
        transform = unit.value.transform
        assert transform.basis.shape == (3, 3) and transform.ratios.shape == (3,)
        assert not transform.certified
        np.testing.assert_allclose(transform.basis.T @ transform.basis, np.eye(3), atol=1e-12)
        # the kernel of the target completes the basis
        np.testing.assert_array_equal(transform.basis[:, 2], [0.0, 0.0, 1.0])
        basis, ratios = transform.basis, transform.ratios
        contracted = ratios[:, None] * (basis.T @ mu_cov @ basis) * ratios[None, :]
        gap = np.linalg.eigvalsh(basis.T @ nu_cov @ basis - contracted).min()
        assert transform.order_residual == pytest.approx(gap, abs=1e-12)
        c = math.ldexp(1.0, 10)
        with pytest.raises(CertificationError) as scaled:
            project_pair(c * mu_cov, c * nu_cov)
        assert scaled.value.transform.order_residual == c * transform.order_residual
        np.testing.assert_array_equal(scaled.value.transform.basis, basis)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6])
    def test_pairs_certify_at_every_scale(self, scale):
        for s in range(200):
            rng = np.random.default_rng([11, s])
            d = 2 + s % 7
            mu_cov, nu_cov = spd(rng, d), spd(rng, d)
            try:
                below, _ = project_pair(scale * mu_cov, scale * nu_cov)
            except CertificationError as exc:
                pytest.fail(f"pair {s} at scale {scale}: {exc}")
            assert below.transform.certified

    def test_reduction_and_commuting_leave_in_caller_units(self):
        mu_cov, nu_cov = 1e6 * np.eye(2), np.diag([2e6, 0.0])
        below, above = project_pair(mu_cov, nu_cov)
        assert above.method == "commuting" and above.diagnostics["rank_nu"] == 1
        assert above.diagnostics["scale_exponent"] == 10
        np.testing.assert_allclose(above.covariance, np.diag([2e6, 1e6]), rtol=1e-12)
        np.testing.assert_allclose(below.covariance, np.diag([1e6, 0.0]), rtol=1e-12)
        below, above = project_pair(4e6 * np.eye(2), 1e6 * np.eye(2))
        assert below.method == "commuting"
        np.testing.assert_allclose(below.covariance, 1e6 * np.eye(2), rtol=1e-12)
        np.testing.assert_allclose(above.covariance, 4e6 * np.eye(2), rtol=1e-12)
        assert below.distance_sq == pytest.approx(2e6, rel=1e-12)
        assert below.transform.order_residual == below.diagnostics["order_residual"]


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

    @pytest.mark.parametrize("multiple, certified", [(3.0, False), (0.3, True)])
    def test_certificate_refuses_a_residual_beyond_its_tolerance(self, multiple, certified):
        # the identity basis leaves Smu = [[1, e], [e, 1]] uncontracted under
        # Snu = I, so the order residual is -e: at 3x the tolerance it must
        # be refused, which a 10x looser certificate would not do
        tol = gaussian._decompose(np.eye(2), np.eye(2), PAIR_NAMES).order_tol
        e = multiple * tol
        pair = gaussian._decompose(np.array([[1.0, e], [e, 1.0]]), np.eye(2), PAIR_NAMES)
        assert pair.order_tol == tol
        transform, _ = gaussian._certify(pair, np.eye(2), pair.order_tol)
        assert transform.order_residual == pytest.approx(-e, rel=1e-6)
        assert transform.certified is certified


class TestProjectBelow:
    def test_already_dominated(self):
        res = project_pair(np.eye(2), 2.0 * np.eye(2))[0]
        np.testing.assert_allclose(res.covariance, np.eye(2), atol=1e-10)
        assert res.distance_sq == pytest.approx(0.0, abs=1e-12)

    def test_commuting_minimum(self):
        res = project_pair(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))[0]
        np.testing.assert_allclose(res.covariance, np.eye(2), atol=1e-10)
        assert res.distance_sq == pytest.approx(1.0, abs=1e-12)

    def test_singular_bound(self):
        # oracle: feasible set for the bound diag(2, 0) is {diag(a, 0), a in [0, 2]}
        # and the objective 2 + a - 2 sqrt(a) over it is minimized at a = 1
        res = project_pair(np.eye(2), np.diag([2.0, 0.0]))[0]
        np.testing.assert_allclose(res.covariance, np.diag([1.0, 0.0]), atol=1e-8)
        assert res.distance_sq == pytest.approx(1.0, abs=1e-10)

    def test_zero_bound(self):
        res = project_pair(np.eye(3), np.zeros((3, 3)))[0]
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


def full_rank_family(rng, k):
    """Full-rank pairs of five kinds, d = 2..8: random, commuting,
    block-diagonal in a rotated basis, cov_mu <= cov_nu, and cov_nu = T cov_mu T
    with a map T <= I."""
    d = 2 + k % 7
    kind = k % 5
    if kind == 0:
        return random_spd(rng, d), random_spd(rng, d)
    if kind == 1:
        return random_commuting_pair(rng, d)[:2]
    if kind == 2:
        q, split = random_orthogonal(rng, d), 1 + k % (d - 1)
        blocks = []
        for _ in range(2):
            m = np.zeros((d, d))
            m[:split, :split] = random_spd(rng, split)
            m[split:, split:] = random_spd(rng, d - split)
            blocks.append(q @ m @ q.T)
        return tuple(blocks)
    mu_cov = random_spd(rng, d)
    if kind == 3:
        return mu_cov, mu_cov + random_spd(rng, d, 0.0, 1.0)
    t = random_spd(rng, d, 0.1, 1.0)
    return mu_cov, t @ mu_cov @ t


def lower_bound(mu_cov, nu_cov, basis):
    """LB(O) = sum_i (sqrt((O'SmuO)_ii) - sqrt((O'SnuO)_ii))_+^2 for an
    orthogonal ``basis`` O, with negative roundoff diagonals read as zero."""
    mu_diag, nu_diag = (np.clip(np.diag(basis.T @ cov @ basis), 0.0, None)
                        for cov in (mu_cov, nu_cov))
    return float(np.sum(np.clip(np.sqrt(mu_diag) - np.sqrt(nu_diag), 0.0, None) ** 2))


class TestOptimalityOracle:
    """LB(O) bounds the squared distance from N(0, Smu) to the measures
    dominated by N(0, Snu) for every orthogonal O: each coordinate of O'X is
    dominated in 1-d by the same coordinate of O'Y, coupling costs add over
    coordinates, and the 1-d projection costs (sigma_mu - sigma_nu)_+^2.  The
    route's answer must lie on top of every such bound, and meet it at its
    own basis, whichever candidate the certificate accepted."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(-3, 3))
    def test_distance_is_the_bound_at_the_basis(self, d, seed, kind, power):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** power
        mu_cov = scale * random_spd(rng, d)
        nu_cov = scale * (random_psd_singular(rng, d, int(rng.integers(1, d))) if kind == 0
                          else random_spd(rng, d))
        below, above = project_pair(mu_cov, nu_cov)
        distance = below.distance_sq
        assert above.distance_sq == distance
        roundoff = 1e-12 * (np.trace(mu_cov) + np.trace(nu_cov))
        for _ in range(50):
            assert lower_bound(mu_cov, nu_cov, random_orthogonal(rng, d)) <= distance + roundoff
        unit = math.ldexp(1.0, 2 * below.diagnostics["scale_exponent"])
        at_basis = lower_bound(mu_cov, nu_cov, below.transform.basis)
        assert abs(at_basis - distance) <= gaussian.ORDER_REL * (unit + distance)


# the largest distance error against the angle oracle, over (1 + value):
# twice the largest over 2,000 pairs a family (default_rng([2027, family]))
DISTANCE_BOUNDS = {"full_rank": 6e-15, "commuting": 1.8e-15, "wide": 7e-13,
                   "wide_commuting": 2.4e-13, "rank_one_mu": 7.5e-14}


class TestDistanceOracle:
    """In d = 2 the distance is the maximum over one rotation angle of the
    paper's bound, which the oracle finds by a grid and golden section,
    sharing no code with the route or the certificate.  Singular targets
    are left out: the float matrix and the exactly singular one differ."""

    @pytest.mark.parametrize("family", DISTANCE_FAMILIES)
    def test_matches_the_bound_maximum(self, family):
        rng = np.random.default_rng([2027, DISTANCE_FAMILIES.index(family)])
        a, b = distance_pairs(rng, family, 200)
        reference = bound_maximum(a, b)
        distances = np.array([project_pair(x, y)[0].distance_sq for x, y in zip(a, b)])
        worst = float((np.abs(distances - reference) / (1.0 + reference)).max())
        assert worst <= DISTANCE_BOUNDS[family]


class TestCommuting:
    """The commuting case: cov_mu diagonal in the eigenbasis of cov_nu, which
    the pair record holds; that basis, ordered, is the only candidate tried
    before the descent."""

    def test_commuting_applies(self):
        below, above = project_pair(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        assert below.method == "commuting"
        np.testing.assert_allclose(below.covariance, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(above.covariance, 4.0 * np.eye(2), atol=1e-10)

    def test_scalar_multiple_applies(self):
        rng = np.random.default_rng(3)
        s = random_spd(rng, 3)
        below, _ = project_pair(0.25 * s, s)
        assert below.method == "commuting"
        np.testing.assert_allclose(below.covariance, 0.25 * s, atol=1e-10)

    @pytest.mark.parametrize("multiple, method", [(0.5, "commuting"), (2.0, "pgd")])
    def test_off_diagonal_bound_decides(self, multiple, method):
        # cov_nu is diagonal, so its eigenbasis is the identity, and at unit
        # scale (lambda_max = 3) the test's tolerance is tol =
        # CLOSED_FORM_REL * (1 + 3); cov_mu's off-diagonal has the Frobenius
        # norm sqrt(2) off, a multiple of tol at every dilation by 4^j
        tol = gaussian.CLOSED_FORM_REL * (1.0 + 3.0)
        off = multiple * tol / math.sqrt(2.0)
        for j in (-8, 0, 8):
            c = math.ldexp(1.0, 2 * j)
            below, _ = project_pair(c * np.array([[2.0, off], [off, 1.0]]),
                                    c * np.diag([3.0, 0.5]))
            assert below.method == method
            assert below.transform.certified

    def test_repeated_target_eigenvalue_takes_the_descent(self):
        # cov_nu has the eigenvalue 2 twice; cov_mu commutes with it, but is
        # diagonal only in a basis of that eigenspace that LAPACK need not
        # return, so the pair goes to the descent, which still finds the
        # commuting closed form
        q = random_orthogonal(np.random.default_rng(37), 3)
        r = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        mu_vals, nu_vals = np.array([3.0, 1.0, 0.5]), np.array([2.0, 2.0, 1.0])
        mu_cov, nu_cov = q @ r @ np.diag(mu_vals) @ r.T @ q.T, q @ np.diag(nu_vals) @ q.T
        below, above = project_pair(mu_cov, nu_cov)
        assert below.method == "pgd"
        basis = q @ r
        np.testing.assert_allclose(
            below.covariance, basis @ np.diag(np.minimum(mu_vals, nu_vals)) @ basis.T, atol=1e-7)
        np.testing.assert_allclose(
            above.covariance, basis @ np.diag(np.maximum(mu_vals, nu_vals)) @ basis.T, atol=1e-7)
        expected = float(np.sum(np.clip(np.sqrt(mu_vals) - np.sqrt(nu_vals), 0.0, None) ** 2))
        assert below.distance_sq == pytest.approx(expected, abs=1e-9)

    @staticmethod
    def assert_closed_form(results, q, a, b, bound):
        """Both sides and the distance within ``bound * (1 + tr a + tr b)``
        of the eigenwise closed form in the shared basis ``q``."""
        below, above = results
        scale = 1.0 + a.sum() + b.sum()
        distance = float(np.sum(np.clip(np.sqrt(a) - np.sqrt(b), 0.0, None) ** 2))
        for result, vals in ((below, np.minimum(a, b)), (above, np.maximum(a, b))):
            assert np.abs(result.covariance - (q * vals) @ q.T).max() <= bound * scale
            assert abs(result.distance_sq - distance) <= bound * scale

    def test_wide_spectra_take_it(self):
        # eigenvalues spread over seven decades: the commuting test reads
        # the off-diagonal in the certificate's units, where a correlation
        # bound refused 45 of these pairs and sent pair 179 to MAX_ITER
        rng = np.random.default_rng([77, 3])
        descents = []
        for _ in range(200):
            d = int(rng.integers(1, 9))
            a, b = 10.0 ** rng.uniform(-6, 1, d), 10.0 ** rng.uniform(-6, 1, d)
            q = random_orthogonal(rng, d)
            results = project_pair((q * a) @ q.T, (q * b) @ q.T)
            if results[0].method == "pgd":
                descents.append(results[0].diagnostics["iterations"])
            self.assert_closed_form(results, q, a, b, 5e-11)
        assert len(descents) <= 5 and max(descents, default=0) <= 10

    def test_zero_eigenvalues_take_it(self):
        # exactly commuting pairs with zero eigenvalues on either side, the
        # target's on its range block: no descent runs
        rng = np.random.default_rng(31)
        for _ in range(2000):
            d = int(rng.integers(2, 7))
            q = random_orthogonal(rng, d)
            a = rng.uniform(0.1, 4.0, d) * (rng.random(d) < 0.6)
            b = rng.uniform(0.1, 4.0, d) * (rng.random(d) < 0.7)
            results = project_pair((q * a) @ q.T, (q * b) @ q.T)
            assert results[0].method == "commuting"
            self.assert_closed_form(results, q, a, b, 1e-13)


class TestSingularReduction:
    """The dominating side on a singular target, read in the frame of
    numpy's eigendecomposition of the target (``reduced_descent``)."""

    @staticmethod
    def every_route():
        """Seeded pairs that take every route: each method on a full-rank
        and on a singular target, and a zero target."""
        rng = np.random.default_rng(38)
        cases = [(np.eye(2), np.zeros((2, 2))), (np.eye(2), np.diag([2.0, 0.0]))]
        cases += [full_rank_family(rng, k) for k in range(15)]
        cases += [(random_spd(rng, d), random_psd_singular(rng, d, d - 1)) for d in (3, 4, 5)]
        return cases

    @classmethod
    def assert_once_per_solve(cls, counter):
        routes = set()
        for mu_cov, nu_cov in cls.every_route():
            counter["n"] = 0
            below, _ = project_pair(mu_cov, nu_cov)
            assert counter["n"] == 1, below.method
            routes.add(route_of(below))
        assert routes == EVERY_ROUTE

    def test_each_solve_assembles_once(self, monkeypatch):
        # only the solve's own pair is assembled, whatever its route
        calls = {"n": 0}
        assemble = gaussian._assemble

        def counted(*args):
            calls["n"] += 1
            return assemble(*args)

        monkeypatch.setattr(gaussian, "_assemble", counted)
        self.assert_once_per_solve(calls)

    def test_each_solve_builds_one_record(self, monkeypatch):
        # a singular target's block is solved inside the solve's own record:
        # a second record would be a second, re-entrant route
        built = {"n": 0}

        class Counted(gaussian._Pair):
            def __init__(self, *args, **kwargs):
                built["n"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gaussian, "_Pair", Counted)
        self.assert_once_per_solve(built)

    def test_identity_lower(self):
        _, above = project_pair(np.eye(2), np.diag([2.0, 0.0]))
        assert above.diagnostics["rank_nu"] == 1
        rank, basis, _, _ = reduced_descent(np.eye(2), np.diag([2.0, 0.0]))
        assert rank == 1
        conj_star = basis.T @ above.covariance @ basis
        np.testing.assert_allclose(conj_star[:1, :1], [[2.0]], atol=1e-10)
        np.testing.assert_allclose(above.covariance, np.diag([2.0, 1.0]), atol=1e-8)

    def test_correlated_lower(self):
        mu_cov, nu_cov = np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.0])
        _, above = project_pair(mu_cov, nu_cov)
        _, basis, _, _ = reduced_descent(mu_cov, nu_cov)
        conj_star = basis.T @ above.covariance @ basis
        np.testing.assert_allclose(conj_star[:1, :1], [[2.0]], atol=1e-10)
        np.testing.assert_allclose(
            above.covariance, np.array([[2.0, 1.0], [1.0, 1.0]]), atol=1e-8
        )

    def test_embedding_keeps_lower_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rank = int(rng.integers(1, d))
            nu_cov = random_psd_singular(rng, d, rank)
            mu_cov = random_spd(rng, d)
            _, above = project_pair(mu_cov, nu_cov)
            r, basis, reduced_solution, _ = reduced_descent(mu_cov, nu_cov)
            assert r == rank == above.diagnostics["rank_nu"]
            conj_mu = basis.T @ mu_cov @ basis
            conj_star = basis.T @ above.covariance @ basis
            # the top block against the descent, within its stopping tolerance
            np.testing.assert_allclose(conj_star[:r, :r], reduced_solution, atol=1e-7)
            np.testing.assert_allclose(conj_star[r:, :], conj_mu[r:, :], atol=1e-8)
            np.testing.assert_allclose(conj_star[:r, r:], conj_mu[:r, r:], atol=1e-8)
            # the certified basis keeps the kernel of the bound last
            kernel = above.transform.basis[:, r:]
            np.testing.assert_allclose(nu_cov @ kernel, 0.0, atol=1e-10)
            assert loewner_gap(mu_cov, above.covariance) >= -1e-7


def verdict(mu_cov, nu_cov):
    """The uniqueness verdict a solve carries on its dominating side."""
    return project_pair(mu_cov, nu_cov)[1].uniqueness


class TestUniqueness:
    def test_nondegenerate_counterexample(self):
        assert verdict(np.eye(2), np.diag([2.0, 0.0])).unique is False

    def test_correlated_counterexample(self):
        assert verdict(np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.0])).unique is False

    def test_saturation_clause(self):
        found = verdict(2.0 * np.eye(2), np.diag([1.0, 0.0]))
        assert found.unique is True
        assert "saturation" in found.reason

    def test_nonsingular_is_always_unique(self):
        rng = np.random.default_rng(6)
        found = verdict(random_spd(rng, 3), random_spd(rng, 3))
        assert found.unique is True
        assert "nonsingular" in found.reason

    def test_rank_preserving_clause(self):
        # lower bound supported inside the range of the target: the assembled
        # covariance keeps the target's rank
        assert verdict(np.diag([1.0, 0.0]), np.diag([2.0, 0.0])).unique is True


class TestRankAmbiguity:
    """An eigenvalue within a factor RANK_BAND of a rank cutoff leaves the
    verdict open (``unique is None``), with the reason, and the solve
    still answers."""

    # the target's 2^-48 is its rank cutoff; the second pair's target is
    # clear of the band, but mu's 2^-48 reaches the assembled projection
    PAIRS = {
        "target": (np.eye(2), np.diag([2.0, 2.0**-48])),
        "assembled": (np.diag([1.0, 2.0**-48]), np.diag([2.0, 0.0])),
    }

    @pytest.mark.parametrize("side", sorted(PAIRS))
    def test_verdict_is_open(self, side):
        mu_cov, nu_cov = self.PAIRS[side]
        below, above = project_pair(mu_cov, nu_cov)
        assert route_of(above) == ("commuting", "singular")
        assert above.uniqueness.unique is None
        assert below.uniqueness == above.uniqueness
        name = "dominating-side covariance" if side == "target" else "assembled projection"
        assert name in above.uniqueness.reason
        assert above.uniqueness.reason.endswith("; refusing to classify")
        assert above.transform.certified

    @pytest.mark.parametrize("side", sorted(PAIRS))
    def test_cutoff_is_printed_in_caller_units(self, side):
        # the unit-scale cutoff is 2^-48; dilated by 4^5 it reads 2^-38
        mu_cov, nu_cov = self.PAIRS[side]
        c = 4.0**5
        _, above = project_pair(c * mu_cov, c * nu_cov)
        assert above.diagnostics["scale_exponent"] == 5
        assert above.uniqueness.unique is None
        assert f"rank cutoff {2.0**-38:.3e};" in above.uniqueness.reason


    @pytest.mark.parametrize("factor, open_", [(5.0, True), (0.2, True),
                                                (20.0, False), (0.05, False)])
    def test_band_reaches_a_factor_of_ten_each_way(self, monkeypatch, factor, open_):
        # diagonal pairs: the commuting basis answers (a full-rank target)
        # or the commuting basis of the target's range does, and no descent runs
        def no_descent(*args):
            raise AssertionError("the descent ran")

        monkeypatch.setattr(gaussian, "pgd_project_above", no_descent)
        _, above = project_pair(np.eye(2), np.diag([2.0, factor * 2.0**-48]))
        assert above.transform.certified
        if open_:
            assert above.uniqueness.unique is None
            assert "within a factor 10.0 of the rank cutoff" in above.uniqueness.reason
        else:
            assert above.uniqueness.unique is not None
            assert "refusing to classify" not in above.uniqueness.reason


def saturated(mu_cov, nu_cov):
    return gaussian._saturated(gaussian._decompose(mu_cov, nu_cov, PAIR_NAMES))


class TestDominance:
    def test_dominated_target(self):
        rng = np.random.default_rng(7)
        mu_cov = random_spd(rng, 3)
        nu_cov = mu_cov - 0.5 * random_spd(rng, 3, 0.1, 0.4)
        assert loewner_gap(nu_cov, mu_cov) >= -1e-10
        assert saturated(mu_cov, nu_cov)

    def test_zero_lower_nonzero_target(self):
        assert not saturated(np.zeros((2, 2)), np.eye(2))

    def test_equal(self):
        rng = np.random.default_rng(8)
        s = random_spd(rng, 3)
        assert saturated(s, s)

    def test_agrees_with_the_dense_reference(self):
        # criterion 10's dominated pairs and zero counterexample, then
        # singular targets (the only pairs a verdict asks about), on which
        # the test goes both ways
        rng = np.random.default_rng(1010)
        pairs = []
        for _ in range(200):
            d = int(rng.integers(1, 6))
            nu_cov = random_spd(rng, d)
            pairs.append((nu_cov + random_spd(rng, d, 0.0, 2.0), nu_cov))
        pairs.append((np.zeros((2, 2)), np.eye(2)))
        rng = np.random.default_rng(5)
        for _ in range(1500):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d))
            pairs.append((spd(rng, d), spd(rng, d, rank=rank)))
        records = [gaussian._decompose(mu_cov, nu_cov, PAIR_NAMES) for mu_cov, nu_cov in pairs]
        verdicts = [gaussian._saturated(pair) for pair in records]
        assert verdicts == [dense_saturated(pair) for pair in records]
        assert all(verdicts[:200]) and not verdicts[200]
        assert 100 < sum(verdicts[201:]) < 1400


class TestRecoverBelow:
    # the descent route recovers the dominated side from the dominating one,
    # on pairs that do not commute

    def test_from_exact_dominating_projection(self):
        # Snu = T Smu T with T <= I, the optimal map from mu onto nu: the
        # dominating projection is Smu and the dominated one Snu itself
        mu_cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        t = np.array([[0.8, 0.1], [0.1, 0.5]])
        nu_cov = t @ mu_cov @ t
        below, above = project_pair(mu_cov, nu_cov)
        assert below.method == "pgd"
        np.testing.assert_allclose(above.covariance, mu_cov, atol=1e-10)
        np.testing.assert_allclose(below.covariance, nu_cov, atol=1e-10)

    def test_trivial_case(self):
        # lower bound already dominated: the dominating projection is the
        # target itself and the recovered matrix is the lower bound
        mu_cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        nu_cov = mu_cov + np.array([[0.2, -0.1], [-0.1, 0.4]])
        below, _ = project_pair(mu_cov, nu_cov)
        assert below.method == "pgd"
        np.testing.assert_allclose(below.covariance, mu_cov, atol=1e-10)

    def test_distance_equality_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov)
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


class TestTensorisation:
    """Block-diagonal pairs conjugated by one orthogonal ``Q``: the
    projections of ``Q blkdiag(A1, A2) Q'`` are ``Q blkdiag(P1, P2) Q'``,
    built from the blocks' projections, and the squared distance is the sum
    of the blocks' (conditional Jensen gives the bound blockwise, and the
    product of the block solutions attains it).  An oracle that shares no
    code with the certificate or the assembly: a one-dimensional block is
    solved in closed form, so a change to either that every solve shares
    still breaks the identity."""

    @staticmethod
    def blkdiag(a, b):
        m = np.zeros((len(a) + len(b),) * 2)
        m[:len(a), :len(a)] = a
        m[len(a):, len(a):] = b
        return m

    @staticmethod
    def block_solution(a, b):
        """``(below, above, squared distance)`` of one block; in one
        dimension ``min(a, b)``, ``max(a, b)`` and ``(sqrt a - sqrt b)_+^2``."""
        if a.shape == (1, 1):
            x, y = float(a[0, 0]), float(b[0, 0])
            return (np.array([[min(x, y)]]), np.array([[max(x, y)]]),
                    max(math.sqrt(x) - math.sqrt(y), 0.0) ** 2)
        below, above = project_pair(a, b)
        return below.covariance, above.covariance, below.distance_sq

    def test_projections_are_the_blocks_projections(self):
        for s in range(120):
            rng = np.random.default_rng([8, s])
            dims = rng.integers(1, 6, size=2)
            blocks = [(random_spd(rng, d, 0.05, 5.0), random_spd(rng, d, 0.05, 5.0))
                      for d in dims]
            q = random_orthogonal(rng, int(dims.sum()))
            mu_cov = q @ self.blkdiag(blocks[0][0], blocks[1][0]) @ q.T
            nu_cov = q @ self.blkdiag(blocks[0][1], blocks[1][1]) @ q.T
            solved = project_pair(mu_cov, nu_cov)
            parts = [self.block_solution(a, b) for a, b in blocks]

            value = parts[0][2] + parts[1][2]
            assert abs(solved[0].distance_sq - value) <= 1e-12 * (1.0 + value), s
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            for side in (0, 1):
                expected = q @ self.blkdiag(parts[0][side], parts[1][side]) @ q.T
                assert np.abs(solved[side].covariance - expected).max() <= tol, (s, side)


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
            assert loewner_gap(below.covariance, nu_cov) >= -tol
            assert loewner_gap(mu_cov, above.covariance) >= -tol
            assert abs(
                np.trace(below.covariance) + np.trace(above.covariance)
                - np.trace(mu_cov) - np.trace(nu_cov)
            ) <= 1e-8
            *_, assembled = reduced_descent(mu_cov, nu_cov)
            np.testing.assert_allclose(assembled, above.covariance, atol=1e-6)

    def test_singular_lower_with_definite_target(self):
        # a flat lower bound: the descent's cone bound is singular
        rng = np.random.default_rng(20)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            nu_cov = random_spd(rng, d)
            mu_cov = random_psd_singular(rng, d, int(rng.integers(0, d)))
            below, above = project_pair(mu_cov, nu_cov)
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            assert loewner_gap(below.covariance, nu_cov) >= -tol
            assert loewner_gap(mu_cov, above.covariance) >= -tol

    def test_projections_are_continuous_at_a_singular_target(self):
        # the paper's first result: where the dominating-side projection onto
        # a singular target is unique, both projections are continuous in the
        # target, so moving it by eps I into the definite cone moves them by
        # o(1); sqrt(eps) relative bounds the worst pair by a factor 24
        kept = 0
        for s in range(60):
            rng = np.random.default_rng([21, s])
            d = 2 + s % 4
            mu_cov, nu_cov = spd(rng, d), spd(rng, d, rank=1 + s % (d - 1))
            singular = project_pair(mu_cov, nu_cov)
            if not singular[1].uniqueness.unique:
                continue
            kept += 1
            for eps in (1e-4, 1e-5, 1e-6, 1e-8, 1e-10):
                moved = project_pair(mu_cov, nu_cov + eps * np.eye(d))
                for at, near in zip(singular, moved):
                    distance = np.linalg.norm(near.covariance - at.covariance)
                    assert distance <= np.sqrt(eps) * np.linalg.norm(at.covariance), (s, eps)
        assert kept == 11

    def test_near_singular_targets_converge(self):
        # the same family at eps = 1e-8, every pair: the target's smallest
        # eigenvalues sit 1e8 below its largest, and the descent's steps,
        # set by that spectrum, still stop on the residual, in 539
        # iterations all told (about 42,000 when the first step and the
        # band came from a cruder bound, with 3 runs to MAX_ITER)
        eps = 1e-8
        reasons, iterations = [], 0
        for s in range(60):
            rng = np.random.default_rng([21, s])
            d = 2 + s % 4
            mu_cov, nu_cov = spd(rng, d), spd(rng, d, rank=1 + s % (d - 1))
            below, _ = project_pair(mu_cov, nu_cov + eps * np.eye(d))
            if below.method == "pgd":
                reasons.append(below.diagnostics["stop_reason"])
                iterations += below.diagnostics["iterations"]
        assert len(reasons) == 60
        assert "max_iter" not in reasons
        assert reasons.count("residual") >= 59
        assert iterations <= 600

    def test_both_singular(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            nu_cov = random_psd_singular(rng, d, int(rng.integers(0, d + 1)))
            mu_cov = random_psd_singular(rng, d, int(rng.integers(0, d + 1)))
            below, above = project_pair(mu_cov, nu_cov)
            tol = 1e-7 * (1.0 + np.linalg.norm(nu_cov, 2))
            assert loewner_gap(below.covariance, nu_cov) >= -tol
            assert loewner_gap(mu_cov, above.covariance) >= -tol


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
    """Derived matrices (the block of Smu on the range of Snu, A^1/2 B
    A^1/2) are roundoff at the pair's scale here; they must be read as they
    are or clamped, not rejected as non-PSD against their own tiny scale."""

    @pytest.mark.parametrize("name", sorted(DISJOINT_PAIRS))
    def test_projection_certifies(self, name):
        mu_cov, nu_cov = DISJOINT_PAIRS[name]
        below, above = project_pair(mu_cov, nu_cov)
        assert route_of(below)[1] == "singular"
        assert below.transform.certified
        scale = 1.0 + np.trace(mu_cov) + np.trace(nu_cov)
        assert abs(
            np.trace(below.covariance) + np.trace(above.covariance)
            - np.trace(mu_cov) - np.trace(nu_cov)
        ) <= 1e-8 * scale
        assert abs(
            bw2(mu_cov, below.covariance) - bw2(nu_cov, above.covariance)
        ) <= 1e-7 * scale
        assert above.uniqueness.reason
        assert below.uniqueness == above.uniqueness

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


READ_BACK_FAMILIES = ("disjoint", "commuting_zero", "singular_source", "singular_target")


def _read_back_pairs(family, count):
    """Seeded pairs, d = 2 to 6 at scales 1e-6 to 1e6, whose certified
    outputs hold exact zeros: disjoint ranges, commuting pairs with zero
    eigenvalues, and a singular source or target."""
    rng = np.random.default_rng([5, READ_BACK_FAMILIES.index(family)])
    pairs = []
    for _ in range(count):
        d = int(rng.integers(2, 7))
        q, r = random_orthogonal(rng, d), int(rng.integers(1, d))
        if family == "disjoint":
            a = sym_of(q[:, :r], rng.uniform(0.2, 3.0, r))
            b = sym_of(q[:, r:], rng.uniform(0.2, 3.0, d - r))
        elif family == "commuting_zero":
            a = sym_of(q, rng.uniform(0.2, 3.0, d) * (rng.random(d) < 0.7))
            b = sym_of(q, rng.uniform(0.2, 3.0, d) * (rng.random(d) < 0.7))
        elif family == "singular_source":
            a, b = sym_of(q[:, :r], rng.uniform(0.2, 3.0, r)), spd(rng, d)
        else:
            a, b = spd(rng, d), sym_of(q[:, :r], rng.uniform(0.2, 3.0, r))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        pairs.append((scale * a, scale * b))
    return pairs


class TestOutputsReadBack:
    """A certified projection is a covariance: ``GaussianMeasure`` and
    ``bw2`` read it as they read the caller's, as ``check`` does.  On
    disjoint ranges ``below`` was roundoff of either sign about a zero
    matrix, which the PSD test at its own scale refused."""

    @pytest.mark.parametrize("family", READ_BACK_FAMILIES)
    def test_outputs_pass_the_readers(self, family):
        for mu_cov, nu_cov in _read_back_pairs(family, 60):
            below, above = project_pair(mu_cov, nu_cov)
            for cov, source in ((below.covariance, mu_cov), (above.covariance, nu_cov)):
                GaussianMeasure(np.zeros(cov.shape[0]), cov)
                assert math.isfinite(bw2(source, cov)) and math.isfinite(bw2(cov, source))

    def test_check_passes_on_a_disjoint_range_problem(self, tmp_path):
        mu_cov, nu_cov = _read_back_pairs("disjoint", 1)[0]
        assert np.abs(project_pair(mu_cov, nu_cov)[0].covariance).max() == 0.0
        d = mu_cov.shape[0]
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": {"mean": [0.0] * d, "cov": mu_cov.tolist()},
            "nu": {"mean": [1.0] * d, "cov": nu_cov.tolist()},
        }))
        result = CliRunner().invoke(main, ["check", str(problem)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["passed"] is True

    @pytest.mark.parametrize("family", READ_BACK_FAMILIES)
    def test_reports_read_back_as_problems(self, family, tmp_path):
        # project-gaussian's below and above, as written, are the two
        # measures of a problem that check passes and distance measures
        runner, problem = CliRunner(), tmp_path / "p.json"
        for k, (mu_cov, nu_cov) in enumerate(_read_back_pairs(family, 20)):
            d = mu_cov.shape[0]
            problem.write_text(json.dumps({
                "mu": {"mean": [float(k)] * d, "cov": mu_cov.tolist()},
                "nu": {"mean": [-1.0] * d, "cov": nu_cov.tolist()},
            }))
            result = runner.invoke(main, ["project-gaussian", str(problem)])
            assert result.exit_code == 0, (k, result.output)
            report = json.loads(result.output)
            problem.write_text(json.dumps({
                name: {"mean": report[side]["mean"], "cov": report[side]["cov"]}
                for name, side in (("mu", "below"), ("nu", "above"))
            }))
            result = runner.invoke(main, ["check", str(problem)])
            assert result.exit_code == 0, (k, result.output)
            assert json.loads(result.output)["passed"] is True
            assert runner.invoke(main, ["distance", str(problem)]).exit_code == 0, k


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_identities_and_certificates_at_every_scale(self, data):
        # eigenvalues in [0.2, 3] under random rotations, an exactly zero tail
        # for nu (near-singular full-rank targets are left out: CHANGES.md,
        # FOUND), both times 4^j; the tolerances act at the unit scale 4^k
        d = data.draw(st.integers(2, 6))
        spectrum = st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d)
        mu_vals, nu_vals = np.array(data.draw(spectrum)), np.array(data.draw(spectrum))
        nu_vals[data.draw(st.integers(1, d)):] = 0.0
        c = math.ldexp(1.0, 2 * data.draw(st.integers(-10, 10)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mu_cov, nu_cov = (
            c * sym_of(random_orthogonal(rng, d), vals) for vals in (mu_vals, nu_vals)
        )
        below, above = project_pair(mu_cov, nu_cov)
        unit = math.ldexp(1.0, 2 * below.diagnostics["scale_exponent"])
        traces = np.trace(mu_cov) + np.trace(nu_cov)
        assert abs(np.trace(below.covariance) + np.trace(above.covariance) - traces) <= (
            1e-8 * unit
        )
        # a singular target leaves roundoff under bw2's square root
        slack = 1e-8 * unit if nu_vals[-1] > 0.0 else 1e-7 * (unit + traces)
        assert abs(bw2(mu_cov, below.covariance) - bw2(nu_cov, above.covariance)) <= slack
        order_tol = gaussian.ORDER_REL * (unit + np.linalg.norm(nu_cov, 2))
        assert loewner_gap(below.covariance, nu_cov) >= -order_tol
        assert loewner_gap(mu_cov, above.covariance) >= -order_tol

    def test_order(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            a, b = random_spd(rng, d), random_spd(rng, d)
            below, above = project_pair(a, b)
            tol = 1e-7 * (1.0 + np.linalg.norm(b, 2))
            assert loewner_gap(below.covariance, b) >= -tol
            assert loewner_gap(a, above.covariance) >= -tol

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
            again_below = project_pair(below.covariance, b)[0]
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
            i1 = project_pair(a, b)[0].covariance
            i2 = project_pair(a2, b)[0].covariance
            assert np.sqrt(bw2(i1, i2)) <= np.sqrt(bw2(a, a2)) + 1e-7

    def test_holder_bound_in_the_bounding_argument(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            a, b, b2 = random_spd(rng, d), random_spd(rng, d), random_spd(rng, d)
            i1 = project_pair(a, b)[0].covariance
            i2 = project_pair(a, b2)[0].covariance
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
    """Counts the LAPACK eigensolves made through ``linalg``'s one solver
    binding, one per call."""
    count = {"n": 0}
    solver = linalg._umath_linalg

    def counted(fn):
        def wrapper(*args, **kwargs):
            count["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(
        eigh_lo=counted(solver.eigh_lo), eigvalsh_lo=counted(solver.eigvalsh_lo)))
    return count


class TestEigenConvention:
    """Only bases that leave a call carry the eigen-convention (descending
    order, fixed signs); every other caller reads order-free quantities."""

    def test_no_caller_depends_on_the_order_or_signs(self, monkeypatch):
        rng = np.random.default_rng(29)
        pairs = [random_commuting_pair(rng, 3)[:2]]
        pairs += [(spd(rng, d), spd(rng, d)) for d in (2, 2, 2, 2, *range(3, 10))]
        pairs += [(spd(rng, d), spd(rng, d, rank=d - 1)) for d in range(2, 10)]
        pairs += [(spd(rng, d, rank=d - 1), spd(rng, d)) for d in (3, 5)]
        matrices = [random_spd(rng, d) for d in (2, 4, 6)]
        indefinite = [m - 1.5 * np.eye(m.shape[0]) for m in matrices]

        def answers():
            out = []
            for mu_cov, nu_cov in pairs:
                below, above = project_pair(mu_cov, nu_cov)
                work = below.diagnostics.get("iterations")
                out.append((route_of(below), work, below.covariance, above.covariance,
                            np.array([below.distance_sq])))
            out += [("positive_part", None, positive_part(m)) for m in indefinite]
            out += [("bw2", None, np.array([bw2(m, 2.0 * m + np.eye(m.shape[0]))]),
                     bw2_gradient(m, 2.0 * m + np.eye(m.shape[0]))) for m in matrices]
            return out

        reference = answers()
        eigen = linalg.clamped_eigen

        def scrambled(matrix):
            vals, vecs = eigen(matrix)
            flips = np.where(np.arange(vals.size) % 2 == 1, -1.0, 1.0)
            return vals[::-1].copy(), vecs[:, ::-1] * flips

        patch_everywhere(monkeypatch, "clamped_eigen", scrambled)
        assert all(m.clamped_eigen is scrambled for m in (linalg, pgd, gaussian))
        methods = set()
        for want, got in zip(reference, answers(), strict=True):
            assert got[:2] == want[:2]
            methods.add(want[0])
            for x, y in zip(got[2:], want[2:]):
                assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
        assert {("commuting", "full"), ("pgd", "full"), ("pgd", "singular")} <= methods

    def test_no_caller_depends_on_the_order_of_a_validated_spectrum(self, monkeypatch):
        # the validated spectra (the pair record's, which bw2 reads too, and
        # the measure's) come in LAPACK's ascending order; every caller must
        # read them with min and max, and order a basis itself before it
        # leaves the call
        rng = np.random.default_rng(31)
        pairs = [random_commuting_pair(rng, 3)[:2], (np.eye(2), np.diag([2.0, 0.0])),
                 (np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 0.0, 0.0]))]
        pairs += [(spd(rng, d), spd(rng, d)) for d in (2, 2, 2, 2, *range(3, 10))]
        pairs += [(spd(rng, d), spd(rng, d, rank=d - 1)) for d in range(2, 10)]
        pairs += [(spd(rng, d, rank=d - 1), spd(rng, d)) for d in (3, 5)]
        pairs += [(spd(rng, d, rank=1), spd(rng, d, rank=2)) for d in (3, 4)]
        matrices = [random_spd(rng, d) for d in (1, 2, 4, 6)]

        def spectrum(m):
            # the validated spectrum, in the caller's units
            _, vals, _, k = linalg._validated_eigh(m, "m")
            return np.ldexp(vals, 2 * k)

        def answers():
            out = []
            for mu_cov, nu_cov in pairs:
                below, above = project_pair(mu_cov, nu_cov)
                work = below.diagnostics.get("iterations")
                out.append((route_of(below), work, below.covariance, above.covariance,
                            np.array([below.distance_sq])))
                pair = gaussian._decompose(mu_cov, nu_cov, PAIR_NAMES)
                out.append(("dominance", gaussian._saturated(pair)))
                out.append(("unique", above.uniqueness.unique, above.uniqueness.reason))
            for m in matrices:
                other = 2.0 * m + np.eye(m.shape[0])
                outcome, _ = raw_descent(other, m)
                out.append(("pgd", outcome.iterations, outcome.covariance, outcome.gradient))
                out.append(("step", None, np.array([pgd._first_step(spectrum(other))])))
                out.append(("bw2", None, np.array([bw2(m, other)]), bw2_gradient(m, other)))
                out.append(("measure", None, GaussianMeasure(np.zeros(m.shape[0]), m).cov))
            return out

        reference = answers()
        validated = linalg._validated_eigh

        def reversed_and_flipped(*args):
            gated, vals, vecs, k = validated(*args)
            flips = np.where(np.arange(vals.size) % 2 == 1, -1.0, 1.0)
            return gated, vals[::-1].copy(), vecs[:, ::-1] * flips, k

        patch_everywhere(monkeypatch, "_validated_eigh", reversed_and_flipped)
        assert all(m._validated_eigh is reversed_and_flipped
                   for m in (linalg, gaussian, measures))
        for m in matrices:
            vals = linalg._validated_eigh(m, "m")[1]
            assert vals[0] >= vals[-1]  # handed over descending
        methods = set()
        for want, got in zip(reference, answers(), strict=True):
            head = 2 if isinstance(want[1], (int, bool, type(None))) else 1
            assert got[:head] == want[:head], want[0]
            methods.add(want[0])
            for x, y in zip(got[head:], want[head:], strict=True):
                if isinstance(y, np.ndarray):  # unit-scale outputs; a gradient ends near 0
                    assert np.linalg.norm(x - y) <= 1e-12 * (1.0 + np.linalg.norm(y)), want[0]
                else:
                    assert x == y, want[0]
        assert {("commuting", "full"), ("pgd", "full"), ("pgd", "singular")} <= methods

    def test_every_reported_basis_is_signed_by_the_convention(self):
        # linalg._ordered's rule: the first entry of each column above 1e-12
        # of its largest magnitude is positive; a singular target's basis
        # is built on the record, so its columns are signed there and not
        # on the range of the target
        rng = np.random.default_rng(41)
        pairs = [(np.eye(3), np.zeros((3, 3))), (np.eye(2), np.diag([2.0, 0.0]))]
        pairs += [random_commuting_pair(rng, d)[:2] for d in range(1, 7)]
        pairs += [(spd(rng, d), spd(rng, d)) for d in range(2, 9)]
        for k in range(60):
            d = 2 + k % 7
            nu_cov = spd(rng, d, rank=1 + k % (d - 1))
            pairs.append((spd(rng, d, rank=None if k % 4 else d - 1), nu_cov))
        for d in range(2, 7):
            q = random_orthogonal(rng, d)
            nu_vals = rng.uniform(0.2, 3.0, size=d)
            nu_vals[d // 2:] = 0.0
            pairs.append((sym_of(q, rng.uniform(0.2, 3.0, size=d)), sym_of(q, nu_vals)))
        routes = set()
        for mu_cov, nu_cov in pairs:
            below, above = project_pair(mu_cov, nu_cov)
            basis = below.transform.basis
            assert above.transform.basis is basis
            mags = np.abs(basis)
            for j in range(basis.shape[1]):
                lead = np.flatnonzero(mags[:, j] > 1e-12 * mags[:, j].max())[0]
                assert basis[lead, j] > 0.0, (below.method, j)
            routes.add(route_of(below))
        assert routes == EVERY_ROUTE


class TestValidatedSpectrum:
    """``GaussianMeasure`` validates in LAPACK's order what the descending
    check on its spectrum, at the matrix's own unit scale, rejected."""

    @staticmethod
    def unit_scale(matrix):
        # 4^k with the largest |entry| of the matrix in [4^k, 4^(k+1))
        return 4.0 ** ((math.frexp(float(np.abs(matrix).max()))[1] - 1) // 2)

    @classmethod
    def descending_rejects(cls, matrix):
        # the check as it stood on the descending spectrum of the matrix,
        # moved to its own unit scale
        m = 0.5 * (matrix + matrix.T)
        vals = np.sort(np.linalg.eigh(m / cls.unit_scale(m))[0])[::-1]
        scale = 1.0 + float(np.abs(vals).max())
        return bool(vals[-1] < -linalg.EIG_TOL * scale)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.floats(0.5, 2.0),
           st.integers(-10, 10), st.booleans())
    def test_rejects_where_the_descending_check_did(self, d, seed, factor, power, negative_top):
        # the smallest eigenvalue sits around the slack at the unit scale of
        # the rest of the matrix, whose eigenvalues lie in (0, 4^power) or,
        # off the powers of four, in (0, 1e-3 * 4^power)
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 1.0, size=d) * 4.0**power
        if negative_top:
            vals[1:] *= 1e-3
        vals[0] = 0.0
        q = random_orthogonal(rng, d)
        unit = self.unit_scale((q * vals) @ q.T) if d > 1 else 4.0**power
        vals[0] = -factor * linalg.EIG_TOL * (1.0 + float(vals.max()) / unit) * unit
        matrix = (q * vals) @ q.T
        if self.descending_rejects(matrix):
            with pytest.raises(NotPsdError):
                GaussianMeasure(np.zeros(d), matrix)
        else:
            measure = GaussianMeasure(np.zeros(d), matrix)
            np.testing.assert_array_equal(measure.cov, 0.5 * (matrix + matrix.T))

    def test_reads_are_order_free(self):
        # the first step reads the extremes of the target's spectrum, in any order
        rng = np.random.default_rng(32)
        for d in (2, 5, 8):
            vals = linalg.clamped_eigen(sym(random_spd(rng, d)))[0]
            ascending = pgd._first_step(vals)
            assert pgd._first_step(vals[::-1].copy()) == ascending
            assert pgd._first_step(rng.permutation(vals)) == ascending


class TestTransportMapBasis:
    """The descent's basis is the eigenbasis of the transport map, taken
    from the Bures gradient that the solve already holds; the commuting
    route, and every route's kernel columns on a singular target, take the
    ordered eigenbasis of the target."""

    @staticmethod
    def old_map_basis(fixed, cov):
        # F^-1/2 (F^1/2 S F^1/2)^1/2 F^-1/2, the map from N(0, F) onto
        # N(0, S); its eigenbasis in the eigen-convention, from numpy alone
        vals, vecs = np.linalg.eigh(fixed)
        half = (vecs * np.sqrt(vals)) @ vecs.T
        inv_half = (vecs / np.sqrt(vals)) @ vecs.T
        mid_vals, mid_vecs = np.linalg.eigh(half @ cov @ half)
        middle = (mid_vecs * np.sqrt(np.clip(mid_vals, 0.0, None))) @ mid_vecs.T
        return eigen_convention(inv_half @ middle @ inv_half)

    def test_descent_basis_matches_the_old_map(self):
        rng = np.random.default_rng(33)
        compared = 0
        for k in range(60):
            d = 2 + k % 9
            mu_cov = random_spd(rng, d) if k % 3 else random_psd_singular(rng, d, d - 1)
            nu_cov = random_spd(rng, d)
            below, above = project_pair(mu_cov, nu_cov)
            if below.method != "pgd":
                continue
            compared += self.assert_matches_where_separated(
                nu_cov, above.covariance, below.transform.basis)
        assert compared > 150

    @classmethod
    def assert_matches_where_separated(cls, fixed, cov, basis):
        t, ref = cls.old_map_basis(fixed, cov)
        gaps = np.abs(np.diff(t)) > 1e-6 * np.abs(t).max()
        separated = np.concatenate(([True], gaps)) & np.concatenate((gaps, [True]))
        np.testing.assert_allclose(basis[:, separated], ref[:, separated], rtol=0, atol=1e-8)
        return int(separated.sum())

    def test_commuting_basis_is_the_ordered_target_basis(self):
        # the record's eigenbasis of cov_nu, in the eigen-convention
        rng = np.random.default_rng(36)
        for k in range(40):
            d = 1 + k % 8
            scale = 4.0 ** int(rng.integers(-6, 7)) * (1.0 + k % 3)
            mu_cov, nu_cov, *_ = random_commuting_pair(rng, d)
            below, _ = project_pair(scale * mu_cov, scale * nu_cov)
            assert below.method == "commuting"
            assert np.array_equal(below.transform.basis, eigen_convention(scale * nu_cov)[1])

    def test_outcome_carries_the_last_gradient(self):
        rng = np.random.default_rng(34)
        for d in (2, 4, 7, 10):
            mu_cov, nu_cov = random_spd(rng, d), random_spd(rng, d)
            outcome, _ = raw_descent(nu_cov, mu_cov)
            expected = bw2_gradient(nu_cov, outcome.covariance)
            np.testing.assert_allclose(outcome.gradient, expected, rtol=0, atol=1e-12)

    def test_reduction_basis_is_the_ordered_target_basis(self):
        # ordered before the clamp, the kernel keeps the eigen-convention's
        # column order
        rng = np.random.default_rng(35)
        cases = [(np.eye(3), np.diag([2.0, 0.0, 0.0])), (np.eye(4), np.diag([0.0, 3.0, 0.0, 1.0]))]
        for k in range(120):
            d = 2 + k % 7
            scale = 4.0 ** int(rng.integers(-6, 7)) * (1.0 + k % 3)
            nu_cov = scale * random_psd_singular(rng, d, 1 + k % (d - 1))
            cases.append((scale * random_spd(rng, d), nu_cov))
        for mu_cov, nu_cov in cases:
            _, above = project_pair(mu_cov, nu_cov)
            assert route_of(above)[1] == "singular"
            r = above.diagnostics["rank_nu"]
            assert np.array_equal(above.transform.basis[:, r:], eigen_convention(nu_cov)[1][:, r:])


class TestRecordDrivenDescent:
    """The descent reads the pair record's spectrum and its bound conjugated
    into the target's eigenbasis, which on a pair whose top eigenvalue lies
    in [1, 4) are a fresh decomposition's."""

    def test_matches_the_raw_descent_bit_for_bit(self, monkeypatch):
        records = []
        descend = gaussian.pgd_project_above

        def recording(*record):
            records.append((record, descend(*record)))
            return records[-1][1]

        monkeypatch.setattr(gaussian, "pgd_project_above", recording)
        rng = np.random.default_rng(39)
        compared = {"full": 0, "singular": 0}
        for k in range(48):
            d = 2 + k % 7
            mu_cov, nu_cov = spd(rng, d), spd(rng, d, rank=None if k % 2 else d - 1)
            records.clear()
            below, _ = project_pair(mu_cov, nu_cov)
            if below.diagnostics["scale_exponent"] != 0 or not records:
                continue
            (record, (outcome, trace)), = records
            if below.diagnostics["rank_nu"] == d:
                # the record holds the caller's pair in the target's eigenbasis
                nu_vals, _, lower = descent_frame(nu_cov, mu_cov)
                compared["full"] += 1
            else:
                # a singular target: its top spectrum, descending,
                # and the block of cov_mu on its ordered eigenvectors
                _, vals, vecs, k_nu = linalg._validated_eigh(nu_cov, "cov_nu")
                vals, vecs = conventional_order(np.ldexp(vals, 2 * k_nu), vecs)
                rank = below.diagnostics["rank_nu"]
                nu_vals = vals[:rank]
                lower = sym(vecs.T @ sym(mu_cov) @ vecs)[:rank, :rank]
                compared["singular"] += 1
            assert np.array_equal(record[0], nu_vals), k
            assert np.array_equal(record[1], lower), k
            fresh, fresh_trace = pgd.pgd_project_above(nu_vals, lower)
            for field in ("covariance", "gradient"):
                assert np.array_equal(getattr(outcome, field), getattr(fresh, field)), (k, field)
            assert outcome[1:6] == fresh[1:6], k  # objective, iterations, residual, stop
            assert trace == fresh_trace, k
        assert min(compared.values()) >= 10, compared


class TestSpectralWork:
    """Each solve decomposes both covariances once; the ceilings below pin
    the eigensolves each route makes."""

    def test_commuting_pair(self, eigensolves):
        rng = np.random.default_rng(24)
        a, b, *_ = random_commuting_pair(rng, 4)
        below, _ = project_pair(a, b)
        assert below.method == "commuting"
        # the pair (2) and the certificate; the commuting test conjugates
        # cov_mu into the record's basis of cov_nu, with no eigensolve
        assert eigensolves["n"] <= 3

    def test_one_ordering_per_certified_solve(self, monkeypatch):
        # the eigen-convention is paid once, by the basis that certifies:
        # the commuting test orders the target basis only once it passes
        calls = {"n": 0}
        ordered = linalg._ordered

        def counted(*args):
            calls["n"] += 1
            return ordered(*args)

        patch_everywhere(monkeypatch, "_ordered", counted)
        assert linalg._ordered is gaussian._ordered is counted
        rng = np.random.default_rng(28)
        cases = [random_commuting_pair(rng, d)[:2] for d in (1, 2, 4, 7)]
        cases += [(random_spd(rng, d), random_spd(rng, d)) for d in (2, 4, 7)]
        cases += [(random_psd_singular(rng, d, d - 1), random_spd(rng, d)) for d in (3, 5)]
        methods = set()
        for mu_cov, nu_cov in cases:
            calls["n"] = 0
            below, _ = project_pair(mu_cov, nu_cov)
            assert below.transform.certified
            assert calls["n"] == 1, below.method
            methods.add(below.method)
        assert methods == {"commuting", "pgd"}

    def test_descent_route(self, eigensolves, monkeypatch):
        inside = {"eig": 0, "cone": 0, "ordered": 0}
        descend = gaussian.pgd_project_above
        cone = pgd._project_above
        ordered = linalg._ordered
        conventions = {"n": 0}

        def counted_descent(*args, **kwargs):
            before, before_ordered = eigensolves["n"], conventions["n"]
            result = descend(*args, **kwargs)
            inside["eig"] += eigensolves["n"] - before
            inside["ordered"] += conventions["n"] - before_ordered
            return result

        def counted_ordered(*args, **kwargs):
            conventions["n"] += 1
            return ordered(*args, **kwargs)

        def counted_cone(*args, **kwargs):
            inside["cone"] += 1
            return cone(*args, **kwargs)

        monkeypatch.setattr(gaussian, "pgd_project_above", counted_descent)
        monkeypatch.setattr(pgd, "_project_above", counted_cone)
        patch_everywhere(monkeypatch, "_ordered", counted_ordered)
        rng = np.random.default_rng(25)
        for d in (3, 6, 9):
            eigensolves["n"] = inside["eig"] = inside["cone"] = inside["ordered"] = 0
            below, _ = project_pair(random_spd(rng, d), random_spd(rng, d))
            assert below.method == "pgd"
            # the pair (2), the basis from the descent's last gradient and
            # the certificate
            assert eigensolves["n"] - inside["eig"] <= 4
            # the descent reads the record's spectra; each cone projection
            # is followed by one objective-and-gradient eigensolve
            assert inside["eig"] == 2 * inside["cone"]
            # one cone projection and one objective per evaluation
            assert inside["eig"] == 2 * below.diagnostics["evaluations"]
            # no basis leaves the descent, so none pays for the eigen-convention
            assert inside["ordered"] == 0

    def test_singular_lower_with_definite_target(self, eigensolves, monkeypatch):
        # a singular cov_mu fails the commuting test, which costs no
        # eigensolve; outside the descent remain the two decompositions,
        # the basis from the descent's last gradient and the certificate
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
            assert eigensolves["n"] - inside["eig"] <= 4
            assert inside["eig"] == 2 * below.diagnostics["evaluations"]

    def test_descent_starts_after_the_pair_decompositions(self, eigensolves, monkeypatch):
        # a refused commuting test, or none on a singular cov_mu, costs no
        # eigensolve: the pair's two decompositions are all the work before
        # the descent
        before_descent = []
        descend = gaussian.pgd_project_above

        def counted_descent(*args, **kwargs):
            before_descent.append(eigensolves["n"])
            return descend(*args, **kwargs)

        monkeypatch.setattr(gaussian, "pgd_project_above", counted_descent)
        rng = np.random.default_rng(26)
        for d in (3, 5, 7):
            for mu_cov in (random_psd_singular(rng, d, d - 1), random_spd(rng, d)):
                eigensolves["n"] = 0
                assert project_pair(mu_cov, random_spd(rng, d))[0].method == "pgd"
        assert len(before_descent) == 6 and max(before_descent) <= 2

    def test_project_gaussian_on_a_singular_target(self, eigensolves, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 0.0]]},
        }))
        result = CliRunner().invoke(main, ["project-gaussian", str(problem)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert (report["method"], report["diagnostics"]["rank_nu"]) == ("commuting", 1)
        # two measures, the pair record (2), the certificate, and the
        # verdict's assembled rank and saturation test (3); the target's
        # range is solved inside the record, with no eigensolve of its own
        assert eigensolves["n"] <= 8

    def test_uniqueness_check(self, eigensolves):
        # a singular target's solve and verdict: its record (2), the one
        # certificate, and the verdict's assembled rank and saturation test
        # (3); the commuting test on the target's range reads a conjugate
        # of cov_mu, with no eigensolve
        below, above = project_pair(np.eye(2), np.diag([2.0, 0.0]))
        assert route_of(below) == ("commuting", "singular")
        assert above.uniqueness.unique is False
        assert eigensolves["n"] <= 6

    def test_every_descent_passes_through_the_traced_name(self, monkeypatch):
        # a benchmark tracer wraps this module global to count PGD
        # iterations; a descent that bypassed it would read as no work
        calls = {"n": 0}
        descend = gaussian.pgd_project_above

        def counted_descent(*args, **kwargs):
            calls["n"] += 1
            return descend(*args, **kwargs)

        monkeypatch.setattr(gaussian, "pgd_project_above", counted_descent)
        rng = np.random.default_rng(27)
        cases = [(random_spd(rng, d), random_spd(rng, d)) for d in (3, 5)]
        cases += [(random_spd(rng, d), random_psd_singular(rng, d, d - 1))
                  for d in (3, 4) for _ in range(2)]
        descents = 0
        for mu_cov, nu_cov in cases:
            calls["n"] = 0
            below, _ = project_pair(mu_cov, nu_cov)
            reported = int(below.method == "pgd")
            assert calls["n"] == reported
            descents += reported
        assert descents == len(cases)
