import numpy as np
import pytest

from convex_order import pgd
from convex_order.bures import bw2
from convex_order.gaussian import project_pair
from convex_order.linalg import loewner_leq, positive_part, psd_eigen, sym
from convex_order.pgd import _default_step
from _utils import (
    frobenius_project_above,
    random_commuting_pair,
    random_spd,
    random_symmetric,
    raw_descent,
)

# Random d = 4 pair (eigenvalues uniform on [0.2, 3], Haar eigenbasis) on
# which a stop tested before backtracking ran to max_iter at 64x the
# default step.
D4_MU = np.array([
    [1.5378921525343272, 0.7132636896765547, -0.23220199096467684, -0.31254648644324035],
    [0.7132636896765547, 1.8839195363683416, 0.7397788902527065, -0.10910421171774322],
    [-0.23220199096467684, 0.7397788902527065, 2.2870978533467006, 0.1779163523134928],
    [-0.31254648644324035, -0.10910421171774322, 0.1779163523134928, 2.6077001448775454],
])
D4_NU = np.array([
    [1.6820841652009173, 0.21835787297595805, 0.23697820336675723, 0.2954449072905925],
    [0.21835787297595805, 1.3254957377898617, 0.09823165058226221, -0.29624822791214944],
    [0.23697820336675723, 0.09823165058226221, 1.7954147184331872, 0.10759729229529559],
    [0.2954449072905925, -0.29624822791214944, 0.10759729229529559, 1.2065316206175518],
])

# d = 10 pair of the same kind on which a stop at the projected-step
# residual came out too loose: the transform missed certification by -3.1e-6.
D10_MU = np.array([
    [2.0548376619877153, 0.12280391942535161, 0.06902706799552469, 0.4883250000987184,
     -0.18227501941627344, 0.022469936960220885, 0.3425077191201274, -0.2477801319465904,
     -0.08470623787639853, 0.1696310260028256],
    [0.12280391942535161, 1.8885600406335281, 0.007175126197223291, -0.16947501362880396,
     -0.1703066878001427, -0.02937482225259926, -0.19144236037399334, -0.12322092585021173,
     0.15212868636211474, 0.4013264273759438],
    [0.06902706799552469, 0.007175126197223291, 1.4466702494204393, 0.07729128227496915,
     -0.08026109940214267, 0.05798332894334467, 0.12889348077232454, -0.018083826310582404,
     0.0994402862920435, 0.043184359531289046],
    [0.4883250000987184, -0.16947501362880396, 0.07729128227496915, 1.897864327600241,
     0.05068207561893301, -0.07099387865953591, 0.37034949948505946, -0.11216819208555748,
     -0.33719360072640514, 0.042413444062704336],
    [-0.18227501941627344, -0.1703066878001427, -0.08026109940214267, 0.05068207561893301,
     1.7067466465350125, -0.037252104196197344, 0.12938885740004463, -0.031521199850325456,
     -0.41171016794138876, -0.2946989285979811],
    [0.022469936960220885, -0.02937482225259926, 0.05798332894334467, -0.07099387865953591,
     -0.037252104196197344, 1.688155473757453, 0.20903885304314263, -0.09971157440655104,
     0.3727391684495853, -0.1320205750273506],
    [0.3425077191201274, -0.19144236037399334, 0.12889348077232454, 0.37034949948505946,
     0.12938885740004463, 0.20903885304314263, 1.9305814211059074, -0.11763719545234524,
     0.0314892214608247, -0.032404501444632736],
    [-0.2477801319465904, -0.12322092585021173, -0.018083826310582404, -0.11216819208555748,
     -0.031521199850325456, -0.09971157440655104, -0.11763719545234524, 1.6915107648628342,
     -0.17019533363419959, 0.1356620885214983],
    [-0.08470623787639853, 0.15212868636211474, 0.0994402862920435, -0.33719360072640514,
     -0.41171016794138876, 0.3727391684495853, 0.0314892214608247, -0.17019533363419959,
     2.3181261903028414, -0.17992837401413553],
    [0.1696310260028256, 0.4013264273759438, 0.043184359531289046, 0.042413444062704336,
     -0.2946989285979811, -0.1320205750273506, -0.032404501444632736, 0.1356620885214983,
     -0.17992837401413553, 2.1273559206890154],
])
D10_NU = np.array([
    [1.6783655258977463, 0.352004841622957, -0.4431324884867134, -0.17078417666616347,
     -0.1333145954795072, -0.1246152664765468, 0.2610881945942271, -0.17628998567950233,
     0.12444594214498016, -0.20241153923607885],
    [0.352004841622957, 1.839173156243692, -0.14797145438411358, 0.6267988093189001,
     0.37820991456087705, -0.18832239531655376, 0.3475877263919237, -0.2425945448782474,
     -0.08618685330484557, -0.05479361596270872],
    [-0.4431324884867134, -0.14797145438411358, 1.742572164437821, -0.04304458758917034,
     -0.14000324503036551, -0.39042016983786093, 0.2255099914047514, -0.515933333673058,
     -0.536532146746056, 0.24155266225782313],
    [-0.17078417666616347, 0.6267988093189001, -0.04304458758917034, 1.0581797110953053,
     -0.01762075974858315, 0.2521457257189199, 0.36322746869075745, 0.3459281753570984,
     -0.017612741807247752, 0.19495166972416572],
    [-0.1333145954795072, 0.37820991456087705, -0.14000324503036551, -0.01762075974858315,
     1.252763781462839, 0.2656278584794278, 0.11840909526109625, 0.0622912562608038,
     -0.7070660918814566, 0.13161741676825317],
    [-0.1246152664765468, -0.18832239531655376, -0.39042016983786093, 0.2521457257189199,
     0.2656278584794278, 1.0587201158985076, 0.36078526921325704, 0.33299487198585237,
     0.12412289365897526, 0.23625975853594866],
    [0.2610881945942271, 0.3475877263919237, 0.2255099914047514, 0.36322746869075745,
     0.11840909526109625, 0.36078526921325704, 1.49876719042733, -0.10777791825939967,
     -0.3985479179405982, -0.03307541905965665],
    [-0.17628998567950233, -0.2425945448782474, -0.515933333673058, 0.3459281753570984,
     0.0622912562608038, 0.33299487198585237, -0.10777791825939967, 1.7013831101031982,
     -0.24170915542097018, -0.07816972132339015],
    [0.12444594214498016, -0.08618685330484557, -0.536532146746056, -0.017612741807247752,
     -0.7070660918814566, 0.12412289365897526, -0.3985479179405982, -0.24170915542097018,
     2.137430692101395, 0.27267963368347803],
    [-0.20241153923607885, -0.05479361596270872, 0.24155266225782313, 0.19495166972416572,
     0.13161741676825317, 0.23625975853594866, -0.03307541905965665, -0.07816972132339015,
     0.27267963368347803, 1.8898805030267185],
])


class TestFrobeniusAbove:
    def test_fixed_point_when_already_above(self):
        rng = np.random.default_rng(0)
        lower = random_spd(rng, 3)
        s = lower + random_spd(rng, 3, 0.0, 1.0)
        np.testing.assert_allclose(frobenius_project_above(s, lower), s, atol=1e-12)

    def test_zero_to_identity(self):
        np.testing.assert_allclose(
            frobenius_project_above(np.zeros((2, 2)), np.eye(2)), np.eye(2)
        )

    def test_mixed_diagonal(self):
        out = frobenius_project_above(np.diag([3.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([3.0, 1.0]), atol=1e-12)

    def test_symmetrises_raw_input(self):
        # the reference projects sym(matrix) above sym(lower), exactly
        # symmetric however asymmetric its input
        rng = np.random.default_rng(2)
        for d in (2, 3, 5, 8):
            matrix = rng.normal(size=(d, d))
            lower = random_spd(rng, d) + 1e-3 * rng.normal(size=(d, d))
            projected = frobenius_project_above(matrix, lower)
            assert not np.array_equal(matrix, matrix.T)
            assert np.array_equal(projected, projected.T)
            assert np.array_equal(projected, frobenius_project_above(sym(matrix), sym(lower)))
            assert loewner_leq(sym(lower), projected, 1e-10)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(1)
        d = 4
        lower = random_spd(rng, d)
        s = random_symmetric(rng, d, 2.0)
        projected = frobenius_project_above(s, lower)
        assert loewner_leq(lower, projected, 1e-10)
        best = np.linalg.norm(s - projected)
        for _ in range(300):
            feasible = lower + random_spd(rng, d, 0.0, 2.0)
            assert best <= np.linalg.norm(s - feasible) + 1e-9


class TestPgd:
    def test_dominated_lower_is_immediate(self):
        outcome, trace = raw_descent(2.0 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(outcome.covariance, 2.0 * np.eye(2), atol=1e-12)
        assert outcome.converged
        assert outcome.iterations <= 3

    def test_commuting_maximum(self):
        outcome, _ = raw_descent(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(outcome.covariance, np.diag([4.0, 4.0]), atol=1e-6)

    def test_matches_closed_form_when_available(self):
        # pairs whose dominating projection is known without a solve: a
        # commuting pair (the eigenwise maximum, which project_pair answers
        # without the descent) and b = t a t for a map t <= I (a itself, at
        # the squared distance tr((I - t) a (I - t)))
        rng = np.random.default_rng(5)
        for k in range(10):
            if k % 2 == 0:
                a, b, *_ = random_commuting_pair(rng, 3)
                _, above = project_pair(a, b)
                assert above.method == "commuting"
                closed, closed_cov = above.distance_sq, above.covariance
            else:
                a, t = random_spd(rng, 3), random_spd(rng, 3, 0.1, 1.0)
                b = t @ a @ t
                closed, closed_cov = float(np.trace((np.eye(3) - t) @ a @ (np.eye(3) - t))), a
            outcome, _ = raw_descent(b, a)
            assert abs(outcome.objective - closed) <= 1e-5 * (1.0 + closed)
            np.testing.assert_allclose(outcome.covariance, closed_cov, atol=1e-4)

    def test_objective_trace_is_non_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            a, b = random_spd(rng, d), random_spd(rng, d)
            _, trace = raw_descent(b, a)
            obj = np.asarray(trace.objective)
            if obj.size > 1:
                assert np.max(np.diff(obj)) <= 1e-9

    def test_iterates_stay_feasible(self, monkeypatch):
        # every candidate the descent evaluates, accepted or not, is a cone
        # projection and dominates the lower bound
        candidates = []
        project = pgd._project_above

        def recording(matrix, lower):
            candidates.append(project(matrix, lower))
            return candidates[-1]

        monkeypatch.setattr(pgd, "_project_above", recording)
        rng = np.random.default_rng(7)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        outcome, _ = raw_descent(b, a)
        assert len(candidates) > outcome.iterations
        assert all(loewner_leq(a, c, 1e-10) for c in candidates)
        assert loewner_leq(a, outcome.covariance, 1e-8)

    def test_singular_lower_bound_is_allowed(self):
        # only the descent target must be definite; the cone bound may be flat
        rng = np.random.default_rng(8)
        b = random_spd(rng, 3)
        a = np.zeros((3, 3))
        outcome, _ = raw_descent(b, a)
        np.testing.assert_allclose(outcome.covariance, b, atol=1e-8)

    def test_respects_max_iter(self, monkeypatch):
        # this pair needs 10 iterations to converge
        rng = np.random.default_rng(9)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        monkeypatch.setattr(pgd, "MAX_ITER", 4)
        outcome, trace = raw_descent(b, a)
        assert outcome.iterations <= 4
        assert len(trace.objective) <= 4
        assert outcome.stop_reason == "max_iter"

    def test_no_accepted_step_stops_as_stalled(self, monkeypatch):
        # without backtracks no candidate is tried, so none is accepted
        rng = np.random.default_rng(9)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        start, _ = raw_descent(b, a)
        monkeypatch.setattr(pgd, "MAX_BACKTRACKS", 0)
        outcome, trace = raw_descent(b, a)
        assert outcome.stop_reason == "stalled"
        assert not outcome.converged
        assert outcome.iterations == 1 and outcome.residual == np.inf
        assert trace.objective == trace.grad_norm == []
        assert loewner_leq(a, outcome.covariance, 1e-12)
        assert outcome.objective >= start.objective

    def test_rejects_nan_target(self):
        with pytest.raises(ValueError, match="finite"):
            raw_descent(np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_default_step_reuses_the_target_spectrum_bit_for_bit(self, monkeypatch):
        # the descent started from the step computed apart from it, from a
        # fresh eigensolve of the target, is the default descent
        rng = np.random.default_rng(12)
        for d in (2, 4, 7):
            mu, nu = random_spd(rng, d), random_spd(rng, d)
            reg = 1e-10 * float(np.trace(nu))
            step = _default_step(psd_eigen(sym(nu))[0], psd_eigen(mu)[0], reg)
            implicit, _ = raw_descent(nu, mu)
            with monkeypatch.context() as patch:
                patch.setattr(pgd, "_default_step", lambda *args: step)
                explicit, _ = raw_descent(nu, mu)
            assert np.array_equal(implicit.covariance, explicit.covariance)
            assert implicit.iterations == explicit.iterations

    def test_objective_value_matches_distance(self):
        rng = np.random.default_rng(10)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        outcome, _ = raw_descent(b, a)
        assert outcome.objective == pytest.approx(bw2(b, outcome.covariance), abs=1e-9)


class TestStoppingRule:
    def test_converges_for_any_initial_step(self, monkeypatch):
        objectives = []
        for factor in (1, 16, 64, 1024):
            monkeypatch.setattr(
                pgd, "_default_step", lambda *args, f=factor: f * _default_step(*args)
            )
            outcome, _ = raw_descent(D4_NU, D4_MU)
            assert outcome.stop_reason == "residual"
            assert outcome.iterations <= 50
            objectives.append(outcome.objective)
        assert max(objectives) - min(objectives) <= 1e-12

    def test_stop_is_tight_enough_to_certify(self):
        below, above = project_pair(D10_MU, D10_NU)
        assert below.method == "pgd"
        assert below.transform.certified
        assert below.diagnostics["pgd_converged"]
        assert loewner_leq(below.covariance, D10_NU, 1e-7)
        assert loewner_leq(D10_MU, above.covariance, 1e-7)


class TestAccuracy:
    def test_matches_a_tightly_converged_reference(self, monkeypatch):
        # the stop leaves each answer within 1e-7 of a descent run to a
        # tolerance 1e5 times tighter, and its gradient mapping at the fixed
        # initial step within the stop tolerance
        rng = np.random.default_rng(13)
        for k in range(30):
            d = 3 + k % 8
            mu, nu = random_spd(rng, d), sym(random_spd(rng, d))
            outcome, _ = raw_descent(nu, mu)
            with monkeypatch.context() as patch:
                patch.setattr(pgd, "RESIDUAL_TOL", 1e-13)
                reference, _ = raw_descent(nu, mu)
            s, ref = outcome.covariance, reference.covariance
            assert np.linalg.norm(s - ref) <= 1e-7 * np.linalg.norm(ref), k
            assert abs(outcome.objective - reference.objective) <= 1e-12 * abs(reference.objective), k
            eta0 = _default_step(psd_eigen(nu)[0], psd_eigen(mu)[0],
                                 pgd.REG_FACTOR * float(np.trace(nu)))
            _, grad = pgd._Objective(nu, psd_eigen(nu)).value_and_gradient(s)
            mapping = np.linalg.norm(s - frobenius_project_above(s - eta0 * grad, mu)) / eta0
            assert mapping <= pgd.RESIDUAL_TOL * (1.0 + np.linalg.norm(nu)), k


def public_projection(matrix, lower):
    """The descent's cone projection with both inputs symmetrised, as a
    projection of raw input makes it."""
    m = sym(matrix)
    return m + positive_part(sym(lower) - m)


class TestWork:
    def test_private_projection_changes_no_bit(self, monkeypatch):
        # the descent's iterates, steps and lower bound are exactly symmetric,
        # so symmetrising them again returns them bit for bit
        rng = np.random.default_rng(42)
        for d in range(3, 11):
            for _ in range(2):
                mu, nu = random_spd(rng, d), random_spd(rng, d)
                outcome, trace = raw_descent(nu, mu)
                with monkeypatch.context() as patch:
                    patch.setattr(pgd, "_project_above", public_projection)
                    reference, reference_trace = raw_descent(nu, mu)
                assert np.array_equal(outcome.covariance, reference.covariance)
                assert np.array_equal(outcome.gradient, reference.gradient)
                assert outcome.iterations == reference.iterations
                assert outcome.objective == reference.objective
                assert outcome.residual == reference.residual
                assert trace.objective == reference_trace.objective
                assert trace.grad_norm == reference_trace.grad_norm

    def test_cone_projections_on_a_seeded_set(self, monkeypatch):
        # each start and each evaluated candidate costs one cone projection
        # and one objective eigensolve; this set makes 284 projections
        cones = {"n": 0}
        project = pgd._project_above

        def counted_cone(matrix, lower):
            cones["n"] += 1
            return project(matrix, lower)

        monkeypatch.setattr(pgd, "_project_above", counted_cone)
        rng = np.random.default_rng(25)
        for d in range(3, 11):
            for _ in range(3):
                mu, nu = random_spd(rng, d), random_spd(rng, d)
                assert raw_descent(nu, mu)[0].stop_reason == "residual"
        assert 0 < cones["n"] <= 290
