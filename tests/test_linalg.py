import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order.linalg import (
    NotPsdError,
    cleaned_diag,
    conjugate_to_shared_correlation,
    loewner_leq,
    positive_part,
    psd_eigen,
    spd_sqrt,
    sym_eigen,
)
from _utils import random_orthogonal, random_spd, random_symmetric


class TestSymEigen:
    def test_identity(self):
        vals, vecs = sym_eigen(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0])
        np.testing.assert_allclose(vecs, np.eye(2))

    def test_already_diagonal(self):
        vals, vecs = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2))

    def test_two_by_two_eigenpairs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = sym_eigen(m)
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
        for k in range(2):
            np.testing.assert_allclose(m @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-12)

    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = random_symmetric(rng, int(rng.integers(2, 8)))
            vals, vecs = sym_eigen(m)
            assert np.all(np.diff(vals) <= 1e-12)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-10)
            for k in range(vecs.shape[1]):
                col = vecs[:, k]
                lead = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0][0]
                assert col[lead] > 0

    def test_sign_fix_matches_per_column_reference(self):
        # reference: the per-column loop the vectorised sign fix replaced
        def reference(m):
            vals, vecs = np.linalg.eigh(m)
            order = np.argsort(-vals, kind="stable")
            vals, vecs = vals[order].copy(), vecs[:, order].copy()
            for k in range(vecs.shape[1]):
                col = vecs[:, k]
                significant = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
                if significant.size and col[significant[0]] < 0.0:
                    vecs[:, k] = -col
            return vals, vecs

        rng = np.random.default_rng(11)
        block = np.zeros((5, 5))
        block[1:3, 1:3] = [[1.0, -2.0], [-2.0, 1.0]]
        block[4, 4] = -3.0
        cases = [block, -np.eye(3), np.array([[0.0, -1.0], [-1.0, 0.0]])]
        cases += [random_symmetric(rng, int(rng.integers(1, 9))) for _ in range(40)]
        for m in cases:
            vals, vecs = sym_eigen(m)
            ref_vals, ref_vecs = reference(m)
            np.testing.assert_array_equal(vals, ref_vals)
            np.testing.assert_array_equal(vecs, ref_vecs)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_symmetric(rng, 5)
            vals, vecs = sym_eigen(m)
            err = np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - m)
            assert err <= 1e-12 * (1.0 + np.linalg.norm(m))


class TestSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_recovers_input(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = spd_sqrt(m)
        np.testing.assert_allclose(s @ s, m, atol=1e-12)
        vals, _ = sym_eigen(s)
        np.testing.assert_allclose(vals, [np.sqrt(3.0), 1.0], atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_monotone_under_loewner_order(self):
        # sqrt preserves the matrix order
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            m = random_spd(rng, d)
            bump = random_spd(rng, d, 0.0, 1.0)
            n = m + bump
            assert loewner_leq(spd_sqrt(m), spd_sqrt(n), 1e-8)


class TestPositivePart:
    def test_diagonal(self):
        np.testing.assert_allclose(positive_part(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(4)
        m = random_spd(rng, 4)
        np.testing.assert_allclose(positive_part(m), m, atol=1e-12)

    def test_off_diagonal(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(positive_part(m), 0.5 * np.ones((2, 2)), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    def test_optimality_conditions(self, entries):
        m = np.asarray(entries).reshape(3, 3)
        m = 0.5 * (m + m.T)
        plus = positive_part(m)
        assert loewner_leq(np.zeros((3, 3)), plus, 1e-10)
        assert loewner_leq(m, plus, 1e-10)
        # complementarity: the positive part annihilates the residual
        assert np.linalg.norm(plus @ (plus - m)) <= 1e-10 * (1.0 + np.linalg.norm(m) ** 2)


class TestLoewner:
    def test_examples(self):
        assert loewner_leq(np.eye(2), 2.0 * np.eye(2))
        assert not loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
        assert loewner_leq(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


def _assert_shared(s1, s2, basis, corr, tol=1e-10):
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
    for s in (s1, s2):
        m = basis.T @ s @ basis
        scale = np.sqrt(cleaned_diag(m))
        np.testing.assert_allclose(np.outer(scale, scale) * corr, m, atol=tol)


def shared_correlation(s1, s2):
    basis, corr, _, _ = conjugate_to_shared_correlation(s1, s2, psd_eigen(s1))
    return basis, corr


class TestSharedCorrelation:
    def test_matrix_shares_its_own_correlation(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 3)
        basis, corr = shared_correlation(s, s)
        _assert_shared(s, s, basis, corr)

    def test_commuting_diagonals_give_identity_correlation(self):
        basis, corr = shared_correlation(np.diag([4.0, 1.0]), np.diag([1.0, 9.0]))
        np.testing.assert_allclose(corr, np.eye(2), atol=1e-12)
        _assert_shared(np.diag([4.0, 1.0]), np.diag([1.0, 9.0]), basis, corr)

    def test_identity_versus_correlated(self):
        s2 = np.array([[2.0, 1.0], [1.0, 2.0]])
        basis, corr = shared_correlation(np.eye(2), s2)
        np.testing.assert_allclose(corr, np.eye(2), atol=1e-10)
        _assert_shared(np.eye(2), s2, basis, corr)

    def test_random_pd_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            s1, s2 = random_spd(rng, d), random_spd(rng, d)
            basis, corr = shared_correlation(s1, s2)
            _assert_shared(s1, s2, basis, corr)
            # nonsingular first argument keeps every conjugated diagonal positive
            assert np.all(np.diag(basis.T @ s1 @ basis) > 0)
            vals, _ = psd_eigen(corr)
            assert vals[-1] >= -1e-10
            np.testing.assert_allclose(np.diag(corr), np.ones(d), atol=1e-12)

    def test_rotation_of_commuting_pair(self):
        rng = np.random.default_rng(8)
        q = random_orthogonal(rng, 3)
        s1 = q @ np.diag([3.0, 2.0, 1.0]) @ q.T
        s2 = q @ np.diag([1.0, 5.0, 2.0]) @ q.T
        basis, corr = shared_correlation(s1, s2)
        np.testing.assert_allclose(corr, np.eye(3), atol=1e-9)
        _assert_shared(s1, s2, basis, corr, tol=1e-9)
