import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order import GaussianMeasure, linalg, project_pair
from convex_order.bures import bw2
from convex_order.linalg import (
    NotPsdError,
    loewner_gap,
    loewner_leq,
    positive_diag_mask,
    positive_part,
    psd_eigen,
    spd_sqrt,
    sym,
    sym_eigen,
    transport_map_basis,
)
from _utils import bw2_gradient, random_orthogonal, random_spd, random_symmetric


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

    def test_exactly_symmetric(self):
        # the Gram-form rebuild goes through BLAS syrk, which fills one
        # triangle and mirrors it; a general product would not
        rng = np.random.default_rng(30)
        for d in range(1, 13):
            plus = positive_part(random_symmetric(rng, d, 2.0))
            assert np.array_equal(plus, plus.T), d

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
        assert loewner_leq(np.eye(2), 2.0 * np.eye(2), 1e-10)
        assert not loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]), 1e-10)
        assert loewner_leq(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), 1e-10)


# each exported function that reads a raw matrix, and the gate they all call,
# with the name its message gives that matrix; clamped_eigen and
# positive_part read derived matrices and check nothing
RAW_MATRIX_READERS = {
    "loewner_leq_a": (lambda m: loewner_leq(m, np.eye(2), 1e-9), "a"),
    "loewner_leq_b": (lambda m: loewner_leq(np.eye(2), m, 1e-9), "b"),
    "loewner_gap_a": (lambda m: loewner_gap(m, np.eye(2)), "a"),
    "loewner_gap_b": (lambda m: loewner_gap(np.eye(2), m), "b"),
    "bw2_a": (lambda m: bw2(m, np.eye(2)), "cov_a"),
    "bw2_b": (lambda m: bw2(np.eye(2), m), "cov_b"),
    "sym_eigen": (sym_eigen, "matrix"),
    "psd_eigen": (psd_eigen, "matrix"),
    "spd_sqrt": (spd_sqrt, "matrix"),
    "project_pair_mu": (lambda m: project_pair(m, np.eye(2)), "cov_mu"),
    "project_pair_nu": (lambda m: project_pair(np.eye(2), m), "cov_nu"),
    "GaussianMeasure": (lambda m: GaussianMeasure(np.zeros(2), m), "covariance"),
    "square_symmetric": (lambda m: linalg.square_symmetric(m, "cov_nu"), "cov_nu"),
}
# the entries that pair their matrix with np.eye(2)
PAIR_READERS = sorted(key for key in RAW_MATRIX_READERS
                      if key.rsplit("_", 1)[-1] in ("a", "b", "mu", "nu"))


@pytest.mark.parametrize("reader", sorted(RAW_MATRIX_READERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entries_are_refused(reader, bad, entry):
    # a NaN passed the Loewner test and came out of the eigensolvers as NaN
    call, name = RAW_MATRIX_READERS[reader]
    m = np.eye(2)
    m[entry] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(m)


@pytest.mark.parametrize("reader", sorted(RAW_MATRIX_READERS))
@pytest.mark.parametrize("bad", [np.ones((2, 3)), np.zeros((0, 0)), np.ones(3)],
                         ids=["2x3", "0x0", "1-d"])
def test_bad_shapes_are_refused(reader, bad):
    # bw2 raised IndexError on 0x0, spd_sqrt EigenSolveError on a vector
    call, name = RAW_MATRIX_READERS[reader]
    shape = re.escape(str(bad.shape))
    with pytest.raises(ValueError, match=f"^{name} must be a nonempty square matrix, got shape "
                                         f"{shape}$"):
        call(bad)


@pytest.mark.parametrize("reader", PAIR_READERS)
def test_unequal_shapes_are_refused(reader):
    # loewner_gap and bw2 raised numpy's broadcast and matmul errors
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        RAW_MATRIX_READERS[reader][0](np.eye(3))


def test_a_scale_that_overflows_a_matrix_refuses_it():
    # a tiny diagonal sets the unit scale, which overflows off-diagonal
    # entries that no PSD matrix has; bw2 returned NaN, and project_pair
    # called the finite matrix not finite
    tiny, wild = 1e-300 * np.eye(2), np.array([[1e-300, 1e300], [1e300, 1e-300]])
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (bw2, project_pair, lambda a, b: project_pair(b, a)):
            with pytest.raises(NotPsdError):
                call(tiny, wild)


def _assert_shared(s1, s2, basis, corr, tol=1e-10):
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
    for s in (s1, s2):
        m = basis.T @ s @ basis
        scale = np.sqrt(np.where(positive_diag_mask(m), np.diag(m), 0.0))
        np.testing.assert_allclose(np.outer(scale, scale) * corr, m, atol=tol)


def shared_correlation(s1, s2):
    """The transport-map basis of a nonsingular pair and the correlation of
    the conjugated ``s1``, which the conjugated ``s2`` shares to 1e-10 of its
    Frobenius norm: the transport map is diagonal in that basis."""
    basis = transport_map_basis(bw2_gradient(s1, s2))
    m1, m2 = (sym(basis.T @ s @ basis) for s in (s1, s2))
    scale = np.sqrt(np.diag(m1))
    corr = m1 / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    for m in (m1, m2):
        root = np.sqrt(np.diag(m))
        assert np.linalg.norm(np.outer(root, root) * corr - m) <= 1e-10 * (1.0 + np.linalg.norm(m))
    return basis, corr


class TestSharedCorrelation:
    """Properties of :func:`transport_map_basis`: two nonsingular covariances
    conjugated into it share one correlation matrix."""

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
            assert vals.min() >= -1e-10
            np.testing.assert_allclose(np.diag(corr), np.ones(d), atol=1e-12)

    def test_rotation_of_commuting_pair(self):
        rng = np.random.default_rng(8)
        q = random_orthogonal(rng, 3)
        s1 = q @ np.diag([3.0, 2.0, 1.0]) @ q.T
        s2 = q @ np.diag([1.0, 5.0, 2.0]) @ q.T
        basis, corr = shared_correlation(s1, s2)
        np.testing.assert_allclose(corr, np.eye(3), atol=1e-9)
        _assert_shared(s1, s2, basis, corr, tol=1e-9)
