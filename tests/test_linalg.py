import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_order import GaussianMeasure, linalg, project_pair
from convex_order.bures import bw2
from convex_order.linalg import (
    EigenSolveError,
    NotPsdError,
    loewner_gap,
    positive_diag_mask,
    positive_part,
    sym,
    transport_map_basis,
)
from _utils import (
    bw2_gradient,
    eigen_convention,
    patch_everywhere,
    random_orthogonal,
    random_spd,
    random_symmetric,
)


def rayleigh(m, basis):
    """The Rayleigh quotients of ``m`` on the columns of ``basis``."""
    return np.diag(basis.T @ m @ basis)


def ordered_basis(m):
    """:func:`transport_map_basis` of ``m`` in the standard frame."""
    return transport_map_basis(m, np.eye(np.shape(m)[0]))


class TestEigenConvention:
    """The eigen-convention of :func:`transport_map_basis`, which orders the
    eigenbasis of any symmetric matrix: eigenvalues descending, signs fixed."""

    def test_identity(self):
        np.testing.assert_allclose(ordered_basis(np.eye(2)), np.eye(2))

    def test_already_diagonal(self):
        vecs = ordered_basis(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(rayleigh(np.diag([3.0, 1.0]), vecs), [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2))

    def test_two_by_two_eigenpairs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        vecs = ordered_basis(m)
        vals = rayleigh(m, vecs)
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
        for k in range(2):
            np.testing.assert_allclose(m @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-12)

    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = random_symmetric(rng, int(rng.integers(2, 8)))
            vecs = ordered_basis(m)
            assert np.all(np.diff(rayleigh(m, vecs)) <= 1e-12)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-10)
            for k in range(vecs.shape[1]):
                col = vecs[:, k]
                lead = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0][0]
                assert col[lead] > 0

    def test_sign_fix_matches_per_column_reference(self):
        # reference: the per-column loop the vectorised sign fix replaced
        rng = np.random.default_rng(11)
        block = np.zeros((5, 5))
        block[1:3, 1:3] = [[1.0, -2.0], [-2.0, 1.0]]
        block[4, 4] = -3.0
        cases = [block, -np.eye(3), np.array([[0.0, -1.0], [-1.0, 0.0]])]
        cases += [random_symmetric(rng, int(rng.integers(1, 9))) for _ in range(40)]
        for m in cases:
            np.testing.assert_array_equal(ordered_basis(m), eigen_convention(m)[1])

    def test_diagonalises(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_symmetric(rng, 5)
            vecs = ordered_basis(m)
            err = np.linalg.norm(vecs @ np.diag(rayleigh(m, vecs)) @ vecs.T - m)
            assert err <= 1e-12 * (1.0 + np.linalg.norm(m))

    def test_maps_the_basis_out_of_its_frame(self):
        # a matrix given in an orthonormal frame q, as the descent hands over
        # its gradient, yields the ordered eigenbasis of the matrix itself
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = int(rng.integers(1, 8))
            m, q = random_symmetric(rng, d), random_orthogonal(rng, d)
            vecs = transport_map_basis(sym(q.T @ m @ q), q)
            np.testing.assert_allclose(vecs, eigen_convention(m)[1], atol=1e-9)


class TestBw2SquareRoot:
    """:func:`bw2` builds ``A^{1/2}`` from the validated spectrum of ``A``."""

    def test_identity(self):
        assert bw2(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        # (2 - 1)^2 + (3 - 1)^2
        assert bw2(np.diag([4.0, 9.0]), np.eye(2)) == pytest.approx(5.0, rel=1e-15)

    def test_square_recovers_input(self):
        # A^{1/2} A A^{1/2} = A^2, whose root is A again
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert bw2(m, m) == pytest.approx(0.0, abs=1e-14)
        # (sqrt(3) - 1)^2 + (1 - 1)^2 against the identity
        assert bw2(m, np.eye(2)) == pytest.approx((math.sqrt(3.0) - 1.0) ** 2, rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError, match="^cov_a is not positive semi-definite"):
            bw2(np.diag([1.0, -1.0]), np.eye(2))


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
        assert loewner_gap(np.zeros((3, 3)), plus) >= -1e-10
        assert loewner_gap(m, plus) >= -1e-10
        # complementarity: the positive part annihilates the residual
        assert np.linalg.norm(plus @ (plus - m)) <= 1e-10 * (1.0 + np.linalg.norm(m) ** 2)


class TestLoewner:
    def test_examples(self):
        assert loewner_gap(np.eye(2), 2.0 * np.eye(2)) == 1.0
        assert loewner_gap(np.diag([2.0, 0.0]), np.diag([1.0, 1.0])) == -1.0
        assert loewner_gap(np.diag([1.0, 0.0]), np.diag([2.0, 0.0])) == 0.0


# each public function that reads a raw matrix, and the gate they all call,
# with the name its message gives that matrix; clamped_eigen and
# positive_part read derived matrices and check nothing
RAW_MATRIX_READERS = {
    "loewner_gap_a": (lambda m: loewner_gap(m, np.eye(2)), "a"),
    "loewner_gap_b": (lambda m: loewner_gap(np.eye(2), m), "b"),
    "bw2_a": (lambda m: bw2(m, np.eye(2)), "cov_a"),
    "bw2_b": (lambda m: bw2(np.eye(2), m), "cov_b"),
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
    # bw2 raised IndexError on 0x0
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


@pytest.mark.parametrize("reader", sorted(RAW_MATRIX_READERS))
def test_entries_beyond_the_range_are_refused(reader):
    # symmetrising overflowed them, and the finite matrix was called not finite
    call, name = RAW_MATRIX_READERS[reader]
    with pytest.raises(ValueError, match=f"^{name} entries must lie within 8.988e[+]307 in "
                                         "absolute value$"):
        call(np.diag([1e308, 1e308]))


def test_the_largest_entries_are_read():
    top = np.diag([linalg.MAX_ENTRY, linalg.MAX_ENTRY])
    np.testing.assert_array_equal(linalg.square_symmetric(top, "m"), top)
    assert loewner_gap(top, top) == 0.0


# each reader of a covariance paired with a 3x3 partner, with the name its
# message gives that covariance: a 2x2 matrix within MAX_ENTRY cannot have a
# trace or top eigenvalue beyond the double range
COVARIANCE_READERS_3X3 = {
    "bw2_a": (lambda m: bw2(m, np.eye(3)), "cov_a"),
    "bw2_b": (lambda m: bw2(np.eye(3), m), "cov_b"),
    "project_pair_mu": (lambda m: project_pair(m, np.eye(3)), "cov_mu"),
    "project_pair_nu": (lambda m: project_pair(np.eye(3), m), "cov_nu"),
    "GaussianMeasure": (lambda m: GaussianMeasure(np.zeros(3), m), "covariance"),
}


@pytest.mark.parametrize("reader", sorted(COVARIANCE_READERS_3X3))
def test_traces_beyond_the_range_are_refused(reader):
    # finite entries within MAX_ENTRY whose trace and top eigenvalue, 2.4e308,
    # are not doubles: project_pair raised OverflowError and bw2 numpy's
    # LinAlgError
    call, name = COVARIANCE_READERS_3X3[reader]
    with pytest.raises(ValueError, match=f"^{name} trace and top eigenvalue must lie within "
                                         "1.798e[+]308$"):
        call(np.full((3, 3), 8e307))


@pytest.mark.parametrize("reader", ["bw2_a", "bw2_b", "project_pair_mu", "project_pair_nu"])
def test_traces_within_the_range_are_read(reader):
    # a trace and top eigenvalue of 1.5e308 are doubles
    out = COVARIANCE_READERS_3X3[reader][0](np.full((3, 3), 5e307))
    distance = out if isinstance(out, float) else out[0].distance_sq
    assert 0.0 < distance < np.inf


# the entries whose reader runs the PSD test of _validated_eigh, at the
# matrix's own unit scale; loewner_gap and the gate itself read indefinite
# matrices too
PSD_READERS = ["GaussianMeasure", "bw2_a", "bw2_b", "project_pair_mu", "project_pair_nu"]
PSD_SCALES = {"4^-480": 4.0**-480, "4^-10": 4.0**-10, "1": 1.0, "4^10": 4.0**10,
              "4^480": 4.0**480}
_ROTATION = random_orthogonal(np.random.default_rng(41), 2)


@pytest.mark.parametrize("reader", PSD_READERS)
@pytest.mark.parametrize("scale", sorted(PSD_SCALES))
@pytest.mark.parametrize("indefinite", [np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                                        -np.eye(2)], ids=["diagonal", "off-diagonal", "negative"])
def test_indefinite_matrices_are_refused(reader, scale, indefinite):
    with pytest.raises(NotPsdError):
        RAW_MATRIX_READERS[reader][0](PSD_SCALES[scale] * indefinite)


@pytest.mark.parametrize("reader", PSD_READERS)
@pytest.mark.parametrize("scale", sorted(PSD_SCALES))
@pytest.mark.parametrize("edge", [
    np.outer([1.0, 1.0 / 3.0], [1.0, 1.0 / 3.0]),
    (_ROTATION * [1.0, -0.5 * linalg.EIG_TOL]) @ _ROTATION.T,
], ids=["singular", "roundoff-negative"])
def test_psd_matrices_within_the_slack_are_read(reader, scale, edge):
    # a singular covariance, and one whose eigenvalue lies half the slack
    # below zero, pass every PSD test and give a finite answer
    call = RAW_MATRIX_READERS[reader][0]
    out = call(PSD_SCALES[scale] * edge)
    if reader == "GaussianMeasure":
        np.testing.assert_array_equal(out.cov, sym(PSD_SCALES[scale] * edge))
    elif reader.startswith("bw2"):
        assert math.isfinite(out) and out >= 0.0
    else:
        assert all(math.isfinite(result.distance_sq) for result in out)


# each PSD reader on a matrix M, with a partner dilated along with it that
# takes a quick route: project_pair reduces onto a singular M, or closes on a
# zero target
DILATED_READERS = {
    "GaussianMeasure": lambda m, s: GaussianMeasure(np.zeros(3), m),
    "bw2_a": lambda m, s: bw2(m, s * np.eye(3)),
    "bw2_b": lambda m, s: bw2(s * np.eye(3), m),
    "project_pair_mu": lambda m, s: project_pair(m, np.zeros((3, 3))),
    "project_pair_nu": lambda m, s: project_pair(s * np.eye(3), m),
}


@pytest.mark.parametrize("reader", sorted(DILATED_READERS))
def test_psd_verdicts_do_not_move_under_dilation(reader):
    # eigenvalues 3, 1 and 0.5 or 2 times the slack EIG_TOL * (1 + 3) below
    # zero: the largest entry lies in [1, 4), so the matrix is at its own unit
    # scale, and 4^j times it must get its verdict at every j; the caller-scale
    # test, whose slack is absolute below unit scale, passed the second there
    call = DILATED_READERS[reader]
    q = random_orthogonal(np.random.default_rng(42), 3)
    slack = linalg.EIG_TOL * 4.0
    for factor, refused in ((0.5, False), (2.0, True)):
        m = (q * [3.0, 1.0, -factor * slack]) @ q.T
        assert 1.0 <= np.abs(m).max() < 4.0
        for j in range(-480, 481):
            s = 4.0**j
            if refused:
                with pytest.raises(NotPsdError):
                    call(s * m, s)
            else:
                call(s * m, s)


def test_an_indefinite_cov_b_is_refused_against_a_singular_cov_a():
    # cov_b was tested only through A^1/2 B A^1/2, which a singular cov_a
    # projects onto its range: this pair returned 0.5
    with pytest.raises(NotPsdError, match="^cov_b is not positive semi-definite "
                                          r"\(min eigenvalue -5.000e-01\)$"):
        bw2(np.diag([1.0, 0.0]), np.diag([4.0, -0.5]))


def test_bw2_verdict_on_cov_a_does_not_depend_on_cov_b():
    # a larger cov_b set the scale of the test on cov_a, which then passed
    for scale in (1.0, 1e10):
        with pytest.raises(NotPsdError, match="^cov_a is not positive semi-definite "
                                              r"\(min eigenvalue -1.000e-03\)$"):
            bw2(np.diag([1.0, -1e-3]), scale * np.eye(2))


def test_a_tiny_indefinite_target_is_refused():
    # the caller-scale slack is absolute: it passed the target, and the
    # certificate then refused the solve
    tiny = 4.0**-480
    with pytest.raises(NotPsdError, match="^cov_nu is not positive semi-definite"):
        project_pair(tiny * np.eye(2), tiny * np.diag([1.0, -1.0]))
    with pytest.raises(NotPsdError, match="^cov_mu is not positive semi-definite"):
        project_pair(1e-13 * np.diag([1.0, -1.0]), 1e-13 * np.eye(2))


def test_loewner_gap_of_a_far_from_psd_pair_is_finite():
    # its unit scale came from the tiny traces and overflowed the matrix: NaN
    wild = np.array([[1e-300, 1e300], [1e300, 1e-300]])
    assert loewner_gap(wild, 1e-300 * np.eye(2)) == -1e300
    assert loewner_gap(1e-300 * np.eye(2), wild) == -1e300


@pytest.mark.parametrize("swap", [False, True], ids=["a_then_b", "b_then_a"])
def test_a_distance_beyond_the_range_is_refused(swap):
    # each trace, 1.6e308, is a double and the distance between the disjoint
    # ranges, 3.2e308, is not: scaling it back raised OverflowError
    a, b = np.diag([8e307, 8e307, 0.0, 0.0]), np.diag([0.0, 0.0, 8e307, 8e307])
    if swap:
        a, b = b, a
    with pytest.raises(ValueError, match="^cov_a [+] cov_b trace and top eigenvalue must lie "
                                         "within 1.798e[+]308$"):
        bw2(a, b)


def test_a_scale_that_overflows_a_matrix_refuses_it():
    # a tiny diagonal sets the unit scale, which overflows off-diagonal
    # entries that no PSD matrix has; bw2 returned NaN, and bw2 and
    # project_pair called the finite matrix not finite
    tiny, wild = 1e-300 * np.eye(2), np.array([[1e-300, 1e300], [1e300, 1e-300]])
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (bw2, lambda a, b: bw2(b, a), project_pair, lambda a, b: project_pair(b, a)):
            with pytest.raises(NotPsdError):
                call(tiny, wild)


def _solve(cov_mu, cov_nu, method, reason):
    """``project_pair`` on a pair, with the route and the start of the
    verdict that show which branch ran, and the names it gates."""
    def run():
        below, _ = project_pair(cov_mu, cov_nu)
        assert below.method == method and below.uniqueness.reason.startswith(reason)

    return run, ["cov_mu", "cov_nu"]


# each public call on raw matrices, with the names it gates
PD = np.array([[2.0, 1.0], [1.0, 2.0]])
GATED_CALLS = {
    "bw2": (lambda: bw2(PD, np.diag([3.0, 1.0])), ["cov_a", "cov_b"]),
    "bw2_singular": (lambda: bw2(np.diag([1.0, 0.0]), PD), ["cov_a", "cov_b"]),
    "loewner_gap": (lambda: loewner_gap(np.eye(2), PD), ["a", "b"]),
    "GaussianMeasure": (lambda: GaussianMeasure(np.zeros(2), PD), ["covariance"]),
    "zero_target": _solve(np.eye(2), np.zeros((2, 2)), "commuting", "zero target"),
    "commuting": _solve(np.diag([1.0, 2.0]), np.diag([3.0, 1.0]), "commuting", "nonsingular"),
    "pgd": _solve(PD, np.diag([3.0, 1.0]), "pgd", "nonsingular"),
    "pgd_singular_mu": _solve(np.diag([1.0, 0.0]), PD, "pgd", "nonsingular"),
    "singular_keeps_rank": _solve(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]),
                                  "commuting", "assembled covariance keeps"),
    "singular_saturated": _solve(np.eye(2), np.diag([0.5, 0.0]),
                                 "commuting", "saturation inequality holds"),
    "singular_unsaturated": _solve(np.eye(2), np.diag([2.0, 0.0]),
                                   "commuting", "rank grows"),
    "singular_pgd": _solve(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                           np.diag([1.0, 3.0, 0.0]), "pgd", "rank grows"),
    "singular_rank_band": _solve(np.eye(2), np.diag([2.0, 2.0**-48]),
                                 "commuting", "an eigenvalue of"),
}


@pytest.mark.parametrize("call", sorted(GATED_CALLS))
def test_one_gate_per_matrix_per_public_call(call, monkeypatch):
    # what is derived from a gated matrix needs no second gate
    gated = []
    gate = linalg.square_symmetric

    def counted(matrix, name):
        gated.append(name)
        return gate(matrix, name)

    patch_everywhere(monkeypatch, "square_symmetric", counted)
    run, expected = GATED_CALLS[call]
    run()
    assert sorted(gated) == expected


SOLVER = linalg._umath_linalg


class FailingSolver:
    """``linalg``'s solver binding with its calls counted, the one numbered
    ``fail`` (from 0) returning NaN, as a LAPACK solve that fails does."""

    def __init__(self, fail=-1):
        self.calls, self.fail = 0, fail

    def _solve(self, gufunc, a, signature):
        out = gufunc(a, signature=signature)
        self.calls += 1
        if self.calls - 1 != self.fail:
            return out
        if isinstance(out, tuple):
            return tuple(np.full_like(x, np.nan) for x in out)
        return np.full_like(out, np.nan)

    def eigh_lo(self, a, signature):
        return self._solve(SOLVER.eigh_lo, a, signature)

    def eigvalsh_lo(self, a, signature):
        return self._solve(SOLVER.eigvalsh_lo, a, signature)


@pytest.mark.parametrize("call", sorted(GATED_CALLS))
def test_every_failed_eigensolve_raises_eigen_solve_error(call, monkeypatch):
    # numpy's untyped LinAlgError escaped every eigensolve outside linalg._eigh
    run = GATED_CALLS[call][0]
    counted = FailingSolver()
    monkeypatch.setattr(linalg, "_umath_linalg", counted)
    run()
    assert counted.calls > 0
    for fail in range(counted.calls):
        monkeypatch.setattr(linalg, "_umath_linalg", FailingSolver(fail))
        with pytest.raises(EigenSolveError, match="^symmetric eigensolver did not converge on "):
            run()


def test_a_failed_solve_of_a_non_finite_matrix_keeps_its_nan_spectrum(monkeypatch):
    # for the caller's PSD test, which bw2's overflowed product reaches
    monkeypatch.setattr(linalg, "_umath_linalg", FailingSolver(0))
    assert np.isnan(linalg._eigvalsh(np.array([[np.inf, 0.0], [0.0, 1.0]]))).all()


def _spectral_cases(d):
    """Seeded symmetric ``d x d`` matrices: general, diagonal, singular, and
    with a repeated eigenvalue."""
    rng = np.random.default_rng([4512, d])
    q = random_orthogonal(rng, d)
    singular = rng.uniform(0.5, 2.0, d)
    singular[: d // 2 + 1] = 0.0
    repeated = np.full(d, rng.uniform(0.5, 2.0))
    repeated[0] = 3.0
    return [random_symmetric(rng, d), np.diag(rng.normal(size=d)), (q * singular) @ q.T,
            (q * repeated) @ q.T, np.eye(d)]


@pytest.mark.parametrize("d", range(1, 13))
def test_the_eigensolvers_equal_numpys_bit_for_bit(d):
    # the gufunc binding is private to numpy: a release that changes it fails here
    for m in _spectral_cases(d):
        vals, vecs = linalg._eigh(m)
        ref_vals, ref_vecs = np.linalg.eigh(m)
        assert vals.dtype == vecs.dtype == np.float64
        assert vals.tobytes() == ref_vals.tobytes() and vecs.tobytes() == ref_vecs.tobytes()
        assert linalg._eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()


def _linear_systems(d):
    """Seeded ``d x d`` systems: general, identity, diagonal, and of
    condition number 1e14, each with a ``d x 3`` and a vector right-hand
    side."""
    rng = np.random.default_rng([4613, d])
    ill = (random_orthogonal(rng, d) * np.logspace(0.0, -14.0, d)) @ random_orthogonal(rng, d)
    matrices = [rng.normal(size=(d, d)), np.eye(d), np.diag(rng.uniform(0.5, 2.0, d)), ill]
    return [(a, rng.normal(size=(d, 3)), rng.normal(size=d)) for a in matrices]


@pytest.mark.parametrize("d", range(1, 13))
def test_the_solve_equals_numpys_bit_for_bit(d):
    # the gufunc binding is private to numpy: a release that changes it fails
    # here; the last check stacks the four systems
    systems = _linear_systems(d)
    for a, columns, vector in systems:
        for b in (columns, vector):
            x = linalg._solve(a, b)
            assert x.dtype == np.float64 and x.tobytes() == np.linalg.solve(a, b).tobytes()
    a, b = np.stack([s[0] for s in systems]), np.stack([s[1] for s in systems])
    assert linalg._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


def test_a_singular_solve_raises_inside_the_rule_only():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])  # LU meets an exact zero pivot
    outside = np.geterr()
    for a, b in ((singular, np.ones(2)), (np.stack([np.eye(2), singular]), np.ones((2, 2, 3)))):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with linalg.solve_rule(), pytest.raises(np.linalg.LinAlgError, match="^Singular"):
                linalg._solve(a, b)
        assert np.geterr() == outside
        # without the rule the gufunc only warns, and fills the solution with NaN
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(linalg._solve(a, b)).any()


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
    basis = ordered_basis(bw2_gradient(s1, s2))
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
            assert np.linalg.eigvalsh(corr).min() >= -1e-10
            np.testing.assert_allclose(np.diag(corr), np.ones(d), atol=1e-12)

    def test_rotation_of_commuting_pair(self):
        rng = np.random.default_rng(8)
        q = random_orthogonal(rng, 3)
        s1 = q @ np.diag([3.0, 2.0, 1.0]) @ q.T
        s2 = q @ np.diag([1.0, 5.0, 2.0]) @ q.T
        basis, corr = shared_correlation(s1, s2)
        np.testing.assert_allclose(corr, np.eye(3), atol=1e-9)
        _assert_shared(s1, s2, basis, corr, tol=1e-9)
