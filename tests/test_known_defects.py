"""The defect ledger: each open defect that has an in-process reproducer,
held as its exact input and marked ``xfail(strict=True)``.

A mended defect XPASSes, which fails the run until the change that mends it
turns the entry into an ordinary test and closes its FOUND line in
CHANGES.md.  A defect that gets worse in another way fails its assertion
differently, which ``raises=`` does not excuse.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from convex_order import discrete
from convex_order.cli import main
from convex_order.discrete import solve_wot
from convex_order.gaussian import CertificationError, project_pair
from convex_order.measures import DiscreteMeasure
from convex_order.one_dim import project_1d_detail

# integer atoms on the line with Dirichlet(0.3) weights floored at 1e-4 and
# renormalised (5 of 6,000 such pairs of default_rng(77) fail this way)
FLOORED_WEIGHTS = (
    DiscreteMeasure(np.array([[-4.0], [0.0], [4.0], [-1.0]]),
                    np.array([0.8118665631684918, 0.1877679814747958,
                              9.999759979941085e-05, 0.0002654577569129075])),
    DiscreteMeasure(np.array([[-3.0], [0.0], [2.0]]),
                    np.array([0.6781516140301356, 0.3217483905081848, 9.999546167948827e-05])),
)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="solve_wot stops on roundoff at a gap of 0.43 of 1 + value")
def test_weights_of_1e_4_on_the_line_converge():
    # the solve reads 3.918 with a gap of 2.105 after 12 Newton steps; the
    # quantile engine reads 1.813
    mu, nu = FLOORED_WEIGHTS
    result = solve_wot(mu, nu)
    exact = project_1d_detail(mu, nu).distance_sq
    assert result.converged
    assert abs(result.value - exact) <= 1e-10 * (1.0 + exact)


# R(1.98997086) diag(1.75965892e-6, 1.94940380) R' and R(2.84477118)
# diag(6.46790666e-2, 1.19186036e-6) R', R(t) the rotation by t
WIDE_SPECTRA = (
    np.array([[1.626476844836737, 0.7247293611448217],
              [0.7247293611448217, 0.32292871482218305]]),
    np.array([[0.05914614528814126, -0.01808989699554599],
              [-0.01808989699554599, 0.0055341131722187464]]),
)


@pytest.mark.xfail(strict=True, raises=CertificationError,
                   reason="the descent stops before its basis certifies (residual -2.19e-6)")
def test_a_wide_spectrum_pair_certifies():
    below, above = project_pair(*WIDE_SPECTRA)
    assert below.transform.certified


# default_rng([45, 6, 2]): Q from the QR of a normal 5x5, then G normal 5x5
# with mu = GG'/5 + 0.1 I, then u ~ U(0.1, 1) of size 4, and
# nu = sym(mu + Q diag(-1e-6, u) Q'): ordered but for one direction, by 1e-6
NEARLY_ORDERED = (
    np.array([[0.8691645625025853, 0.38385698879303337, -0.3445109470115753,
               0.12110838030584785, 0.3602563468238368],
              [0.38385698879303337, 2.0495444405575842, 0.2750557462867044,
               0.2709029812965666, -0.14067454867375465],
              [-0.3445109470115753, 0.2750557462867044, 0.9683081574503838,
               0.5991149338527768, 0.0035605412218919844],
              [0.12110838030584785, 0.2709029812965666, 0.5991149338527768,
               1.2542408984002151, -0.0467603635813784],
              [0.3602563468238368, -0.14067454867375465, 0.0035605412218919844,
               -0.0467603635813784, 0.9122894361450985]]),
    np.array([[1.0463968557679981, 0.5653410287059267, -0.12035861551389451,
               0.1975039379322064, 0.33096024547413727],
              [0.5653410287059267, 2.437813304208619, 0.22191599850245497,
               0.35864987506537716, 0.05483051954213562],
              [-0.12035861551389451, 0.22191599850245497, 1.8257584927540211,
               0.6607898824155641, -0.043352679194289034],
              [0.1975039379322064, 0.35864987506537716, 0.6607898824155641,
               2.0449216524608467, 0.02923584176887782],
              [0.33096024547413727, 0.05483051954213562, -0.043352679194289034,
               0.02923584176887782, 1.704844939806855]]),
)


@pytest.mark.xfail(strict=True, raises=CertificationError,
                   reason="the descent stops before its basis certifies (residual -1.0e-6)")
def test_a_nearly_ordered_pair_certifies():
    below, above = project_pair(*NEARLY_ORDERED)
    assert below.transform.certified


# 6 atoms against 5 in the plane: 30 cells, and a projection of 6 atoms
PLANE_6_BY_5 = {
    "mu": {"points": [[1.57, 0.74], [-0.97, -0.21], [-0.29, 2.36], [-0.94, 1.38],
                      [0.12, 1.02], [0.0, 0.39]],
           "weights": [0.305, 0.065, 0.011, 0.449, 0.111, 0.059]},
    "nu": {"points": [[-0.09, -0.19], [0.41, -1.66], [0.31, -0.52], [-0.82, -1.58],
                      [-0.22, 0.51]],
           "weights": [0.161, 0.153, 0.24, 0.089, 0.357]},
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="check measures mu against its 6-atom projection: 36 cells")
def test_check_answers_what_project_discrete_accepts(tmp_path, monkeypatch):
    monkeypatch.setattr(discrete, "BUDGET", 30)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(PLANE_6_BY_5))
    runner = CliRunner()
    if runner.invoke(main, ["project-discrete", str(problem)]).exit_code != 0:
        pytest.fail("project-discrete refuses the instance")  # not excused by the xfail
    # check exits 3: exact_w2_sq(mu, projection) exceeds the budget
    result = runner.invoke(main, ["check", str(problem)])
    assert result.exit_code == 0, result.output
