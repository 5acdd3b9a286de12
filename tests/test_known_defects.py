"""The defect ledger: each open defect that has an in-process reproducer,
held as its exact input and marked ``xfail(strict=True)``.

A mended defect XPASSes, which fails the run until the change that mends it
turns the entry into an ordinary test and closes its FOUND line in
CHANGES.md.  A defect that gets worse in another way fails its assertion
differently, which ``raises=`` does not excuse.
"""

import numpy as np
import pytest

from convex_order.discrete import solve_wot
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
