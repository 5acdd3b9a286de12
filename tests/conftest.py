"""Fixtures shared by the test modules, and the hypothesis profiles.

Tier-1 loads the ``tier1`` profile: derandomized, with no example database,
so every run draws the same examples whatever ``.hypothesis/`` holds.  The
``explore`` profile (random draws, with the database) is for searching by
hand: ``HYPOTHESIS_PROFILE=explore python -m pytest``.  A failure it finds
becomes an ``@example`` or an entry in ``test_known_defects.py``.
"""

import functools
import os

import pytest
from hypothesis import settings

from convex_order import discrete

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def gap_tol(monkeypatch):
    """Sets ``discrete.GAP_TOL``, the gap target of every ``solve_wot``, for
    the rest of one test: ``gap_tol(1e-12)``."""
    return functools.partial(monkeypatch.setattr, discrete, "GAP_TOL")


@pytest.fixture
def tight_gap(gap_tol):
    """Every solve of the test at the gap target 1e-12."""
    gap_tol(1e-12)
