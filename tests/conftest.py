"""Fixtures shared by the test modules."""

import functools

import pytest

from convex_order import discrete


@pytest.fixture
def gap_tol(monkeypatch):
    """Sets ``discrete.GAP_TOL``, the gap target of every ``solve_wot``, for
    the rest of one test: ``gap_tol(1e-12)``."""
    return functools.partial(monkeypatch.setattr, discrete, "GAP_TOL")


@pytest.fixture
def tight_gap(gap_tol):
    """Every solve of the test at the gap target 1e-12."""
    gap_tol(1e-12)
