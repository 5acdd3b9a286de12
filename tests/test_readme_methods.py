"""The method tags that Gaussian solves return are the tags README.md's
``ProjectionResult`` paragraph lists, and every solve reports its
diagnostics under one vocabulary: ``rank_nu`` and ``order_residual`` on
every route, the descent's work under the same keys on every target."""

import re
from pathlib import Path

import numpy as np

from convex_order.gaussian import project_pair
from _utils import random_commuting_pair, random_psd_singular, random_spd

ROOT = Path(__file__).resolve().parents[1]


def listed_methods(text: str) -> set[str]:
    """The backquoted tags in the parentheses after "a method tag" in the
    paragraph that opens with `ProjectionResult`."""
    paragraph = re.search(r"^`ProjectionResult` carries(.*?)\n\n", text,
                          re.MULTILINE | re.DOTALL).group(1)
    tags = re.search(r"a method tag\s+\(([^)]*)\)", paragraph).group(1)
    return set(re.findall(r"`(\w+)`", tags))


def every_route():
    """Seeded pairs that reach every route: a zero target, the commuting
    basis and the descent, each on a full-rank target and on the range of
    a singular one.  Yields ``(pair, rank class)``."""
    rng = np.random.default_rng(55)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    yield (random_spd(rng, 3), np.zeros((3, 3))), "zero"
    yield random_commuting_pair(rng, 3)[:2], "full"
    yield (q @ np.diag([1.0, 2.0, 0.5]) @ q.T, q @ np.diag([3.0, 0.0, 1.0]) @ q.T), "singular"
    yield (random_spd(rng, 4), random_spd(rng, 4)), "full"
    yield (random_spd(rng, 4), random_psd_singular(rng, 4, 2)), "singular"


def test_listed_methods_reads_the_paragraph():
    text = "x\n\n`ProjectionResult` carries a method tag (`a` or `b`, and `c`) and\nmore.\n\n"
    assert listed_methods(text) == {"a", "b", "c"}


def test_every_route_reports_a_listed_method_under_one_vocabulary():
    seen = set()
    for (cov_mu, cov_nu), rank_class in every_route():
        for result in project_pair(cov_mu, cov_nu):
            rank, d = result.diagnostics["rank_nu"], len(cov_nu)
            assert rank_class == ("zero" if rank == 0 else "full" if rank == d else "singular")
            assert "order_residual" in result.diagnostics
            assert not [key for key in result.diagnostics if key.startswith("reduced_")]
            assert ("iterations" in result.diagnostics) == (result.method == "pgd")
            seen.add((result.method, rank_class))
    assert seen == {("commuting", "zero"), ("commuting", "full"), ("commuting", "singular"),
                    ("pgd", "full"), ("pgd", "singular")}
    assert {method for method, _ in seen} == listed_methods((ROOT / "README.md").read_text())
