"""Shows that every correctness check of the benchmark can fail.

    python3 benchmark/selftest.py

Solves a few small problems with the library, confirms that the checks
accept the answers, then hands each check a deliberately wrong answer and
confirms that the check names it.  Exits 1 if a check accepts a wrong answer
or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import convex_order as co  # noqa: E402
import convex_order.cli  # noqa: E402,F401
from workloads import CliMixed, WotSimplex, _atoms, _rank_one_projections, _spd  # noqa: E402

CASES: list[tuple[str, list[str], str]] = []


def expect(label: str, failed: list[str], name: str | None) -> None:
    """``name=None``: the answer is right and nothing may fail."""
    CASES.append((label, failed, name))


def gaussian_cases(rng) -> None:
    mu, nu = _spd(rng, 4), _spd(rng, 4)
    below, above = co.project_pair(mu, nu)
    b, a, dist = below.covariance, above.covariance, below.distance_sq
    expect("gaussian pgd answer", checks.gaussian_pair(mu, nu, b, a, dist), None)
    eye = np.eye(4)
    expect("below above nu", checks.gaussian_pair(mu, nu, nu + 1e-3 * eye, a, dist),
           "below_dominated")
    expect("above under mu", checks.gaussian_pair(mu, nu, b, mu - 1e-3 * eye, dist),
           "above_dominates")
    expect("perturbed covariance", checks.gaussian_pair(mu, nu, b, a + 1e-4 * eye, dist),
           "trace_identity")
    swap = np.zeros((4, 4))
    swap[0, 0], swap[1, 1] = 1e-3, -1e-3  # same trace, other distance
    expect("trace-preserving shift", checks.gaussian_pair(mu, nu, b + swap, a, dist),
           "distance_equality")
    expect("reported distance", checks.gaussian_pair(mu, nu, b, a, dist + 1e-4),
           "reported_distance")
    # feasible and trace-preserving, but not the optimum
    lifted = mu + np.trace(a - mu) / 4 * eye
    expect("feasible non-optimal above", checks.gaussian_pair(mu, nu, b, lifted, dist),
           "kkt_certificate")

    mu, nu = _spd(rng, 3), _spd(rng, 3, rank=1)
    below, above = co.project_pair(mu, nu)
    closed_below, closed_above = _rank_one_projections(mu, nu)
    expect("rank-one closed form", checks.gaussian_pair(
        mu, nu, closed_below, closed_above, below.distance_sq, kkt=False), None)
    error = np.linalg.norm(below.covariance - closed_below) + np.linalg.norm(
        above.covariance - closed_above)
    expect("rank-one closed form matches the solver", [] if error < 1e-8 else ["closed_form"],
           None)


def wot_cases(rng) -> None:
    for dim in (2, 1):
        x, wx = _atoms(rng, 7, dim, 1.0)
        y, wy = _atoms(rng, 6, dim, 0.8)
        projection, result = co.project_discrete(co.DiscreteMeasure(x, wx),
                                                 co.DiscreteMeasure(y, wy))
        pi, value = result.coupling.pi, result.value
        proj = (projection.points, projection.weights)
        expect(f"wot {dim}-d answer", checks.wot(x, wx, y, wy, pi, value, proj), None)
        swapped = pi[::-1]
        expect(f"wot {dim}-d rows swapped", checks.wot(x, wx, y, wy, swapped, value, proj),
               "marginals")
        expect(f"wot {dim}-d value", checks.wot(x, wx, y, wy, pi, value + 1e-4, proj), "value")
        # a coupling moved off the optimum towards the independent coupling
        moved = 0.8 * pi + 0.2 * np.outer(wx, wy)
        moved_value = float(wx @ np.sum((x - moved @ y / wx[:, None]) ** 2, axis=1))
        expect(f"wot {dim}-d coupling off the optimum",
               checks.wot(x, wx, y, wy, moved, moved_value, proj), "fw_gap")
        shifted = (projection.points + 1e-3, projection.weights)
        expect(f"wot {dim}-d shifted projection",
               checks.wot(x, wx, y, wy, pi, value, shifted), "pushforward_barycenter")
        if dim == 1:
            wrong = dataclasses.replace(result, value=value + 1e-4)
            expect("wot 1-d value against the quantile engine",
                   WotSimplex().check(co, (x, wx, y, wy), (projection, wrong)),
                   "value_equals_quantile_engine")
        w2 = checks.w2sq_lp(x, wx, *proj)
        expect(f"wot {dim}-d projection distance", [] if abs(w2 - value) < 1e-6 else ["w2"],
               None)


def one_dim_cases(rng) -> None:
    mu = _atoms(rng, 300, 1, 1.0)
    nu = _atoms(rng, 250, 1, 0.8)
    detail = co.project_1d_detail(co.DiscreteMeasure(*mu), co.DiscreteMeasure(*nu))
    below = (detail.below.points, detail.below.weights)
    above = (detail.above.points, detail.above.weights)
    dist = detail.distance_sq
    expect("1-d answer", checks.projection_1d(mu, nu, below, above, dist), None)
    moved = below[0].copy()
    moved[len(moved) // 2] += 0.05
    expect("1-d shifted atom below", checks.projection_1d(mu, nu, (moved, below[1]), above,
                                                         dist), "below_in_convex_order")
    moved = above[0].copy()
    moved[0] += 0.05  # the lowest atom moves inwards: the spread shrinks
    expect("1-d shifted atom above", checks.projection_1d(mu, nu, below, (moved, above[1]),
                                                         dist), "above_in_convex_order")
    spread = (below[0] * 1.001 - 0.001 * (below[1] @ below[0]), below[1])
    expect("1-d spread below", checks.projection_1d(mu, nu, spread, above, dist),
           "second_moment_identity")
    expect("1-d reported distance", checks.projection_1d(mu, nu, below, above, dist + 1e-6),
           "reported_distance")
    w2 = checks.w2sq_1d(*mu, *nu)
    reference = co.w2_1d(co.DiscreteMeasure(*mu), co.DiscreteMeasure(*nu)) ** 2
    expect("1-d W2 matches the library", [] if abs(w2 - reference) < 1e-12 else ["w2"], None)


def _tamper(report: dict, kind: str) -> str:
    """Spoil one number of a CLI report; returns the check that must notice."""
    if kind == "project-gaussian":
        report["above"]["cov"][0][0] += 1e-3
        return "trace_identity"
    if kind.startswith("check"):
        report["checks"][0]["passed"] = False
        return report["checks"][0]["name"]
    if kind == "project-1d":
        report["below"]["points"][0][0] -= 0.05
        return "below_in_convex_order"
    if kind.startswith("distance"):
        report["w2_sq"] += 1e-3
        return "w2"
    report["value"] += 1e-3
    return "value_equals_projection_distance"


def cli_cases(rng) -> None:
    workload = CliMixed()
    specs = workload.generate(rng, len(workload.kinds) - 1)  # one of each kind
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.write(specs, workdir)
        for spec, args in zip(specs, workload.load(co, specs, workdir)):
            kind = spec[0]
            path = workload.solve(co, args)
            expect(f"cli {kind} report", workload.check(co, spec, path), None)
            report = json.loads(path.read_text())
            name = _tamper(report, kind)
            path.write_text(json.dumps(report))
            expect(f"cli {kind} spoiled report", workload.check(co, spec, path), name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    rng = np.random.default_rng(0)
    gaussian_cases(rng)
    wot_cases(rng)
    one_dim_cases(rng)
    cli_cases(rng)
    bad = 0
    for label, failed, name in CASES:
        ok = not failed if name is None else name in failed
        bad += not ok
        want = "accepted" if name is None else f"rejected by {name}"
        print(f"{'ok ' if ok else 'BAD'} {label}: {want}; failed checks {failed}")
    print(f"{len(CASES) - bad} of {len(CASES)} cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
