"""Command-line front door.

Subcommands: ``project-gaussian``, ``project-1d``, ``project-discrete``,
``distance``, ``check``.  Problems arrive as JSON files holding the two
measures; reports leave as JSON with canonical key order (floats use the
shortest round-trip representation, so emit -> parse -> emit is
byte-identical).

Exit codes: 0 success, 1 check failure, 2 parse error, 3 solver failure.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import click
import numpy as np

from .bures import bw2
from .discrete import (
    BudgetExceededError,
    LpInfeasibleError,
    WotConfig,
    barycentric_pushforward,
    exact_w2_sq,
    is_convex_ordered_1d,
    solve_wot,
)
from .gaussian import (
    CertificationError,
    ProjectionResult,
    RankAmbiguousError,
    is_above_projection_unique,
    project_pair,
)
from .linalg import LinalgError, loewner_gap
from .measures import DiscreteMeasure, EmptyMeasureError, GaussianMeasure
from .one_dim import project_1d_detail, w2_1d
from .pgd import PgdConfig

PARSE_ERROR = 2
SOLVER_ERROR = 3
CHECK_FAILED = 1


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _jsonify(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(PARSE_ERROR, f"cannot read problem file {path}: {exc}")
    if not isinstance(data, dict):
        _fail(PARSE_ERROR, f"{path}: expected a JSON object")
    return data


def _parse_gaussian(obj: Any, name: str) -> GaussianMeasure:
    try:
        return GaussianMeasure(np.asarray(obj["mean"], dtype=float),
                               np.asarray(obj["cov"], dtype=float))
    except (KeyError, TypeError, ValueError, LinalgError) as exc:
        _fail(PARSE_ERROR, f"measure {name!r}: {exc}")


def _parse_discrete(obj: Any, name: str) -> DiscreteMeasure:
    try:
        return DiscreteMeasure(np.asarray(obj["points"], dtype=float),
                               np.asarray(obj["weights"], dtype=float))
    except (KeyError, TypeError, ValueError, EmptyMeasureError) as exc:
        _fail(PARSE_ERROR, f"measure {name!r}: {exc}")


def _problem_mode(problem: dict) -> str:
    mode = problem.get("mode")
    if mode in ("gaussian", "one_d", "discrete"):
        return mode
    mu = problem.get("mu", {})
    if isinstance(mu, dict) and "cov" in mu:
        return "gaussian"
    points = np.asarray(mu.get("points", []), dtype=float) if isinstance(mu, dict) else None
    if points is not None and points.size and (points.ndim == 1 or points.shape[1] == 1):
        return "one_d"
    return "discrete"


def _measure_pair(problem: dict, mode: str):
    if "mu" not in problem or "nu" not in problem:
        _fail(PARSE_ERROR, "problem needs 'mu' and 'nu' entries")
    if mode == "gaussian":
        mu = _parse_gaussian(problem["mu"], "mu")
        nu = _parse_gaussian(problem["nu"], "nu")
    else:
        mu = _parse_discrete(problem["mu"], "mu")
        nu = _parse_discrete(problem["nu"], "nu")
    if mu.dim != nu.dim:
        _fail(PARSE_ERROR, f"dimension mismatch: mu has {mu.dim}, nu has {nu.dim}")
    if mode == "one_d" and mu.dim != 1:
        _fail(PARSE_ERROR, "project-1d needs one-dimensional measures")
    return mu, nu


def _measure_report(m: DiscreteMeasure) -> dict:
    return {"points": m.points, "weights": m.weights}


@click.group()
def main():
    """Wasserstein-2 projections in the convex order."""


@main.command("project-gaussian")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["auto", "closed-form", "pgd"]),
              default="auto", show_default=True)
@click.option("--eta", type=float, default=None,
              help="Initial descent step; later steps follow the Barzilai-Borwein rule.")
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Descent stops once the gradient mapping ||S - S+|| / eta falls "
                   "below tol * (1 + ||cov_nu||_F).")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the descent trace as CSV (iteration, objective, grad_norm).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_project_gaussian(problem, method, eta, max_iter, tol, trace_path, output):
    """Project two Gaussian measures onto each other's convex-order cones."""
    data = _load_json(problem)
    mu, nu = _measure_pair(data, "gaussian")
    config = PgdConfig(step_size=eta, max_iter=max_iter, residual_tol=tol)
    try:
        below, above = project_pair(mu.cov, nu.cov, method=method, config=config)
    except (CertificationError, LinalgError) as exc:
        _fail(SOLVER_ERROR, str(exc))
    try:
        uniqueness = is_above_projection_unique(mu.cov, nu.cov, above.reduction)
        unique_report = {"unique": uniqueness.unique, "reason": uniqueness.reason}
    except RankAmbiguousError as exc:
        unique_report = {"unique": None, "reason": str(exc)}
    except LinalgError as exc:
        _fail(SOLVER_ERROR, str(exc))

    diagnostics = dict(below.diagnostics)
    trace_data = diagnostics.pop("trace", None)
    if trace_path:
        _write_trace(trace_path, trace_data)
    # a singular target runs the descent on its reduced problem
    prefix = "reduced_" if "reduced_pgd_converged" in diagnostics else ""
    converged = diagnostics.get(prefix + "pgd_converged", True)
    if not converged:
        click.echo(
            "warning: the descent stopped before convergence "
            f"({diagnostics[prefix + 'stop_reason']}); the transform is still certified",
            err=True,
        )

    shift = float(np.sum((mu.mean - nu.mean) ** 2))
    transform = below.transform
    report = {
        "mode": "gaussian",
        "method": below.method,
        "below": {
            "mean": nu.mean,
            "cov": below.covariance,
            "centered_distance_sq": below.distance_sq,
            "distance_sq": below.distance_sq + shift,
        },
        "above": {
            "mean": mu.mean,
            "cov": above.covariance,
            "centered_distance_sq": above.distance_sq,
            "distance_sq": above.distance_sq + shift,
        },
        "transform": {
            "basis": transform.basis,
            "ratios": transform.ratios,
            "order_residual": transform.order_residual,
            "certified": transform.certified,
        },
        "uniqueness": unique_report,
        "diagnostics": diagnostics,
        "status": "ok" if converged else "not_converged",
    }
    _emit(report, output)


def _write_trace(path: str, trace_data: dict | None) -> None:
    lines = ["iteration,objective,grad_norm"]
    if trace_data:
        for i, (o, g) in enumerate(
            zip(trace_data["objective"], trace_data["grad_norm"]), start=1
        ):
            lines.append(f"{i},{o!r},{g!r}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@main.command("project-1d")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_project_1d(problem, output):
    """Quantile-formula projections for 1-d discrete measures."""
    data = _load_json(problem)
    mu, nu = _measure_pair(data, "one_d")
    detail = project_1d_detail(mu, nu)
    report = {
        "mode": "one_d",
        "below": _measure_report(detail.below),
        "above": _measure_report(detail.above),
        "distance_sq": detail.distance_sq,
        "cross_distance_sq": detail.cross_distance_sq,
    }
    _emit(report, output)


@main.command("project-discrete")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Relative duality-gap target.")
@click.option("--max-iter", type=int, default=50_000, show_default=True)
@click.option("--coupling-csv", type=click.Path(dir_okay=False), default=None,
              help="Dump the optimal coupling as dense CSV.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_project_discrete(problem, tol, max_iter, coupling_csv, output):
    """Weak-optimal-transport projection for discrete measures in R^d."""
    data = _load_json(problem)
    mu, nu = _measure_pair(data, "discrete")
    try:
        result = solve_wot(mu, nu, WotConfig(fw_tol=tol, max_iter=max_iter))
    except (BudgetExceededError, LpInfeasibleError) as exc:
        _fail(SOLVER_ERROR, str(exc))
    if not result.converged:
        _fail(SOLVER_ERROR,
              f"duality gap {result.gap:.3e} not reached in {result.iterations} iterations")
    if coupling_csv:
        np.savetxt(coupling_csv, result.coupling.pi, delimiter=",")
    projection = barycentric_pushforward(result.coupling)
    report = {
        "mode": "discrete",
        "value": result.value,
        "gap": result.gap,
        "iterations": result.iterations,
        "projection": _measure_report(projection),
        "barycenter_residual": float(
            np.linalg.norm(projection.barycenter - nu.barycenter)
        ),
        "diagnostics": result.diagnostics,
    }
    _emit(report, output)


@main.command("distance")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_distance(problem, output):
    """Wasserstein-2 distance between the two measures of a problem file."""
    data = _load_json(problem)
    mode = _problem_mode(data)
    mu, nu = _measure_pair(data, mode)
    if mode == "gaussian":
        try:
            bw2_sq = bw2(mu.cov, nu.cov)
        except LinalgError as exc:
            _fail(SOLVER_ERROR, str(exc))
        w2 = float(np.sqrt(float(np.sum((mu.mean - nu.mean) ** 2)) + bw2_sq))
        report = {"mode": mode, "w2": w2, "w2_sq": w2 * w2,
                  "centered_w2": float(np.sqrt(bw2_sq)), "bw2": bw2_sq}
    elif mode == "one_d":
        w2 = w2_1d(mu, nu)
        report = {"mode": mode, "w2": w2, "w2_sq": w2 * w2}
    else:
        w2_sq = exact_w2_sq(mu, nu)
        report = {"mode": mode, "w2": float(np.sqrt(w2_sq)), "w2_sq": w2_sq}
    _emit(report, output)


def _gaussian_checks(
    mu: GaussianMeasure, nu: GaussianMeasure, below: ProjectionResult, above: ProjectionResult
) -> list[dict]:
    scale = 1.0 + abs(float(np.trace(mu.cov))) + abs(float(np.trace(nu.cov)))
    order_tol = 1e-7 * scale
    trace_residual = abs(
        float(np.trace(below.covariance) + np.trace(above.covariance)
              - np.trace(mu.cov) - np.trace(nu.cov))
    )
    distance_residual = abs(bw2(mu.cov, below.covariance) - bw2(nu.cov, above.covariance))
    below_gap = loewner_gap(below.covariance, nu.cov)
    above_gap = loewner_gap(mu.cov, above.covariance)
    # evaluating bw2 at singular matrices carries sqrt(eps)-level noise, so
    # the distance check runs at the looser order tolerance
    return [
        {"name": "trace_identity", "value": trace_residual,
         "tolerance": 1e-8 * scale, "passed": trace_residual <= 1e-8 * scale},
        {"name": "distance_equality", "value": distance_residual,
         "tolerance": 1e-7 * scale, "passed": distance_residual <= 1e-7 * scale},
        {"name": "below_is_dominated", "value": -below_gap,
         "tolerance": order_tol, "passed": below_gap >= -order_tol},
        {"name": "above_dominates", "value": -above_gap,
         "tolerance": order_tol, "passed": above_gap >= -order_tol},
    ]


def _one_d_checks(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[dict]:
    detail = project_1d_detail(mu, nu)
    scale = 1.0 + mu.second_moment() + nu.second_moment()
    moment_residual = abs(
        detail.below.second_moment() + detail.above.second_moment()
        - mu.second_moment() - nu.second_moment()
    )
    symmetry_residual = abs(
        w2_1d(nu, detail.below) ** 2 - detail.cross_distance_sq
    ) + abs(w2_1d(mu, detail.above) ** 2 - detail.cross_distance_sq)
    return [
        {"name": "second_moment_identity", "value": moment_residual,
         "tolerance": 1e-12 * scale, "passed": moment_residual <= 1e-12 * scale},
        {"name": "distance_symmetry", "value": symmetry_residual,
         "tolerance": 1e-10 * scale, "passed": symmetry_residual <= 1e-10 * scale},
        {"name": "below_in_convex_order", "value": 0.0, "tolerance": 1e-9,
         "passed": is_convex_ordered_1d(detail.below, nu)},
        {"name": "above_in_convex_order", "value": 0.0, "tolerance": 1e-9,
         "passed": is_convex_ordered_1d(mu, detail.above)},
    ]


def _discrete_checks(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[dict]:
    result = solve_wot(mu, nu, WotConfig(fw_tol=1e-12))
    projection = barycentric_pushforward(result.coupling)
    value_residual = abs(result.value - exact_w2_sq(mu, projection))
    bary_residual = float(np.linalg.norm(projection.barycenter - nu.barycenter))
    return [
        {"name": "value_equals_projection_distance", "value": value_residual,
         "tolerance": 1e-8 * (1.0 + result.value),
         "passed": value_residual <= 1e-8 * (1.0 + result.value)},
        {"name": "pushforward_barycenter", "value": bary_residual,
         "tolerance": 1e-10, "passed": bary_residual <= 1e-10},
    ]


@main.command("check")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--assert-file", "assert_file", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON with expected outputs to compare against (e.g. below_cov).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_check(problem, assert_file, output):
    """Run the solver identities on a problem and report pass/fail."""
    data = _load_json(problem)
    mode = _problem_mode(data)
    mu, nu = _measure_pair(data, mode)
    try:
        if mode == "gaussian":
            below, above = project_pair(mu.cov, nu.cov)
            checks = _gaussian_checks(mu, nu, below, above)
        elif mode == "one_d":
            checks = _one_d_checks(mu, nu)
        else:
            checks = _discrete_checks(mu, nu)
    except (CertificationError, LinalgError, BudgetExceededError) as exc:
        _fail(SOLVER_ERROR, str(exc))

    if assert_file:
        expected = _load_json(assert_file)
        tol = float(expected.get("tol", 1e-8))
        if mode == "gaussian":
            for key, actual in (("below_cov", below.covariance),
                                ("above_cov", above.covariance)):
                if key in expected:
                    residual = float(
                        np.linalg.norm(np.asarray(expected[key], dtype=float) - actual)
                    )
                    checks.append({"name": f"assert_{key}", "value": residual,
                                   "tolerance": tol, "passed": residual <= tol})
        else:
            _fail(PARSE_ERROR, "--assert-file is only supported in gaussian mode")

    passed = all(c["passed"] for c in checks)
    _emit({"mode": mode, "checks": checks, "passed": passed}, output)
    if not passed:
        sys.exit(CHECK_FAILED)


if __name__ == "__main__":
    main()
