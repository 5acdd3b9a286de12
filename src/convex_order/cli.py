"""Command-line front door.

Subcommands: ``project-gaussian``, ``project-1d``, ``project-discrete``,
``distance``, ``check``.  Problems arrive as UTF-8 JSON files holding the
two measures; reports leave as one compact line of UTF-8 JSON with sorted
keys.  Both directions run through orjson: floats are parsed and written
in C, as the shortest text that reads back to the same double (``1e-7``,
not ``1e-07``), so emit -> parse -> emit is byte-identical, and a NaN or
infinite float is written as ``null``.  A file that orjson refuses, such as
one with ``NaN`` or ``Infinity`` literals, is read again by the stdlib
json module, whose errors are the ones reported.  ``python -m json.tool``
indents a report for reading.

Exit codes: 0 success, 1 check failure, 2 parse error, 3 solver failure
(an engine's typed error), 4 any other error.
"""

from __future__ import annotations

import gc
import json
import math
import struct
import sys
from dataclasses import asdict
from typing import Any

import click
import numpy as np
import orjson

from .bures import bw2
from .discrete import BudgetExceededError, LpInfeasibleError, exact_w2_sq, project_discrete
from .gaussian import ProjectionResult, project_pair
from .linalg import LinalgError, loewner_gap
from .measures import DiscreteMeasure, EmptyMeasureError, GaussianMeasure
from .one_dim import (
    QuantileOrderError,
    convex_order_tol,
    convex_order_violation,
    project_1d_detail,
    w2_1d,
)

PARSE_ERROR = 2
SOLVER_ERROR = 3
CHECK_FAILED = 1
UNEXPECTED_ERROR = 4
# the values of a problem's "mode" key, which distance and check read
MODES = ("gaussian", "one_d", "discrete")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _plain(value: Any) -> Any:
    """The encoder's hook: the numpy arrays orjson refuses, such as
    non-contiguous ones, as nested lists."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_EMIT_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def _emit(report: dict, output: str | None) -> None:
    data = orjson.dumps(report, default=_plain, option=_EMIT_OPTIONS)
    if output:
        with open(output, "wb") as handle:
            handle.write(data)
    else:
        click.echo(data, nl=False)


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            # orjson refuses NaN and Infinity literals, which the stdlib
            # reader accepts; on any other refusal the stdlib words the error
            data = json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail(PARSE_ERROR, f"cannot read problem file {path}: {exc}")
    if not isinstance(data, dict):
        _fail(PARSE_ERROR, f"{path}: expected a JSON object")
    return data


def _packed(values: list) -> np.ndarray:
    """A flat list of real numbers as a float array, packed in one pass.
    ``struct`` takes ints, floats and bools (as 1 and 0) and raises
    ``struct.error`` on anything else, strings and nulls included."""
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


def _floats(value: Any, what: str) -> np.ndarray:
    """``value`` as a float array, as ``np.asarray(value, dtype=float)``
    reads it, except that a string or null entry raises ``ValueError``
    naming ``what``: numpy would read ``"5"`` as 5.0 and null as NaN.  A
    flat list is packed in one pass (``_packed``), which refuses both; any
    other value, or a list the pass refuses, is read by ``np.asarray``,
    which words the shape and type errors, and then read again without a
    dtype, where a string makes a string array and a null an object one.
    A list of lists skips the pass, which would only raise."""
    if type(value) is list and not (value and type(value[0]) is list):
        try:
            return _packed(value)
        except struct.error:
            pass
    floats = np.asarray(value, dtype=float)
    leaves = np.asarray(value)
    kind = leaves.dtype.kind
    if kind == "U" or kind == "O" and any(v is None or isinstance(v, str) for v in leaves.flat):
        raise ValueError(f"{what} must be numbers, not strings or null")
    return floats


def _parse_gaussian(obj: Any, name: str) -> GaussianMeasure:
    try:
        return GaussianMeasure(_floats(obj["mean"], "mean entries"),
                               _floats(obj["cov"], "covariance entries"))
    except (KeyError, TypeError, ValueError, OverflowError, LinalgError) as exc:
        _fail(PARSE_ERROR, f"measure {name!r}: {exc}")


def _column(points: Any) -> Any:
    """A list of one-element lists as an ``(n, 1)`` array, read in one flat
    pass (``_packed``): ``np.asarray`` walks nested lists about 6 times
    slower.  Any other value, or one the flat pass refuses (a string or
    null atom among them), is returned unchanged, so ``_floats`` reads it
    or words its error.  The rows' type is checked first: unpacking would
    also take a one-character string or a one-key dict for an atom."""
    if type(points) is list and list(map(type, points)).count(list) == len(points):
        try:
            return _packed([p for (p,) in points])[:, None]
        except (ValueError, struct.error):
            pass
    return points


def _parse_discrete(obj: Any, name: str) -> DiscreteMeasure:
    try:
        return DiscreteMeasure(_floats(_column(obj["points"]), "support points"),
                               _floats(obj["weights"], "weights"))
    except (KeyError, TypeError, ValueError, OverflowError, EmptyMeasureError) as exc:
        _fail(PARSE_ERROR, f"measure {name!r}: {exc}")


def _problem_mode(problem: dict) -> str | None:
    """The declared mode, which must be one of ``MODES``, else gaussian when
    ``mu`` has a covariance, else ``None``: the parsed points choose."""
    mode = problem.get("mode")
    if mode in MODES:
        return mode
    if "mode" in problem:
        _fail(PARSE_ERROR, f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    mu = problem.get("mu")
    return "gaussian" if isinstance(mu, dict) and "cov" in mu else None


def _measure_pair(problem: dict, mode: str | None):
    """``(mode, mu, nu)``; a ``None`` mode becomes one_d or discrete."""
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
        _fail(PARSE_ERROR,
              f"mode 'one_d' needs one-dimensional measures, got dimension {mu.dim}")
    return mode or ("one_d" if mu.dim == 1 else "discrete"), mu, nu


def _measure_report(m: DiscreteMeasure) -> dict:
    return {"points": m.points, "weights": m.weights}


class _ExitCodes(click.Group):
    """Runs each command with the cyclic garbage collector paused, and maps
    an exception that escapes it to its exit code: the engines' typed errors
    to ``SOLVER_ERROR``, any other to ``UNEXPECTED_ERROR``.  Click's own
    exceptions pass through.  The caller's collector setting is restored on
    every exit."""

    def invoke(self, ctx):
        # a command leaves no cyclic garbage: a collection would only walk
        # the parsed problem's lists, one per atom
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (LinalgError, BudgetExceededError, LpInfeasibleError, QuantileOrderError) as exc:
            _fail(SOLVER_ERROR, str(exc))
        except Exception as exc:
            _fail(UNEXPECTED_ERROR, f"{type(exc).__name__}: {exc}")
        finally:
            if enabled:
                gc.enable()


@click.group(cls=_ExitCodes)
def main():
    """Wasserstein-2 projections in the convex order."""


@main.command("project-gaussian")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the descent trace as CSV (iteration, objective, grad_norm).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_project_gaussian(problem, trace_path, output):
    """Project two Gaussian measures onto each other's convex-order cones."""
    data = _load_json(problem)
    _, mu, nu = _measure_pair(data, "gaussian")
    below, above = project_pair(mu.cov, nu.cov)
    diagnostics = dict(below.diagnostics)
    trace_data = diagnostics.pop("trace", None)
    if trace_path:
        _write_trace(trace_path, trace_data)
    converged = diagnostics.get("pgd_converged", True)
    if not converged:
        click.echo(
            "warning: the descent stopped before convergence "
            f"({diagnostics['stop_reason']}); the transform is still certified",
            err=True,
        )

    shift = float(np.sum((mu.mean - nu.mean) ** 2))

    def side(mean: np.ndarray, result: ProjectionResult) -> dict:
        return {"mean": mean, "cov": result.covariance, "centered_distance_sq": result.distance_sq,
                "distance_sq": result.distance_sq + shift}

    report = {
        "mode": "gaussian",
        "method": below.method,
        "below": side(nu.mean, below),
        "above": side(mu.mean, above),
        "transform": asdict(below.transform),
        "uniqueness": asdict(above.uniqueness),
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
    _, mu, nu = _measure_pair(data, "one_d")
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
@click.option("--coupling-csv", type=click.Path(dir_okay=False), default=None,
              help="Dump the optimal coupling as dense CSV.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_project_discrete(problem, coupling_csv, output):
    """Weak-optimal-transport projection for discrete measures in R^d."""
    data = _load_json(problem)
    _, mu, nu = _measure_pair(data, "discrete")
    projection, result = project_discrete(mu, nu)
    if not result.converged:
        _fail(SOLVER_ERROR, f"duality gap {result.gap:.3e} not reached in "
                            f"{result.iterations} Newton steps")
    if coupling_csv:
        np.savetxt(coupling_csv, result.coupling.pi, delimiter=",")
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
    mode, mu, nu = _measure_pair(data, _problem_mode(data))
    if mode == "gaussian":
        bw2_sq = bw2(mu.cov, nu.cov)
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


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "passed": value <= tolerance}


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
    # bw2 errs by up to 1.7e-8 (1 + value) where a side has rank one (2.4e-15
    # at full rank; a 60-digit d = 2 reference), so this check runs looser
    return [
        _check("trace_identity", trace_residual, 1e-8 * scale),
        _check("distance_equality", distance_residual, 1e-7 * scale),
        _check("below_is_dominated", -below_gap, order_tol),
        _check("above_dominates", -above_gap, order_tol),
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
    # the verdicts of is_convex_ordered_1d, with the violations they test
    return [
        _check("second_moment_identity", moment_residual, 1e-12 * scale),
        _check("distance_symmetry", symmetry_residual, 1e-10 * scale),
        _check("below_in_convex_order", convex_order_violation(detail.below, nu),
               convex_order_tol(detail.below, nu)),
        _check("above_in_convex_order", convex_order_violation(mu, detail.above),
               convex_order_tol(mu, detail.above)),
    ]


def _discrete_checks(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[dict]:
    # the solve project-discrete reports: its value, the cost of one plan
    # from mu to the projection, is at least W2^2(mu, projection), and that
    # is at least the optimum, value - gap, as nu dominates the projection;
    # the residual is the distance of value - W2^2 from [0, gap]
    projection, result = project_discrete(mu, nu)
    excess = result.value - exact_w2_sq(mu, projection)
    bary_residual = float(np.linalg.norm(projection.barycenter - nu.barycenter))
    # roundoff grows with the coordinates: 2^k scales the barycenter's
    # tolerance and 4^k the value's once the largest |coordinate| reaches 4;
    # below that, the absolute MERGE_TOL of the pushforward's atoms keeps
    # them from shrinking
    k = max(0, result.diagnostics["scale_exponent"])
    return [
        _check("value_equals_projection_distance", max(0.0, -excess, excess - result.gap),
               1e-12 * (math.ldexp(1.0, 2 * k) + result.value)),
        _check("pushforward_barycenter", bary_residual, math.ldexp(1e-10, k)),
    ]


def _load_assertions(path: str, mode: str, dim: int) -> tuple[float, dict[str, np.ndarray]]:
    """The tolerance and the expected covariances of an assert file, read
    and vetted before any solve."""
    if mode != "gaussian":
        _fail(PARSE_ERROR, "--assert-file is only supported in gaussian mode")
    data = _load_json(path)
    try:
        tol = data.get("tol", 1e-8)
        if isinstance(tol, str):  # float() would read "0.5" as a number
            raise ValueError(f"tol must be a number, not the string {tol!r}")
        tol = float(tol)
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        expected = {key: _floats(data[key], "expected covariance entries")
                    for key in ("below_cov", "above_cov") if key in data}
        if any(cov.shape != (dim, dim) for cov in expected.values()):
            raise ValueError(f"expected covariances of shape {(dim, dim)}")
        if not all(np.isfinite(cov).all() for cov in expected.values()):
            raise ValueError("expected covariances must be finite")
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(PARSE_ERROR, f"assert file {path}: {exc}")
    return tol, expected


@main.command("check")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--assert-file", "assert_file", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON with expected outputs to compare against (e.g. below_cov).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_check(problem, assert_file, output):
    """Run the solver identities on a problem and report pass/fail."""
    data = _load_json(problem)
    mode, mu, nu = _measure_pair(data, _problem_mode(data))
    tol, expected = _load_assertions(assert_file, mode, mu.dim) if assert_file else (0.0, {})
    if mode == "gaussian":
        below, above = project_pair(mu.cov, nu.cov)
        checks = _gaussian_checks(mu, nu, below, above)
    elif mode == "one_d":
        checks = _one_d_checks(mu, nu)
    else:
        checks = _discrete_checks(mu, nu)

    for key, cov in expected.items():  # gaussian mode only
        actual = (below if key == "below_cov" else above).covariance
        checks.append(_check(f"assert_{key}", float(np.linalg.norm(cov - actual)), tol))

    passed = all(c["passed"] for c in checks)
    _emit({"mode": mode, "checks": checks, "passed": passed}, output)
    if not passed:
        sys.exit(CHECK_FAILED)


if __name__ == "__main__":
    main()
