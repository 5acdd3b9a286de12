import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from convex_order import cli, discrete, gaussian, one_dim, pgd
from convex_order.bures import bw2
from convex_order.cli import main
from convex_order.gaussian import project_pair
from convex_order.linalg import NotPsdError
from convex_order.measures import DiscreteMeasure, GaussianMeasure
from convex_order.one_dim import g_function, is_convex_ordered_1d, project_1d_detail


@pytest.fixture
def runner():
    return CliRunner()


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_discrete_problem(path, rng, n, m):
    """N(0, I) atoms in the plane, ``n`` against ``m``, Dirichlet weights."""
    return write_problem(path, {
        side: {"points": rng.normal(size=(k, 2)).tolist(),
               "weights": rng.dirichlet(np.ones(k)).tolist()}
        for side, k in (("mu", n), ("nu", m))
    })


GAUSSIAN_SINGULAR = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 0.0]]},
}
ONE_D = {
    "mu": {"points": [-1.0, 1.0], "weights": [0.5, 0.5]},
    "nu": {"points": [0.0], "weights": [1.0]},
}
DISCRETE = {
    "mu": {"points": [[0.0, 1.0], [1.0, -1.0], [-0.5, 0.2]], "weights": [0.3, 0.3, 0.4]},
    "nu": {"points": [[0.5, 0.5], [-1.0, 0.0]], "weights": [0.6, 0.4]},
}
# a JSON integer beyond the largest double
HUGE = 10**400
# atoms near 1e6, on which a fixed 1e-9 monotonicity guard fired on roundoff
ONE_D_LARGE = {
    "mu": {"points": [-563671.23341115, 800878.51477627, 1356371.30473552],
           "weights": [0.72035459, 0.24629555, 0.03334986]},
    "nu": {"points": [-2881413.47883863], "weights": [1.0]},
}


class TestProjectGaussian:
    def test_singular_example(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        np.testing.assert_allclose(report["above"]["cov"], [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)
        assert report["uniqueness"]["unique"] is False
        np.testing.assert_allclose(report["below"]["cov"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-8)

    def test_correlated_singular_example(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 1.0], [1.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 0.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        np.testing.assert_allclose(report["above"]["cov"], [[2.0, 1.0], [1.0, 1.0]], atol=1e-8)
        assert report["uniqueness"]["unique"] is False

    def test_equal_gaussians(self, runner, tmp_path):
        cov = [[2.0, 0.5], [0.5, 1.0]]
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [1.0, 2.0], "cov": cov},
            "nu": {"mean": [1.0, 2.0], "cov": cov},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        report = json.loads(result.output)
        assert report["below"]["distance_sq"] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(report["transform"]["ratios"], [1.0, 1.0], atol=1e-12)

    def test_commuting_pair_uses_closed_form(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]},
            "nu": {"mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 4.0]]},
        })
        trace_path = tmp_path / "trace.csv"
        result = runner.invoke(main, ["project-gaussian", problem, "--trace", str(trace_path)])
        report = json.loads(result.output)
        assert report["method"] == "commuting"
        # no descent ran, so the trace is its header alone
        assert trace_path.read_text() == "iteration,objective,grad_norm\n"
        np.testing.assert_allclose(report["below"]["cov"], np.eye(2), atol=1e-10)
        np.testing.assert_allclose(report["above"]["cov"], 4 * np.eye(2), atol=1e-10)
        # mean shift enters the full squared distance
        assert report["below"]["distance_sq"] == pytest.approx(
            report["below"]["centered_distance_sq"] + 1.0
        )

    def test_method_pgd_with_trace(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.5, 0.4], [0.4, 0.8]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[0.9, -0.2], [-0.2, 1.7]]},
        })
        trace_path = tmp_path / "trace.csv"
        result = runner.invoke(
            main, ["project-gaussian", problem, "--trace", str(trace_path)]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["method"] == "pgd"
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,grad_norm"
        objectives = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_output_file_round_trip(self, runner, tmp_path):
        # every report is one line of sorted keys, byte-identical after
        # parse -> emit through the CLI's own reader and writer
        gaussian_problem = write_problem(tmp_path / "g.json", GAUSSIAN_SINGULAR)
        one_d_problem = write_problem(tmp_path / "o.json", ONE_D)
        discrete_problem = write_problem(tmp_path / "d.json", DISCRETE)
        commands = [("project-gaussian", gaussian_problem), ("project-1d", one_d_problem),
                    ("project-discrete", discrete_problem), ("distance", gaussian_problem),
                    ("check", discrete_problem)]
        out, again = tmp_path / "report.json", tmp_path / "again.json"
        for command, problem in commands:
            result = runner.invoke(main, [command, problem, "--output", str(out)])
            assert result.exit_code == 0, command
            cli._emit(cli._load_json(str(out)), str(again))
            assert again.read_bytes() == out.read_bytes(), command
            assert out.read_bytes().count(b"\n") == 1, command

    def test_trace_records_the_reduced_descent(self, runner, tmp_path):
        # a singular target runs the descent on its reduced problem
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0] * 3,
                   "cov": [[1.5, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]]},
            "nu": {"mean": [0.0] * 3,
                   "cov": [[2.0, 0.5, 0.0], [0.5, 0.9, 0.0], [0.0, 0.0, 0.0]]},
        })
        trace_path = tmp_path / "trace.csv"
        result = runner.invoke(
            main, ["project-gaussian", problem, "--trace", str(trace_path)]
        )
        assert result.exit_code == 0
        diagnostics = json.loads(result.output)["diagnostics"]
        assert "reduced_trace" not in diagnostics
        rows = trace_path.read_text().strip().splitlines()[1:]
        assert 1 <= len(rows) <= diagnostics["reduced_iterations"]
        objectives = [float(row.split(",")[1]) for row in rows]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["project-gaussian", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("payload", [[1.0, 2.0], {"mu": GAUSSIAN_SINGULAR["mu"]}])
    def test_problem_without_both_measures_is_a_parse_error(self, runner, tmp_path, payload):
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    def test_refused_certificate_is_solver_error(self, runner, tmp_path, monkeypatch):
        # one descent iteration leaves this pair's transform uncertified
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[2.5, 0.0], [0.0, 0.4]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.9, 1.0]]},
        })
        monkeypatch.setattr(pgd, "MAX_ITER", 1)
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == cli.SOLVER_ERROR
        assert result.stderr.startswith("error: order transform failed certification")

    def test_dimension_mismatch_exit_code(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0], "cov": [[1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 2

    def test_non_psd_exit_code(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 2

    def test_non_finite_input_is_parse_error(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[float("nan"), 0.0], [0.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 2
        assert result.output.startswith("error: measure 'mu':")
        assert "must be finite" in result.output

    def test_non_convergence_is_reported(self, runner, tmp_path, monkeypatch):
        # two descent iterations leave the gradient mapping above its stop,
        # but on this pair the transform they give already certifies
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.18, -0.16], [-0.16, 1.3]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.95, -1.54], [-1.54, 3.43]]},
        })
        with monkeypatch.context() as patch:
            patch.setattr(pgd, "MAX_ITER", 2)
            result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 0
        assert "warning" in result.stderr
        report = json.loads(result.stdout)
        assert report["status"] == "not_converged"
        assert report["transform"]["certified"]
        converged = runner.invoke(main, ["project-gaussian", problem])
        assert json.loads(converged.stdout)["status"] == "ok"
        assert "warning" not in converged.stderr

    def test_non_commuting_pair_takes_the_descent(self, runner, tmp_path):
        # cov_mu is not diagonal in the eigenbasis of cov_nu
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[2.5, 0.0], [0.0, 0.4]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.9, 1.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 0
        assert json.loads(result.output)["method"] == "pgd"

    def test_one_solve_per_command(self, runner, tmp_path, monkeypatch):
        # the solve carries the uniqueness verdict, so each command
        # validates and decomposes its pair exactly once
        calls = []
        decompose = gaussian._decompose

        def counting(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(gaussian, "_decompose", counting)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        # the reduced problem of the first commutes; that of the second does not
        tilted = write_problem(tmp_path / "q.json", {
            "mu": {"mean": [0.0, 0.0, 0.0],
                   "cov": [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]},
            "nu": {"mean": [0.0, 0.0, 0.0],
                   "cov": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]},
        })
        for path, reduced_method in ((problem, "commuting"), (tilted, "pgd")):
            calls.clear()
            result = runner.invoke(main, ["project-gaussian", path])
            assert result.exit_code == 0
            report = json.loads(result.output)
            assert report["uniqueness"]["unique"] is False
            assert report["diagnostics"]["reduced_method"] == reduced_method
            assert len(calls) == 1
        calls.clear()
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"]
        assert len(calls) == 1

    def test_ambiguous_rank_leaves_the_verdict_open(self, runner, tmp_path):
        # nu's second eigenvalue is its rank cutoff, inside the rank band
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 2.0**-48]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 0
        uniqueness = json.loads(result.output)["uniqueness"]
        assert uniqueness["unique"] is None
        assert "refusing to classify" in uniqueness["reason"]


class TestProject1d:
    def test_spread_and_dirac(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        result = runner.invoke(main, ["project-1d", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        np.testing.assert_allclose(report["below"]["points"], [[0.0]])
        np.testing.assert_allclose(report["above"]["points"], [[-1.0], [1.0]])

    def test_identical_measures(self, runner, tmp_path):
        payload = {"mu": ONE_D["mu"], "nu": ONE_D["mu"]}
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-1d", problem])
        report = json.loads(result.output)
        assert report["distance_sq"] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(report["below"]["points"], [[-1.0], [1.0]])

    def test_shifted_spread_distances(self, runner, tmp_path):
        payload = {
            "mu": {"points": [0.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"points": [0.0], "weights": [1.0]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-1d", problem])
        report = json.loads(result.output)
        assert report["distance_sq"] == pytest.approx(2.0, abs=1e-12)

    def test_lost_order_is_solver_error(self, runner, tmp_path, monkeypatch):
        # evenly spaced atoms whose coinciding cuts a fixed 1e-15 merge kept
        # apart: the monotonicity guard fires, and both commands that project
        # exit with the solver's code instead of a traceback
        monkeypatch.setattr(one_dim, "_EPS", 1e-15 / (969 + 1530))
        payload = {
            "mu": {"points": np.linspace(-1.0, 1.0, 969).tolist(),
                   "weights": np.full(969, 1.0 / 969).tolist()},
            "nu": {"points": np.linspace(-0.8, 0.8, 1530).tolist(),
                   "weights": np.full(1530, 1.0 / 1530).tolist()},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        for command in ("project-1d", "check"):
            result = runner.invoke(main, [command, problem])
            assert result.exit_code == cli.SOLVER_ERROR, command
            assert "lost monotonicity" in result.output, command


class TestProjectDiscrete:
    def test_dirac_source(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0, 0.0]], "weights": [1.0]},
            "nu": {"points": [[-1.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-discrete", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["value"] == pytest.approx(0.0, abs=1e-12)

    def test_report_carries_solver_diagnostics(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]], "weights": [0.2, 0.3, 0.5]},
            "nu": {"points": [[-1.0, 0.0], [1.0, 0.0], [0.0, 3.0], [2.0, 2.0]],
                   "weights": [0.1, 0.2, 0.3, 0.4]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-discrete", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        diag = report["diagnostics"]
        assert diag["stop_reason"] == "gap"
        assert diag["lp_calls"] == report["iterations"]
        assert diag["pivots"] >= 0
        assert diag["qp_steps"] >= 1
        assert diag["active_vertices"] >= 1

    def test_agrees_with_1d_command(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        discrete = json.loads(runner.invoke(main, ["project-discrete", problem]).output)
        one_d = json.loads(runner.invoke(main, ["project-1d", problem]).output)
        assert discrete["value"] == pytest.approx(one_d["distance_sq"], abs=1e-8)

    def test_coupling_csv(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        csv_path = tmp_path / "pi.csv"
        result = runner.invoke(
            main, ["project-discrete", problem, "--coupling-csv", str(csv_path)]
        )
        assert result.exit_code == 0
        pi = np.loadtxt(csv_path, delimiter=",")
        np.testing.assert_allclose(pi, [0.5, 0.5])

    def test_points_without_coordinates_are_a_parse_error(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": [[], []], "weights": [0.5, 0.5]},
            "nu": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        })
        result = runner.invoke(main, ["project-discrete", problem])
        assert result.exit_code == 2
        assert "measure 'mu': measure needs a nonempty (n, d) support" in result.output

    def test_budget_exit_code(self, runner, tmp_path, monkeypatch):
        # 1001 x 1000 cells are one row more than the budget allows; each
        # command refuses before the transportation simplex runs
        problem = write_discrete_problem(tmp_path / "p.json", np.random.default_rng(46), 1001, 1000)
        lp_calls = []
        monkeypatch.setattr(discrete, "solve_transport_lp", lambda *a: lp_calls.append(a))
        for command in ("project-discrete", "check", "distance"):
            result = runner.invoke(main, [command, problem])
            assert result.exit_code == 3, command
            assert "exceeds the budget 1000000" in result.stderr, command
        assert lp_calls == []

    def test_unmet_gap_exit_code(self, runner, tmp_path, monkeypatch):
        # one Frank-Wolfe iteration leaves this instance at gap 1.77
        problem = write_discrete_problem(tmp_path / "p.json", np.random.default_rng(45), 6, 7)
        with monkeypatch.context() as patch:
            patch.setattr(discrete, "MAX_ITER", 1)
            result = runner.invoke(main, ["project-discrete", problem])
        assert result.exit_code == 3
        assert "duality gap 1.766e+00 not reached in 1 iterations" in result.stderr
        assert runner.invoke(main, ["project-discrete", problem]).exit_code == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_fails_before_solving(self, runner, tmp_path, monkeypatch, tol):
        # --tol inf passed the first vertex as converged; nan and negative
        # targets were never met, and the solve ended in a solver error
        calls = []
        monkeypatch.setattr(cli, "solve_wot", lambda *args, **kwargs: calls.append(args))
        problem = write_discrete_problem(tmp_path / "p.json", np.random.default_rng(45), 3, 4)
        result = runner.invoke(main, ["project-discrete", problem, "--tol", tol])
        assert result.exit_code == 2
        assert result.output.startswith("error: --tol must be finite and nonnegative")
        assert calls == []

    @pytest.mark.parametrize("command", ["project-discrete", "check"])
    def test_undecodable_problem_file_is_a_parse_error(self, runner, tmp_path, command):
        problem = tmp_path / "p.json"
        problem.write_bytes(b"\xff\xfe\x00{\x00}\x00")
        result = runner.invoke(main, [command, str(problem)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: cannot read problem file {problem}:")


class TestDistance:
    def test_gaussian_mode(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "nu": {"mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        })
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        assert report["w2"] == pytest.approx(1.0)
        assert report["centered_w2"] == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_mode_matches_the_library(self, runner, tmp_path):
        payload = {
            "mu": {"mean": [1.0, 0.0], "cov": [[2.0, 0.5], [0.5, 1.0]]},
            "nu": {"mean": [0.0, -2.0], "cov": [[1.0, 0.0], [0.0, 0.0]]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        mu, nu = (GaussianMeasure(np.asarray(payload[k]["mean"]), np.asarray(payload[k]["cov"]))
                  for k in ("mu", "nu"))
        # the Gaussian W2 formula, with and without the shift of the means
        shift = float(np.sum((mu.mean - nu.mean) ** 2))
        assert report["w2"] == float(np.sqrt(shift + bw2(mu.cov, nu.cov)))
        assert report["centered_w2"] == float(np.sqrt(bw2(mu.cov, nu.cov)))
        assert report["bw2"] == bw2(mu.cov, nu.cov)

    def test_gaussian_failure_is_solver_error(self, runner, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NotPsdError("injected")

        monkeypatch.setattr(cli, "bw2", failing)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        result = runner.invoke(main, ["distance", problem])
        assert result.exit_code == 3
        assert "injected" in result.stderr

    @pytest.mark.parametrize("command", ["distance", "check"])
    def test_infeasible_lp_is_solver_error(self, runner, tmp_path, monkeypatch, command):
        # both commands exited 1, the check-failed code, with a traceback
        def infeasible(*args, **kwargs):
            raise discrete.LpInfeasibleError("injected")

        monkeypatch.setattr(cli, "exact_w2_sq", infeasible)
        monkeypatch.setattr(cli, "solve_wot", infeasible)
        problem = write_problem(tmp_path / "p.json", DISCRETE)
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == 3
        assert result.stderr == "error: injected\n"

    @pytest.mark.parametrize("command", ["project-discrete", "distance", "check"])
    def test_unexpected_error_has_its_own_exit_code(self, runner, tmp_path, monkeypatch, command):
        # exit 1 means a check failed; an untyped error names its type instead
        def failing(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(cli, "exact_w2_sq", failing)
        monkeypatch.setattr(cli, "solve_wot", failing)
        problem = write_problem(tmp_path / "p.json", DISCRETE)
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.UNEXPECTED_ERROR
        assert result.stderr == "error: ValueError: injected\n"

    @pytest.mark.parametrize("command", ["project-discrete", "distance", "check"])
    def test_overflowing_cost_is_not_a_check_failure(self, runner, tmp_path, command):
        # squared distances of atoms at 1e160 overflow to inf, so the measure
        # refuses them before any arithmetic
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": [[1e160, 1e160], [-1e160, 0.0]], "weights": [0.5, 0.5]},
            "nu": {"points": [[-1e160, 1e160], [1e160, -1e160]], "weights": [0.5, 0.5]},
        })
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == ("error: measure 'mu': support points must lie within "
                                 "3.273e+150 in absolute value\n")

    @pytest.mark.parametrize("command", ["project-1d", "distance", "project-discrete"])
    def test_one_d_atoms_beyond_the_range_are_a_parse_error(self, runner, tmp_path, command):
        # their squared distances overflow: refused, not reported as null
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": [-1e200, 1e200], "weights": [0.5, 0.5]},
            "nu": {"points": [0.0], "weights": [1.0]},
        })
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == ("error: measure 'mu': support points must lie within "
                                 "3.273e+150 in absolute value\n")

    @pytest.mark.parametrize("side, key, value", [
        ("mu", "points", [[HUGE], [1.0]]),
        ("mu", "points", [HUGE, 1.0]),
        ("nu", "weights", [HUGE]),
        ("mu", "mean", [HUGE, 0.0]),
        ("nu", "cov", [[HUGE, 0.0], [0.0, 1.0]]),
    ], ids=["nested_points", "flat_points", "weights", "mean", "cov"])
    def test_integer_beyond_the_double_range_is_a_parse_error(
        self, runner, tmp_path, side, key, value
    ):
        # numpy's conversion raises OverflowError: refused input, like a NaN
        base = GAUSSIAN_SINGULAR if key in ("mean", "cov") else ONE_D
        payload = {name: {**measure} for name, measure in base.items()}
        payload[side][key] = value
        result = runner.invoke(main, ["distance", write_problem(tmp_path / "p.json", payload)])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == f"error: measure {side!r}: int too large to convert to float\n"

    def test_one_d_mode(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        assert report["mode"] == "one_d"
        assert report["w2"] == pytest.approx(1.0)

    def test_one_d_tiny_weight(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": [0.0, 1.0, 2.0], "weights": [0.5, 1e-17, 0.5 - 1e-17]},
            "nu": {"points": [-1.0, 3.0], "weights": [0.5, 0.5]},
        })
        result = runner.invoke(main, ["distance", problem])
        assert result.exit_code == 0
        assert json.loads(result.output)["w2"] == 1.0

    def test_discrete_mode(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0, 0.0]], "weights": [1.0]},
            "nu": {"points": [[3.0, 4.0]], "weights": [1.0]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        assert report["w2"] == pytest.approx(5.0)


def gaussian_problem(path, scale, shift):
    """A full-rank 3-d pair with covariances times ``scale`` and means
    ``shift`` apart along two axes."""
    mu = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
    nu = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.4], [0.0, 0.4, 0.9]])
    return write_problem(path, {
        "mu": {"mean": [0.0, shift, 0.0], "cov": (scale * mu).tolist()},
        "nu": {"mean": [shift, 0.0, 0.0], "cov": (scale * nu).tolist()},
    })


class TestGaussianAtLargeScale:
    """``bw2`` works at unit scale, as the solve does: in caller units its
    product ``A^1/2 B A^1/2`` overflowed near 1e160, and ``distance`` and
    ``check`` exited 4."""

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_distance_and_check_answer(self, runner, tmp_path, scale):
        problem = gaussian_problem(tmp_path / "p.json", scale, math.sqrt(scale))
        distance = runner.invoke(main, ["distance", problem])
        assert distance.exit_code == 0, distance.output
        assert all(math.isfinite(v) for v in json.loads(distance.output).values()
                   if not isinstance(v, str))
        check = runner.invoke(main, ["check", problem])
        assert check.exit_code == 0, check.output
        report = json.loads(check.output)
        assert report["passed"] is True
        assert all(math.isfinite(c["value"]) and math.isfinite(c["tolerance"])
                   for c in report["checks"])

    @pytest.mark.parametrize("command", ["check", "distance", "project-gaussian"])
    def test_overflowing_trace_is_a_parse_error(self, runner, tmp_path, command):
        # at 3e307 check's tolerances, which add the traces, overflowed to
        # inf and the check passed vacuously
        problem = gaussian_problem(tmp_path / "p.json", 3e307, 0.0)
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == ("error: measure 'mu': covariance trace must not exceed "
                                 "1.072e+301\n")

    @pytest.mark.parametrize("j", [-498, -265, 265, 498])
    def test_dilations_by_powers_of_four_are_exact(self, runner, tmp_path, j):
        # 4^265 is about 1.1e160 and 4^498 about 6.7e299
        def distance(scale, shift):
            result = runner.invoke(main, ["distance", gaussian_problem(tmp_path / "p.json",
                                                                       scale, shift)])
            assert result.exit_code == 0, result.output
            return json.loads(result.output)

        unit, scaled = distance(1.0, 1.0), distance(4.0**j, 2.0**j)
        for key in ("bw2", "w2_sq"):
            assert scaled[key] == 4.0**j * unit[key], key
        for key in ("w2", "centered_w2"):
            assert scaled[key] == 2.0**j * unit[key], key

    @pytest.mark.parametrize("j", [-100, -1, 1, 100])
    def test_check_distance_equality_dilates_exactly(self, runner, tmp_path, j):
        # from 1e160 on, where LAPACK rescales a matrix by a factor that is
        # not a power of two: every check, the Loewner gaps too, runs at unit scale
        def checks(scale):
            result = runner.invoke(main, ["check", gaussian_problem(tmp_path / "p.json",
                                                                    scale, 0.0)])
            assert result.exit_code == 0, result.output
            return {c["name"]: c for c in json.loads(result.output)["checks"]}

        base, scaled = checks(1e160), checks(1e160 * 4.0**j)
        for name in ("trace_identity", "distance_equality", "below_is_dominated",
                     "above_dominates"):
            assert scaled[name]["value"] == 4.0**j * base[name]["value"], name
            assert scaled[name]["tolerance"] == 4.0**j * base[name]["tolerance"], name


class TestCheck:
    def test_gaussian_identities_pass(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.5, 0.3], [0.3, 0.9]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.1, -0.2], [-0.2, 1.4]]},
        })
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "trace_identity" in names and "distance_equality" in names

    def test_gaussian_identities_pass_on_singular_target(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0, 0.0],
                   "cov": [[1.2, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]]},
            "nu": {"mean": [0.0, 0.0, 0.0],
                   "cov": [[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]]},
        })
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True

    def test_one_d_identities_pass(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True

    def test_one_d_order_checks_report_the_violation(self, runner, tmp_path):
        payload = {
            "mu": {"points": [-1.3, 0.2, 0.9, 2.4], "weights": [0.1, 0.4, 0.3, 0.2]},
            "nu": {"points": [-0.4, 0.5, 1.1], "weights": [0.5, 0.2, 0.3]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        checks = {c["name"]: c for c in json.loads(result.output)["checks"]}
        mu = DiscreteMeasure.from_1d(payload["mu"]["points"], payload["mu"]["weights"])
        nu = DiscreteMeasure.from_1d(payload["nu"]["points"], payload["nu"]["weights"])
        detail = project_1d_detail(mu, nu)
        pairs = {"below_in_convex_order": (detail.below, nu),
                 "above_in_convex_order": (mu, detail.above)}
        for name, (eta, target) in pairs.items():
            _, nodes = g_function(eta, target)
            assert checks[name]["value"] == max(-nodes.min(), abs(nodes[-1]))
            assert checks[name]["passed"] is is_convex_ordered_1d(eta, target)

    def test_one_d_identities_pass_at_large_scale(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D_LARGE)
        projected = runner.invoke(main, ["project-1d", problem])
        assert projected.exit_code == 0
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        # the convex-order checks report the tolerance they applied: 1e-9
        # per unit of the largest atom magnitude of the pair they compare
        tolerance = {c["name"]: c["tolerance"] for c in report["checks"]}
        projection = json.loads(projected.output)
        pairs = {"below_in_convex_order": ("nu", "below"), "above_in_convex_order": ("mu", "above")}
        for name, (given, projected_side) in pairs.items():
            points = np.concatenate((ONE_D_LARGE[given]["points"],
                                     np.ravel(projection[projected_side]["points"])))
            assert tolerance[name] == pytest.approx(1e-9 * np.abs(points).max())

    def test_discrete_identities_pass(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", DISCRETE)
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0

    def test_discrete_identities_pass_at_large_scale(self, runner, tmp_path):
        # the barycenters' roundoff grows as 2^j with the points, and so does
        # the tolerance.  The largest |coordinate| lies in [1, 2), so the
        # solve's scale exponent is j - 1
        rng = np.random.default_rng([31, 3])
        sides = {side: (rng.normal(size=(k, 2)), rng.dirichlet(np.ones(k)))
                 for side, k in (("mu", 5), ("nu", 6))}
        for j in (0, 10, 20, 30, 40, 480):
            c = math.ldexp(1.0, j)
            problem = write_problem(tmp_path / "p.json", {
                side: {"points": (c * points).tolist(), "weights": weights.tolist()}
                for side, (points, weights) in sides.items()})
            result = runner.invoke(main, ["check", problem])
            assert result.exit_code == 0, j
            check = json.loads(result.output)["checks"][1]
            assert check["name"] == "pushforward_barycenter"
            assert check["tolerance"] == math.ldexp(1e-10, max(0, j - 1)), j

    def test_declared_one_d_mode_refuses_planar_points(self, runner, tmp_path):
        # the message names the mode, not a command: check and distance print it too
        problem = write_problem(tmp_path / "p.json", {"mode": "one_d", **DISCRETE})
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 2
        assert result.output == (
            "error: mode 'one_d' needs one-dimensional measures, got dimension 2\n")

    def test_corrupted_assertion_fails_named_check(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        assert_file = write_problem(tmp_path / "expect.json", {
            "below_cov": [[0.7, 0.0], [0.0, 0.0]],  # deliberately wrong
            "tol": 1e-8,
        })
        result = runner.invoke(main, ["check", problem, "--assert-file", assert_file])
        assert result.exit_code == 1
        report = json.loads(result.output)
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing and failing[0]["name"] == "assert_below_cov"

    def test_correct_assertion_passes(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        assert_file = write_problem(tmp_path / "expect.json", {
            "below_cov": [[1.0, 0.0], [0.0, 0.0]],
            "above_cov": [[2.0, 0.0], [0.0, 1.0]],
            "tol": 1e-6,
        })
        result = runner.invoke(main, ["check", problem, "--assert-file", assert_file])
        assert result.exit_code == 0

    def test_assertions_reuse_the_checked_solve(self, runner, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return project_pair(*args, **kwargs)

        monkeypatch.setattr(cli, "project_pair", counting)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        assert_file = write_problem(tmp_path / "expect.json", {
            "below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": 1e-6,
        })
        result = runner.invoke(main, ["check", problem, "--assert-file", assert_file])
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_assert_file_outside_gaussian_mode_fails_before_solving(
        self, runner, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "solve_wot", lambda *args, **kwargs: calls.append(args))
        problem = write_problem(tmp_path / "p.json", DISCRETE)
        assert_file = write_problem(tmp_path / "expect.json", {"tol": 1e-6})
        result = runner.invoke(main, ["check", problem, "--assert-file", assert_file])
        assert result.exit_code == 2
        assert "only supported in gaussian mode" in result.output
        assert calls == []

    @pytest.mark.parametrize("expected", [
        {"below_cov": [[1.0, 0.0], [0.0]]},
        {"above_cov": [[2.0, 0.0, 0.0]]},
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": "tight"},
        # a NaN tolerance would fail every assertion and leave a bare NaN in
        # the report; an infinite one would pass any
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": float("nan")},
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": float("inf")},
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": -1e-6},
        {"below_cov": [[float("nan"), 0.0], [0.0, 0.0]]},
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": HUGE},
        {"below_cov": [[HUGE, 0.0], [0.0, 0.0]]},
        {"above_cov": [[2.0, 0.0], [0.0, HUGE]]},
        {"below_cov": [["1.0", 0.0], [0.0, 0.0]]},
        {"above_cov": [[2.0, None], [0.0, 0.0]]},
        {"below_cov": [[1.0, 0.0], [0.0, 0.0]], "tol": "0.5"},
    ], ids=["ragged", "wrong_shape", "bad_tol", "nan_tol", "inf_tol", "negative_tol",
            "nan_entry", "huge_tol", "huge_below_entry", "huge_above_entry",
            "string_entry", "null_entry", "number_string_tol"])
    def test_malformed_assert_file_fails_before_solving(
        self, runner, tmp_path, monkeypatch, expected
    ):
        calls = []
        monkeypatch.setattr(cli, "project_pair", lambda *args, **kwargs: calls.append(args))
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        assert_file = write_problem(tmp_path / "expect.json", expected)
        result = runner.invoke(main, ["check", problem, "--assert-file", assert_file])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: assert file {assert_file}:")
        assert calls == []



class TestMalformedPoints:
    """Points that numpy cannot read as an (n, d) array are parse errors."""

    @pytest.mark.parametrize("command", ["distance", "check"])
    @pytest.mark.parametrize("points", [[[0.0, 1.0], [2.0]], 3.0], ids=["ragged", "scalar"])
    def test_exit_code_is_parse_error(self, runner, tmp_path, command, points):
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": points, "weights": [0.5, 0.5]},
            "nu": {"points": [[0.0, 0.0]], "weights": [1.0]},
        })
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == 2
        assert result.output.startswith("error: measure 'mu':")


class TestColumnPoints:
    """1-d points written as one-element rows are read in one flat pass;
    every other shape, and every row list the pass refuses, is read by
    ``np.asarray`` as before, apart from string and null atoms."""

    @pytest.mark.parametrize("command", ["distance", "project-1d"])
    @pytest.mark.parametrize("points", [
        [[], []], [[[0.0]], [[1.0]]], [{"5": 1.0}], [], [["a"]], [[0.0], [1.0, 2.0]],
    ], ids=["empty-rows", "nested-rows", "dict-row", "empty", "string", "ragged"])
    def test_malformed_rows_keep_the_numpy_error(self, runner, tmp_path, command, points):
        weights = [1.0 / len(points)] * len(points) if points else []
        with pytest.raises((TypeError, ValueError)) as numpy_route:
            DiscreteMeasure(np.asarray(points, dtype=float), np.asarray(weights, dtype=float))
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": points, "weights": weights},
            "nu": {"points": [[0.0]], "weights": [1.0]},
        })
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == f"error: measure 'mu': {numpy_route.value}\n"

    @pytest.mark.parametrize("command", ["distance", "project-1d"])
    @pytest.mark.parametrize("atom", [None, "5", " 5e-1 "], ids=["null", "number-string",
                                                                "padded-string"])
    def test_text_rows_are_refused(self, runner, tmp_path, command, atom):
        # numpy alone reads "5" as 5.0 and null as NaN, reported as non-finite
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"points": [[0.5], [atom]], "weights": [0.5, 0.5]},
            "nu": {"points": [[0.0]], "weights": [1.0]},
        })
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == (
            "error: measure 'mu': support points must be numbers, not strings or null\n")

    def test_rows_read_bit_for_bit_as_numpy_reads_them(self, tmp_path):
        # JSON integers beyond 64 bits are read by the stdlib fallback
        edge = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1, -7, 2**53 + 1, 2**64 - 1, 10**30, True, False]
        rng = np.random.default_rng(3131)
        for k in range(20):
            values = rng.normal(size=int(rng.integers(1, 400))) * 10.0 ** rng.integers(-300, 300)
            values = values.tolist() + edge
            rows = [[values[i]] for i in rng.permutation(len(values))]
            path = tmp_path / f"p{k}.json"
            path.write_text(json.dumps({"points": rows}))
            rows = cli._load_json(str(path))["points"]
            read, expected = cli._column(rows), np.asarray(rows, dtype=float)
            assert read.shape == expected.shape == (len(values), 1)
            assert read.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("points", [
        [0.5, -1.0, 2.0], [[0.0, 1.0], [1.0, -1.0], [-0.5, 0.2]], [[0.0, 1.0]],
    ], ids=["flat", "planar", "one-planar-row"])
    def test_other_shapes_are_read_by_numpy(self, points):
        assert cli._column(points) is points
        weights = [1.0 / len(points)] * len(points)
        measure = cli._parse_discrete({"points": points, "weights": weights}, "mu")
        expected = DiscreteMeasure(np.asarray(points, dtype=float), weights)
        assert measure.points.shape == expected.points.shape
        assert measure.points.tobytes() == expected.points.tobytes()
        assert measure.weights.tobytes() == expected.weights.tobytes()

    def test_reports_match_the_nested_reader_byte_for_byte(self, runner, tmp_path, monkeypatch):
        rng = np.random.default_rng(3132)
        payload = {
            side: {"points": rng.normal(scale=scale, size=(n, 1)).tolist(),
                   "weights": rng.dirichlet(np.ones(n)).tolist()}
            for side, n, scale in (("mu", 1000, 2.0), ("nu", 3000, 1.0))
        }
        assert cli._column(payload["nu"]["points"]).shape == (3000, 1)
        problem = write_problem(tmp_path / "p.json", payload)

        def reports():
            results = [runner.invoke(main, [command, problem])
                       for command in ("project-1d", "distance", "check")]
            assert [r.exit_code for r in results] == [0, 0, 0]
            return [r.stdout_bytes for r in results]

        flat = reports()
        monkeypatch.setattr(cli, "_column", lambda points: points)
        assert reports() == flat


class TestNonNumericEntries:
    """A string or null entry of ``points``, ``weights``, ``mean`` or
    ``cov`` is a parse error that names its measure: numpy alone reads the
    string ``"5"`` as 5.0 and null as NaN, reported as non-finite.  Numbers,
    booleans among them, read as before."""

    SIDES = {
        "points-flat": ({"points": [0.5, "?"], "weights": [0.5, 0.5]}, "support points"),
        "points-planar": ({"points": [[0.5, 0.0], ["?", 1.0]], "weights": [0.5, 0.5]},
                          "support points"),
        "weights": ({"points": [[0.5], [1.5]], "weights": [0.5, "?"]}, "weights"),
        "mean": ({"mean": [0.0, "?"], "cov": [[2.0, 0.5], [0.5, 1.0]]}, "mean entries"),
        "cov": ({"mean": [0.0, 1.0], "cov": [[2.0, "?"], ["?", 1.0]]}, "covariance entries"),
    }

    @staticmethod
    def sound(bad):
        """A measure of the same kind and dimension as ``bad``, all numbers."""
        if "cov" in bad:
            return {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        dim = 2 if isinstance(bad["points"][0], list) and len(bad["points"][0]) == 2 else 1
        return {"points": [[0.0] * dim], "weights": [1.0]}

    @pytest.mark.parametrize("entry", ["5", None], ids=["number-string", "null"])
    @pytest.mark.parametrize("side", ["mu", "nu"])
    @pytest.mark.parametrize("field", list(SIDES))
    @pytest.mark.parametrize("command", ["distance", "check"])
    def test_exit_code_is_parse_error_naming_the_measure(
        self, runner, tmp_path, command, field, side, entry
    ):
        template, what = self.SIDES[field]
        bad = json.loads(json.dumps(template).replace('"?"', json.dumps(entry)))
        other = "nu" if side == "mu" else "mu"
        problem = write_problem(tmp_path / "p.json", {side: bad, other: self.sound(bad)})
        result = runner.invoke(main, [command, problem])
        assert result.exit_code == cli.PARSE_ERROR
        assert result.stderr == (
            f"error: measure {side!r}: {what} must be numbers, not strings or null\n")

    def test_flat_lists_read_bit_for_bit_as_numpy_reads_them(self, tmp_path):
        # JSON integers beyond 64 bits are read by the stdlib fallback
        edge = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1, -7, 2**53 + 1, 2**64 - 1, 10**30, True, False]
        rng = np.random.default_rng(3133)
        for k in range(20):
            pool = (rng.normal(size=int(rng.integers(1, 400)))
                    * 10.0 ** rng.integers(-300, 300)).tolist() + edge
            values = [pool[i] for i in rng.permutation(len(pool))]
            path = tmp_path / f"w{k}.json"
            path.write_text(json.dumps({"weights": values}))
            values = cli._load_json(str(path))["weights"]
            read, expected = cli._floats(values, "weights"), np.asarray(values, dtype=float)
            assert read.shape == expected.shape == (len(values),)
            assert read.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestJsonBoundary:
    """Problems are read and reports written with orjson."""

    EDGE_FLOATS = [
        5e-324, 1e-310, 2.225073858507201e-308,  # subnormals, the largest last
        2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
        -0.0, 0.0, 0.30000000000000004, 0.7999999999999999, 1.0000000000000002,
        9007199254740993.0, 123456789.12345679, 1e-7, 1e16, 1e22, 1e23,
    ]

    def test_reader_matches_the_stdlib_bit_for_bit(self, tmp_path, monkeypatch):
        bits = np.random.default_rng(2525).integers(0, 2**64, size=4000, dtype=np.uint64)
        values = self.EDGE_FLOATS + [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({"values": values}))
        expected = json.loads(path.read_text())["values"]

        def fallback(*args, **kwargs):
            raise AssertionError("the stdlib reader ran")

        monkeypatch.setattr(cli.json, "loads", fallback)
        values = cli._load_json(str(path))["values"]
        assert np.array(values).view(np.uint64).tolist() == (
            np.array(expected).view(np.uint64).tolist())

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        grid = np.array([[1.0, math.nan], [math.inf, -math.inf]])
        report = {
            "floats": [math.nan, math.inf, -math.inf],
            "scalar": np.float64(-math.inf),
            "grid": grid,
            "column": grid[:, 1],  # not contiguous: orjson hands it to _plain
        }
        out = tmp_path / "report.json"
        cli._emit(report, str(out))

        def refuse(literal):
            raise ValueError(f"bare {literal} in the report")

        assert json.loads(out.read_text(), parse_constant=refuse) == {
            "column": [None, None],
            "floats": [None, None, None],
            "grid": [[1.0, None], [None, None]],
            "scalar": None,
        }
