import json

import numpy as np
import pytest
from click.testing import CliRunner

from convex_order import cli, gaussian
from convex_order.bures import bw2, centered_w2, gaussian_w2
from convex_order.cli import main
from convex_order.gaussian import project_pair, reduce_singular_above
from convex_order.linalg import NotPsdError
from convex_order.measures import GaussianMeasure


@pytest.fixture
def runner():
    return CliRunner()


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


GAUSSIAN_SINGULAR = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "nu": {"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 0.0]]},
}
ONE_D = {
    "mu": {"points": [-1.0, 1.0], "weights": [0.5, 0.5]},
    "nu": {"points": [0.0], "weights": [1.0]},
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
        result = runner.invoke(main, ["project-gaussian", problem])
        report = json.loads(result.output)
        assert report["method"] == "commuting"
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
            main, ["project-gaussian", problem, "--method", "pgd",
                   "--trace", str(trace_path)]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["method"] == "pgd"
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,grad_norm"
        objectives = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_output_file_round_trip(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["project-gaussian", problem, "--output", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        report = json.loads(text)
        again = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert again == text

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["project-gaussian", str(bad)])
        assert result.exit_code == 2

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
        assert "finite" in result.output

    def test_non_convergence_is_reported(self, runner, tmp_path):
        # two descent iterations leave the gradient mapping above --tol,
        # but on this pair the transform they give already certifies
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[1.18, -0.16], [-0.16, 1.3]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.95, -1.54], [-1.54, 3.43]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem, "--max-iter", "2"])
        assert result.exit_code == 0
        assert "warning" in result.stderr
        report = json.loads(result.stdout)
        assert report["status"] == "not_converged"
        assert report["transform"]["certified"]
        converged = runner.invoke(main, ["project-gaussian", problem])
        assert json.loads(converged.stdout)["status"] == "ok"
        assert "warning" not in converged.stderr

    def test_closed_form_refusal_is_solver_error(self, runner, tmp_path):
        # a pair outside the shared-correlation regime cannot be forced
        # through the closed form
        problem = write_problem(tmp_path / "p.json", {
            "mu": {"mean": [0.0, 0.0], "cov": [[2.5, 0.0], [0.0, 0.4]]},
            "nu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.9, 1.0]]},
        })
        result = runner.invoke(main, ["project-gaussian", problem, "--method", "closed-form"])
        assert result.exit_code == 3

    def test_uniqueness_reuses_the_reduction(self, runner, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return reduce_singular_above(*args, **kwargs)

        monkeypatch.setattr(gaussian, "reduce_singular_above", counting)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        for method in ("auto", "pgd"):
            calls.clear()
            result = runner.invoke(main, ["project-gaussian", problem, "--method", method])
            assert result.exit_code == 0
            assert json.loads(result.output)["uniqueness"]["unique"] is False
            assert len(calls) == 1


    def test_uniqueness_failure_is_solver_error(self, runner, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NotPsdError("injected")

        monkeypatch.setattr(cli, "is_above_projection_unique", failing)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        result = runner.invoke(main, ["project-gaussian", problem])
        assert result.exit_code == 3
        assert "injected" in result.stderr


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

    def test_budget_exit_code(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0], [1.0], [2.0]], "weights": [0.3, 0.3, 0.4]},
            "nu": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["project-discrete", problem, "--max-iter", "1"])
        # one iteration cannot certify the gap on a nontrivial instance
        assert result.exit_code in (0, 3)
        bad = runner.invoke(main, ["project-discrete", problem])
        assert bad.exit_code == 0


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
        assert report["w2"] == gaussian_w2(mu, nu)
        assert report["centered_w2"] == centered_w2(mu, nu)
        assert report["bw2"] == bw2(mu.cov, nu.cov)

    def test_gaussian_failure_is_solver_error(self, runner, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NotPsdError("injected")

        monkeypatch.setattr(cli, "bw2", failing)
        problem = write_problem(tmp_path / "p.json", GAUSSIAN_SINGULAR)
        result = runner.invoke(main, ["distance", problem])
        assert result.exit_code == 3
        assert "injected" in result.stderr

    def test_one_d_mode(self, runner, tmp_path):
        problem = write_problem(tmp_path / "p.json", ONE_D)
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        assert report["mode"] == "one_d"
        assert report["w2"] == pytest.approx(1.0)

    def test_discrete_mode(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0, 0.0]], "weights": [1.0]},
            "nu": {"points": [[3.0, 4.0]], "weights": [1.0]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        report = json.loads(runner.invoke(main, ["distance", problem]).output)
        assert report["w2"] == pytest.approx(5.0)


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

    def test_discrete_identities_pass(self, runner, tmp_path):
        payload = {
            "mu": {"points": [[0.0, 1.0], [1.0, -1.0], [-0.5, 0.2]],
                   "weights": [0.3, 0.3, 0.4]},
            "nu": {"points": [[0.5, 0.5], [-1.0, 0.0]], "weights": [0.6, 0.4]},
        }
        problem = write_problem(tmp_path / "p.json", payload)
        result = runner.invoke(main, ["check", problem])
        assert result.exit_code == 0

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

