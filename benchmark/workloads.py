"""The three workloads: seeded inputs, the library call per problem, and the
check of each answer.

A workload turns a seeded generator into a fixed list of problem specs made
of plain numpy arrays (``generate``), builds the program's inputs from them
through its public constructors (``load``, timed as set-up), solves one
problem through a public entry point (``solve``, timed) and checks the answer
with ``checks`` (``check``, untimed).  Sizes cycle through fixed schedules,
so two seeds differ only in the random matrices, points and weights, not in
the mix of dimensions and sizes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks


def _orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _spd(rng, d: int, rank: int | None = None) -> np.ndarray:
    """Random covariance with eigenvalues in [0.2, 3]; ``rank`` zeroes the rest."""
    q = _orthogonal(rng, d)[:, : rank or d]
    return checks.sym((q * rng.uniform(0.2, 3.0, size=q.shape[1])) @ q.T)


def _atoms(rng, n: int, dim: int, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` distinct points sorted lexicographically, Dirichlet weights.

    The sorted order is the order ``DiscreteMeasure`` keeps, so coupling rows
    and columns line up with the spec.
    """
    points = spread * rng.normal(size=(n, dim))
    points = points[np.lexsort(points.T[::-1])]
    return points, rng.dirichlet(np.ones(n))


class CommandFailed(RuntimeError):
    """A CLI command exited with a non-zero code."""


class GaussianPgd:
    """``project_pair`` on full-rank pairs, d cycling through 3..10."""

    name = "gaussian-pgd"
    rate = 11.0  # problems per second at reference speed; sets the list length
    dims = tuple(range(3, 11))
    round_size = warmup = len(dims)
    # project_pair raised this on 2 of 2000 pairs drawn here, both at d = 9
    # and 10: PGD stops before the transform certifies (CHANGES.md, FOUND)
    left_out = ("CertificationError",)

    def generate(self, rng, count: int) -> list:
        dims = (self.dims[k % len(self.dims)] for k in range(count))
        return [(_spd(rng, d), _spd(rng, d)) for d in dims]

    def load(self, co, specs, workdir):
        return [
            (co.GaussianMeasure(np.zeros(len(a)), a), co.GaussianMeasure(np.zeros(len(b)), b))
            for a, b in specs
        ]

    def solve(self, co, problem):
        mu, nu = problem
        return co.project_pair(mu.cov, nu.cov)

    def check(self, co, spec, answer) -> list[str]:
        below, above = answer
        return checks.gaussian_pair(
            *spec, below.covariance, above.covariance, below.distance_sq
        )


class WotSimplex:
    """``project_discrete`` on Dirichlet-weighted instances, mostly 2-d."""

    name = "wot-simplex"
    rate = 21.0  # more than the others: its 90th percentile lies in a long tail
    # (dimension, atoms of mu, atoms of nu)
    sizes = (
        (2, 8, 8), (2, 10, 10), (1, 12, 12), (2, 12, 8), (2, 8, 12),
        (2, 10, 12), (2, 12, 10), (1, 16, 16), (2, 9, 11), (2, 11, 9),
    )
    round_size = warmup = len(sizes)
    left_out = ()

    def generate(self, rng, count: int) -> list:
        specs = []
        for k in range(count):
            dim, n, m = self.sizes[k % len(self.sizes)]
            specs.append((*_atoms(rng, n, dim, 1.0), *_atoms(rng, m, dim, 0.8)))
        return specs

    def load(self, co, specs, workdir):
        return [
            (co.DiscreteMeasure(x, wx), co.DiscreteMeasure(y, wy)) for x, wx, y, wy in specs
        ]

    def solve(self, co, problem):
        return co.project_discrete(*problem)

    def check(self, co, spec, answer) -> list[str]:
        projection, result = answer
        failed = [] if result.converged else ["converged"]
        failed += checks.wot(
            *spec, result.coupling.pi, result.value, (projection.points, projection.weights)
        )
        x, wx, y, wy = spec
        if x.shape[1] == 1:
            mu, nu = co.DiscreteMeasure(x, wx), co.DiscreteMeasure(y, wy)
            reference = co.project_1d_detail(mu, nu).distance_sq
            if abs(result.value - reference) > checks.VALUE_TOL * (1.0 + reference):
                failed.append("value_equals_quantile_engine")
        return failed


class CliMixed:
    """In-process CLI commands on JSON problem files written at set-up."""

    name = "cli-mixed"
    rate = 22.0
    # problem kind -> CLI subcommand; one cycle of the mix
    commands = {
        "project-gaussian": "project-gaussian",
        "check-assert": "check",
        "project-1d": "project-1d",
        "check-1d": "check",
        "distance-gaussian": "distance",
        "distance-1d": "distance",
        "project-discrete": "project-discrete",
    }
    # one cycle of the mix; the repeats put the median and the 90th
    # percentile inside one kind's block of times rather than on an edge
    kinds = (*commands, "project-gaussian", "distance-1d", "project-1d", "distance-1d")
    round_size = warmup = len(kinds)
    left_out = ()
    # size schedules, taken in turn by each kind: (dimension, rank of nu)
    # for Gaussians, (atoms of mu, atoms of nu) for 1-d measures; the 1-d
    # pairs all hold 4000 atoms, so their commands take about equally long
    gaussian_cases = {
        "project-gaussian": ((2, 1), (3, 2), (4, 2), (4, 3)),
        "check-assert": ((3, 1), (4, 1)),
        "distance-gaussian": ((2, None), (4, None)),
    }
    atom_cases = ((1000, 3000), (3000, 1000), (2000, 2000), (1500, 2500))
    # 1-d problems are costly to write and parse, so each slot of the cycle
    # alternates between this many files; every other command gets its own
    one_d_files = 2

    def generate(self, rng, count: int) -> list:
        """``(kind, spec, file)`` per command; ``file`` numbers the problem file."""
        specs, shared, turns = [], {}, {}
        for k in range(count):
            slot = k % len(self.kinds)
            kind = self.kinds[slot]
            turn = turns[kind] = turns.get(kind, -1) + 1
            if kind in self.gaussian_cases:
                cases = self.gaussian_cases[kind]
                d, rank = cases[turn % len(cases)]
                spec = {
                    "mu": _spd(rng, d),
                    "nu": _spd(rng, d, rank=rank),
                    "means": (rng.normal(size=d), rng.normal(size=d)),
                }
            elif kind == "project-discrete":
                spec = {"mu": _atoms(rng, 5, 2, 1.0), "nu": _atoms(rng, 6, 2, 0.8)}
            else:  # one-dimensional measures with thousands of atoms
                key = (slot, (k // len(self.kinds)) % self.one_d_files)
                if key not in shared:
                    n, m = self.atom_cases[len(shared) % len(self.atom_cases)]
                    shared[key] = ({"mu": _atoms(rng, n, 1, 1.0), "nu": _atoms(rng, m, 1, 0.8)}, k)
                spec, first = shared[key]
                specs.append((kind, spec, first))
                continue
            specs.append((kind, spec, k))
        return specs

    def write(self, specs, workdir: Path) -> None:
        """Write each distinct problem (and assert file) as the CLI reads it."""
        for k, (kind, spec, file) in enumerate(specs):
            if file != k:
                continue  # written at its first use
            if "means" in spec:
                problem = {
                    side: {"mean": mean.tolist(), "cov": spec[side].tolist()}
                    for side, mean in zip(("mu", "nu"), spec["means"])
                }
            else:
                problem = {
                    side: {"points": spec[side][0].tolist(), "weights": spec[side][1].tolist()}
                    for side in ("mu", "nu")
                }
            (workdir / f"problem-{k}.json").write_text(json.dumps(problem))
            if kind == "check-assert":
                below, above = _rank_one_projections(spec["mu"], spec["nu"])
                expected = {"below_cov": below.tolist(), "above_cov": above.tolist(), "tol": 1e-8}
                (workdir / f"expected-{k}.json").write_text(json.dumps(expected))

    def load(self, co, specs, workdir):
        """Parse each problem file once, through the CLI's own reader."""
        cli = co.cli
        problems = []
        for k, (kind, _, file) in enumerate(specs):
            path = workdir / f"problem-{file}.json"
            if file == k:
                data = cli._load_json(str(path))
                cli._measure_pair(data, cli._problem_mode(data))
            args = [self.commands[kind], str(path), "--output", str(workdir / f"report-{k}.json")]
            if kind == "check-assert":
                args += ["--assert-file", str(workdir / f"expected-{file}.json")]
            problems.append(args)
        return problems

    def solve(self, co, args):
        cli = co.cli
        try:
            cli.main.main(args=args, prog_name="convex-order", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise CommandFailed(f"{' '.join(args)} exited with {exc.code}") from exc
        return Path(args[args.index("--output") + 1])

    def check(self, co, spec, report_path) -> list[str]:
        kind, spec, _ = spec
        report = json.loads(report_path.read_text())
        if kind.startswith("check"):
            return [c["name"] for c in report["checks"] if not c["passed"]] + (
                [] if report["passed"] else ["passed"]
            )
        if kind == "project-gaussian":
            return checks.gaussian_pair(
                spec["mu"], spec["nu"], report["below"]["cov"], report["above"]["cov"],
                report["below"]["centered_distance_sq"], kkt=False,
            )
        if kind == "distance-gaussian":
            mean_mu, mean_nu = spec["means"]
            w2_sq = float(np.sum((mean_mu - mean_nu) ** 2)) + checks.bw2(spec["mu"], spec["nu"])
            scale = 1.0 + np.trace(spec["mu"]) + np.trace(spec["nu"])
            return [] if abs(report["w2_sq"] - w2_sq) <= checks.DIST_TOL * scale else ["w2"]
        if kind == "distance-1d":
            w2_sq = checks.w2sq_1d(*spec["mu"], *spec["nu"])
            scale = 1.0 + checks.second_moment(*spec["mu"]) + checks.second_moment(*spec["nu"])
            return [] if abs(report["w2_sq"] - w2_sq) <= checks.CX_TOL * scale else ["w2"]
        if kind == "project-1d":
            return checks.projection_1d(
                spec["mu"], spec["nu"],
                (report["below"]["points"], report["below"]["weights"]),
                (report["above"]["points"], report["above"]["weights"]),
                report["distance_sq"],
            )
        # project-discrete: the value equals W2^2(mu, projection), the
        # projection keeps nu's barycenter
        x, wx = spec["mu"]
        y, wy = spec["nu"]
        points, weights = report["projection"]["points"], report["projection"]["weights"]
        value = report["value"]
        failed = []
        if abs(checks.w2sq_lp(x, wx, points, weights) - value) > checks.GAP_TOL * (1.0 + value):
            failed.append("value_equals_projection_distance")
        shift = np.asarray(weights) @ np.asarray(points) - wy @ y
        if np.linalg.norm(shift) > checks.BARY_TOL * (1.0 + np.linalg.norm(wy @ y)):
            failed.append("pushforward_barycenter")
        return failed


def _rank_one_projections(cov_mu: np.ndarray, cov_nu: np.ndarray):
    """Closed form for a rank-one target ``nu = n v v'``.

    The dominated side lives on the line of ``v``: ``min(m, n) v v'`` with
    ``m = v' mu v``.  The dominating side raises ``mu`` along ``v`` only:
    ``mu + (n - m)_+ v v'``.
    """
    vals, vecs = np.linalg.eigh(cov_nu)
    n, v = vals[-1], vecs[:, -1]
    m = float(v @ cov_mu @ v)
    line = np.outer(v, v)
    return min(m, n) * line, cov_mu + max(n - m, 0.0) * line


WORKLOADS = {w.name: w for w in (GaussianPgd, WotSimplex, CliMixed)}
