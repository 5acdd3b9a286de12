"""Benchmark of the convex_order library: one seeded workload per run.

    python3 benchmark/run.py --workload gaussian-pgd --seed 1 --seconds 14 --trace 0

The library is imported from the ``src`` directory next to this one.
``--seconds`` sets the length of the problem list (the workload's planned
rate times the seconds, in whole rounds of its size schedule), which every
run solves in full, once, after a warm-up; nothing is cut short by a clock.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``).
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile

# set-up times compile the library from source (see _Setup), and no run
# leaves bytecode behind
sys.dont_write_bytecode = True

import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "convex_order"
MIN_PROBLEMS = 100  # the 90th percentile keeps ten samples above it
# a run may leave out at most max(LEFT_OUT_MIN_CAP, problems // 50) problems
# to a known fault (README.md, "Inputs left out"); more makes it incorrect
LEFT_OUT_MIN_CAP = 4
LEFT_OUT_CAP_DIVISOR = 50
# set-up is repeated this often: once before the warm-up, the rest spread
# evenly through the timed run, so that its median sees the same spells of
# machine speed as the solve times do
SETUP_SAMPLES = 11
# The machine these figures come from changes speed by up to 2x within
# minutes (README.md, "Steadiness").  An untraced run therefore also times a
# fixed piece of the benchmark's own numpy and Python work before every
# problem, and reports its times at the machine speed where that piece takes
# REFERENCE_S.  Changing the reference work changes every scaled figure.
REFERENCE_S = 1.0e-3
_REFERENCE_MATRICES = [
    m @ m.T + np.eye(6) for m in np.random.default_rng(0).normal(size=(4, 6, 6))
]


def _reference_seconds() -> float:
    """Time one round of the fixed reference work."""
    t0 = time.perf_counter()
    for a in _REFERENCE_MATRICES:
        for b in _REFERENCE_MATRICES:
            checks.bw2(a, b)
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - t0


def _slowness(reference: list[float]) -> np.ndarray:
    """Machine slowness around each problem: the median of the seven
    reference timings centred on it, in units of REFERENCE_S."""
    padded = np.pad(np.asarray(reference), 3, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 7)
    return np.median(windows, axis=1) / REFERENCE_S


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Setup:
    """Timed set-up: a fresh import of the library plus input construction.

    Each sample compiles the library from source.  Its bytecode is looked up
    under an empty directory of the run's own (``sys.pycache_prefix``), so a
    ``__pycache__`` left in ``src`` by tests or earlier imports is never
    read, and ``sys.dont_write_bytecode`` keeps that directory empty.  The
    library's dependencies (``click``, numpy) are imported once, untimed,
    and stay loaded.
    """

    def __init__(self, workload, specs, workdir: Path, src: Path):
        self.workload, self.specs, self.workdir, self.src = workload, specs, workdir, src
        self.pycache = workdir / "pycache"
        importlib.import_module(PACKAGE + ".cli")
        self.times: list[float] = []

    def sample(self):
        for name in [m for m in sys.modules if m.split(".")[0] == PACKAGE]:
            del sys.modules[name]
        gc.collect()
        sys.pycache_prefix = str(self.pycache)
        t0 = time.perf_counter()
        try:
            co = importlib.import_module(PACKAGE)
            importlib.import_module(PACKAGE + ".cli")
        finally:
            sys.pycache_prefix = None
        problems = self.workload.load(co, self.specs, self.workdir)
        self.times.append(time.perf_counter() - t0)
        if Path(co.__file__).resolve().parent != self.src / PACKAGE:
            raise ImportError(f"{PACKAGE} was imported from {co.__file__}, not {self.src}")
        return co, problems


def _solve_one(workload, co, problem, tracer: Tracer | None):
    """One timed solve; a failure is returned as the exception."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            answer = workload.solve(co, problem)
        else:
            with tracer.span(_outer_span(workload)):
                answer = workload.solve(co, problem)
    except Exception as exc:  # a failed operation is counted, not fatal
        answer = exc
    return answer, time.perf_counter() - t0


def _check(workload, co, spec, answer) -> list[str]:
    """The names of the failed checks; a check that raises (say, on a NaN
    in the answer) rejects the answer rather than ending the run."""
    try:
        return workload.check(co, spec, answer)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def _outer_span(workload) -> str:
    return "cli.command" if workload.name == "cli-mixed" else "bench.problem"


def _solve_all(workload, co, specs, problems, backups, workdir, setup, tracer):
    """Solve every problem once, in order.

    A problem that fails with an error the workload leaves out (a known
    fault, see README.md) is replaced by the backup input of its slot, built
    and solved in its place; the slot's time is that of both attempts.
    Untraced runs take the remaining set-up samples between problems.
    Returns the specs solved, their answers and times, the reference
    timings and the number of problems left out.
    """
    answers, times, solved, reference = [], [], [], []
    left_out = 0
    gaps = SETUP_SAMPLES - 1
    sample_at = set() if tracer else {len(problems) * (k + 1) // (gaps + 1) for k in range(gaps)}
    for i, (spec, problem, backup) in enumerate(zip(specs, problems, backups)):
        if i in sample_at:
            setup.sample()
        if not tracer:
            reference.append(_reference_seconds())
        answer, seconds = _solve_one(workload, co, problem, tracer)
        if type(answer).__name__ in workload.left_out:
            print(f"left out: {answer}; solving the backup input", file=sys.stderr)
            left_out += 1
            spec, problem = backup, workload.load(co, [backup], workdir)[0]
            answer, backup_seconds = _solve_one(workload, co, problem, tracer)
            seconds += backup_seconds
        if isinstance(answer, Exception):
            traceback.print_exception(answer, file=sys.stderr)
        answers.append(answer)
        times.append(seconds)
        solved.append(spec)
    while not tracer and len(setup.times) < SETUP_SAMPLES:
        setup.sample()
    return solved, answers, times, reference, left_out


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = HERE.parent / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]()
    planned = max(MIN_PROBLEMS, workload.rate * args.seconds)
    count = workload.round_size * math.ceil(planned / workload.round_size)
    # numpy takes non-negative seeds only; this leaves those below 2**64 as they are
    rng = np.random.default_rng([sorted(WORKLOADS).index(args.workload), args.seed % 2**64])
    # the second half backs up the first, slot by slot
    specs = workload.generate(rng, 2 * count)
    specs, backups = specs[:count], specs[count:]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # a directory of its own, even where an earlier run was killed and left one
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=out_dir))
    try:
        if hasattr(workload, "write"):
            workload.write(specs, workdir)
        setup = _Setup(workload, specs, workdir, src)
        co, problems = setup.sample()
        # a failure here is not counted: the same problem fails again, and
        # is counted or left out, in the timed solves
        for problem in problems[: workload.warmup]:
            _solve_one(workload, co, problem, None)

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(co)
            tracer.enabled = True
        gc.collect()
        specs, answers, times, reference, left_out = _solve_all(
            workload, co, specs, problems, backups, workdir, setup, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()

        failed = sum(isinstance(answer, Exception) for answer in answers)
        wrong = 0
        for spec, answer in zip(specs, answers):
            bad = [] if isinstance(answer, Exception) else _check(workload, co, spec, answer)
            if bad:
                wrong += 1
                if wrong <= 5:
                    print(f"check failed: {bad}", file=sys.stderr)
        if wrong:
            print(f"{wrong} of {count} answers failed their checks", file=sys.stderr)
        # more problems left out than the known fault explains: the fault
        # has spread, and the run does not count as correct
        left_out_cap = max(LEFT_OUT_MIN_CAP, count // LEFT_OUT_CAP_DIVISOR)
        if left_out > left_out_cap:
            print(f"{left_out} problems left out, more than {left_out_cap}", file=sys.stderr)

        if tracer is None:
            seconds = np.array(times)
            slowness = _slowness(reference)
            scaled = seconds / slowness
            raw = {
                "solve_ms_p50": float(np.median(seconds)) * 1e3,
                "solve_ms_p90": float(statistics.quantiles(seconds, n=10)[-1]) * 1e3,
                "problems_per_s": (count - failed) / float(seconds.sum()),
                "setup_s": statistics.median(setup.times),
            }
            print(f"unscaled {raw}, median slowness {np.median(slowness):.4f}", file=sys.stderr)
            metrics = {
                "solve_ms_p50": (float(np.median(scaled)) * 1e3, "ms"),
                "solve_ms_p90": (float(statistics.quantiles(scaled, n=10)[-1]) * 1e3, "ms"),
                "problems_per_s": ((count - failed) / float(scaled.sum()), "1/s"),
                "setup_s": (raw["setup_s"] / float(np.median(slowness)), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = tracer.layer_metrics(count)
            metrics["bench.left_out"] = (float(left_out), "count")
            tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": wrong == 0 and left_out <= left_out_cap,
        "attempted": count,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
