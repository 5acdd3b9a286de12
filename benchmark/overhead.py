"""Tracing overhead: each problem solved untraced and traced, alternately.

    python3 benchmark/overhead.py --workload gaussian-pgd --seed 1 --problems 48

Alternating within one process exposes both timings to the same spells of
machine speed, which separate traced and untraced runs do not.  Prints the
ratio of traced to untraced solve time per workload.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import convex_order as co  # noqa: E402
import convex_order.cli  # noqa: E402,F401
from run import _outer_span  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--problems", type=int, default=48)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]()
    rng = np.random.default_rng([sorted(WORKLOADS).index(args.workload), args.seed])
    specs = workload.generate(rng, args.problems)
    workdir = HERE / "out" / f"overhead-{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if hasattr(workload, "write"):
            workload.write(specs, workdir)
        problems = workload.load(co, specs, workdir)
        for problem in problems[: workload.warmup]:
            workload.solve(co, problem)
        tracer = Tracer()
        plain = traced = 0.0
        for problem in problems:
            t0 = time.perf_counter()
            workload.solve(co, problem)
            plain += time.perf_counter() - t0
            # the untraced solve above runs the library's own functions,
            # not disabled wrappers
            tracer.install(co)
            tracer.enabled = True
            t0 = time.perf_counter()
            with tracer.span(_outer_span(workload)):
                workload.solve(co, problem)
            traced += time.perf_counter() - t0
            tracer.enabled = False
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = len(tracer.start)
    print(f"{args.workload}: untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {traced / plain - 1:+.1%}, {spans / len(problems):.0f} spans per problem")
    return 0


if __name__ == "__main__":
    sys.exit(main())
