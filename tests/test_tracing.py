"""The benchmark's tracer finds the library's work under the names it wraps.

``benchmark/tracing.py`` rebinds module-level names of ``convex_order``
(and ``cli._emit``, ``cli._load_json``, ``discrete._basis_cycle``); a name
renamed or bypassed in the library would make a layer read as no work.
"""

import importlib.util
from pathlib import Path

import numpy as np

import convex_order
from convex_order import cli
from _utils import random_spd

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_layer_through_its_names(tmp_path):
    rng = np.random.default_rng(3)
    cov_mu, cov_nu = random_spd(rng, 4), random_spd(rng, 4)
    mu = convex_order.DiscreteMeasure(rng.normal(size=(6, 2)), rng.dirichlet(np.ones(6)))
    nu = convex_order.DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    problem = tmp_path / "p.json"
    problem.write_text('{"mu": {"points": [-1.0, 0.5, 2.0], "weights": [0.2, 0.5, 0.3]},'
                       ' "nu": {"points": [0.0, 1.0], "weights": [0.5, 0.5]}}')
    eigh, emit = np.linalg.eigh, cli._emit

    tracer = _load_tracing().Tracer()
    tracer.install(convex_order)
    try:
        tracer.enabled = True
        convex_order.project_pair(cov_mu, cov_nu)
        convex_order.project_discrete(mu, nu)
        with tracer.span("cli.command"):
            cli.main.main(args=["project-1d", str(problem), "--output", str(tmp_path / "r.json")],
                          prog_name="convex-order", standalone_mode=False)
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics(3)
    for name in ("pgd.iterations", "discrete.lp_calls", "discrete.pivots",
                 "one_dim.project_ms", "one_dim.hull_ms", "cli.parse_ms", "cli.emit_ms"):
        assert metrics[name][0] > 0, name
    assert np.linalg.eigh is eigh
    assert cli._emit is emit
