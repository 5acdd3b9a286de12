"""Each experiment script, and the benchmark's self-test, runs to completion
on its defaults; a fresh interpreter shows which dependencies the package
loads."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _src_env():
    """The environment of a child interpreter that imports ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=_src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_only_the_cli_needs_click_and_orjson():
    code = ("import json, sys\n"
            "import convex_order\n"
            "core = sorted({'click', 'orjson'} & set(sys.modules))\n"
            "import convex_order.cli\n"
            "print(json.dumps([core, sorted({'click', 'orjson'} & set(sys.modules))]))")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], ["click", "orjson"]]


def test_benchmark_selftest(tmp_path):
    """The benchmark's checks accept right answers and name wrong ones; this
    also fails when an entry point that the benchmark calls is renamed."""
    workdir = ROOT / "benchmark" / "out"
    created = not workdir.exists()
    try:
        result = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "selftest.py")], cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
    finally:
        if created:  # the self-test removes its own run directory inside
            with contextlib.suppress(OSError):
                workdir.rmdir()
    assert result.returncode == 0, result.stdout + result.stderr
