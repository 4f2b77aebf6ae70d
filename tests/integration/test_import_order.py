"""Every ``repro`` module must be importable as the *first* ``repro`` import.

``repro.core``'s package init used to import ``fl_base`` eagerly, so a
process that entered through ``repro.engine.codecs``, ``repro.engine.tasks``
or ``repro.serve.client`` (a wire worker's natural entry point) died on a
partially initialised module.  Import order only shows in a fresh
interpreter, hence the subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# one fresh interpreter for the whole sweep: dropping every ``repro`` module
# from ``sys.modules`` before each import replays "first import" per module
SWEEP = """
import importlib, json, pkgutil, sys
import repro

failures = {}
for name in sorted(module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failures[name] = repr(error)
print(json.dumps(failures))
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_every_module_imports_first():
    result = run_python(SWEEP)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {}


@pytest.mark.parametrize("module", ["repro.serve.client", "repro.engine.codecs", "repro.engine.tasks"])
def test_former_cycle_entry_points_import_in_a_fresh_interpreter(module):
    result = run_python(f"import {module}")
    assert result.returncode == 0, result.stderr
