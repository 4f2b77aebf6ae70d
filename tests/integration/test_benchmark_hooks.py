"""The names the end-to-end benchmark's tracer wraps must stay resolvable.

``benchmarks/e2e/tracing.py`` patches call sites from outside and is frozen
between benchmark PRs; a rename or deletion under ``src/`` that it pins
would only surface as a ``KeyError`` in the benchmark's traced phase.  This
resolves every ``(owner, attribute)`` exactly as ``install()`` does.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("worker", [False, True], ids=["server", "worker"])
def test_every_wrapped_call_site_resolves(tracing, worker):
    targets = tracing._targets(worker)
    assert targets
    for owner, key, _name, _probe in targets:
        try:
            original = tracing._get(owner, key)
        except KeyError:
            pytest.fail(f"{getattr(owner, '__name__', owner)!r} no longer defines {key!r} itself")
        assert callable(original), (owner, key)


def test_pickle_shim_sites_resolve():
    import repro.serve.client
    import repro.serve.executor

    assert hasattr(repro.serve.client.pickle, "dumps")
    assert hasattr(repro.serve.executor.pickle, "dumps")
