"""Profiling and optimization layer for the NumPy training stack.

Three concerns live here:

* :mod:`repro.perf.profiler` — scoped wall-clock timers + counters
  threaded through :meth:`repro.core.fl_base.FederatedAlgorithm.run`
  and exposed on the CLI as ``--profile``.
* :mod:`repro.perf.workspace` — reusable ndarray buffers that remove
  per-batch allocation from the conv/pool/optimizer hot paths.
* :mod:`repro.perf.flops` — parameter and FLOP counting, used for
  Table 1 and the test-bed clock.

Exports resolve lazily so low-level modules (``repro.nn.layers`` needs
:mod:`repro.perf.workspace`; :mod:`repro.perf.flops` needs
``repro.nn.layers``) never form an import cycle through this package.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = [
    "Profiler",
    "ScopeStats",
    "Workspace",
    "workspace_stats",
    "reset_workspace_stats",
    "FlopReport",
    "count_flops",
    "count_params",
]

_EXPORTS: dict[str, str] = {
    "Profiler": "repro.perf.profiler",
    "ScopeStats": "repro.perf.profiler",
    "Workspace": "repro.perf.workspace",
    "workspace_stats": "repro.perf.workspace",
    "reset_workspace_stats": "repro.perf.workspace",
    "FlopReport": "repro.perf.flops",
    "count_flops": "repro.perf.flops",
    "count_params": "repro.perf.flops",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.perf' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
