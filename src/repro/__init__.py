"""AdaptiveFL reproduction (DAC 2024).

This package *is* the public surface: ``_EXPORTS`` names each entry point
and the submodule that defines it, resolved lazily so ``import repro``
stays cheap::

    from repro import ExperimentSetting, ExperimentSession, ProgressCallback
    session = ExperimentSession(ExperimentSetting(model="simple_cnn"))
    result = session.with_callback(ProgressCallback()).run("adaptivefl")

or from a shell: ``python -m repro run --algorithm adaptivefl --scale ci``.
The subpackages export nothing of their own; any other name is imported
from the submodule that defines it.

Package layout:

* ``repro.api`` — the experiment-session layer: algorithm registry
  (``@register_algorithm``), training callbacks, serialisable
  ``ExperimentSpec``, ``ExperimentSession`` and the CLI.
* ``repro.nn`` — numpy deep-learning substrate and slimmable model zoo.
* ``repro.data`` — synthetic federated datasets and partitioners.
* ``repro.devices`` — device heterogeneity / resource-uncertainty models and
  the simulated real test-bed.
* ``repro.engine`` — the parallel client-execution engine: serial, thread
  and process executors with bit-identical, seed-stable results, plus the
  sliced-download, exact-upload weight transport with per-worker state caching.
* ``repro.perf`` — the profiling + optimization layer: the round's timing
  seam (stages and counters, CLI ``--profile``), reusable kernel
  workspaces, FLOP counting.
* ``repro.sim`` — the discrete-event AIoT fleet simulator: scenario
  registry (``@register_scenario``), availability/dropout/battery/network
  dynamics and deadline-aware aggregation accounting.
* ``repro.store`` — the durable experiment store: self-checking
  per-round checkpoints, bit-identical resume, sweep orchestration over
  (algorithms × scenarios × seeds) grids and report regeneration from
  stored state only.
* ``repro.core`` — the paper's contribution: fine-grained width-wise
  pruning, RL-based client selection, heterogeneous aggregation and the
  AdaptiveFL training loop.
* ``repro.baselines`` — All-Large (FedAvg), Decoupled, HeteroFL and ScaleFL,
  all self-registered in the algorithm registry.
* ``repro.experiments`` — settings, scales, registry-driven runners and
  report rendering that regenerate the paper's tables and figures.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.2.0"

_EXPORTS: dict[str, str] = {
    # algorithms
    "AdaptiveFL": "repro.core.server",
    "FederatedAlgorithm": "repro.core.fl_base",
    # configs
    "AdaptiveFLConfig": "repro.core.config",
    "FederatedConfig": "repro.core.config",
    "LocalTrainingConfig": "repro.core.config",
    "ModelPoolConfig": "repro.core.config",
    # history
    "TrainingHistory": "repro.core.history",
    "RoundRecord": "repro.core.history",
    # registry
    "AlgorithmSpec": "repro.api.registry",
    "register_algorithm": "repro.api.registry",
    "get_algorithm": "repro.api.registry",
    "available_algorithms": "repro.api.registry",
    # perf
    "Profiler": "repro.perf.profiler",
    "Workspace": "repro.perf.workspace",
    "count_flops": "repro.perf.flops",
    "count_params": "repro.perf.flops",
    # callbacks
    "Callback": "repro.api.callbacks",
    "ProgressCallback": "repro.api.callbacks",
    "EarlyStopping": "repro.api.callbacks",
    "WallClockBudget": "repro.api.callbacks",
    "JsonHistoryStreamer": "repro.api.callbacks",
    # fleet simulation
    "ScenarioSpec": "repro.sim.scenario",
    "register_scenario": "repro.sim.scenario",
    "get_scenario": "repro.sim.scenario",
    "available_scenarios": "repro.sim.scenario",
    "FleetSimulator": "repro.sim.fleet",
    # execution engine
    "Executor": "repro.engine.base",
    "SerialExecutor": "repro.engine.executors",
    "ThreadExecutor": "repro.engine.executors",
    "ProcessExecutor": "repro.engine.executors",
    "create_executor": "repro.engine.factory",
    # experiment store (repro.store)
    "RunStore": "repro.store.runstore",
    "RunRecorder": "repro.store.runstore",
    "Checkpoint": "repro.store.checkpoint",
    "SweepSpec": "repro.store.sweep",
    "run_sweep": "repro.store.sweep",
    "generate_report": "repro.store.report",
    "write_report": "repro.store.report",
    # experiment layer
    "ExperimentSpec": "repro.api.spec",
    "ExperimentSession": "repro.api.session",
    "ExperimentSetting": "repro.experiments.settings",
    "prepare_experiment": "repro.experiments.settings",
    "AlgorithmResult": "repro.experiments.runner",
    "run_algorithm": "repro.experiments.runner",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
