"""``benchmarks/bench_parallel_speedup.py`` must keep running on every executor.

The script is not part of the tier-1 suite, so a regression in it only
shows when someone re-runs it.  This loads it by path and runs one round of
its setting through its latency decorator over a two-worker process pool:
the decorator must forward ``is_interprocess`` so the published state is
spilled where the workers can load it, and the round must equal serial.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import get_algorithm
from repro.engine.executors import ProcessExecutor
from repro.experiments.settings import ExperimentSetting, prepare_experiment

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_parallel_speedup.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_parallel_speedup", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # forked workers unpickle the script's task wrapper by its module name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def one_round(prepared, executor=None):
    algorithm = get_algorithm("adaptivefl").build(prepared)
    if executor is not None:
        algorithm.set_executor(executor)
    history = algorithm.run(num_rounds=1)
    return history.to_dict(), {key: value.copy() for key, value in algorithm.global_state.items()}


def test_device_latency_over_processes_matches_serial(bench):
    kwargs = dict(bench.BENCH_SETTING_KWARGS)
    kwargs["overrides"] = {**kwargs["overrides"], "num_rounds": 1, "eval_every": 1}
    prepared = prepare_experiment(ExperimentSetting(**kwargs))
    executor = bench.DeviceLatencyExecutor(ProcessExecutor(2), 0.001)
    assert executor.is_interprocess
    try:
        history, weights = one_round(prepared, executor)
    finally:
        executor.shutdown()
    serial_history, serial_weights = one_round(prepared)
    assert history == serial_history
    assert weights.keys() == serial_weights.keys()
    for key, value in serial_weights.items():
        assert np.array_equal(weights[key], value), key
