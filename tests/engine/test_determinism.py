"""Determinism regression: same seed + same executor ⇒ identical runs.

Complements the parity suite (which compares executors *against each
other*): here each executor is compared against *itself* across two
independent ``run()`` invocations, end-to-end through the public
experiment API.
"""

import pytest

from repro.experiments.runner import run_algorithm
from repro.experiments.settings import ExperimentSetting, prepare_experiment

from test_parity import build_algorithm, history_fingerprint

EXECUTORS = ["serial", "thread", "process"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_two_runs_produce_identical_round_records(easy_setup, executor):
    first = build_algorithm("adaptivefl", easy_setup, executor)
    first.run()
    second = build_algorithm("adaptivefl", easy_setup, executor)
    second.run()
    assert history_fingerprint(first) == history_fingerprint(second)


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_api_level_runs_reproducible(executor):
    """Through prepare_experiment/run_algorithm: records match field by field."""
    setting = ExperimentSetting(
        dataset="cifar10",
        model="simple_cnn",
        scale="ci",
        seed=11,
        executor=executor,
        max_workers=2,
        overrides={"num_rounds": 2, "eval_every": 2},
    )
    histories = []
    for _ in range(2):
        result = run_algorithm("adaptivefl", prepare_experiment(setting))
        histories.append(
            [
                record.to_dict()
                | {
                    "selected": list(record.selected_clients),
                    "dispatched": list(record.dispatched),
                    "returned": list(record.returned),
                }
                for record in result.history.records
            ]
        )
    assert histories[0] == histories[1]


def test_injected_executor_is_caller_owned_across_runs(easy_setup):
    """set_executor keeps the caller's executor attached and alive through
    run() (which only closes executors it built itself from the config)."""
    from repro.engine.executors import SerialExecutor

    algorithm = build_algorithm("adaptivefl", easy_setup, "serial")
    injected = SerialExecutor()
    algorithm.set_executor(injected)
    algorithm.run(num_rounds=1)
    assert algorithm.executor is injected
    algorithm.run(num_rounds=1)
    assert algorithm.executor is injected
    algorithm.set_executor(None)  # drop back to the config-built executor
    assert algorithm.executor is not injected


def test_config_built_executor_released_after_run(easy_setup):
    algorithm = build_algorithm("adaptivefl", easy_setup, "thread")
    algorithm.run(num_rounds=1)
    assert algorithm._executor is None  # closed by run(); rebuilt lazily


def test_resumed_run_extends_deterministically(easy_setup):
    """run() twice on one instance == one longer run (executor is rebuilt
    after the first run closes it)."""
    split = build_algorithm("adaptivefl", easy_setup, "thread")
    split.run(num_rounds=1)
    split.run(num_rounds=1)
    joint = build_algorithm("adaptivefl", easy_setup, "thread")
    joint.run(num_rounds=2)
    split_rounds = [(r.round_index, r.selected_clients, r.train_loss) for r in split.history.records]
    joint_rounds = [(r.round_index, r.selected_clients, r.train_loss) for r in joint.history.records]
    assert split_rounds == joint_rounds
