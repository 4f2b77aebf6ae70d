"""The end-to-end benchmark's tracer still sees AdaptiveFL's training.

``benchmarks/e2e/tracing.py`` (frozen between benchmark PRs) attributes a
client's training by wrapping ``TrainSubmodelTask.run`` (span
``engine.task``, tagged with the client id) and the ``train_local_model``
name the task module calls (span ``local_training.train``).  A task that
trains alone must show both, nested; a stacked group runs through
``run_stack`` and shows neither.  Installed in-process exactly as the
benchmark's traced leg does, then removed again.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def originals(tracing) -> list:
    """Every name ``install`` replaces, as it finds it now."""
    import repro.serve.client
    import repro.serve.executor

    found = [tracing._get(owner, key) for owner, key, _name, _probe in tracing._targets(False)]
    return found + [repro.serve.client.pickle, repro.serve.executor.pickle]


def descends_from(spans, index: int, ancestor: int) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if parent == ancestor:
            return True
        parent = spans[parent][3]
    return False


def test_every_lone_task_span_holds_its_training(tracing, easy_setup):
    algorithm = AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(
            federated=FederatedConfig(num_rounds=2, clients_per_round=5),
            local=LocalTrainingConfig(local_epochs=1, batch_size=8, max_batches_per_epoch=2),
            pool=easy_setup["pool"],
        ),
        architecture=easy_setup["arch"], train_dataset=easy_setup["train"], partition=easy_setup["partition"],
        test_dataset=easy_setup["test"], profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"], seed=0,
    )
    before = originals(tracing)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    dispatched = []
    try:
        execute = algorithm.execute_client_tasks
        algorithm.execute_client_tasks = lambda tasks: dispatched.append(list(tasks)) or execute(tasks)
        for round_index in range(2):
            tracer.begin_round(round_index, time.perf_counter())
            algorithm.run_round(round_index)
            tracer.end_round(time.perf_counter())
    finally:
        tracing.uninstall(undo)
        algorithm.close()

    assert all(now is then for now, then in zip(originals(tracing), before, strict=True))
    spans = tracer.spans
    lone_tasks = 0
    for round_index, tasks in enumerate(dispatched):
        keys = [task.stack_key() for task in tasks]
        lone = {task.client_id for task, key in zip(tasks, keys) if keys.count(key) == 1}
        task_spans = [
            index for index, span in enumerate(spans) if span[0] == "engine.task" and span[4] == round_index
        ]
        assert {spans[index][5] for index in task_spans} == lone
        for index in task_spans:
            assert any(
                span[0] == "local_training.train" and descends_from(spans, inner, index)
                for inner, span in enumerate(spans)
            ), f"client {spans[index][5]}: no training under its task span"
        lone_tasks += len(lone)
    assert lone_tasks, "every task was stacked: the round exercised no lone task"
