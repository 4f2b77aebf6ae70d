"""The serial executor trains the tasks that share a shape as one stacked pass.

Tasks stack only when their submodel, published state version, local
config and dataset length all match; the stacked results come back in
submission order, each bit-identical to the task run alone; and a client
whose update is not a number is still refused by name from inside a stack.
(``test_nonfinite_update.py`` covers the same refusals through whole runs.)
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.model_pool import ModelPool
from repro.core.server import AdaptiveFL
from repro.data.datasets import Dataset
from repro.engine.codecs import Int8Codec, NonFiniteUpdateError
from repro.engine.rng import client_stream
from repro.engine.serial import SerialExecutor
from repro.engine.tasks import TrainSubmodelTask
from repro.engine.transport import StateStore

LOCAL = LocalTrainingConfig(local_epochs=2, batch_size=4, max_batches_per_epoch=2)


@pytest.fixture
def stacks(monkeypatch):
    """The client ids of every group a ``run_stack`` call received."""
    seen = []
    original = TrainSubmodelTask.__dict__["run_stack"].__func__

    def recording(tasks):
        seen.append([task.client_id for task in tasks])
        return original(tasks)

    monkeypatch.setattr(TrainSubmodelTask, "run_stack", staticmethod(recording))
    return seen


def dataset(easy_setup, client: int, size: int, poison: float | None = None) -> Dataset:
    train = easy_setup["train"]
    rows = easy_setup["partition"].client_indices[client % 8][:size]
    images = train.images[rows].copy()
    if poison is not None:
        images[:, 0, 0, 0] = poison
    return Dataset(images, train.labels[rows], train.num_classes)


def submodel_tasks(easy_setup, specs, codec=None, poisoned=()):
    """One task per ``(pool entry, state version, dataset size)``, client ids in order."""
    arch = easy_setup["arch"]
    pool = ModelPool(arch, easy_setup["pool"])
    store = StateStore("stacked")
    handles = {
        version: store.publish(arch.build(rng=np.random.default_rng(version)).state_dict())
        for version in sorted({version for _, version, _ in specs})
    }
    return [
        TrainSubmodelTask(
            architecture=arch,
            group_sizes=pool.group_sizes(pool.by_name(entry)),
            initial_state=handles[version],
            dataset=dataset(easy_setup, client, size, np.nan if client in poisoned else None),
            local_config=LOCAL,
            rng_stream=client_stream(0, 3, client),
            client_id=client,
            codec=codec,
        )
        for client, (entry, version, size) in enumerate(specs)
    ]


def same_upload(ours, theirs) -> None:
    assert (ours.mean_loss.hex(), ours.num_steps, ours.num_samples) == (
        theirs.mean_loss.hex(), theirs.num_steps, theirs.num_samples
    )
    assert list(ours.state) == list(theirs.state)
    for name, value in theirs.state.items():
        assert ours.state[name].tobytes() == value.tobytes(), name


#: (pool entry, state version, dataset size) per client, the groups interleaved
SPECS = [
    ("L1", 1, 12), ("S1", 1, 12), ("L1", 1, 12), ("L1", 2, 12), ("L1", 1, 9),
    ("S1", 1, 12), ("L1", 1, 12), ("L1", 2, 12), ("M2", 1, 9),
]


def test_only_tasks_of_one_entry_version_and_length_share_a_pass(easy_setup, stacks):
    SerialExecutor().map(submodel_tasks(easy_setup, SPECS))
    assert sorted(stacks) == [[0, 2, 6], [1, 5], [3, 7]]
    for group in stacks:
        assert len({SPECS[client] for client in group}) == 1


def test_results_come_back_in_submission_order_as_if_run_alone(easy_setup, stacks):
    tasks = submodel_tasks(easy_setup, SPECS)
    alone = [task.run() for task in tasks]
    assert stacks == []
    for ours, theirs in zip(SerialExecutor().map(tasks), alone, strict=True):
        same_upload(ours, theirs)
    assert stacks


def test_a_poisoned_client_in_a_stack_is_refused_by_name(easy_setup, stacks):
    specs = [("L1", 1, 12)] * 4
    with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError, match=r"client 2: update of tensor"):
        SerialExecutor().map(submodel_tasks(easy_setup, specs, codec=Int8Codec(), poisoned={2}))
    assert stacks == [[0, 1, 2, 3]]


def test_a_poisoned_client_leaves_its_stack_mates_untouched(easy_setup, stacks):
    """Exact transport: nothing encodes the numbers, so the stack trains on;
    the poisoned client's weights are not finite, its mates' are their own."""
    specs = [("L1", 1, 12)] * 3
    tasks = submodel_tasks(easy_setup, specs, poisoned={1})
    with np.errstate(all="ignore"):
        alone = [task.run() for task in tasks]
        stacked = SerialExecutor().map(tasks)
    assert stacks == [[0, 1, 2]]
    assert np.isnan(stacked[1].mean_loss)
    for ours, theirs in zip(stacked, alone):
        same_upload(ours, theirs)


def test_a_device_round_stacks_by_planned_return(easy_setup, stacks):
    algorithm = AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(
            federated=FederatedConfig(num_rounds=1, clients_per_round=8), local=LOCAL, pool=easy_setup["pool"]
        ),
        architecture=easy_setup["arch"], train_dataset=easy_setup["train"], partition=easy_setup["partition"],
        test_dataset=easy_setup["test"], profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"], seed=0,
    )
    plan = algorithm.plan_round(0, algorithm.round_rng(0))
    handle = algorithm.publish_state(algorithm.global_state)
    tasks = [algorithm.make_task(0, plan, slot, handle) for slot in range(len(plan.clients))]
    alone = [task.run() for task in tasks]
    stacked = SerialExecutor().map(tasks)
    algorithm.close()
    assert stacks and all(len({plan.returned[plan.clients.index(c)] for c in group}) == 1 for group in stacks)
    for ours, theirs in zip(stacked, alone, strict=True):
        same_upload(ours, theirs)
