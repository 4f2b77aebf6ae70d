"""A round trains the tasks that share a shape as stacked passes, on every executor.

Tasks stack only when their submodel, published state version, local
config and dataset length all match.  :func:`repro.engine.tasks.map_stacked`
groups them: with W workers a stack of K goes out as ``min(K, W)``
contiguous pieces whose sizes differ by at most one (serial: one piece),
one :class:`~repro.engine.tasks.StackTask` per piece — one ``task_dispatch``
frame on the wire; the results come back in submission order, each
bit-identical to the task run alone; and a client whose update is not a
number is still refused by name from inside a stack.  An executor handed
plain tasks runs each on its own.
(``test_nonfinite_update.py`` covers the same refusals through whole runs.)
Test ids of the executor-parametrized cases contain the executor name
(CI's executor-parity matrix filters ``tests/engine`` with ``-k``).
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.model_pool import ModelPool
from repro.core.server import AdaptiveFL
from repro.data.datasets import Dataset
from repro.engine.codecs import Int8Codec, NonFiniteUpdateError
from repro.engine.rng import client_stream
from repro.engine.executors import SerialExecutor, ThreadExecutor
from repro.engine.factory import create_executor
from repro.engine.tasks import ClientTask, TrainSubmodelTask, map_stacked
from repro.engine.transport import StateStore
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions

LOCAL = LocalTrainingConfig(local_epochs=2, batch_size=4, max_batches_per_epoch=2)
IN_PROCESS = ["serial", "thread", "process"]
REPO_ROOT = Path(__file__).resolve().parents[2]


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


@pytest.fixture(scope="module")
def remote_fleet():
    """A RemoteExecutor at quorum 1 with two ``repro client`` processes connected.

    Processes, not threads: the state fetcher a client installs is
    process-global.  Both clients are connected before the first test
    runs, so the executor splits stacks for two slots.
    """
    executor = RemoteExecutor(
        options=ServeOptions(port=0, min_clients=1, connect_timeout=60.0, heartbeat_interval=0.5)
    )
    host, port = executor.start()
    clients = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "client", "--host", host, "--port", str(port),
             "--name", f"stacked-w{index}", "--backoff-base", "0.05"],
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for index in range(2)
    ]
    try:
        deadline = time.monotonic() + 60.0
        while len(executor._coordinator.actors) < 2:
            assert time.monotonic() < deadline, "two clients did not connect"
            time.sleep(0.05)
        yield executor
    finally:
        executor.shutdown()
        for process in clients:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)


@pytest.fixture
def executor_named(request):
    """``executor_named(name)``: a two-worker executor; the shared fleet for ``remote``."""
    opened = []

    def build(name):
        if name == "remote":
            return request.getfixturevalue("remote_fleet")
        opened.append(create_executor(name, max_workers=2))
        return opened[-1]

    yield build
    for executor in opened:
        executor.shutdown()


def dispatched(executor: RemoteExecutor) -> int:
    """The ``task_dispatch`` frames the executor's coordinator has sent so far."""
    return executor.stats()["dispatched"]


@pytest.fixture
def store():
    """Publishes with a spill file, so that process workers resolve the handles too."""
    published = StateStore("stacked")
    yield published
    published.close()


def dataset(easy_setup, client: int, size: int, poison: float | None = None) -> Dataset:
    train = easy_setup["train"]
    rows = easy_setup["partition"].client_indices[client % 8][:size]
    images = train.images[rows].copy()
    if poison is not None:
        images[:, 0, 0, 0] = poison
    return Dataset(images, train.labels[rows], train.num_classes)


def submodel_tasks(easy_setup, store, specs, codec=None, poisoned=()):
    """One task per ``(pool entry, state version, dataset size)``, client ids in order."""
    arch = easy_setup["arch"]
    pool = ModelPool(arch, easy_setup["pool"])
    handles = {
        version: store.publish(arch.build(rng=np.random.default_rng(version)).state_dict(), spill=True)
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


def test_only_tasks_of_one_entry_version_and_length_share_a_pass(easy_setup, store, stacks):
    map_stacked(SerialExecutor(), submodel_tasks(easy_setup, store, SPECS))
    assert sorted(stacks) == [[0, 2, 6], [1, 5], [3, 7]]
    for group in stacks:
        assert len({SPECS[client] for client in group}) == 1


@pytest.mark.parametrize("name", [*IN_PROCESS, "remote"])
def test_results_come_back_in_submission_order_as_if_run_alone(easy_setup, store, stacks, executor_named, name):
    tasks = submodel_tasks(easy_setup, store, SPECS)
    alone = [task.run() for task in tasks]
    assert stacks == []
    results = map_stacked(executor_named(name), tasks)
    for ours, theirs in zip(results, alone, strict=True):
        same_upload(ours, theirs)
    # a process or wire worker's run_stack calls are recorded in the worker
    assert stacks or name in ("process", "remote")


def test_a_thread_executor_hands_run_stack_its_pieces(easy_setup, store, stacks):
    with ThreadExecutor(max_workers=2) as executor:
        map_stacked(executor, submodel_tasks(easy_setup, store, [("L1", 1, 12)] * 5 + [("S1", 1, 12)]))
    assert sorted(stacks) == [[0, 1], [2, 3, 4]]


def test_a_remote_stack_of_three_at_two_workers_goes_out_as_two_frames(easy_setup, store, remote_fleet):
    tasks = submodel_tasks(easy_setup, store, [("L1", 1, 12)] * 3)
    alone = [task.run() for task in tasks]
    assert remote_fleet.effective_workers == 2
    before = dispatched(remote_fleet)
    results = map_stacked(remote_fleet, tasks)
    assert dispatched(remote_fleet) - before == 2
    for ours, theirs in zip(results, alone, strict=True):
        same_upload(ours, theirs)


def test_a_remote_quorum_of_one_splits_for_every_connected_client(easy_setup, store, remote_fleet):
    """Split at the quorum, a stack of 2 would leave the second client idle."""
    assert remote_fleet.options.min_clients == 1
    before = dispatched(remote_fleet)
    map_stacked(remote_fleet, submodel_tasks(easy_setup, store, [("S1", 1, 12)] * 2))
    assert dispatched(remote_fleet) - before == 2


def test_remote_slots_are_the_quorum_until_clients_connect():
    assert RemoteExecutor(options=ServeOptions(min_clients=3, max_inflight=2)).effective_workers == 6


def test_a_poisoned_client_in_a_stack_is_refused_by_name(easy_setup, store, stacks):
    specs = [("L1", 1, 12)] * 4
    with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError, match=r"client 2: update of tensor"):
        map_stacked(SerialExecutor(), submodel_tasks(easy_setup, store, specs, codec=Int8Codec(), poisoned={2}))
    assert stacks == [[0, 1, 2, 3]]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_a_poisoned_client_leaves_its_stack_mates_untouched(easy_setup, store, stacks, executor_named, name):
    """Exact transport: nothing encodes the numbers, so the stack trains on;
    the poisoned client's weights are not finite, its mates' are their own."""
    specs = [("L1", 1, 12)] * 3
    tasks = submodel_tasks(easy_setup, store, specs, poisoned={1})
    with np.errstate(all="ignore"):
        alone = [task.run() for task in tasks]
        stacked = map_stacked(executor_named(name), tasks)
    assert stacks == {"serial": [[0, 1, 2]], "thread": [[1, 2]], "process": []}[name]
    assert np.isnan(stacked[1].mean_loss)
    for ours, theirs in zip(stacked, alone):
        same_upload(ours, theirs)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_a_device_round_stacks_by_planned_return(easy_setup, stacks, name):
    algorithm = AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(
            federated=FederatedConfig(num_rounds=1, clients_per_round=8, executor=name, max_workers=2),
            local=LOCAL, pool=easy_setup["pool"],
        ),
        architecture=easy_setup["arch"], train_dataset=easy_setup["train"], partition=easy_setup["partition"],
        test_dataset=easy_setup["test"], profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"], seed=0,
    )
    plan = algorithm.plan_round(0, algorithm.round_rng(0))
    handle = algorithm.publish_state(algorithm.global_state)
    tasks = [algorithm.make_task(0, plan, slot, handle) for slot in range(len(plan.clients))]
    alone = [task.run() for task in tasks]
    stacked = algorithm.execute_client_tasks(tasks)
    algorithm.close()
    assert stacks or name != "serial"
    assert all(len({plan.returned[plan.clients.index(c)] for c in group}) == 1 for group in stacks)
    for ours, theirs in zip(stacked, alone, strict=True):
        same_upload(ours, theirs)


class KeyedTask(ClientTask):
    """A member of stack ``key``; returns its index and the piece it ran in."""

    def __init__(self, index: int, key: str):
        self.index, self.key = index, key

    def stack_key(self) -> str:
        return self.key

    def run(self) -> tuple[int, tuple[int, ...]]:
        return self.index, (self.index,)

    @staticmethod
    def run_stack(tasks) -> list[tuple[int, tuple[int, ...]]]:
        piece = tuple(task.index for task in tasks)
        return [(task.index, piece) for task in tasks]


class PricelessTask(KeyedTask):
    """Its ``cost`` raises: only an executor that orders its pieces reads it."""

    @property
    def cost(self) -> int:
        raise AssertionError("cost was read")


@pytest.mark.parametrize("name", IN_PROCESS)
@settings(max_examples=10, deadline=None)
@given(keys=st.lists(st.sampled_from("abc"), max_size=12), workers=st.integers(min_value=1, max_value=3))
def test_a_stack_goes_out_as_contiguous_pieces_of_near_equal_size(name, keys, workers):
    with create_executor(name, max_workers=workers) as executor:
        results = map_stacked(executor, [KeyedTask(index, key) for index, key in enumerate(keys)])
        workers = executor.effective_workers
    assert [index for index, _ in results] == list(range(len(keys)))
    for key in set(keys):
        members = [index for index, other in enumerate(keys) if other == key]
        pieces = sorted({piece for index, piece in results if keys[index] == key})
        assert [index for piece in pieces for index in piece] == members
        assert len(pieces) == min(len(members), workers)
        assert max(map(len, pieces)) - min(map(len, pieces)) <= 1


@pytest.mark.parametrize("name", IN_PROCESS)
def test_an_executor_runs_the_tasks_it_is_handed_without_grouping(name):
    with create_executor(name, max_workers=2) as executor:
        assert executor.map([KeyedTask(index, "a") for index in range(3)]) == [(0, (0,)), (1, (1,)), (2, (2,))]


def test_the_serial_executor_never_reads_cost():
    tasks = [PricelessTask(index, key) for index, key in enumerate("aabca")]
    assert map_stacked(SerialExecutor(), tasks) == [
        (0, (0, 1, 4)), (1, (0, 1, 4)), (2, (2,)), (3, (3,)), (4, (0, 1, 4))
    ]
    with ThreadExecutor(max_workers=1) as executor, pytest.raises(AssertionError, match="cost was read"):
        map_stacked(executor, tasks)
