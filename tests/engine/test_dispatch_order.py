"""Longest-first dispatch: costliest task started first, results in submission order.

The thread, process and remote executors share ``map_longest_first``
over whatever they are handed (a round hands them stack pieces; these
plain tasks go to the executor directly).  With one
worker the order tasks *start* in is the order they were handed out, so
each task stamps its start and the test reads the dispatch order back
from the stamps; the results themselves must come back in submission
order whatever the costs.  Test ids contain the executor name (CI's
executor-parity matrix filters ``tests/engine`` with ``-k``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_pool import ModelPool
from repro.engine.base import map_longest_first
from repro.engine.executors import ProcessExecutor, ThreadExecutor
from repro.engine.rng import client_stream
from repro.engine.tasks import TrainSubmodelTask
from repro.serve.client import ClientRunner
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions


class StampTask:
    """Returns its submission index and when it started (system-wide monotonic clock)."""

    def __init__(self, index: int, cost: int):
        self.index = index
        self.cost = cost

    def run(self) -> tuple[int, int]:
        return self.index, time.perf_counter_ns()


class PlainTask:
    """A task without a ``cost``: treated as cost 0."""

    def __init__(self, index: int):
        self.index = index

    def run(self) -> tuple[int, int]:
        return self.index, time.perf_counter_ns()


def expected_order(costs: list[int]) -> list[int]:
    """Decreasing cost; equal costs in submission order (reference: a stable sort)."""
    return [index for index, _ in sorted(enumerate(costs), key=lambda pair: -pair[1])]


class TestOrderingHelper:
    def test_costliest_first_and_results_in_submission_order(self):
        seen: list[str] = []

        def ordered_map(batch):
            seen.extend(task.name for task in batch)
            return [task.name.upper() for task in batch]

        class Named:
            def __init__(self, name, cost):
                self.name, self.cost = name, cost

        tasks = [Named("a", 1), Named("b", 5), Named("c", 3), Named("d", 5), Named("e", 0)]
        assert map_longest_first(ordered_map, tasks) == ["A", "B", "C", "D", "E"]
        assert seen == ["b", "d", "c", "a", "e"]

    def test_lazy_iterables_and_empty_batches(self):
        assert map_longest_first(lambda batch: (task.run()[0] for task in batch), []) == []
        tasks = [StampTask(0, 1), StampTask(1, 2)]
        assert map_longest_first(lambda batch: (task.run()[0] for task in batch), tasks) == [0, 1]

    def test_equal_costs_keep_submission_order(self):
        handed: list[int] = []
        tasks = [StampTask(index, 7) for index in range(9)]
        map_longest_first(lambda batch: [handed.append(t.index) for t in batch], tasks)
        assert handed == list(range(9))

    def test_the_first_failure_in_dispatch_order_propagates(self):
        def failing(batch):
            for task in batch:
                if task.cost == 9:
                    raise ValueError(f"task {task.index} exploded")
                yield task.index

        with pytest.raises(ValueError, match="task 1 exploded"):
            map_longest_first(failing, [StampTask(0, 1), StampTask(1, 9), StampTask(2, 9)])


@pytest.fixture(scope="module")
def single_worker_executors():
    """One worker each, so that start order is dispatch order."""
    remote = RemoteExecutor(
        options=ServeOptions(port=0, min_clients=1, connect_timeout=15.0, heartbeat_interval=0.5)
    )
    host, port = remote.start()
    runner = ClientRunner(host, port, "order-w0", backoff_base=0.05, quiet=True)
    client = threading.Thread(target=runner.run, daemon=True)
    client.start()
    executors = {"thread": ThreadExecutor(max_workers=1), "process": ProcessExecutor(max_workers=1), "remote": remote}
    try:
        yield executors
    finally:
        for executor in executors.values():
            executor.shutdown()
        client.join(timeout=10)
        assert not client.is_alive()


@pytest.mark.parametrize("name", ["thread", "process", "remote"])
@settings(max_examples=15, deadline=None)
@given(costs=st.lists(st.integers(min_value=0, max_value=4), max_size=10))
def test_dispatch_is_longest_first_and_stable_results_in_submission_order(
    single_worker_executors, name, costs
):
    executor = single_worker_executors[name]
    results = executor.map([StampTask(index, cost) for index, cost in enumerate(costs)])
    assert [index for index, _ in results] == list(range(len(costs)))
    started = [index for index, _ in sorted(results, key=lambda pair: pair[1])]
    assert started == expected_order(costs)


@pytest.mark.parametrize("name", ["thread", "process", "remote"])
def test_tasks_without_a_cost_run_in_submission_order(single_worker_executors, name):
    results = single_worker_executors[name].map([PlainTask(index) for index in range(6)])
    assert [index for index, _ in results] == list(range(6))
    assert [index for index, _ in sorted(results, key=lambda pair: pair[1])] == list(range(6))


@pytest.mark.parametrize("name", ["thread", "process"])
@settings(max_examples=10, deadline=None)
@given(costs=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12))
def test_two_workers_still_return_submission_order(name, costs):
    executor = {"thread": ThreadExecutor, "process": ProcessExecutor}[name](max_workers=2)
    with executor:
        results = executor.map([StampTask(index, cost) for index, cost in enumerate(costs)])
    assert [index for index, _ in results] == list(range(len(costs)))


class TestTaskCosts:
    """The cost is what the task already knows: the parameters it trains."""

    def test_train_submodel_task_costs_its_parameter_count(self, easy_setup):
        arch = easy_setup["arch"]
        pool = ModelPool(arch, easy_setup["pool"])
        costs = []
        for config in pool.configs:
            sizes = pool.group_sizes(config)
            task = TrainSubmodelTask(
                architecture=arch, group_sizes=sizes, initial_state={}, dataset=None,
                local_config=None, rng_stream=client_stream(0, 0, 0),
            )
            assert task.cost == arch.parameter_count(sizes) == config.num_params
            costs.append(task.cost)
        assert len(set(costs)) > 1

    def test_a_train_submodel_task_needs_its_rng_stream(self, easy_setup):
        """An OS-entropy default would break bit-identical replay, so the stream is not optional."""
        pool = ModelPool(easy_setup["arch"], easy_setup["pool"])
        with pytest.raises(TypeError, match="rng_stream"):
            TrainSubmodelTask(
                architecture=easy_setup["arch"], group_sizes=pool.group_sizes(pool.full_config),
                initial_state={}, dataset=None, local_config=None,
            )

    def test_cost_orders_a_round_like_the_planner_builds_it(self, easy_setup):
        arch = easy_setup["arch"]
        pool = ModelPool(arch, easy_setup["pool"])
        rng = np.random.default_rng(0)
        configs = [pool.configs[int(i)] for i in rng.integers(0, len(pool.configs), 8)]
        tasks = [
            TrainSubmodelTask(
                architecture=arch, group_sizes=pool.group_sizes(config), initial_state={}, dataset=None,
                local_config=None, rng_stream=client_stream(0, 0, index),
            )
            for index, config in enumerate(configs)
        ]
        handed: list[int] = []
        map_longest_first(lambda batch: [handed.append(t.cost) for t in batch], tasks)
        assert handed == sorted(handed, reverse=True)
