"""Two lanes: the calling thread and one helper claim an inference kernel's chunks.

Lanes engage only on the main thread with two usable CPUs; whatever runs
them, every index runs once and the result is the same.  The helper does
not survive a fork: a child that uses lanes starts its own.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.api.registry import get_algorithm
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.nn.layers import Conv2d
from repro.perf import lanes

#: ``store_resume``'s wide model in ``benchmarks/e2e/workloads.py``: a sample
#: of its second convolution (223 kB of columns and padded input) fills a lane
WIDE = ExperimentSetting(
    seed=0, dataset="cifar10", model="simple_cnn", distribution="iid", transport="delta", scale="ci",
    overrides={"width_multiplier": 1.0, "classifier_width": 512, "test_samples": 100},
)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)


def lanes_used(count: int) -> dict[int, list[int]]:
    """The indices each thread ran, by thread ident; each thread opens its lane once.

    An index takes 0.2 ms with the GIL released, so the helper wakes up
    before the caller has claimed them all.
    """
    ran: dict[int, list[int]] = {}

    def open_lane():
        assert threading.get_ident() not in ran
        indices = ran[threading.get_ident()] = []

        def run(index: int) -> None:
            time.sleep(0.0002)
            indices.append(index)

        return run

    lanes.run_in_lanes(open_lane, count)
    return ran


def test_every_index_runs_once_in_two_lanes(two_cpus):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the lanes race for every claim
    try:
        for _ in range(5):
            ran = lanes_used(64)
            assert sorted(index for indices in ran.values() for index in indices) == list(range(64))
            assert len(ran) == 2 and threading.get_ident() in ran
    finally:
        sys.setswitchinterval(interval)


def test_one_cpu_or_a_worker_thread_runs_one_lane(monkeypatch, two_cpus):
    outcome = {}
    worker = threading.Thread(target=lambda: outcome.update(ran=lanes_used(16), lanes=lanes.lane_count()))
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive()
    assert outcome["lanes"] == 1 and list(outcome["ran"]) == [worker.ident]
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    assert lanes.lane_count() == 1
    assert lanes_used(16) == {threading.get_ident(): list(range(16))}


def test_an_error_in_a_lane_is_raised_after_both_lanes_stop(two_cpus):
    def run(index: int) -> None:
        if index == 5:
            raise FloatingPointError("injected")

    with pytest.raises(FloatingPointError, match="injected"):
        lanes.run_in_lanes(lambda: run, 32)
    assert len(lanes_used(32)) == 2  # the helper still serves the next call


def child_runs_two_lanes(queue) -> None:
    queue.put(len(lanes_used(64)))


def test_a_forked_child_starts_its_own_helper(two_cpus):
    assert len(lanes_used(64)) == 2
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=child_runs_two_lanes, args=(queue,))
    child.start()
    child.join(timeout=20)
    if child.exitcode is None:
        child.kill()
        child.join()
        pytest.fail("the forked child hung on the helper it inherited")
    assert child.exitcode == 0 and queue.get(timeout=5) == 2


def test_each_lane_keeps_at_most_its_budget_or_one_sample(monkeypatch, two_cpus):
    blocks: dict[int, int] = {}
    scratch = lanes.lane_scratch

    def recording(nbytes: int) -> np.ndarray:
        block = scratch(nbytes)
        blocks[threading.get_ident()] = max(blocks.get(threading.get_ident(), 0), block.nbytes)
        return block

    monkeypatch.setattr(lanes, "_SCRATCH", lanes._Scratch())  # every thread starts with no block
    monkeypatch.setattr(lanes, "lane_scratch", recording)
    samples: dict[Conv2d, int] = {}
    forward = Conv2d.forward

    def sized(conv, x):
        _, c, h, w = x.shape
        k, p, s = conv.kernel_size, conv.padding, conv.stride
        out = ((h + 2 * p - k) // s + 1) * ((w + 2 * p - k) // s + 1)
        samples[conv] = x.itemsize * (c * k * k * out + (c * (h + 2 * p) * (w + 2 * p) if p else 0))
        return forward(conv, x)

    monkeypatch.setattr(Conv2d, "forward", sized)
    algorithm = get_algorithm("adaptivefl").build(prepare_experiment(WIDE))
    for _ in range(3):
        algorithm.evaluate()
    assert samples and len(blocks) == 2
    limit = max(lanes.LANE_SCRATCH_BYTES, *samples.values())
    assert all(0 < nbytes <= limit for nbytes in blocks.values()), (blocks, limit)
    assert max(samples.values()) <= lanes.LANE_SCRATCH_BYTES  # every sample fits the budget


def test_a_sample_larger_than_the_budget_is_a_chunk_of_one():
    assert lanes.chunk_samples(lanes.LANE_SCRATCH_BYTES * 3, 200) == 1
    assert lanes.chunk_samples(lanes.LANE_SCRATCH_BYTES // 4, 200) == 4
    assert lanes.chunk_samples(1, 7) == 7
