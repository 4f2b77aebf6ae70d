"""The training arena: a task's workspace buffers are carved from one
grow-only block per thread.

``Skeleton.check_out`` opens the thread's arena and ``check_in`` closes it,
also when the task raises.  The block grows, at the close of a task that
needed more, to exactly that need; every later task on the thread carves
its buffers from the same, already faulted-in, memory.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.local_training as local_training
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.core.metrics import evaluate_state
from repro.core.pruning import slice_state_dict
from repro.data.datasets import Dataset
from repro.nn.models import SlimmableMobileNetV2, SlimmableSimpleCNN
from repro.nn.module import Skeleton
from repro.perf import workspace
from repro.perf.lanes import lane_scratch
from repro.perf.workspace import Arena, thread_arena

#: 12 samples in batches of 4: no partial batch, so no workspace key is re-carved
CONFIG = LocalTrainingConfig(local_epochs=1, batch_size=4, max_batches_per_epoch=2)
JOIN_SECONDS = 60.0


def architectures():
    return {
        "simple_cnn": SlimmableSimpleCNN(num_classes=10, input_shape=(3, 16, 16), width_multiplier=0.5, hidden_features=128),
        # depthwise layers: a channel-major batch-norm buffer carved "like" its input
        "mobilenetv2": SlimmableMobileNetV2(
            num_classes=4, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=16
        ),
    }


class Bench:
    """One architecture, three widths of it and a dataset."""

    def __init__(self, arch):
        self.arch = arch
        # uniformly pruned: every layer, so every workspace, shrinks from L to S
        self.specs = {"S": arch.group_sizes_for(0.4, 0), "M": arch.group_sizes_for(0.66, 0), "L": arch.full_group_sizes()}
        self.full_state = arch.build(rng=np.random.default_rng(3)).state_dict()
        rng = np.random.default_rng(1)
        images = rng.normal(size=(12, *arch.input_shape)).astype(np.float32)
        self.dataset = Dataset(images, rng.integers(0, arch.num_classes, size=12), arch.num_classes)

    def train(self, level, seed=4):
        sizes = self.specs[level]
        state = slice_state_dict(self.full_state, self.arch, sizes)
        return train_local_model(self.arch, sizes, state, self.dataset, CONFIG, np.random.default_rng(seed))


@pytest.fixture
def held(monkeypatch):
    """Per task, in order: the thread's arena, its block and every workspace
    buffer of the checked-out model, read as the model is checked back in."""
    seen = []
    check_in = Skeleton.check_in

    def observing_check_in(self):
        if self._arena is not None:  # a freshly built skeleton is checked in once, unused
            buffers = [buffer for ws in self._workspaces for buffer in ws._buffers.values()]
            seen.append({"arena": self._arena, "block": self._arena._block, "buffers": buffers})
        check_in(self)

    monkeypatch.setattr(Skeleton, "check_in", observing_check_in)
    return seen


def on_new_thread(work):
    """``work()`` on a thread that never trained, so its arena starts empty."""
    outcome = {}

    def target():
        try:
            outcome["result"] = work()
        except BaseException as error:  # noqa: BLE001 - re-raised on the caller's thread
            outcome["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(JOIN_SECONDS)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("result")


def need(task) -> int:
    """The bytes a task carved: each buffer rounded up to the alignment."""
    align = workspace._ALIGN
    return sum(-(-buffer.nbytes // align) * align for buffer in task["buffers"])


@pytest.fixture(params=sorted(architectures()))
def bench(request):
    return Bench(architectures()[request.param])


class TestOneThread:
    def test_two_specs_reuse_one_block(self, bench, held):
        on_new_thread(lambda: [bench.train(level) for level in ("L", "S", "M", "L")])
        first, *later = held
        assert len({id(task["arena"]) for task in held}) == 1
        assert all(task["block"] is later[0]["block"] for task in later)
        for task in later:
            assert task["buffers"]
            assert all(np.shares_memory(buffer, task["block"]) for buffer in task["buffers"])
        # the cold task ran before the block existed
        assert not any(np.shares_memory(buffer, later[0]["block"]) for buffer in first["buffers"])

    def test_the_live_buffers_of_a_task_never_overlap(self, bench, held):
        on_new_thread(lambda: [bench.train(level) for level in ("L", "L")])
        buffers = held[-1]["buffers"]
        assert len(buffers) > 2
        for index, buffer in enumerate(buffers):
            assert not any(np.shares_memory(buffer, other) for other in buffers[index + 1 :])

    def test_the_block_is_the_largest_need_without_slack(self, bench, held):
        capacities = on_new_thread(
            lambda: [(bench.train(level), thread_arena().capacity)[1] for level in ("S", "L", "S", "M")]
        )
        needs = [need(task) for task in held]
        assert needs[0] < needs[1]
        assert capacities == [needs[0], needs[1], needs[1], max(needs[1], needs[3])]

    def test_a_checked_in_skeleton_holds_no_buffer(self, bench, held):
        def train_and_collect():
            bench.train("M")
            return list(local_training._SKELETONS.by_spec.values())  # the thread's own table

        (skeleton,) = on_new_thread(train_and_collect)
        assert held[-1]["buffers"]
        assert skeleton._arena is None
        assert all(len(ws) == 0 and ws.arena is None for ws in skeleton._workspaces)

    def test_a_task_that_raises_closes_the_arena(self, bench, monkeypatch):
        forward = local_training.CrossEntropyLoss.forward
        calls = []

        def failing_on_second_batch(self, logits, targets):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("injected: loss blew up")
            return forward(self, logits, targets)

        def work():
            warm = bench.train("L")
            block = thread_arena()._block
            with monkeypatch.context() as patch:
                patch.setattr(local_training.CrossEntropyLoss, "forward", failing_on_second_batch)
                with pytest.raises(FloatingPointError):
                    bench.train("L")
            assert not thread_arena().is_open
            # an evaluation on the thread allocates its own memory
            cache: dict = {}
            evaluate_state(bench.arch, bench.arch.full_group_sizes(), bench.full_state, bench.dataset, model_cache=cache)
            (network,) = cache.values()
            arrays = [array for module in network.modules() if hasattr(module, "_ws") for array in module._ws._buffers.values()]
            arrays.append(lane_scratch(0))  # the thread's inference-convolution scratch
            assert arrays[-1].nbytes and not any(np.shares_memory(array, block) for array in arrays)
            return warm, bench.train("L")

        warm, after = on_new_thread(work)
        assert len(calls) == 2
        assert after.mean_loss == warm.mean_loss
        for name, value in warm.state.items():
            assert after.state[name].tobytes() == value.tobytes(), name


def test_two_pool_threads_get_disjoint_arenas(held):
    bench = Bench(architectures()["simple_cnn"])
    meet = threading.Barrier(2, timeout=JOIN_SECONDS)

    def worker(level):
        bench.train(level)  # grows this thread's block
        meet.wait()
        bench.train(level)
        meet.wait()  # both second tasks are done before either thread can end

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(worker, ["L", "L"]))
    assert len(held) == 4
    second = [task for task in held if any(np.shares_memory(b, task["block"]) for b in task["buffers"])]
    assert len(second) == 2
    ours, theirs = second
    assert ours["arena"] is not theirs["arena"]
    assert not np.shares_memory(ours["block"], theirs["block"])


class TestArena:
    def test_a_closed_arena_allocates(self):
        arena = Arena()
        arena.open()
        arena.carve((100,), np.float32)
        arena.close()
        assert not arena.is_open and arena.capacity == 448  # 400 bytes rounded up to 64
        outside = arena.carve((100,), np.float32)
        assert not np.shares_memory(outside, arena._block)

    def test_carves_are_aligned_and_disjoint(self):
        arena = Arena()
        arena.open()
        arena.carve((3, 5), np.float64)
        arena.carve((7,), np.int8)
        arena.close()
        arena.open()
        first, second = arena.carve((3, 5), np.float64), arena.carve((7,), np.int8)
        assert first.shape == (3, 5) and first.dtype == np.float64 and first.flags.c_contiguous
        assert all(array.ctypes.data % workspace._ALIGN == 0 for array in (first, second))
        assert np.shares_memory(first, arena._block) and np.shares_memory(second, arena._block)
        assert not np.shares_memory(first, second)
        arena.close()

    def test_nested_sessions_hand_the_block_out_once(self):
        arena = Arena()
        arena.open()
        arena.carve((64,), np.uint8)
        arena.close()
        arena.open()
        outer = arena.carve((64,), np.uint8)
        arena.open()
        inner = arena.carve((64,), np.uint8)  # past the block: fresh, not outer's bytes
        arena.close()
        assert arena.is_open and not np.shares_memory(outer, inner)
        arena.close()
        assert not arena.is_open and arena.capacity == 128

    def test_the_largest_arena_is_counted(self):
        workspace.reset_workspace_stats()
        arena = Arena()
        arena.open()
        arena.carve((1000,), np.uint8)
        arena.close()
        arena.open()
        arena.carve((10,), np.uint8)
        arena.close()
        assert workspace.workspace_stats()["arena_bytes"] == 1024
