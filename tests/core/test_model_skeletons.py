"""The skeleton contract of ``train_local_model``.

A worker thread keeps one built network per width spec, *without its
tensors*, and every task trains on it: the result must not depend on what
the thread trained before, nothing heavy may stay behind, and no two
threads may ever hold the same tree.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.core.local_training as local_training
from repro.baselines.heterofl import HETEROFL_POOL_CONFIG
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.core.model_pool import ModelPool
from repro.core.pruning import slice_state_dict
from repro.data.datasets import Dataset
from repro.engine.rng import client_stream
from repro.engine.tasks import TrainSubmodelTask
from repro.engine.executors import ThreadExecutor
from repro.engine.transport import StateStore
from repro.experiments.settings import paper_pool_config
from repro.nn.models import SlimmableSimpleCNN, SlimmableVGG
from repro.nn.models.spec import StagedModel
from repro.nn.module import Skeleton

CONFIG = LocalTrainingConfig(local_epochs=1, batch_size=4, max_batches_per_epoch=2)
JOIN_SECONDS = 60.0


def serial_cnn():
    """The network of the benchmark's ``train_serial`` workload (``small`` scale)."""
    return SlimmableSimpleCNN(num_classes=10, input_shape=(3, 16, 16), width_multiplier=0.5, hidden_features=128)


def dropout_vgg(dropout=0.5):
    return SlimmableVGG(
        config="vgg11", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1,
        classifier_widths=(16, 16), dropout=dropout,
    )


def width_specs(arch):
    """Every geometry the two ``train_serial`` algorithms train: AdaptiveFL's
    fine-grained pool and HeteroFL's uniformly pruned levels."""
    pools = {"adaptive": ModelPool(arch, paper_pool_config(arch)), "hetero": ModelPool(arch, HETEROFL_POOL_CONFIG)}
    return {f"{name}-{cfg.name}": pool.group_sizes(cfg) for name, pool in pools.items() for cfg in pool}


class Workbench:
    """One architecture with data, a full state and its width specs."""

    def __init__(self, arch):
        self.arch = arch
        self.specs = width_specs(arch)
        self.full_state = arch.build(rng=np.random.default_rng(3)).state_dict()
        images = np.random.default_rng(1).normal(size=(12, *arch.input_shape)).astype(np.float32)
        labels = np.random.default_rng(2).integers(0, arch.num_classes, size=12)
        self.dataset = Dataset(images, labels, arch.num_classes)

    def state(self, spec):
        return slice_state_dict(self.full_state, self.arch, self.specs[spec])

    def train(self, spec, seed=4, arch=None, state=None):
        return train_local_model(
            arch if arch is not None else self.arch, self.specs[spec],
            state if state is not None else self.state(spec), self.dataset, CONFIG, np.random.default_rng(seed),
        )

    def train_cold(self, spec, seed=4):
        """The same task on a thread that never trained anything."""
        return on_new_thread(lambda: self.train(spec, seed))


def on_new_thread(work):
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
    return outcome["result"]


def same_result(ours, theirs):
    assert ours.mean_loss == theirs.mean_loss
    assert ours.num_steps == theirs.num_steps and ours.num_samples == theirs.num_samples
    assert list(ours.state) == list(theirs.state)
    for key, value in theirs.state.items():
        assert ours.state[key].tobytes() == value.tobytes(), key
    return True


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through attributes, slots and containers."""
    found, seen, stack = [], set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (str, bytes, int, float, type, np.dtype, np.random.Generator)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            stack.append(getattr(item, "__dict__", None))
            stack.extend(getattr(item, slot, None) for slot in getattr(type(item), "__slots__", ()))
    return found


@pytest.fixture
def skeletons():
    """This thread's skeleton table, empty before and after the test."""
    table = local_training._SKELETONS.by_spec
    table.clear()
    yield table
    table.clear()


@pytest.fixture(scope="module", params=["simple_cnn", "vgg_dropout"])
def bench(request):
    return Workbench(serial_cnn() if request.param == "simple_cnn" else dropout_vgg())


class TestNothingHeavyStaysBehind:
    def test_a_checked_in_skeleton_holds_no_array(self, bench, skeletons):
        for spec in bench.specs:
            bench.train(spec)
        assert len(skeletons) == len({tuple(sorted(sizes.items())) for sizes in bench.specs.values()})
        for skeleton in skeletons.values():
            assert reachable_arrays(skeleton) == []
            assert all(param.data is None and param.grad is None for param in skeleton.model.parameters())
            assert all(buffer is None for _, buffer in skeleton.model.named_buffers())

    def test_the_walk_finds_what_a_live_model_holds(self, bench):
        model = bench.arch.build()
        bare = len(reachable_arrays(model))
        model.backward(np.ones_like(model(bench.dataset.images[:2])))
        assert len(reachable_arrays(model)) > bare  # the workspaces filled
        Skeleton(model)
        assert reachable_arrays(model) == []

    def test_the_table_never_exceeds_the_distinct_specs_seen(self, bench, skeletons):
        order = list(bench.specs) * 3
        seen = set()
        for spec in order:
            bench.train(spec)
            seen.add(tuple(sorted(bench.specs[spec].items())))
            assert len(skeletons) == len(seen)

    def test_the_table_is_per_thread_and_dies_with_its_thread(self, bench, skeletons):
        spec = next(iter(bench.specs))
        assert on_new_thread(lambda: (bench.train(spec), len(local_training._SKELETONS.by_spec))[1]) == 1
        assert len(skeletons) == 0


class TestResultsDoNotDependOnHistory:
    def test_interleaved_and_repeated_specs_equal_a_cold_worker(self, bench, skeletons):
        specs = list(bench.specs)
        cold = {(spec, seed): bench.train_cold(spec, seed) for spec in specs for seed in (4, 5)}
        # interleave every entry, come back to each, repeat one five times in a row
        order = [(spec, 4) for spec in specs] + [(spec, 5) for spec in reversed(specs)] + [(specs[0], 4)] * 5
        for spec, seed in order:
            assert same_result(bench.train(spec, seed), cold[spec, seed])

    def test_dropout_masks_are_the_tasks_own(self, skeletons):
        """With ``dropout > 0`` the first, the fifth and a cold worker's run agree,
        and the masks really are drawn (the run differs from a dropout-free one)."""
        bench = Workbench(dropout_vgg())
        spec = "adaptive-L1"
        cold = bench.train_cold(spec)
        runs = [bench.train(spec) for _ in range(5)]
        assert all(same_result(run, cold) for run in runs)
        other_seed = bench.train(spec, seed=9)
        assert other_seed.mean_loss != cold.mean_loss
        plain = Workbench(dropout_vgg(dropout=0.0)).train(spec)
        assert plain.mean_loss != cold.mean_loss

    def test_every_dropout_layer_has_its_own_stream(self, skeletons):
        bench = Workbench(dropout_vgg())
        bench.train("adaptive-L1")
        (skeleton,) = skeletons.values()
        model = skeleton.check_out([11])
        layers = [module for module in model.modules() if hasattr(module, "reseed")]
        assert len(layers) == 2
        draws = [layer._rngs[0].random(4).tolist() for layer in layers]
        assert draws[0] != draws[1]
        places = [index for index, module in enumerate(model.modules()) if hasattr(module, "reseed")]
        assert draws == [np.random.default_rng([11, place]).random(4).tolist() for place in places]
        skeleton.check_in()


class TestFailuresLeaveNothingBehind:
    def test_a_task_that_raises_mid_step_does_not_poison_the_next(self, bench, skeletons, monkeypatch):
        spec = "adaptive-S1"
        cold = bench.train_cold(spec)
        assert same_result(bench.train(spec), cold)  # the skeleton is warm now

        calls = []
        forward = local_training.CrossEntropyLoss.forward

        def failing_on_second_batch(self, logits, targets):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("injected: loss blew up")  # after a forward pass filled the layer caches
            return forward(self, logits, targets)

        with monkeypatch.context() as patch:
            patch.setattr(local_training.CrossEntropyLoss, "forward", failing_on_second_batch)
            with pytest.raises(FloatingPointError):
                bench.train(spec)
        assert len(calls) == 2
        # the half-used tree went with its task: no array is reachable from the table
        assert reachable_arrays(skeletons) == []
        assert same_result(bench.train(spec), cold)
        assert same_result(bench.train(spec), cold)
        assert reachable_arrays(skeletons) == []

    @pytest.mark.parametrize("defect", ["missing", "extra"])
    def test_an_incomplete_or_overfull_state_is_refused_before_any_step(self, bench, skeletons, monkeypatch, defect):
        spec = "adaptive-M2"
        cold = bench.train_cold(spec)
        assert same_result(bench.train(spec), cold)  # refusal must also hold on uninitialised tensors

        state = dict(bench.state(spec))
        if defect == "missing":
            del state[next(reversed(state))]
        else:
            state["classifier.9.weight"] = np.zeros(3, dtype=np.float32)
        ran = []
        forward = StagedModel.forward
        monkeypatch.setattr(StagedModel, "forward", lambda self, *a, **k: ran.append(1) or forward(self, *a, **k))
        with pytest.raises(KeyError, match="load_state_dict mismatch"):
            bench.train(spec, state=state)
        assert ran == []
        assert reachable_arrays(skeletons) == []
        assert same_result(bench.train(spec), cold)


class TestKeying:
    def test_two_unpickled_copies_hit_one_entry(self, bench, skeletons):
        spec = "adaptive-S2"
        copies = [pickle.loads(pickle.dumps(bench.arch)) for _ in range(2)]
        assert copies[0] is not copies[1]
        assert copies[0].signature() == copies[1].signature() == bench.arch.signature()
        first = bench.train(spec, arch=copies[0])
        (skeleton,) = skeletons.values()
        second = bench.train(spec, arch=copies[1])
        assert list(skeletons.values()) == [skeleton]
        assert same_result(second, first)

    def test_a_warmed_architecture_keeps_its_signature(self, bench):
        fresh = pickle.loads(pickle.dumps(bench.arch))
        fresh._channel_groups = fresh._param_specs = fresh._full_shapes = None
        cold_signature = fresh.signature()
        fresh.param_specs(), fresh.channel_groups()
        assert fresh.signature() == cold_signature

    def test_a_constructor_argument_that_keeps_shapes_still_separates(self, skeletons):
        light, heavy = Workbench(dropout_vgg(0.25)), Workbench(dropout_vgg(0.5))
        assert light.arch.signature() != heavy.arch.signature()
        spec = "adaptive-L1"
        assert light.specs[spec] == heavy.specs[spec]
        a = light.train(spec)
        b = heavy.train(spec)
        assert len(skeletons) == 2
        assert a.mean_loss != b.mean_loss
        assert same_result(heavy.train(spec), b) and same_result(light.train(spec), a)

    def test_the_stack_dtype_is_part_of_the_spec(self, skeletons):
        from repro.nn.dtype import default_dtype

        bench = Workbench(serial_cnn())
        single = bench.train("adaptive-L1")
        with default_dtype(np.float64):
            double = bench.train("adaptive-L1")
        assert {value.dtype for value in single.state.values()} == {np.dtype(np.float32)}
        assert {value.dtype for value in double.state.values()} == {np.dtype(np.float64)}
        assert len(skeletons) == 2


class TestThreads:
    def make_tasks(self, bench, spec, count):
        handle = StateStore("skeletons").publish(bench.full_state, spill=False)
        return [
            TrainSubmodelTask(
                architecture=bench.arch, group_sizes=bench.specs[spec], initial_state=handle,
                dataset=bench.dataset, local_config=CONFIG, rng_stream=client_stream(0, 0, client), client_id=client,
            )
            for client in range(count)
        ]

    def test_two_workers_on_one_pool_entry_never_share_a_skeleton(self, monkeypatch):
        bench = Workbench(serial_cnn())
        spec = "adaptive-M1"
        tasks = self.make_tasks(bench, spec, 2)
        serial = [task.run() for task in tasks]

        both_inside = threading.Barrier(2, timeout=JOIN_SECONDS)
        held = []
        check_out = Skeleton.check_out

        def meeting_check_out(self, seed):
            model = check_out(self, seed)
            held.append((threading.get_ident(), id(self), id(model)))
            both_inside.wait()  # neither returns its skeleton before the other holds one
            return model

        monkeypatch.setattr(Skeleton, "check_out", meeting_check_out)
        with ThreadExecutor(max_workers=2) as executor:
            results = executor.map(tasks)
        assert len(held) == 2
        assert len({thread for thread, _, _ in held}) == 2
        assert len({skeleton for _, skeleton, _ in held}) == 2 and len({model for _, _, model in held}) == 2
        assert all(same_result(ours, theirs) for ours, theirs in zip(results, serial))

    def test_more_workers_than_cores_on_one_entry(self):
        """Stress: 8 threads, 48 tasks of one spec, a 1 µs switch interval —
        every result equals the serial one and each skeleton stays on its thread."""
        bench = Workbench(serial_cnn())
        spec = "hetero-S1"
        tasks = self.make_tasks(bench, spec, 48)
        serial = [task.run() for task in tasks]
        owners = {}
        lock = threading.Lock()
        check_out = Skeleton.check_out

        def recording_check_out(self, seed):
            with lock:
                owners.setdefault(id(self), set()).add(threading.get_ident())
            return check_out(self, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        Skeleton.check_out = recording_check_out
        try:
            with ThreadExecutor(max_workers=8) as executor:
                results = executor.map(tasks)
        finally:
            Skeleton.check_out = check_out
            sys.setswitchinterval(interval)
        assert all(same_result(ours, theirs) for ours, theirs in zip(results, serial))
        assert owners and all(len(threads) == 1 for threads in owners.values())
