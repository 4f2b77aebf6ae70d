"""Slice/delta transport: exact codecs, worker caching, what a task
carries each way, and bit-parity of a run across a pickle boundary
against the in-process run."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import HeteroFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.pruning import slice_state_dict
from repro.core.server import AdaptiveFL
from repro.engine.base import Executor, run_task
from repro.engine.transport import (
    StateDelta,
    StateHandle,
    StateStore,
    apply_state_delta,
    encode_state_delta,
    state_nbytes,
)

FEDERATED = FederatedConfig(num_rounds=2, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)


class PickleRoundTripExecutor(Executor):
    """Serial executor that pickles tasks and results, as a process pool
    would, and advertises itself as inter-process so the transport layer
    takes the spill-file path."""

    name = "pickle-roundtrip"
    is_interprocess = True

    def map(self, tasks):
        results = []
        for task in tasks:
            clone = pickle.loads(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            results.append(pickle.loads(pickle.dumps(run_task(clone), protocol=pickle.HIGHEST_PROTOCOL)))
        return results


class RecordingExecutor(Executor):
    """Serial executor that keeps every task it ran, its pickled size before
    it ran, and every result it returned."""

    name = "recording"

    def __init__(self):
        super().__init__(max_workers=1)
        self.tasks, self.wire_sizes, self.results = [], [], []

    def map(self, tasks):
        tasks = list(tasks)
        self.wire_sizes.extend(len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)) for task in tasks)
        results = [run_task(task) for task in tasks]
        self.tasks.extend(tasks)
        self.results.extend(results)
        return results


class TestDeltaCodec:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(0)
        reference = {"w": rng.normal(size=(5, 3)).astype(dtype), "b": rng.normal(size=(5,)).astype(dtype)}
        trained = {name: (value + rng.normal(size=value.shape) * 1e-3).astype(dtype) for name, value in reference.items()}
        delta = encode_state_delta(trained, reference)
        decoded = apply_state_delta(delta, reference)
        for name in trained:
            # bit-exact, not just allclose: XOR of the IEEE-754 payloads
            assert np.array_equal(
                decoded[name].view(np.uint8), np.asarray(trained[name]).view(np.uint8)
            ), name

    def test_special_values_survive(self):
        reference = {"w": np.array([0.0, -0.0, 1.0, 2.0], dtype=np.float32)}
        trained = {"w": np.array([np.inf, -np.inf, np.nan, 2.0], dtype=np.float32)}
        decoded = apply_state_delta(encode_state_delta(trained, reference), reference)
        assert np.array_equal(decoded["w"].view(np.uint32), trained["w"].view(np.uint32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_state_delta({"w": np.zeros(3, np.float32)}, {"w": np.zeros(4, np.float32)})


class TestStateStore:
    def test_inline_handle_returns_published_reference(self):
        store = StateStore("test")
        state = {"w": np.arange(4, dtype=np.float32)}
        handle = store.publish(state, spill=False)
        assert handle.load() is state

    def test_spilled_handle_survives_pickling_and_caches(self):
        store = StateStore("test")
        try:
            v1 = {"w": np.arange(4, dtype=np.float32)}
            handle = store.publish(v1, spill=True)
            clone = pickle.loads(pickle.dumps(handle))
            loaded = clone.load()
            assert np.array_equal(loaded["w"], v1["w"])
            # second load of the same version hits the worker cache
            assert clone.load() is loaded
            # a new version invalidates the cache
            v2 = {"w": np.arange(4, dtype=np.float32) * 2}
            handle2 = pickle.loads(pickle.dumps(store.publish(v2, spill=True)))
            assert np.array_equal(handle2.load()["w"], v2["w"])
        finally:
            store.close()

    def test_inline_only_handle_fails_across_pickle(self):
        store = StateStore("test")
        handle = store.publish({"w": np.zeros(2, np.float32)}, spill=False)
        clone = pickle.loads(pickle.dumps(handle))
        with pytest.raises(RuntimeError):
            clone.load()


def build_algorithm(name, easy_setup, executor="serial"):
    federated = replace(FEDERATED, executor=executor, max_workers=2)
    kwargs = dict(
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )
    if name == "adaptivefl":
        return AdaptiveFL(
            algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
            **kwargs,
        )
    return HeteroFL(federated_config=federated, local_config=LOCAL, **kwargs)


def fingerprint(algorithm):
    return [
        {
            "round": record.round_index,
            "selected": list(record.selected_clients),
            "dispatched": list(record.dispatched),
            "returned": list(record.returned),
            "train_loss": record.train_loss,
            "full_accuracy": record.full_accuracy,
            "avg_accuracy": record.avg_accuracy,
            "level_accuracies": dict(record.level_accuracies),
            "communication_waste": record.communication_waste,
        }
        for record in algorithm.history.records
    ]


def recorded_round(name, easy_setup):
    """One serial round; returns the algorithm, its weights before the round, and the recorder."""
    algorithm = build_algorithm(name, easy_setup)
    before = {key: value.copy() for key, value in algorithm.global_state.items()}
    recorder = RecordingExecutor()
    algorithm.set_executor(recorder)
    algorithm.run_round(0)
    assert recorder.tasks and len(recorder.results) == len(recorder.tasks)
    return algorithm, before, recorder


class TestWirePayloads:
    """A task carries handles down and an XOR delta back — never weights."""

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_tasks_carry_handles_not_weights_or_data(self, easy_setup, name):
        algorithm, before, recorder = recorded_round(name, easy_setup)
        for task, wire_size in zip(recorder.tasks, recorder.wire_sizes):
            if name == "adaptivefl":
                state, client_id = task.dispatched_state, task.client.client_id
                sizes = algorithm.pool.group_sizes(task.planned_return)
            else:
                state, client_id, sizes = task.initial_state, task.client_id, task.group_sizes
            assert isinstance(state, StateHandle)
            trained_slice = slice_state_dict(before, algorithm.architecture, dict(sizes))
            local_data = algorithm.clients[client_id].dataset
            assert wire_size < min(state_nbytes(trained_slice), local_data.images.nbytes)

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_exact_uploads_are_xor_deltas_of_the_trained_slice(self, easy_setup, name):
        algorithm, before, recorder = recorded_round(name, easy_setup)
        for task, result in zip(recorder.tasks, recorder.results):
            assert isinstance(result.state, StateDelta)
            sizes = algorithm.pool.group_sizes(result.returned) if name == "adaptivefl" else task.group_sizes
            reference = slice_state_dict(before, algorithm.architecture, dict(sizes))
            assert result.state.nbytes == state_nbytes(reference)
            decoded = apply_state_delta(result.state, reference)
            assert {key: value.shape for key, value in decoded.items()} == {
                key: value.shape for key, value in reference.items()
            }
            assert any(not np.array_equal(decoded[key], reference[key]) for key in reference), "nothing trained"


class TestDeltaTransportParity:
    """A run across a pickle boundary is bit-identical to the in-process run
    (histories *and* final weights) for AdaptiveFL and HeteroFL."""

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_spill_path_bit_identical(self, easy_setup, name):
        """Spill files + worker cache + XOR-delta uploads, without the cost
        of a process pool."""
        inline = build_algorithm(name, easy_setup)
        inline.run()
        spilled = build_algorithm(name, easy_setup)
        spilled.set_executor(PickleRoundTripExecutor())
        spilled.run()
        assert fingerprint(spilled) == fingerprint(inline)
        assert set(spilled.global_state) == set(inline.global_state)
        for key, value in spilled.global_state.items():
            assert np.array_equal(value, inline.global_state[key]), f"weights differ in {key!r}"
