"""Sliced-download transport: worker caching, what a task carries each
way, exact uploads crossing a pickle boundary bit for bit, the refusal of
malformed uploads, and bit-parity of a run across a pickle boundary
against the in-process run."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.engine.tasks as engine_tasks
from repro.baselines import HeteroFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.pruning import slice_state_dict
from repro.core.server import AdaptiveFL
from repro.engine.base import Executor, run_task
from repro.engine.tasks import encode_state_delta
from repro.engine.transport import StateHandle, StateStore, state_nbytes

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


def bits_of(array: np.ndarray) -> np.ndarray:
    return array.view(np.dtype(f"u{array.dtype.itemsize}"))


class TestExactUpload:
    """An exact upload is the trained slice itself, and pickling it moves no bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upload_crosses_pickle_bit_for_bit(self, dtype):
        info = np.finfo(dtype)
        inf_bits, sign_bit = bits_of(np.array([np.inf, -0.0], dtype=dtype))
        # quiet and signalling NaNs with distinct payloads, both signs
        payloads = np.array([1, 2, 0x2A, 1 << (info.nmant - 1), (1 << info.nmant) - 1], dtype=inf_bits.dtype)
        nans = np.concatenate([inf_bits | payloads, sign_bit | inf_bits | payloads]).view(dtype)
        specials = np.array(
            [np.inf, -np.inf, -0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal, info.tiny, info.max],
            dtype=dtype,
        )
        trained = {
            "w": np.random.default_rng(0).normal(size=(5, 3)).astype(dtype),
            "nan": nans,
            "special": specials,
        }
        upload = encode_state_delta(trained)
        assert all(upload[name] is trained[name] for name in trained), "an exact upload copies nothing"
        received = pickle.loads(pickle.dumps(upload, protocol=pickle.HIGHEST_PROTOCOL))
        assert list(received) == list(trained)
        for name, value in trained.items():
            assert (received[name].dtype, received[name].shape) == (value.dtype, value.shape), name
            assert np.array_equal(bits_of(received[name]), bits_of(value)), name
        assert state_nbytes(received) == state_nbytes(trained)


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


def build_algorithm(name, easy_setup, executor="serial", transport_codec="none"):
    federated = replace(FEDERATED, executor=executor, max_workers=2, transport_codec=transport_codec)
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
    """A task carries handles down and its trained slice back — never the global weights."""

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_tasks_carry_handles_not_weights_or_data(self, easy_setup, name):
        algorithm, before, recorder = recorded_round(name, easy_setup)
        for task, wire_size in zip(recorder.tasks, recorder.wire_sizes):
            assert isinstance(task.initial_state, StateHandle)
            trained_slice = slice_state_dict(before, algorithm.architecture, dict(task.group_sizes))
            local_data = algorithm.clients[task.client_id].dataset
            assert wire_size < min(state_nbytes(trained_slice), local_data.images.nbytes)

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_exact_uploads_are_the_trained_slice(self, easy_setup, name):
        algorithm, before, recorder = recorded_round(name, easy_setup)
        for task, result in zip(recorder.tasks, recorder.results):
            assert isinstance(result.state, dict)
            reference = slice_state_dict(before, algorithm.architecture, dict(task.group_sizes))
            assert set(result.state) == set(reference)
            for key, value in reference.items():
                assert (result.state[key].shape, result.state[key].dtype) == (value.shape, value.dtype), key
            assert state_nbytes(result.state) == state_nbytes(reference)
            assert any(not np.array_equal(result.state[key], reference[key]) for key in reference), "nothing trained"


#: the name of the tensor an ``extra`` defect adds
GHOST = "ghost.weight"


def first_vector(state) -> str:
    """The first 1-D tensor (a bias) of a state dict."""
    return next(name for name, value in state.items() if np.ndim(value) == 1)


def malformed(state, defect: str) -> dict:
    """``state`` with one tensor dropped, added, cut to its first element or widened to float64."""
    state = dict(state)
    name = first_vector(state)
    if defect == "missing":
        del state[name]
    elif defect == "extra":
        state[GHOST] = np.zeros(3, dtype=np.float32)
    elif defect == "short":
        state[name] = state[name][:1]
    else:
        state[name] = state[name].astype(np.float64)
    return state


class TestMalformedUploads:
    """An upload whose tensors are not exactly the slice's is refused by name and never folded."""

    @pytest.mark.parametrize("executor", ["serial", "pickle"])
    @pytest.mark.parametrize("codec", ["none", "int8"])
    @pytest.mark.parametrize("defect", ["missing", "extra", "short", "dtype"])
    def test_refused_before_the_fold(self, easy_setup, monkeypatch, defect, codec, executor):
        algorithm = build_algorithm("heterofl", easy_setup, transport_codec=codec)
        if executor == "pickle":
            algorithm.set_executor(PickleRoundTripExecutor())
        if codec == "none":
            monkeypatch.setattr(engine_tasks, "encode_state_delta", lambda trained: malformed(trained, defect))
        else:
            encode = engine_tasks.encode_client_update

            def encode_malformed(codec, trained, reference, **kwargs):
                reference = {**reference, GHOST: np.zeros(3, dtype=np.float32)}
                return encode(codec, malformed(trained, defect), reference, **kwargs)

            monkeypatch.setattr(engine_tasks, "encode_client_update", encode_malformed)
        before = {key: value.copy() for key, value in algorithm.global_state.items()}
        name = first_vector(before)
        expected = {
            "missing": rf"upload tensor '{name}': expected shape \(\d+,\) dtype float32, received no tensor$",
            "extra": rf"upload tensor '{GHOST}': expected no tensor, received shape \(3,\) dtype float32$",
            "short": rf"upload tensor '{name}': expected shape \(\d+,\) dtype float32, received shape \(1,\) dtype float32$",
            "dtype": rf"upload tensor '{name}': expected shape \((\d+),\) dtype float32, received shape \(\1,\) dtype float64$",
        }[defect]
        try:
            with pytest.raises(ValueError, match=expected) as refusal:
                algorithm.run_round(0)
        finally:
            algorithm.close()
        assert type(refusal.value) is ValueError  # not a non-finite refusal, which drops the client and folds on
        for key, value in before.items():
            assert algorithm.global_state[key].tobytes() == value.tobytes(), key


class TestDeltaTransportParity:
    """A run across a pickle boundary is bit-identical to the in-process run
    (histories *and* final weights) for AdaptiveFL and HeteroFL."""

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_spill_path_bit_identical(self, easy_setup, name):
        """Spill files + worker cache + exact uploads, without the cost of a
        process pool."""
        inline = build_algorithm(name, easy_setup)
        inline.run()
        spilled = build_algorithm(name, easy_setup)
        spilled.set_executor(PickleRoundTripExecutor())
        spilled.run()
        assert fingerprint(spilled) == fingerprint(inline)
        assert set(spilled.global_state) == set(inline.global_state)
        for key, value in spilled.global_state.items():
            assert np.array_equal(value, inline.global_state[key]), f"weights differ in {key!r}"
