"""A diverged client fails loudly at the worker — serial and over the wire, under every lossy codec.

Each lossy encoder used to ship a non-finite update in its own way: int8
as ``scale = NaN``, fp16 with ``±inf`` clamped to ``±65504`` and ``NaN``
passed through, top-k with ``±inf`` kept and ``NaN`` sorted out of the
kept set into the client's error-feedback residual, where it poisoned
every later round of that client.  Here one client's local data carries
a NaN / +inf / -inf pixel, so its trained weights — and its update — are
not finite: the round must fail naming that client, and the global model
must stay as it was.

With the exact transport (``transport_codec="none"``, the default) no
encoder looks at the numbers, so the server does, where an upload becomes
weights: the update is left out of aggregation, the client is recorded as
dropped and the run carries on — with the weights of a run in which that
upload was simply absent, on every executor.

The same encoders on the inputs that are degenerate but *finite* — empty,
scalar, all-zero, all-equal, ``k_fraction=1.0`` — are at the end of the
file (int8's are in ``test_int8_wire_format.py``).

Test ids contain the executor name on purpose: CI's executor-parity
matrix filters ``tests/engine`` with ``-k "serial|process|remote"``.
"""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import get_algorithm
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.metrics import communication_waste_rate
from repro.core.server import AdaptiveFL
from repro.data.datasets import Dataset
from repro.engine.codecs import (
    Fp16Codec,
    Int8Codec,
    NonFiniteUpdateError,
    TopKCodec,
    codec_generator,
    decode_update,
    encode_client_update,
    encode_update,
)
from repro.engine.rng import client_stream
from repro.obs.events import configure_telemetry, shutdown_telemetry
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions

#: every client takes part, so the poisoned one is certainly dispatched
FEDERATED = FederatedConfig(num_rounds=1, clients_per_round=8, eval_every=1, transport_codec="int8")
LOSSY = {"int8": Int8Codec(), "fp16": Fp16Codec(), "topk": TopKCodec()}
CODECS = pytest.mark.parametrize("codec", list(LOSSY))
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=2)
POISONED_CLIENT = 5
REPO_ROOT = Path(__file__).resolve().parents[2]
POISONS = pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])


def poisoned_train_set(easy_setup, poison: float) -> Dataset:
    train = easy_setup["train"]
    images = train.images.copy()
    # one pixel of every sample the client owns: whatever batches it draws, it diverges
    images[easy_setup["partition"].client_indices[POISONED_CLIENT], 0, 0, 0] = poison
    return Dataset(images, train.labels, train.num_classes)


def build_algorithm(easy_setup, poison: float, codec: str) -> AdaptiveFL:
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(
            federated=replace(FEDERATED, transport_codec=codec), local=LOCAL, pool=easy_setup["pool"]
        ),
        architecture=easy_setup["arch"],
        train_dataset=poisoned_train_set(easy_setup, poison),
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


@CODECS
@POISONS
def test_serial_round_refuses_the_diverged_client(easy_setup, poison, codec):
    algorithm = build_algorithm(easy_setup, poison, codec)
    before = {name: value.copy() for name, value in algorithm.global_state.items()}
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteUpdateError, match=rf"client {POISONED_CLIENT}\b.*tensor '[\w.]+' is not finite"
    ):
        algorithm.run()
    assert not algorithm.history.records
    for name, value in before.items():
        assert algorithm.global_state[name].tobytes() == value.tobytes()


@pytest.fixture(scope="module")
def remote_fleet():
    """A RemoteExecutor with two ``repro client`` worker processes over loopback.

    Processes, not threads: the state fetcher a client installs is
    process-global.
    """
    executor = RemoteExecutor(
        options=ServeOptions(port=0, min_clients=2, connect_timeout=60.0, heartbeat_interval=0.5)
    )
    host, port = executor.start()
    clients = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "client", "--host", host, "--port", str(port),
             "--name", f"nonfinite-w{index}", "--backoff-base", "0.05"],
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for index in range(2)
    ]
    try:
        yield executor
    finally:
        executor.shutdown()
        for process in clients:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)


@CODECS
@POISONS
def test_remote_round_fails_naming_the_diverged_client(easy_setup, remote_fleet, poison, codec):
    algorithm = build_algorithm(easy_setup, poison, codec)
    algorithm.set_executor(remote_fleet)
    before = {name: value.copy() for name, value in algorithm.global_state.items()}
    with pytest.raises(
        RuntimeError,
        match=rf"(?s)NonFiniteUpdateError: client {POISONED_CLIENT}\b.*tensor '[\w.]+' is not finite",
    ):
        algorithm.run()
    assert not algorithm.history.records
    for name, value in before.items():
        assert algorithm.global_state[name].tobytes() == value.tobytes()


def test_remote_fleet_survives_and_a_clean_run_matches_serial(easy_setup, remote_fleet):
    """After nine failed batches the same fleet still trains, bit-identical to serial."""
    clean = replace(FEDERATED, clients_per_round=4)

    def run(executor):
        algorithm = AdaptiveFL(
            algorithm_config=AdaptiveFLConfig(federated=clean, local=LOCAL, pool=easy_setup["pool"]),
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            seed=0,
        )
        if executor is not None:
            algorithm.set_executor(executor)
        algorithm.run()
        return algorithm

    serial, remote = run(None), run(remote_fleet)
    assert [r.to_dict() for r in remote.history.records] == [r.to_dict() for r in serial.history.records]
    for name, value in serial.global_state.items():
        assert remote.global_state[name].tobytes() == value.tobytes()


# -- the server's half: exact transport, nothing encodes -------------------------------------

EXACT = FederatedConfig(num_rounds=2, clients_per_round=8, eval_every=2)
REJECTING = pytest.mark.parametrize("name", ["adaptivefl", "heterofl", "decoupled"])


def build_exact(easy_setup, name: str, poison: float | None = None, executor: str = "serial"):
    """``name`` on the exact transport; with ``poison``, client 5's data diverges its training."""
    train = easy_setup["train"] if poison is None else poisoned_train_set(easy_setup, poison)
    federated = replace(EXACT, executor=executor, max_workers=2)
    spec = get_algorithm(name)
    kwargs = dict(
        architecture=easy_setup["arch"], train_dataset=train, partition=easy_setup["partition"],
        test_dataset=easy_setup["test"], profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"], seed=0,
    )
    if spec.uses_pool_config:
        kwargs["pool_config"] = easy_setup["pool"]
    if spec.uses_algorithm_config:
        kwargs["algorithm_config"] = AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"])
    else:
        kwargs.update(federated_config=federated, local_config=LOCAL)
    return spec.factory(**kwargs)


@pytest.fixture(scope="module")
def absent_reference(easy_setup):
    """Clean-data runs whose fold never sees client 5's upload: what a rejection must equal."""
    runs = {}
    for name in ("adaptivefl", "heterofl", "decoupled"):
        algorithm = build_exact(easy_setup, name)
        fold_round = algorithm.fold_round

        def fold_without(plan, keep, results, fold_round=fold_round):
            kept = [(slot, result) for slot, result in zip(keep, results) if plan.clients[slot] != POISONED_CLIENT]
            return fold_round(plan, [slot for slot, _ in kept], [result for _, result in kept])

        algorithm.fold_round = fold_without
        algorithm.run()
        runs[name] = algorithm
    return runs


def assert_rejected_like_absent(algorithm, reference):
    for name, value in reference.global_state.items():
        assert algorithm.global_state[name].tobytes() == value.tobytes(), name
        assert np.isfinite(algorithm.global_state[name]).all(), name
    for record, expected in zip(algorithm.history.records, reference.history.records, strict=True):
        assert record.selected_clients == expected.selected_clients
        assert record.dropped_clients == [POISONED_CLIENT] and expected.dropped_clients == []
        # the loss is the mean over the uploads that were folded; the refused bytes crossed the wire
        assert math.isfinite(record.train_loss)
        assert record.bytes_up > expected.bytes_up and record.bytes_down == expected.bytes_down
        sent = [algorithm.pool.by_name(entry).num_params for entry in record.dispatched]
        back = [algorithm.pool.by_name(entry).num_params for entry in record.returned]
        back[record.selected_clients.index(POISONED_CLIENT)] = 0
        assert record.communication_waste == communication_waste_rate(sent, back)
        assert record.communication_waste > expected.communication_waste
        assert record.full_accuracy == expected.full_accuracy


@REJECTING
@POISONS
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_server_leaves_out_a_non_finite_upload(easy_setup, absent_reference, name, poison, executor):
    algorithm = build_exact(easy_setup, name, poison, executor)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        algorithm.run()
    assert_rejected_like_absent(algorithm, absent_reference[name])


@REJECTING
@POISONS
def test_remote_server_leaves_out_a_non_finite_upload(easy_setup, absent_reference, remote_fleet, name, poison):
    algorithm = build_exact(easy_setup, name, poison)
    algorithm.set_executor(remote_fleet)
    algorithm.run()
    assert_rejected_like_absent(algorithm, absent_reference[name])


def test_serial_rejection_emits_one_event_per_refused_upload(easy_setup):
    (ring,) = configure_telemetry(ring_size=256)
    try:
        algorithm = build_exact(easy_setup, "heterofl", np.nan)
        with np.errstate(all="ignore"):
            algorithm.run()
        rejected = [event for event in ring.events() if event.type == "update_rejected"]
    finally:
        shutdown_telemetry()
    assert [(event.data["round"], event.data["client"]) for event in rejected] == [(0, 5), (1, 5)]
    assert all(event.data["tensor"] in algorithm.global_state for event in rejected)
    assert all(event.trace_id for event in rejected)


def test_serial_round_with_every_upload_refused_keeps_the_weights(easy_setup):
    algorithm = build_exact(easy_setup, "heterofl")
    before = {name: value.copy() for name, value in algorithm.global_state.items()}
    plan = algorithm.plan_round(0, algorithm.round_rng(0))
    handle = algorithm.publish_state(algorithm.global_state)
    results = algorithm.execute_client_tasks(
        [algorithm.make_task(0, plan, slot, handle) for slot in range(len(plan.clients))]
    )
    poisoned = []
    for result in results:
        state = {name: value.copy() for name, value in result.state.items()}
        next(iter(state.values())).flat[0] = np.inf
        poisoned.append(replace(result, state=state))
    refused = algorithm.fold_round(plan, list(range(len(results))), poisoned)
    algorithm.close()
    assert sorted(refused) == list(range(len(results)))
    for name, value in before.items():
        assert algorithm.global_state[name].tobytes() == value.tobytes()


def test_decode_refuses_before_banking_an_error_feedback_residual(easy_setup):
    """A lossy upload that decodes onto a non-finite reference is refused, its residual unbanked."""
    algorithm = build_algorithm(easy_setup, 0.0, "topk")
    plan = algorithm.plan_round(0, algorithm.round_rng(0))
    handle = algorithm.publish_state(algorithm.global_state)
    result = algorithm.execute_client_tasks([algorithm.make_task(0, plan, 0, handle)])[0]
    algorithm.close()
    assert result.state.residual is not None
    broken = {name: value.copy() for name, value in algorithm.global_state.items()}
    name = next(iter(result.state.shapes))
    broken[name].flat[0] = np.nan
    with pytest.raises(NonFiniteUpdateError, match=f"tensor '{name}'") as refusal:
        algorithm.decode_result_state(result.state, plan.group_sizes[0], broken)
    assert refusal.value.tensor == name
    assert algorithm._round_bytes_up == result.state.nbytes
    assert plan.clients[0] not in algorithm.state_parts()["codec"].state_dict()["clients"]


# -- the encoders alone ------------------------------------------------------------------


def rng():
    return codec_generator(client_stream(0, 1, 0))


def roundtrip(codec, value):
    return decode_update(encode_update(codec, {"t": value}, rng()))["t"]


@CODECS
@POISONS
@pytest.mark.parametrize("position", [0, 7, -1], ids=["first", "middle", "last"])
def test_encode_array_refuses_one_poisoned_entry(codec, poison, position):
    value = np.linspace(-1.0, 1.0, 40, dtype=np.float32).reshape(5, 8)
    value.flat[position] = poison
    with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError, match="peak magnitude"):
        LOSSY[codec].encode_array(value, rng())
    with np.errstate(all="ignore"), pytest.raises(
        NonFiniteUpdateError, match=r"client 3: update of tensor 't' is not finite"
    ):
        encode_update(LOSSY[codec], {"t": value}, rng(), client_id=3)


@POISONS
def test_topk_banks_no_residual_from_a_poisoned_update(poison):
    """The refusal comes before the error-feedback residual exists: nothing to bank."""
    reference = {"w": np.zeros(64, dtype=np.float32)}
    trained = {"w": np.linspace(-1.0, 1.0, 64, dtype=np.float32)}
    trained["w"][10] = poison
    with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError, match="client 2"):
        encode_client_update(TopKCodec(), trained, reference, client_stream(0, 1, 2), client_id=2)


def test_fp16_still_clamps_large_finite_values():
    """Finite inputs are untouched by the check: beyond ±65504 clamps, as before."""
    value = np.array([1e6, -3e38, 65504.0, -65505.0, 12.5], dtype=np.float32)
    assert roundtrip(Fp16Codec(), value).tolist() == [65504.0, -65504.0, 65504.0, -65504.0, 12.5]


FINITE = {"fp16": Fp16Codec(), "topk": TopKCodec(), "topk_full": TopKCodec(k_fraction=1.0)}
FINITE_CODECS = pytest.mark.parametrize("codec", list(FINITE))


class TestDegenerateFiniteInputs:
    @FINITE_CODECS
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 1)])
    def test_empty(self, codec, shape):
        decoded = roundtrip(FINITE[codec], np.zeros(shape, dtype=np.float32))
        assert decoded.shape == shape and decoded.dtype == np.float32

    @FINITE_CODECS
    @pytest.mark.parametrize("value", [0.0, 0.5, -7.5])
    def test_scalar(self, codec, value):
        """A lone value is on the fp16 grid here, and is its own top-1."""
        decoded = roundtrip(FINITE[codec], np.float32(value).reshape(()))
        assert decoded.shape == () and decoded == np.float32(value)

    @FINITE_CODECS
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero(self, codec, zero):
        decoded = roundtrip(FINITE[codec], np.full((4, 9), zero, dtype=np.float32))
        assert decoded.shape == (4, 9) and not decoded.any()

    @pytest.mark.parametrize("value", [2.5e-3, -2.5e-3])
    def test_all_equal_fp16_stays_within_one_grid_step(self, value):
        decoded = roundtrip(Fp16Codec(), np.full(300, value, dtype=np.float32))
        spacing = float(np.spacing(np.float16(abs(value))))
        np.testing.assert_allclose(decoded, value, rtol=0, atol=spacing)

    @pytest.mark.parametrize("value", [2.5e-3, -2.5e-3])
    def test_all_equal_topk_keeps_the_lowest_indices(self, value):
        """Every magnitude ties: the kept set is the first ceil(k·n) flat indices."""
        decoded = roundtrip(TopKCodec(k_fraction=0.05), np.full(300, value, dtype=np.float32))
        assert decoded[:15].tolist() == [np.float32(value)] * 15
        assert not decoded[15:].any()

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 4)])
    def test_full_fraction_is_exact_and_leaves_no_residual(self, shape):
        generator = np.random.default_rng(4)
        trained = {"w": generator.standard_normal(shape).astype(np.float32)}
        reference = {"w": np.zeros(shape, dtype=np.float32)}
        encoded = encode_client_update(
            TopKCodec(k_fraction=1.0), trained, reference, client_stream(0, 1, 0)
        )
        assert decode_update(encoded)["w"].tobytes() == trained["w"].tobytes()
        assert not encoded.residual["w"].any()
