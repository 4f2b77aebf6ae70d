"""A diverged client fails loudly at the worker — serial and over the wire.

The int8 encoder computes each tensor's peak anyway; a non-finite one
used to ship ``scale = NaN``, which the server decoded into a poisoned
global model.  Here one client's local data carries a NaN / +inf / -inf
pixel, so its trained weights — and its update — are not finite: the
round must fail naming that client, and the global model must stay as
it was.  (The server-side half — drop the update, record it, carry on —
is ROADMAP item 1 and not this test's subject.)

Test ids contain the executor name on purpose: CI's executor-parity
matrix filters ``tests/engine`` with ``-k "serial|process|remote"``.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.data.datasets import Dataset
from repro.engine.codecs import NonFiniteUpdateError
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions

#: every client takes part, so the poisoned one is certainly dispatched
FEDERATED = FederatedConfig(num_rounds=1, clients_per_round=8, eval_every=1, transport_codec="int8")
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=2)
POISONED_CLIENT = 5
REPO_ROOT = Path(__file__).resolve().parents[2]
POISONS = pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])


def build_algorithm(easy_setup, poison: float) -> AdaptiveFL:
    train = easy_setup["train"]
    images = train.images.copy()
    # one pixel of every sample the client owns: whatever batches it draws, it diverges
    images[easy_setup["partition"].client_indices[POISONED_CLIENT], 0, 0, 0] = poison
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(federated=FEDERATED, local=LOCAL, pool=easy_setup["pool"]),
        architecture=easy_setup["arch"],
        train_dataset=Dataset(images, train.labels, train.num_classes),
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


@POISONS
def test_serial_round_refuses_the_diverged_client(easy_setup, poison):
    algorithm = build_algorithm(easy_setup, poison)
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


@POISONS
def test_remote_round_fails_naming_the_diverged_client(easy_setup, remote_fleet, poison):
    algorithm = build_algorithm(easy_setup, poison)
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
    """After three failed batches the same fleet still trains, bit-identical to serial."""
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
