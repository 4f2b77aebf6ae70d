"""Cross-executor parity and bounded accuracy of the lossy transport tier.

The exact transports promise bit-identical results across executors; the
lossy codecs relax accuracy, **not** determinism.  This suite pins both
halves of that contract:

* **Lossy-but-reproducible** — for a fixed codec and seed, the serial,
  thread and process executors produce bit-identical histories and final
  weights (the codec rounding stream is keyed on ``(seed, round,
  client)``, never on scheduling).
* **Bounded accuracy** — a lossy run's final accuracy stays within a
  loose tolerance of the exact same-seed baseline (the compression noise
  must not wreck learning at test scale).
* **Honest accounting** — across a real pickle boundary, every round's
  ``bytes_up`` equals the summed true encoded payload sizes observed on
  the wire-facing executor, and lossy uplinks are a fraction of exact
  delta uploads.

Test ids contain the executor name on purpose: CI's executor-parity
matrix filters ``tests/engine`` with ``-k "serial|process|remote"``.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.engine.base import Executor
from repro.engine.codecs import EncodedUpdate

REPO_ROOT = Path(__file__).resolve().parents[2]

LOSSY_CODECS = ["fp16", "int8", "topk"]
EXECUTORS = ["thread", "process"]

ROUNDS = 3
FEDERATED = FederatedConfig(num_rounds=ROUNDS, clients_per_round=4, eval_every=3)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)

#: max absolute final-accuracy drift a lossy codec may show at test scale
#: (top-k at 5% density trails the exact run early; error feedback closes
#: the gap over more rounds than this 3-round federation trains)
ACCURACY_TOLERANCE = 0.35
#: chance level of the easy_setup 4-class task
CHANCE_ACCURACY = 0.25


def build_algorithm(easy_setup, codec: str, executor: str = "serial") -> AdaptiveFL:
    federated = replace(FEDERATED, transport_codec=codec, executor=executor, max_workers=2)
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


def fingerprint(algorithm) -> list[dict]:
    return [record.to_dict() for record in algorithm.history.records]


@pytest.fixture(scope="module")
def codec_serial_reference(easy_setup):
    """One serial run per codec (plus the exact baseline), shared by the suite."""
    reference = {}
    for codec in ["none", *LOSSY_CODECS]:
        algorithm = build_algorithm(easy_setup, codec)
        algorithm.run()
        reference[codec] = (fingerprint(algorithm), algorithm.global_state, algorithm.history)
    return reference


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("codec", LOSSY_CODECS)
def test_lossy_runs_identical_across_executors(easy_setup, codec_serial_reference, codec, executor):
    """serial/thread/process agree bit-for-bit under every lossy codec."""
    expected_history, expected_state, _ = codec_serial_reference[codec]
    algorithm = build_algorithm(easy_setup, codec, executor)
    algorithm.run()
    assert fingerprint(algorithm) == expected_history
    assert set(algorithm.global_state) == set(expected_state)
    for key, value in algorithm.global_state.items():
        assert np.array_equal(value, expected_state[key]), f"weights differ in {key!r}"


@pytest.mark.parametrize("codec", LOSSY_CODECS)
def test_lossy_accuracy_within_tolerance_of_serial_exact_run(codec_serial_reference, codec):
    """Compression noise must not wreck learning (bounded-accuracy contract)."""
    _, _, exact_history = codec_serial_reference["none"]
    _, _, lossy_history = codec_serial_reference[codec]
    exact = exact_history.final_accuracy("full")
    lossy = lossy_history.final_accuracy("full")
    assert abs(lossy - exact) <= ACCURACY_TOLERANCE, f"{codec}: {lossy} vs exact {exact}"
    assert lossy > CHANCE_ACCURACY + 0.1, f"{codec} run did not learn: {lossy}"


@pytest.mark.parametrize("codec", LOSSY_CODECS)
def test_lossy_serial_uplink_bytes_beat_exact_delta(codec_serial_reference, codec):
    """The codec actually cuts the recorded (true encoded) uplink bytes."""
    exact_records, _, _ = codec_serial_reference["none"]
    lossy_records, _, _ = codec_serial_reference[codec]
    exact_up = sum(record["bytes_up"] for record in exact_records)
    lossy_up = sum(record["bytes_up"] for record in lossy_records)
    assert 0 < lossy_up < exact_up
    if codec in ("int8", "topk"):
        assert exact_up / lossy_up >= 2.0


class EncodedByteAuditExecutor(Executor):
    """Serial executor that crosses a real pickle boundary and records the
    true encoded payload bytes of every uploaded result, per map() call."""

    name = "encoded-byte-audit"
    is_interprocess = True

    def __init__(self):
        super().__init__()
        self.rounds: list[int] = []

    def map(self, tasks):
        results = []
        observed = 0
        for piece in tasks:
            clone = pickle.loads(pickle.dumps(piece, protocol=pickle.HIGHEST_PROTOCOL))
            outcomes = pickle.loads(pickle.dumps(clone.run(), protocol=pickle.HIGHEST_PROTOCOL))
            for result in outcomes:
                state = getattr(result, "state", None)
                assert isinstance(state, EncodedUpdate), "codec run must upload EncodedUpdate"
                observed += state.nbytes
            results.append(outcomes)
        self.rounds.append(observed)
        return results


@pytest.mark.parametrize("codec", LOSSY_CODECS)
def test_recorded_bytes_match_wire_observed_sizes_serial_loopback(easy_setup, codec):
    """``RoundRecord.bytes_up`` is exactly what crossed the executor boundary."""
    algorithm = build_algorithm(easy_setup, codec)
    audit = EncodedByteAuditExecutor()
    algorithm.set_executor(audit)
    algorithm.run()
    recorded = [record.bytes_up for record in algorithm.history.records]
    assert len(audit.rounds) == len(recorded)
    assert recorded == audit.rounds


def test_remote_executor_matches_serial_under_topk(easy_setup, codec_serial_reference):
    """The networked path stays on the serial lossy history bit-for-bit, and
    the process registry's compression counters — the only copy, not a
    coordinator mirror — advance by the true encoded bytes."""
    from repro.obs.metrics import registry
    from repro.serve.executor import RemoteExecutor
    from repro.serve.options import ServeOptions

    def counted(name: str) -> float:
        metric = registry().get(name)
        return 0.0 if metric is None else metric.value

    expected_history, expected_state, _ = codec_serial_reference["topk"]
    encoded_before = counted("codec_bytes_up_total")
    raw_before = counted("codec_raw_bytes_up_total")
    executor = RemoteExecutor(
        options=ServeOptions(port=0, min_clients=2, connect_timeout=60.0, straggler_timeout=60.0)
    )
    host, port = executor.start()
    clients = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "client",
                "--host", host, "--port", str(port), "--name", f"codec-w{i}",
                "--backoff-base", "0.05",
            ],
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(2)
    ]
    try:
        algorithm = build_algorithm(easy_setup, "topk", "remote")
        algorithm.set_executor(executor)
        algorithm.run()
        coordinator = executor._coordinator
        assert coordinator is not None
        fleet_names = {metric.name for metric in coordinator.metrics.metrics()}
        encoded_bytes = counted("codec_bytes_up_total") - encoded_before
        raw_bytes = counted("codec_raw_bytes_up_total") - raw_before
    finally:
        executor.shutdown()
        for process in clients:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)

    assert fingerprint(algorithm) == expected_history
    for key, value in algorithm.global_state.items():
        assert np.array_equal(value, expected_state[key]), f"weights differ in {key!r}"
    assert not fleet_names & {"codec_bytes_up_total", "codec_raw_bytes_up_total"}
    expected_up = sum(record["bytes_up"] for record in expected_history)
    assert encoded_bytes == expected_up
    assert raw_bytes > encoded_bytes > 0
