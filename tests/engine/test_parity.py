"""Serial-parity regression suite (the engine's core guarantee).

Every executor must produce **bit-identical** training histories to
:class:`~repro.engine.executors.SerialExecutor` at a fixed seed: identical
client selections, dispatched/returned submodels, train losses,
accuracies and global model weights.  Exact float equality is intentional
— parallel execution must not change a single bit of the simulation.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import HeteroFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.perf import lanes

EXECUTORS = ["serial", "thread", "process"]
ALGORITHMS = ["adaptivefl", "heterofl"]

ROUNDS = 2
FEDERATED = FederatedConfig(num_rounds=ROUNDS, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)


def build_algorithm(name: str, easy_setup, executor: str) -> AdaptiveFL | HeteroFL:
    federated = replace(FEDERATED, executor=executor, max_workers=3)
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


def history_fingerprint(algorithm) -> list[dict]:
    """Everything a round produced, in exactly comparable form."""
    fingerprint = []
    for record in algorithm.history.records:
        fingerprint.append(
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
        )
    return fingerprint


@pytest.fixture(scope="module")
def serial_reference(easy_setup):
    """Histories + final weights of the serial path, one per algorithm."""
    reference = {}
    for name in ALGORITHMS:
        algorithm = build_algorithm(name, easy_setup, "serial")
        algorithm.run()
        reference[name] = (history_fingerprint(algorithm), algorithm.global_state)
    return reference


# the executor parametrization is the whole id on purpose: CI's parity matrix
# filters with `-k "<executor>"`, so the function name must not contain one
@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_history_bit_identical(easy_setup, serial_reference, name, executor):
    algorithm = build_algorithm(name, easy_setup, executor)
    algorithm.run()
    expected_history, expected_state = serial_reference[name]

    # exact equality, including float fields: parity means bit-identical
    assert history_fingerprint(algorithm) == expected_history

    assert set(algorithm.global_state) == set(expected_state)
    for key, value in algorithm.global_state.items():
        assert np.array_equal(value, expected_state[key]), f"weights differ in {key!r}"


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_worker_count_does_not_change_history(easy_setup, serial_reference, executor):
    """1-worker and many-worker pools agree with serial (scheduling-proof)."""
    expected_history, _ = serial_reference["adaptivefl"]
    for workers in (1, 4):
        federated = replace(FEDERATED, executor=executor, max_workers=workers)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
            seed=0,
        )
        algorithm.run()
        assert history_fingerprint(algorithm) == expected_history, f"{executor} x{workers} diverged"


@pytest.mark.parametrize("executor", ["process"])
def test_a_lane_helper_started_by_an_evaluation_does_not_change_history(easy_setup, serial_reference, executor, monkeypatch):
    """The forked workers inherit the helper object but not its thread; the run still ends."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    evaluated = build_algorithm("adaptivefl", easy_setup, "serial")
    evaluated.evaluate()
    assert lanes._helper is not None
    algorithm = build_algorithm("adaptivefl", easy_setup, executor)
    algorithm.run()
    expected_history, expected_state = serial_reference["adaptivefl"]
    assert history_fingerprint(algorithm) == expected_history
    for key, value in algorithm.global_state.items():
        assert np.array_equal(value, expected_state[key]), f"weights differ in {key!r}"
