"""Acceptance tests of the scenario layer.

* ``paper_testbed`` parity: for AdaptiveFL and all four baselines, a run
  under the scenario trains exactly like a plain run (every other legacy
  field and the final weights **bit-identical**), and every round's
  ``wall_clock_seconds`` is the reference :class:`TestbedSimulator` clock
  of the round's own dispatches.
* Same-seed scenario runs are fully deterministic across the serial,
  thread and process executors.
* Deadline-based over-selection demonstrably changes round composition in
  ``flaky_edge`` and is recorded in :class:`RoundRecord`.
"""

import json

import numpy as np
import pytest

from repro.baselines import AllLargeFedAvg, DecoupledFL, HeteroFL, ScaleFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.history import RoundRecord, TrainingHistory
from repro.core.server import AdaptiveFL
from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
from repro.data.partition import iid_partition
from repro.devices.resources import ResourceModel
from repro.devices.testbed import TestbedSimulator
from repro.nn.models import SlimmableSimpleCNN

#: every RoundRecord field an unsimulated run records besides the clock
LEGACY_FIELDS = (
    "round_index",
    "full_accuracy",
    "avg_accuracy",
    "level_accuracies",
    "train_loss",
    "communication_waste",
    "dispatched",
    "returned",
    "selected_clients",
)


@pytest.fixture(scope="module")
def testbed_setup():
    """A 17-client federation matching the paper's test-bed device mix."""
    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)
    config = SyntheticTaskConfig(
        num_classes=4, input_shape=(1, 8, 8), train_samples=510, test_samples=170,
        clusters_per_class=1, noise_std=0.35, label_noise=0.0, seed=11,
    )
    train, test = synthesize_classification_task(config)
    partition = iid_partition(train, 17, np.random.default_rng(2))
    testbed = TestbedSimulator()
    profiles = testbed.build_profiles()  # identity order, matching the fleet expansion
    resource_model = ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=2)
    federated = FederatedConfig(num_rounds=2, clients_per_round=5, eval_every=2)
    local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
    pool = ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)
    return {
        "testbed": testbed,
        "pool": pool,
        "federated": federated,
        "local": local,
        "kwargs": dict(
            architecture=arch, train_dataset=train, partition=partition, test_dataset=test,
            profiles=profiles, federated_config=federated, local_config=local,
            resource_model=resource_model, seed=2,
        ),
    }


def build_pair(setup, cls):
    """The same algorithm without simulation and on the ``paper_testbed`` fleet."""
    extra = {}
    if cls is AdaptiveFL:
        extra["algorithm_config"] = AdaptiveFLConfig(
            federated=setup["federated"], local=setup["local"], pool=setup["pool"]
        )
    plain = cls(**setup["kwargs"], pool_config=setup["pool"], **extra)
    scenario = cls(**setup["kwargs"], pool_config=setup["pool"], scenario="paper_testbed", **extra)
    return plain, scenario


def reference_round_time(setup, algorithm, record):
    """The reference test-bed clock of one record's own dispatches."""
    testbed, sizes = setup["testbed"], setup["kwargs"]["partition"].sizes()
    times = [
        testbed.client_round_time(
            client,
            params_down=algorithm.pool.by_name(sent).num_params,
            params_up=algorithm.pool.by_name(back).num_params,
            flops_per_sample=algorithm.submodel_flops(back),
            num_samples=sizes[client],
            local_epochs=setup["local"].local_epochs,
        )
        for client, sent, back in zip(record.selected_clients, record.dispatched, record.returned)
    ]
    return testbed.round_time(times)


class TestPaperTestbedParity:
    @pytest.mark.parametrize("cls", [AdaptiveFL, AllLargeFedAvg, DecoupledFL, HeteroFL, ScaleFL])
    def test_history_and_weights_bit_identical(self, testbed_setup, cls):
        plain, scenario = build_pair(testbed_setup, cls)
        plain_history = plain.run()
        scenario_history = scenario.run()
        assert len(plain_history) == len(scenario_history)
        for old, new in zip(plain_history.records, scenario_history.records):
            for field in LEGACY_FIELDS:
                assert getattr(old, field) == getattr(new, field), field
            assert old.wall_clock_seconds is None
            assert new.wall_clock_seconds == reference_round_time(testbed_setup, scenario, new)
        for key in plain.global_state:
            assert np.array_equal(plain.global_state[key], scenario.global_state[key]), key

    def test_scenario_run_adds_fleet_accounting(self, testbed_setup):
        _, scenario = build_pair(testbed_setup, HeteroFL)
        history = scenario.run()
        for record in history.records:
            assert len(record.arrival_seconds) == len(record.selected_clients)
            assert all(arrival is not None for arrival in record.arrival_seconds)
            assert record.dropped_clients == []  # the static test-bed never drops
            assert record.wall_clock_seconds == max(record.arrival_seconds)
            assert record.bytes_down > 0 and record.bytes_up > 0


class TestScenarioDeterminism:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_flaky_edge_bit_identical_across_executors(self, ci_scenario_histories, executor):
        assert ci_scenario_histories[executor] == ci_scenario_histories["serial"]

    def test_flaky_edge_rounds_exercise_the_dynamics(self, ci_scenario_histories):
        rounds = ci_scenario_histories["serial"]["rounds"]
        assert any(r["dropped_clients"] for r in rounds)
        assert all(len(r["arrival_seconds"]) == len(r["selected_clients"]) for r in rounds)


@pytest.fixture(scope="module")
def ci_scenario_histories():
    """AdaptiveFL on flaky_edge, same seed, one history per executor."""
    from repro.experiments.runner import run_algorithm
    from repro.experiments.settings import ExperimentSetting, prepare_experiment

    histories = {}
    for executor in ("serial", "thread", "process"):
        setting = ExperimentSetting(
            dataset="cifar10", model="simple_cnn", scale="ci", scenario="flaky_edge",
            executor=executor, max_workers=2, overrides={"num_rounds": 3, "eval_every": 3},
        )
        result = run_algorithm("adaptivefl", prepare_experiment(setting))
        histories[executor] = result.history.to_dict()
    return histories


class TestOverSelection:
    def test_flaky_edge_over_selection_changes_round_composition(self, ci_prepared):
        """Over-selection dispatches K+extra and the deadline prunes arrivals."""
        from repro.experiments.runner import run_algorithm

        baseline = run_algorithm("heterofl", ci_prepared).history
        flaky = run_algorithm("heterofl", ci_prepared, scenario="flaky_edge").history
        k = ci_prepared.federated_config.clients_per_round

        assert all(len(r.selected_clients) == k for r in baseline.records)
        over_selected = [r for r in flaky.records if len(r.selected_clients) > k]
        assert over_selected, "over-selection never dispatched more than clients_per_round"
        for record in flaky.records:
            # composition is recorded: aggregated = selected minus dropped
            assert set(record.dropped_clients) <= set(record.selected_clients)
            assert record.aggregated_clients == [
                c for c in record.selected_clients if c not in set(record.dropped_clients)
            ]
            assert record.deadline_seconds is not None
        compositions_differ = any(
            old.selected_clients != new.selected_clients
            for old, new in zip(baseline.records, flaky.records)
        )
        assert compositions_differ

    def test_dropped_dispatches_count_as_communication_waste(self, ci_prepared):
        """HeteroFL returns what it was sent, so any waste must come from drops."""
        from repro.experiments.runner import run_algorithm

        history = run_algorithm("heterofl", ci_prepared, scenario="flaky_edge").history
        assert any(r.dropped_clients for r in history.records)
        for record in history.records:
            if record.dropped_clients:
                assert record.communication_waste > 0
            else:
                assert record.communication_waste == 0

    def test_dropped_rounds_still_round_trip(self, ci_prepared):
        from repro.experiments.runner import run_algorithm

        history = run_algorithm("heterofl", ci_prepared, scenario="flaky_edge").history
        payload = json.loads(json.dumps(history.to_dict()))
        rebuilt = TrainingHistory.from_dict(payload)
        assert rebuilt.to_dict() == history.to_dict()
        assert [r for r in rebuilt.records] == history.records
        assert isinstance(rebuilt.records[0], RoundRecord)
