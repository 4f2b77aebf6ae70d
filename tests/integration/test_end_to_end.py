"""End-to-end integration tests across the whole stack.

These exercise dataset synthesis -> partitioning -> device modelling ->
federated training -> evaluation for AdaptiveFL and the baselines, checking
learning actually happens and the core qualitative claims hold on a small,
easy task.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.baselines import HeteroFL
from repro.data.partition import iid_partition
from repro.devices.resources import ResourceModel
from repro.sim.fleet import FleetSimulator
from repro.sim.scenario import get_scenario

# ``easy_setup`` comes session-scoped from tests/conftest.py and is shared
# with the engine parity suite.


def make_configs(pool_config, rounds=8):
    federated = FederatedConfig(num_rounds=rounds, clients_per_round=4, eval_every=4)
    local = LocalTrainingConfig(local_epochs=1, batch_size=25)
    return federated, local, AdaptiveFLConfig(federated=federated, local=local, pool=pool_config)


class TestLearningHappens:
    def test_adaptivefl_learns_above_chance(self, easy_setup):
        federated, local, adaptive = make_configs(easy_setup["pool"])
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=adaptive,
            seed=0,
        )
        history = algorithm.run()
        chance = 1.0 / easy_setup["arch"].num_classes
        assert history.final_accuracy("full") > chance + 0.15
        assert history.final_accuracy("avg") > chance + 0.10

    def test_accuracy_improves_over_training(self, easy_setup):
        federated, local, adaptive = make_configs(easy_setup["pool"], rounds=8)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=adaptive,
            seed=1,
        )
        history = algorithm.run()
        rounds, values = history.accuracy_curve("full")
        assert values[-1] >= values[0] - 0.05  # no catastrophic collapse
        assert max(values) > 1.0 / easy_setup["arch"].num_classes + 0.1

    def test_heterofl_baseline_learns_on_same_setup(self, easy_setup):
        federated, local, _ = make_configs(easy_setup["pool"])
        algorithm = HeteroFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            federated_config=federated,
            local_config=local,
            resource_model=easy_setup["resource_model"],
            seed=0,
        )
        history = algorithm.run()
        assert history.final_accuracy("full") > 1.0 / easy_setup["arch"].num_classes + 0.1


class TestSubmodelConsistency:
    def test_level_heads_all_learn(self, easy_setup):
        """Every level head (S/M/L) sliced from the trained global model must be
        above chance — the knowledge-sharing property of heterogeneous
        aggregation (Figure 3's qualitative claim)."""
        federated, local, adaptive = make_configs(easy_setup["pool"], rounds=10)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=adaptive,
            seed=2,
        )
        history = algorithm.run()
        final = history.evaluated_records()[-1]
        chance = 1.0 / easy_setup["arch"].num_classes
        for level, accuracy in final.level_accuracies.items():
            assert accuracy > chance, f"level {level} did not learn"


class TestTestbedIntegration:
    def test_wall_clock_is_recorded_and_increasing(self, easy_setup):
        # the profiles of the devices the paper_testbed clock times
        profiles = FleetSimulator(get_scenario("paper_testbed"), 17, seed=0).build_profiles()
        # the test-bed has 17 devices; re-partition the data accordingly
        partition = iid_partition(easy_setup["train"], 17, np.random.default_rng(0))
        resource_model = ResourceModel(profiles, easy_setup["arch"].parameter_count(), uncertainty=0.1, seed=0)
        federated = FederatedConfig(num_rounds=2, clients_per_round=5, eval_every=2)
        local = LocalTrainingConfig(local_epochs=1, batch_size=20, max_batches_per_epoch=2)
        adaptive = AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"])
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=partition,
            test_dataset=easy_setup["test"],
            profiles=profiles,
            resource_model=resource_model,
            algorithm_config=adaptive,
            scenario="paper_testbed",
            seed=0,
        )
        history = algorithm.run()
        seconds, accuracies = history.time_curve("full")
        assert all(record.wall_clock_seconds > 0 for record in history.records)
        assert seconds == sorted(seconds)
        assert len(accuracies) >= 1


class TestDeterminism:
    def test_full_pipeline_reproducible(self, easy_setup):
        results = []
        for _ in range(2):
            federated, local, adaptive = make_configs(easy_setup["pool"], rounds=3)
            algorithm = AdaptiveFL(
                architecture=easy_setup["arch"],
                train_dataset=easy_setup["train"],
                partition=easy_setup["partition"],
                test_dataset=easy_setup["test"],
                profiles=easy_setup["profiles"],
                resource_model=easy_setup["resource_model"],
                algorithm_config=adaptive,
                seed=42,
            )
            history = algorithm.run()
            results.append(history.final_accuracy("full"))
        assert results[0] == pytest.approx(results[1])
