"""Fleet gauges + simulated-round histogram on the process registry.

Satellite of the fleet-scale PR: every scenario round publishes
``sim_devices_online`` / ``sim_devices_recovering`` /
``sim_devices_battery_dead`` gauges and a ``sim_round_seconds``
histogram, so ``repro metrics`` (which scrapes this registry) shows the
fleet's population state live.  Telemetry must never perturb training.
"""

import numpy as np
import pytest

from repro.obs.metrics import registry


@pytest.fixture(autouse=True)
def clean_registry():
    registry().reset()
    yield
    registry().reset()


def make_heterofl(tiny_cnn, tiny_federated_setup, fast_configs, **extra):
    from repro.baselines import HeteroFL

    setup = tiny_federated_setup
    return HeteroFL(
        architecture=tiny_cnn,
        train_dataset=setup["train"],
        partition=setup["partition"],
        test_dataset=setup["test"],
        profiles=setup["profiles"],
        resource_model=setup["resource_model"],
        federated_config=fast_configs["federated"],
        local_config=fast_configs["local"],
        seed=0,
        **extra,
    )


class TestFleetMetrics:
    def test_scenario_round_publishes_gauges_and_histogram(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_heterofl(tiny_cnn, tiny_federated_setup, fast_configs, scenario="flaky_edge")
        algorithm.run_round(0)

        online = registry().gauge("sim_devices_online", "").value
        recovering = registry().gauge("sim_devices_recovering", "").value
        dead = registry().gauge("sim_devices_battery_dead", "").value
        assert 0 <= online <= algorithm.num_clients
        assert recovering == 0 and dead == 0  # flaky_edge has no batteries
        histogram = registry().histogram("sim_round_seconds", "")
        _, total, calls = histogram.snapshot()
        assert calls == 1
        assert total > 0.0

    def test_gauges_track_the_current_round(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_heterofl(tiny_cnn, tiny_federated_setup, fast_configs, scenario="flaky_edge")
        for round_index in range(3):
            algorithm.run_round(round_index)
            expected = int(np.count_nonzero(algorithm.fleet.available_mask(round_index)))
            assert registry().gauge("sim_devices_online", "").value == expected
        assert registry().histogram("sim_round_seconds", "").snapshot()[2] == 3

    def test_no_scenario_publishes_nothing(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = make_heterofl(tiny_cnn, tiny_federated_setup, fast_configs)
        algorithm.run_round(0)
        assert registry().get("sim_devices_online") is None
        assert registry().get("sim_round_seconds") is None

    def test_prometheus_exposition_includes_fleet_metrics(self, tiny_cnn, tiny_federated_setup, fast_configs):
        """What ``repro metrics`` scrapes: the rendered registry text."""
        algorithm = make_heterofl(tiny_cnn, tiny_federated_setup, fast_configs, scenario="flaky_edge")
        algorithm.run_round(0)
        text = registry().render()
        for name in ("sim_devices_online", "sim_devices_recovering", "sim_devices_battery_dead", "sim_round_seconds"):
            assert name in text, name
        assert "sim_round_seconds_bucket" in text
