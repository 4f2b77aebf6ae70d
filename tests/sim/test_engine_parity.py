"""Contracts of the fleet engine's draws and state round trip.

The traces themselves — every :class:`RoundOutcome` field, battery
trajectory and end-to-end history on stochastic, gated, deadline and
byte-budget fleets — are pinned by ``test_small_fleet_goldens.py``; here
live the properties that hold for any trace: batched draws are a pure
function of ``(seed, round, client)``, a restored fleet continues
bit-identically, and a checkpoint that names clients the fleet does not
have is refused.
"""

import numpy as np
import pytest

from repro.sim.fleet import DispatchBatch, FleetSimulator
from repro.sim.scenario import AvailabilitySpec, BatterySpec, DeviceTemplate, ScenarioSpec


DRAW_COLUMNS = ("factor", "down_jitter", "up_jitter", "drop_fraction")


def stochastic_spec():
    """Every dynamic subsystem on at once."""
    return ScenarioSpec(
        name="engine-parity",
        devices=(
            DeviceTemplate(
                name="weak", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
                fraction=0.5, compute_jitter=0.2, link_latency_s=0.05, link_jitter_s=0.02,
            ),
            DeviceTemplate(
                name="strong", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
                fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.01,
            ),
        ),
        availability=AvailabilitySpec(kind="markov", p_drop=0.2, p_join=0.7),
        battery=BatterySpec(capacity_joules=600.0, compute_watts=2.0, recharge_watts=5.0),
        dropout_rate=0.15,
        deadline_factor=2.0,
    )


def dispatches_for(clients, params=40_000, flops=20_000, samples=60, epochs=2):
    return DispatchBatch(
        client_ids=clients, params_down=params, params_up=params // 2,
        flops_per_sample=flops, num_samples=samples, local_epochs=epochs,
    )


def run_rounds(fleet, num_rounds=6, k=8):
    """Simulate ``num_rounds`` rounds over whichever clients are reachable."""
    outcomes = []
    for round_index in range(num_rounds):
        clients = np.flatnonzero(fleet.available_mask(round_index))[:k]
        outcomes.append(fleet.simulate_round(round_index, dispatches_for(clients)))
    return outcomes


class TestBatchedDraws:
    def test_batched_draws_deterministic_across_instances(self):
        """Generator construction is batched per (tag, round) and
        the draws are a pure function of (seed, round, client) — two fleets
        and repeated queries agree bit-for-bit."""
        first = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        second = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        ids = np.array([3, 7, 21, 38])
        for round_index in range(3):
            a = first._dispatch_draws(round_index, ids)
            b = second._dispatch_draws(round_index, ids)
            again = first._dispatch_draws(round_index, ids)
            for column, (x, y, z) in zip(DRAW_COLUMNS, zip(a, b, again, strict=True)):
                assert np.array_equal(x, y, equal_nan=True), column
                assert np.array_equal(x, z, equal_nan=True), column

    def test_batched_subset_matches_full_population_draws(self):
        """A dispatched subset indexes the same full-population vectors."""
        fleet = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        subset = fleet._dispatch_draws(2, np.array([5, 17, 29]))
        everyone = fleet._dispatch_draws(2, np.arange(40))
        for column, part, whole in zip(DRAW_COLUMNS, subset, everyone, strict=True):
            assert np.array_equal(part, whole[[5, 17, 29]], equal_nan=True), column


class TestStateRoundTrip:
    def test_resume_is_bit_identical(self):
        reference = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        run_rounds(reference, num_rounds=6)

        first = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        run_rounds(first, num_rounds=3)
        resumed = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        resumed.load_state_dict(first.state_dict())
        for round_index in range(3, 6):
            clients = np.flatnonzero(resumed.available_mask(round_index))[:8]
            resumed.simulate_round(round_index, dispatches_for(clients))
        assert np.array_equal(reference.state_dict()["charge"], resumed.state_dict()["charge"])
        assert reference.state_dict()["recovering"] == resumed.state_dict()["recovering"]

    @pytest.mark.parametrize("recovering", [[-1], [20], [3, 4, 10**6]])
    def test_recovering_ids_outside_the_fleet_are_refused(self, recovering):
        """A negative id would wrap and silently bench the last client."""
        fleet = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        state = fleet.state_dict()
        state["recovering"] = recovering
        with pytest.raises(ValueError, match="outside"):
            fleet.load_state_dict(state)
        assert fleet.population_stats(0)["recovering"] == 0

    @pytest.mark.parametrize("key", ["last_simulated_round", "recovering"])
    def test_a_state_without_its_keys_is_refused(self, key):
        fleet = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        state = fleet.state_dict()
        del state[key]
        with pytest.raises(ValueError, match=key):
            fleet.load_state_dict(state)

    def test_state_dict_lists_recovering_ids_in_order(self):
        fleet = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        state = fleet.state_dict()
        state["recovering"] = [7, 2, 11]
        fleet.load_state_dict(state)
        assert fleet.state_dict()["recovering"] == [2, 7, 11]
        assert not fleet.available_mask(0)[[2, 7, 11]].any()


class TestPopulationStats:
    def test_counts_partition_the_fleet(self):
        fleet = FleetSimulator(stochastic_spec(), num_clients=30, seed=2)
        run_rounds(fleet, num_rounds=3)
        stats = fleet.population_stats(3)
        assert set(stats) == {"online", "recovering", "battery_dead"}
        assert stats["online"] == int(np.count_nonzero(fleet.available_mask(3)))
        assert 0 <= stats["recovering"] <= 30
        assert 0 <= stats["battery_dead"] <= 30
