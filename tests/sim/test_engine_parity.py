"""Contracts of the fleet engine's draws, batch API and state round trip.

The traces themselves — every :class:`RoundOutcome` field, battery
trajectory and end-to-end history on stochastic, gated, deadline and
byte-budget fleets — are pinned by ``test_small_fleet_goldens.py``; here
live the properties that hold for any trace: batched draws are a pure
function of ``(seed, round, client)``, the batch API equals the list API,
and a restored fleet continues bit-identically.
"""

import numpy as np

from repro.sim.fleet import ClientDispatch, DispatchBatch, FleetSimulator
from repro.sim.scenario import AvailabilitySpec, BatterySpec, DeviceTemplate, ScenarioSpec


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
    return [
        ClientDispatch(
            client_id=client, params_down=params, params_up=params // 2,
            flops_per_sample=flops, num_samples=samples, local_epochs=epochs,
        )
        for client in clients
    ]


def outcomes_equal(left, right):
    """Field-by-field bit equality of two RoundOutcomes."""
    assert left.round_index == right.round_index
    assert left.deadline_seconds == right.deadline_seconds
    assert left.round_seconds == right.round_seconds
    assert len(left.clients) == len(right.clients)
    for a, b in zip(left.clients, right.clients):
        for field in (
            "client_id", "bytes_down", "bytes_up", "finish_seconds",
            "dropped", "aggregated", "compute_seconds", "failure_seconds",
        ):
            assert getattr(a, field) == getattr(b, field), field


def run_rounds(fleet, num_rounds=6, k=8):
    """Simulate ``num_rounds`` rounds over whichever clients are reachable."""
    outcomes = []
    for round_index in range(num_rounds):
        clients = fleet.available_clients(round_index)[:k]
        outcomes.append(fleet.simulate_round(round_index, dispatches_for(clients)))
    return outcomes


class TestBatchedDraws:
    def test_batched_draws_deterministic_across_instances(self):
        """Generator construction is batched per (tag, round) and
        the draws are a pure function of (seed, round, client) — two fleets
        and repeated queries agree bit-for-bit."""
        first = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        second = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        ids = [3, 7, 21, 38]
        for round_index in range(3):
            a = first._dispatch_draws(round_index, ids)
            b = second._dispatch_draws(round_index, ids)
            again = first._dispatch_draws(round_index, ids)
            for attr in ("factor", "down_jitter", "up_jitter", "drop_fraction"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr), equal_nan=True), attr
                assert np.array_equal(getattr(a, attr), getattr(again, attr), equal_nan=True), attr

    def test_batched_subset_matches_full_population_draws(self):
        """A dispatched subset indexes the same full-population vectors."""
        fleet = FleetSimulator(stochastic_spec(), num_clients=40, seed=13)
        subset = fleet._dispatch_draws(2, [5, 17, 29])
        everyone = fleet._dispatch_draws(2, list(range(40)))
        for attr in ("factor", "down_jitter", "up_jitter", "drop_fraction"):
            assert np.array_equal(
                getattr(subset, attr), getattr(everyone, attr)[[5, 17, 29]], equal_nan=True
            ), attr


class TestBatchAPI:
    def test_simulate_round_batch_matches_list_api(self):
        list_fleet = FleetSimulator(stochastic_spec(), num_clients=24, seed=9)
        batch_fleet = FleetSimulator(stochastic_spec(), num_clients=24, seed=9)
        for round_index in range(4):
            clients = list_fleet.available_clients(round_index)[:8]
            dispatches = dispatches_for(clients)
            outcome = list_fleet.simulate_round(round_index, dispatches)
            batch = batch_fleet.simulate_round_batch(
                round_index, DispatchBatch.from_dispatches(dispatches)
            )
            outcomes_equal(outcome, batch.to_outcome())

    def test_dispatch_batch_round_trips(self):
        dispatches = dispatches_for([2, 5, 9])
        batch = DispatchBatch.from_dispatches(dispatches)
        assert batch.to_dispatches() == dispatches
        assert len(batch) == 3


class TestStateRoundTrip:
    def test_resume_is_bit_identical(self):
        reference = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        run_rounds(reference, num_rounds=6)

        first = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        run_rounds(first, num_rounds=3)
        resumed = FleetSimulator(stochastic_spec(), num_clients=20, seed=4)
        resumed.load_state_dict(first.state_dict())
        for round_index in range(3, 6):
            clients = resumed.available_clients(round_index)[:8]
            resumed.simulate_round(round_index, dispatches_for(clients))
        assert np.array_equal(reference.state_dict()["charge"], resumed.state_dict()["charge"])
        assert reference.state_dict()["recovering"] == resumed.state_dict()["recovering"]


class TestPopulationStats:
    def test_counts_partition_the_fleet(self):
        fleet = FleetSimulator(stochastic_spec(), num_clients=30, seed=2)
        run_rounds(fleet, num_rounds=3)
        stats = fleet.population_stats(3)
        assert set(stats) == {"online", "recovering", "battery_dead"}
        assert stats["online"] == int(np.count_nonzero(fleet.available_mask(3)))
        assert 0 <= stats["recovering"] <= 30
        assert 0 <= stats["battery_dead"] <= 30
