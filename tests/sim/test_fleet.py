"""FleetSimulator unit behaviour: expansion, traces, dynamics, accounting."""

import numpy as np
import pytest

from repro.devices.testbed import TestbedSimulator
from repro.sim.fleet import DispatchBatch, FleetSimulator
from repro.sim.scenario import (
    AvailabilitySpec,
    BatterySpec,
    DeviceTemplate,
    NetworkSpec,
    ScenarioSpec,
    get_scenario,
)


def dispatch(client_ids, params=1000, flops=5000, samples=50, epochs=1):
    return DispatchBatch(
        client_ids=client_ids,
        params_down=params,
        params_up=params,
        flops_per_sample=flops,
        num_samples=samples,
        local_epochs=epochs,
    )


def device_run(fleet, attr):
    """One template attribute per client, in fleet order."""
    return [
        getattr(template, attr)
        for template, count in zip(fleet.spec.devices, fleet.device_counts)
        for _ in range(count)
    ]


def online(fleet, round_index):
    return np.flatnonzero(fleet.available_mask(round_index)).tolist()


def fleet_of(num_clients=4, seed=0, **spec_kwargs):
    spec_kwargs.setdefault(
        "devices",
        (DeviceTemplate(name="d", device_class="medium", flops_per_second=1e6, bandwidth_mbps=10.0, fraction=1.0),),
    )
    return FleetSimulator(ScenarioSpec(name="unit", **spec_kwargs), num_clients=num_clients, seed=seed)


class TestExpansion:
    def test_fixed_counts_expand_verbatim(self):
        fleet = FleetSimulator(get_scenario("paper_testbed"), num_clients=17)
        names = device_run(fleet, "name")
        assert names == ["raspberry_pi_4b"] * 4 + ["jetson_nano"] * 10 + ["jetson_xavier_agx"] * 3

    def test_fixed_counts_scale_proportionally_when_fleet_size_differs(self):
        fleet = FleetSimulator(get_scenario("paper_testbed"), num_clients=34)
        names = device_run(fleet, "name")
        assert names.count("raspberry_pi_4b") == 8
        assert names.count("jetson_nano") == 20
        assert names.count("jetson_xavier_agx") == 6

    def test_fraction_expansion_uses_largest_remainder(self):
        fleet = FleetSimulator(get_scenario("stable_lab"), num_clients=10)
        classes = device_run(fleet, "device_class")
        assert classes.count("weak") == 4
        assert classes.count("medium") == 3
        assert classes.count("strong") == 3

    def test_paper_testbed_profiles_match_legacy_testbed(self):
        fleet = FleetSimulator(get_scenario("paper_testbed"), num_clients=17)
        legacy = TestbedSimulator().build_profiles()  # identity order, no permutation
        assert fleet.build_profiles() == legacy


class TestStaticTiming:
    def test_closed_form_matches_legacy_testbed_bitwise(self):
        testbed = TestbedSimulator()
        testbed.build_profiles()  # identity order
        fleet = FleetSimulator(get_scenario("paper_testbed"), num_clients=17)
        outcome = fleet.simulate_round(0, dispatch(range(17), params=5000, flops=20000, samples=40, epochs=2))
        expected = [
            testbed.client_round_time(
                c, params_down=5000, params_up=5000, flops_per_sample=20000, num_samples=40, local_epochs=2
            )
            for c in range(17)
        ]
        assert outcome.arrival_seconds() == expected
        assert outcome.round_seconds == testbed.round_time(expected)
        assert outcome.deadline_seconds is None
        assert outcome.aggregated_positions() == list(range(17))

    def test_empty_round(self):
        fleet = fleet_of()
        outcome = fleet.simulate_round(0, dispatch([]))
        assert outcome.round_seconds == 0.0
        assert len(outcome) == 0 and outcome.arrival_seconds() == []


class TestAvailability:
    def test_always_on(self):
        fleet = fleet_of(num_clients=5)
        assert online(fleet, 3) == list(range(5))

    def test_markov_trace_is_deterministic_and_varies(self):
        kwargs = dict(num_clients=12, availability=AvailabilitySpec(kind="markov", p_drop=0.4, p_join=0.4))
        first = [online(fleet_of(seed=7, **kwargs), r) for r in range(6)]
        second = [online(fleet_of(seed=7, **kwargs), r) for r in range(6)]
        assert first == second
        sizes = {len(avail) for avail in first}
        assert len(sizes) > 1  # churn actually happens
        assert all(avail for avail in first)  # never empty (fallback guards)

    def test_markov_queries_out_of_order_are_consistent(self):
        kwargs = dict(num_clients=8, availability=AvailabilitySpec(kind="markov", p_drop=0.3, p_join=0.5))
        fleet = fleet_of(seed=3, **kwargs)
        later = online(fleet, 5)
        fresh = fleet_of(seed=3, **kwargs)
        sequential = [online(fresh, r) for r in range(6)]
        assert later == sequential[5]

    def test_diurnal_cycle_repeats_with_period(self):
        fleet = fleet_of(
            num_clients=10,
            availability=AvailabilitySpec(kind="diurnal", period_rounds=6, on_fraction=0.5),
        )
        pattern = [tuple(online(fleet, r)) for r in range(6)]
        repeated = [tuple(online(fleet, r + 6)) for r in range(6)]
        assert pattern == repeated
        assert len({p for p in pattern}) > 1  # phases differ across the day


class TestDynamics:
    def test_dropouts_are_deterministic_and_recorded(self):
        kwargs = dict(num_clients=10, dropout_rate=0.5)
        one = fleet_of(seed=5, **kwargs).simulate_round(0, dispatch(range(10)))
        two = fleet_of(seed=5, **kwargs).simulate_round(0, dispatch(range(10)))
        assert one.dropped.tolist() == two.dropped.tolist()
        assert one.dropped.any()
        assert not one.dropped.all()
        assert np.isnan(one.finish_seconds[one.dropped]).all()
        assert (one.bytes_up[one.dropped] == 0).all()
        assert not one.aggregated[one.dropped].any()

    def test_congestion_delays_transfers(self):
        devices = (
            DeviceTemplate(
                name="d",
                device_class="medium",
                flops_per_second=1e6,
                bandwidth_mbps=1.0,
                fraction=1.0,
                link_latency_s=0.01,
            ),
        )
        free = fleet_of(num_clients=6, devices=devices)
        jammed = fleet_of(num_clients=6, devices=devices, network=NetworkSpec(server_concurrency=1))
        dispatches = dispatch(range(6), params=100_000)
        t_free = free.simulate_round(0, dispatches)
        t_jammed = jammed.simulate_round(0, dispatches)
        assert t_jammed.round_seconds > t_free.round_seconds
        # with one slot the last client's finish stacks ~6 serialized transfers
        assert max(t_jammed.arrival_seconds()) > 2 * max(t_free.arrival_seconds())

    def test_fixed_deadline_splits_arrivals(self):
        devices = (
            DeviceTemplate(name="slow", device_class="weak", flops_per_second=1e5, bandwidth_mbps=1.0, fraction=0.5, link_latency_s=0.01),
            DeviceTemplate(name="fast", device_class="strong", flops_per_second=1e8, bandwidth_mbps=100.0, fraction=0.5, link_latency_s=0.01),
        )
        fleet = fleet_of(num_clients=4, devices=devices, deadline_seconds=1.0)
        outcome = fleet.simulate_round(0, dispatch(range(4), flops=20000))
        assert set(outcome.client_ids[outcome.aggregated].tolist()) == {2, 3}  # the two fast devices
        assert outcome.round_seconds == 1.0  # the server waits out the deadline
        assert outcome.deadline_seconds == 1.0

    def test_factor_deadline_uses_round_median(self):
        devices = (
            DeviceTemplate(name="d", device_class="medium", flops_per_second=1e6, bandwidth_mbps=10.0, fraction=1.0, compute_jitter=0.5),
        )
        fleet = fleet_of(num_clients=8, devices=devices, deadline_factor=1.2)
        outcome = fleet.simulate_round(0, dispatch(range(8)))
        finishes = [f for f in outcome.arrival_seconds() if f is not None]
        assert outcome.deadline_seconds == pytest.approx(1.2 * float(np.median(finishes)))

    def test_rounds_must_advance_monotonically(self):
        fleet = fleet_of()
        fleet.simulate_round(0, dispatch(0))
        with pytest.raises(ValueError):
            fleet.simulate_round(0, dispatch(0))


class TestBattery:
    def battery_fleet(self):
        return fleet_of(
            num_clients=3,
            seed=1,
            battery=BatterySpec(
                capacity_joules=50.0,
                compute_watts=10.0,
                transfer_joules_per_mb=0.0,
                recharge_watts=1.0,
                min_charge_fraction=0.2,
                resume_charge_fraction=0.6,
            ),
        )

    def test_training_drains_and_idle_recharges(self):
        fleet = self.battery_fleet()
        before = fleet.battery_charge(0)
        # ~3 seconds of compute at 10 W drains 30 J from client 0
        fleet.simulate_round(0, dispatch(0, flops=20000, samples=50, epochs=1))
        assert fleet.battery_charge(0) < before
        assert fleet.battery_charge(1) == before  # already full, recharge capped

    def test_depleted_client_sits_out_until_recovered(self):
        fleet = self.battery_fleet()
        round_index = 0
        while 0 not in fleet.state_dict()["recovering"]:
            fleet.simulate_round(round_index, dispatch(0, flops=20000))
            round_index += 1
            assert round_index < 50
        assert 0 not in online(fleet, round_index)
        # idle rounds recharge it back above the resume threshold
        while 0 in fleet.state_dict()["recovering"]:
            fleet.simulate_round(round_index, dispatch(1, flops=20000))
            round_index += 1
            assert round_index < 500
        assert 0 in online(fleet, round_index)

    def test_insufficient_charge_is_a_mid_round_death(self):
        fleet = fleet_of(
            num_clients=2,
            battery=BatterySpec(
                capacity_joules=5.0,
                compute_watts=10.0,
                transfer_joules_per_mb=0.0,
                recharge_watts=0.0,
                min_charge_fraction=0.0,
                resume_charge_fraction=0.0,
            ),
        )
        # needs ~30 J of compute but only 5 J are in the battery
        outcome = fleet.simulate_round(0, dispatch(0, flops=20000))
        assert outcome.dropped[0]
        assert outcome.arrival_seconds() == [None]
