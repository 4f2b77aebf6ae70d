"""Invariants of :meth:`FleetSimulator.simulate_round` that hold for any batch.

The golden traces pin *what* the fleet decides on hand-picked batches;
these properties tie its three clocks to each other for batches nobody
wrote by hand:

* a gate wide enough for the whole batch never makes anyone wait, so the
  event replay must reproduce the uncontended closed form bit for bit,
* a static scenario's finish times are
  :func:`~repro.devices.testbed.split_round_seconds` per client, called
  with Python scalars (what the test-bed clock computes),
* an empty batch returns empty columns, still advances the
  monotonic-round watermark, and lasts no time at all — or exactly the
  deadline when one is fixed.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.testbed import split_round_seconds
from repro.sim.fleet import DispatchBatch, FleetSimulator, RoundOutcome
from repro.sim.scenario import (
    AvailabilitySpec,
    BatterySpec,
    DeviceTemplate,
    NetworkSpec,
    ScenarioSpec,
    get_scenario,
)

NUM_CLIENTS = 24
DEVICES = (
    DeviceTemplate(
        name="weak", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
        fraction=0.5, compute_jitter=0.2, link_latency_s=0.05, link_jitter_s=0.02,
    ),
    DeviceTemplate(
        name="strong", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
        fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.01,
    ),
)
#: dropouts, batteries that die and recover, and a relative deadline at once
DYNAMIC = ScenarioSpec(
    name="dynamic",
    devices=DEVICES,
    availability=AvailabilitySpec(kind="markov", p_drop=0.2, p_join=0.7),
    battery=BatterySpec(capacity_joules=45.0, compute_watts=2.0, recharge_watts=0.5, min_charge_fraction=0.2),
    dropout_rate=0.15,
    deadline_factor=2.0,
)
STATIC_MIX = ScenarioSpec(
    name="static_mix",
    devices=tuple(
        replace(device, compute_jitter=0.0, link_latency_s=0.0, link_jitter_s=0.0) for device in DEVICES
    ),
)
COLUMNS = (
    "client_ids", "bytes_down", "bytes_up", "finish_seconds",
    "dropped", "aggregated", "compute_seconds", "failure_seconds",
)

batches = st.fixed_dictionaries(
    {
        "size": st.integers(0, 12),
        "stride": st.integers(1, 3),
        "params_down": st.integers(1, 2_000_000),
        "params_up": st.integers(1, 2_000_000),
        "flops_per_sample": st.integers(1, 5_000_000),
        "num_samples": st.integers(1, 500),
        "local_epochs": st.integers(1, 5),
    }
)


def batch_for(fleet, round_index, shape):
    """A batch over reachable clients; uplink sizes differ per client."""
    clients = np.flatnonzero(fleet.available_mask(round_index))[:: shape["stride"]][: shape["size"]]
    return DispatchBatch(
        client_ids=clients,
        params_down=shape["params_down"],
        params_up=shape["params_up"] // (clients % 7 + 1) + 1,
        flops_per_sample=shape["flops_per_sample"],
        num_samples=shape["num_samples"],
        local_epochs=shape["local_epochs"],
    )


def assert_outcomes_identical(left, right):
    """Every column bit for bit (NaN codes included), every scalar equal."""
    assert {field.name for field in fields(RoundOutcome)} == {
        *COLUMNS, "round_index", "deadline_seconds", "round_seconds"
    }
    for name in COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert left.round_index == right.round_index
    assert left.deadline_seconds == right.deadline_seconds
    assert left.round_seconds == right.round_seconds


class TestWideGateIsTheClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), shapes=st.lists(batches, min_size=1, max_size=6), slack=st.integers(0, 3))
    def test_a_gate_nobody_waits_at_changes_no_bit(self, seed, shapes, slack):
        free = FleetSimulator(DYNAMIC, num_clients=NUM_CLIENTS, seed=seed)
        for round_index, shape in enumerate(shapes):
            batch = batch_for(free, round_index, shape)
            concurrency = max(1, len(batch)) + slack
            gated = FleetSimulator(
                replace(DYNAMIC, network=NetworkSpec(server_concurrency=concurrency)),
                num_clients=NUM_CLIENTS,
                seed=seed,
            )
            gated.load_state_dict(free.state_dict())  # same batteries, same watermark
            assert_outcomes_identical(
                free.simulate_round(round_index, batch), gated.simulate_round(round_index, batch)
            )
            assert np.array_equal(free.state_dict()["charge"], gated.state_dict()["charge"])
            assert free.state_dict()["recovering"] == gated.state_dict()["recovering"]

    def test_a_narrow_gate_does_make_them_wait(self):
        """The property above is not vacuous: one slot fewer and arrivals move."""
        spec = replace(DYNAMIC, battery=None, dropout_rate=0.0, deadline_factor=None)
        batch = DispatchBatch(
            client_ids=np.arange(6), params_down=400_000, params_up=400_000,
            flops_per_sample=20_000, num_samples=60, local_epochs=2,
        )
        free = FleetSimulator(spec, num_clients=NUM_CLIENTS, seed=1).simulate_round(0, batch)
        narrow = FleetSimulator(
            replace(spec, network=NetworkSpec(server_concurrency=5)), num_clients=NUM_CLIENTS, seed=1
        ).simulate_round(0, batch)
        assert (narrow.finish_seconds >= free.finish_seconds).all()
        assert (narrow.finish_seconds > free.finish_seconds).any()


class TestStaticClockIsSplitRoundSeconds:
    @pytest.mark.parametrize(
        "spec,num_clients", [(get_scenario("paper_testbed"), 17), (STATIC_MIX, NUM_CLIENTS)], ids=lambda v: getattr(v, "name", v)
    )
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), shape=batches)
    def test_finish_is_the_scalar_clock_per_client(self, spec, num_clients, seed, shape):
        assert spec.is_static
        fleet = FleetSimulator(spec, num_clients=num_clients, seed=seed)
        batch = batch_for(fleet, 0, shape)
        outcome = fleet.simulate_round(0, batch)

        templates = [t for t, count in zip(spec.devices, fleet.device_counts) for _ in range(count)]
        expected_finish, expected_compute = [], []
        for i, client in enumerate(batch.client_ids.tolist()):
            communication, training = split_round_seconds(
                templates[client].bandwidth_mbps,
                templates[client].flops_per_second,
                int(batch.params_down[i]),
                int(batch.params_up[i]),
                int(batch.flops_per_sample[i]),
                int(batch.num_samples[i]),
                int(batch.local_epochs[i]),
            )
            assert type(communication) is float and type(training) is float
            expected_finish.append(sum((communication, training)))
            expected_compute.append(training)

        assert outcome.finish_seconds.tolist() == expected_finish
        assert outcome.arrival_seconds() == expected_finish
        assert outcome.compute_seconds.tolist() == expected_compute
        assert outcome.round_seconds == max(expected_finish, default=0.0)
        assert outcome.deadline_seconds is None
        assert outcome.aggregated_positions() == list(range(len(batch)))
        assert outcome.dropped_client_ids() == []
        assert np.isnan(outcome.failure_seconds).all() and not outcome.dropped.any()
        assert outcome.bytes_down_total == 4 * int(batch.params_down.sum())
        assert outcome.bytes_up_total == 4 * int(batch.params_up.sum())


EMPTY_ROUND_SPECS = {
    "static": (STATIC_MIX, 0.0),
    "dynamic": (replace(DYNAMIC, deadline_factor=None), 0.0),
    "relative_deadline": (DYNAMIC, 0.0),  # no finish to take a median of: no deadline this round
    "gated": (replace(DYNAMIC, deadline_factor=None, network=NetworkSpec(server_concurrency=2)), 0.0),
    "fixed_deadline": (replace(DYNAMIC, deadline_factor=None, deadline_seconds=8.0), 8.0),
}


class TestEmptyBatch:
    @pytest.mark.parametrize("name", EMPTY_ROUND_SPECS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), round_index=st.integers(0, 50))
    def test_empty_columns_and_an_advanced_watermark(self, name, seed, round_index):
        spec, expected_seconds = EMPTY_ROUND_SPECS[name]
        fleet = FleetSimulator(spec, num_clients=NUM_CLIENTS, seed=seed)
        empty = DispatchBatch(
            client_ids=np.zeros(0, dtype=np.int64), params_down=1, params_up=1,
            flops_per_sample=1, num_samples=1, local_epochs=1,
        )
        outcome = fleet.simulate_round(round_index, empty)

        assert len(outcome) == 0
        for column in COLUMNS:
            assert getattr(outcome, column).shape == (0,), column
        assert outcome.aggregated_positions() == [] and outcome.dropped_client_ids() == []
        assert outcome.arrival_seconds() == []
        assert outcome.bytes_down_total == 0 and outcome.bytes_up_total == 0
        assert type(outcome.bytes_down_total) is int and type(outcome.round_seconds) is float
        assert outcome.round_seconds == expected_seconds
        assert outcome.deadline_seconds == (expected_seconds or None)

        assert fleet.state_dict()["last_simulated_round"] == round_index
        with pytest.raises(ValueError, match="already simulated"):
            fleet.simulate_round(round_index, empty)
        fleet.simulate_round(round_index + 1, empty)
