"""Per-round byte budgets: metered-backhaul admission control.

``ScenarioSpec.round_byte_budget`` caps the bytes one round may move:
downlinks spend first (the server already sent them), then returned
uploads are admitted greedily in simulated arrival order while budget
remains.  The rules pinned here:

* refused uploads do not aggregate and cost zero uplink bytes,
* admission order is arrival order with dispatch position breaking ties,
* the greedy rule can admit a small late upload after refusing a large
  earlier one — deterministically,
* admission decisions under jittered arrivals are pinned by the
  ``byte_budget`` cases of ``test_small_fleet_goldens.py``,
* a budget makes the scenario dynamic (the static fast path would skip
  admission control entirely).
"""

import pytest

from repro.sim.fleet import BYTES_PER_PARAM, DispatchBatch, FleetSimulator
from repro.sim.library import congested_metered, congested_network
from repro.sim.scenario import DeviceTemplate, ScenarioSpec, get_scenario


def dispatch(client_ids, params_down=1000, params_up=1000, flops=5000, samples=50, epochs=1):
    return DispatchBatch(
        client_ids=client_ids,
        params_down=params_down,
        params_up=params_up,
        flops_per_sample=flops,
        num_samples=samples,
        local_epochs=epochs,
    )


def budget_fleet(budget, num_clients=4, seed=0, devices=None, **spec_kwargs):
    if devices is None:
        devices = (
            DeviceTemplate(
                name="d", device_class="medium", flops_per_second=1e6, bandwidth_mbps=10.0, fraction=1.0
            ),
        )
    spec = ScenarioSpec(name="metered", devices=devices, round_byte_budget=budget, **spec_kwargs)
    return FleetSimulator(spec, num_clients=num_clients, seed=seed)


JITTER_DEVICES = (
    DeviceTemplate(
        name="slow", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
        fraction=0.5, compute_jitter=0.3, link_latency_s=0.05, link_jitter_s=0.1,
    ),
    DeviceTemplate(
        name="fast", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
        fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.05,
    ),
)


class TestSpecValidation:
    @pytest.mark.parametrize("budget", [0, -1, -100])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="round_byte_budget"):
            ScenarioSpec(
                name="bad",
                devices=(
                    DeviceTemplate(
                        name="d", device_class="weak", flops_per_second=1e6, bandwidth_mbps=1.0, fraction=1.0
                    ),
                ),
                round_byte_budget=budget,
            )

    def test_budget_makes_the_scenario_dynamic(self):
        base = get_scenario("stable_lab")
        assert base.is_static
        metered = ScenarioSpec(
            name="metered", devices=base.devices, round_byte_budget=10_000
        )
        assert not metered.is_static

    def test_budget_roundtrips_through_to_dict(self):
        spec = congested_metered()
        payload = spec.to_dict()
        assert payload["round_byte_budget"] == spec.round_byte_budget
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt == spec
        # None round-trips too
        plain = congested_network()
        assert ScenarioSpec.from_dict(plain.to_dict()).round_byte_budget is None

    def test_congested_metered_is_the_metered_congested_network(self):
        metered, congested = congested_metered(), congested_network()
        assert metered.round_byte_budget == 192_000
        assert metered.devices == congested.devices
        assert metered.network == congested.network
        assert congested.round_byte_budget is None


class TestAdmission:
    def test_ample_budget_changes_nothing(self):
        dispatches = dispatch(range(4))
        capped = budget_fleet(10**9).simulate_round(0, dispatches)
        uncapped = budget_fleet(None).simulate_round(0, dispatches)
        assert capped.aggregated.tolist() == uncapped.aggregated.tolist()
        assert capped.bytes_up.tolist() == uncapped.bytes_up.tolist()

    def test_downlinks_spend_the_budget_first(self):
        """A budget smaller than the summed downlinks refuses every upload."""
        dispatches = dispatch(range(4))
        total_down = 4 * 1000 * BYTES_PER_PARAM
        outcome = budget_fleet(total_down - 1).simulate_round(0, dispatches)
        assert not outcome.aggregated.any()
        assert (outcome.bytes_up == 0).all()
        # the downlink bytes were still spent (the server already sent them)
        assert (outcome.bytes_down == 1000 * BYTES_PER_PARAM).all()

    def test_partial_budget_admits_in_arrival_order(self):
        """Identical devices and loads: arrival ties break by dispatch position."""
        dispatches = dispatch(range(4))
        down = 4 * 1000 * BYTES_PER_PARAM
        up = 1000 * BYTES_PER_PARAM
        outcome = budget_fleet(down + 2 * up).simulate_round(0, dispatches)
        assert outcome.aggregated.tolist() == [True, True, False, False]
        assert outcome.bytes_up.tolist() == [up, up, 0, 0]

    def test_greedy_rule_admits_a_small_upload_after_a_large_refusal(self):
        """Client 0 uploads big, clients 1-3 small; the budget refuses the
        big upload but still admits the small ones that arrive later."""
        dispatches = dispatch(range(4), params_up=[5000, 100, 100, 100])
        down = 4 * 1000 * BYTES_PER_PARAM
        outcome = budget_fleet(down + 3 * 100 * BYTES_PER_PARAM).simulate_round(0, dispatches)
        # client 0 (largest upload, latest finisher here anyway) refused,
        # the three small uploads all fit
        flags = dict(zip(outcome.client_ids.tolist(), outcome.aggregated.tolist()))
        assert flags == {0: False, 1: True, 2: True, 3: True}
        assert outcome.bytes_up[0] == 0

    def test_refusal_is_not_a_drop(self):
        """Refused clients still *returned* (trained and tried to upload)."""
        dispatches = dispatch(range(4))
        outcome = budget_fleet(1).simulate_round(0, dispatches)
        assert None not in outcome.arrival_seconds()
        assert not outcome.dropped.any()
        assert not outcome.aggregated.any()


    def test_budget_binds_under_congestion_and_codecs_relieve_it(self):
        """The congested_metered story: exact uplinks overflow the budget,
        a 4x-smaller (codec-sized) uplink fits everyone."""
        spec = congested_metered()
        # 6 downlinks of 4k params fit the 192kB budget; 6 exact 8k-param
        # uplinks overflow what remains, 6 codec-sized 2k-param uplinks don't
        exact = FleetSimulator(spec, num_clients=10, seed=3)
        outcome = exact.simulate_round(0, dispatch(range(6), params_down=4_000, params_up=8_000))
        refused_exact = int((~outcome.aggregated).sum())

        compressed = FleetSimulator(spec, num_clients=10, seed=3)
        outcome = compressed.simulate_round(0, dispatch(range(6), params_down=4_000, params_up=2_000))
        refused_compressed = int((~outcome.aggregated).sum())
        assert refused_exact > refused_compressed


class TestDeterminism:
    def test_same_seed_same_refusals(self):
        dispatches = dispatch(range(6))
        flags = []
        for _ in range(2):
            fleet = budget_fleet(
                4 * 1000 * BYTES_PER_PARAM + 1500 * BYTES_PER_PARAM,
                num_clients=6,
                seed=9,
                devices=JITTER_DEVICES,
            )
            outcome = fleet.simulate_round(0, dispatches)
            flags.append(outcome.aggregated.tolist())
        assert flags[0] == flags[1]

    def test_refusals_follow_arrival_not_dispatch_order(self):
        """With heterogeneous finish times the earliest arrivals win the
        budget even when dispatched last."""
        devices = (
            DeviceTemplate(
                name="slow", device_class="weak", flops_per_second=2e5, bandwidth_mbps=1.0, fraction=0.5
            ),
            DeviceTemplate(
                name="fast", device_class="strong", flops_per_second=1e7, bandwidth_mbps=100.0, fraction=0.5
            ),
        )
        # fraction expansion assigns clients 0-1 the slow template and 2-3
        # the fast one; dispatch the slow clients first
        dispatches = dispatch([0, 1, 2, 3])
        up, down = 1000 * BYTES_PER_PARAM, 4 * 1000 * BYTES_PER_PARAM
        fleet = budget_fleet(down + 2 * up, num_clients=4, seed=0, devices=devices)
        outcome = fleet.simulate_round(0, dispatches)
        flags = dict(zip(outcome.client_ids.tolist(), outcome.aggregated.tolist()))
        arrivals = dict(zip(outcome.client_ids.tolist(), outcome.arrival_seconds()))
        assert arrivals[2] < arrivals[0] and arrivals[3] < arrivals[1]
        assert flags == {0: False, 1: False, 2: True, 3: True}
