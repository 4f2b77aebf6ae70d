"""Scenario specs: validation, strict JSON round-trips and the registry."""

import json

import pytest

from repro.sim.scenario import (
    AvailabilitySpec,
    BatterySpec,
    DeviceTemplate,
    NetworkSpec,
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    unregister_scenario,
    validate_scenario_choice,
)

EXPECTED_LIBRARY = {
    "stable_lab",
    "flaky_edge",
    "diurnal",
    "congested_network",
    "battery_constrained",
    "paper_testbed",
}


def minimal_devices():
    return (DeviceTemplate(name="d", device_class="weak", flops_per_second=1e9, bandwidth_mbps=10.0, fraction=1.0),)


class TestSpecValidation:
    def test_device_needs_exactly_one_of_count_fraction(self):
        with pytest.raises(ValueError):
            DeviceTemplate(name="d", device_class="weak", flops_per_second=1e9, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            DeviceTemplate(
                name="d", device_class="weak", flops_per_second=1e9, bandwidth_mbps=10.0, count=2, fraction=0.5
            )

    def test_device_class_checked(self):
        with pytest.raises(ValueError):
            DeviceTemplate(name="d", device_class="huge", flops_per_second=1e9, bandwidth_mbps=10.0, count=1)

    def test_availability_kind_checked(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(kind="weekly")

    def test_markov_cannot_strand_everyone(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(kind="markov", p_drop=0.5, p_join=0.0)

    def test_battery_fraction_ordering(self):
        with pytest.raises(ValueError):
            BatterySpec(capacity_joules=10.0, min_charge_fraction=0.5, resume_charge_fraction=0.2)

    def test_scenario_rejects_both_deadline_kinds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", devices=minimal_devices(), deadline_seconds=1.0, deadline_factor=2.0)

    def test_scenario_rejects_mixed_count_and_fraction_templates(self):
        devices = (
            DeviceTemplate(name="a", device_class="weak", flops_per_second=1e9, bandwidth_mbps=10.0, count=2),
            DeviceTemplate(name="b", device_class="strong", flops_per_second=1e10, bandwidth_mbps=50.0, fraction=0.5),
        )
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", devices=devices)

    def test_scenario_needs_devices(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", devices=())


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(EXPECTED_LIBRARY))
    def test_library_specs_round_trip_through_json(self, name):
        spec = get_scenario(name)
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_unknown_keys_raise(self):
        payload = get_scenario("stable_lab").to_dict()
        payload["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            ScenarioSpec.from_dict(payload)

    def test_nested_unknown_keys_raise(self):
        payload = get_scenario("flaky_edge").to_dict()
        payload["availability"]["p_vanish"] = 0.5
        with pytest.raises(ValueError, match="p_vanish"):
            ScenarioSpec.from_dict(payload)

    def test_network_and_battery_round_trip(self):
        spec = get_scenario("battery_constrained")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.battery == spec.battery
        assert rebuilt.network == NetworkSpec()


class TestRegistry:
    def test_library_is_registered(self):
        assert EXPECTED_LIBRARY <= set(available_scenarios())

    def test_paper_testbed_is_static(self):
        assert get_scenario("paper_testbed").is_static
        assert get_scenario("stable_lab").is_static
        assert not get_scenario("flaky_edge").is_static

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(KeyError, match="stable_lab"):
            get_scenario("lunar_base")
        with pytest.raises(ValueError, match="lunar_base"):
            validate_scenario_choice("lunar_base")
        validate_scenario_choice(None)  # None is always fine

    def test_register_and_unregister(self):
        @register_scenario("test_only_scenario")
        def build():
            return ScenarioSpec(name="test_only_scenario", devices=minimal_devices())

        try:
            assert get_scenario("test_only_scenario").name == "test_only_scenario"
            with pytest.raises(ValueError):
                register_scenario("test_only_scenario")(lambda: None)
        finally:
            unregister_scenario("test_only_scenario")
        assert "test_only_scenario" not in available_scenarios()

    def test_bare_decorator_is_refused(self):
        before = available_scenarios()
        with pytest.raises(TypeError, match="scenario's name"):

            @register_scenario
            def my_campus():
                return ScenarioSpec(name="my_campus", devices=minimal_devices())

        assert available_scenarios() == before

    def test_factory_name_mismatch_rejected(self):
        @register_scenario("test_mismatch")
        def build():
            return ScenarioSpec(name="other", devices=minimal_devices())

        try:
            with pytest.raises(ValueError, match="other"):
                get_scenario("test_mismatch")
        finally:
            unregister_scenario("test_mismatch")
