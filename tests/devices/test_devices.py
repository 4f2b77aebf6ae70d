"""Device profile, resource-model and test-bed tests."""

import numpy as np
import pytest

from repro.devices.profiles import (
    DEFAULT_DEVICE_CLASSES,
    DeviceClass,
    assign_device_classes,
    build_device_profiles,
    parse_proportion,
)
from repro.devices.resources import ResourceModel, StaticResourceModel
from repro.devices.testbed import TESTBED_DEVICE_SPECS, TestbedSimulator


class TestProportions:
    def test_parse_string(self):
        assert parse_proportion("4:3:3") == pytest.approx((0.4, 0.3, 0.3))
        assert parse_proportion("1:1:8") == pytest.approx((0.1, 0.1, 0.8))

    def test_parse_tuple(self):
        assert parse_proportion((2, 1, 1)) == pytest.approx((0.5, 0.25, 0.25))

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_proportion("1:2")
        with pytest.raises(ValueError):
            parse_proportion("0:0:0")


class TestAssignment:
    @pytest.mark.parametrize("proportion, expected", [("4:3:3", (40, 30, 30)), ("8:1:1", (80, 10, 10)), ("1:1:8", (10, 10, 80))])
    def test_counts_match_proportion(self, proportion, expected):
        assigned = assign_device_classes(100, proportion)
        counts = (
            sum(1 for c in assigned if c.name == "weak"),
            sum(1 for c in assigned if c.name == "medium"),
            sum(1 for c in assigned if c.name == "strong"),
        )
        assert counts == expected

    def test_rounding_preserves_total(self):
        assigned = assign_device_classes(7, "4:3:3")
        assert len(assigned) == 7

    def test_shuffle_controlled_by_rng(self):
        ordered = assign_device_classes(10, "4:3:3", rng=None)
        shuffled = assign_device_classes(10, "4:3:3", rng=np.random.default_rng(0))
        assert sorted(c.name for c in ordered) == sorted(c.name for c in shuffled)
        assert [c.name for c in ordered] != [c.name for c in shuffled]

    def test_build_profiles_ids(self):
        profiles = build_device_profiles(5, "4:3:3", np.random.default_rng(0))
        assert [p.client_id for p in profiles] == list(range(5))

    def test_capacity_ordering(self):
        weak = DEFAULT_DEVICE_CLASSES["weak"]
        medium = DEFAULT_DEVICE_CLASSES["medium"]
        strong = DEFAULT_DEVICE_CLASSES["strong"]
        assert weak.capacity_fraction < medium.capacity_fraction < strong.capacity_fraction

    def test_device_class_validation(self):
        with pytest.raises(ValueError):
            DeviceClass("bad", capacity_fraction=0.0)


class TestResourceModel:
    @pytest.fixture
    def model(self):
        profiles = build_device_profiles(6, "4:3:3", np.random.default_rng(0))
        return ResourceModel(profiles, full_model_params=1_000_000, uncertainty=0.2, seed=5)

    def test_capacity_is_deterministic(self, model):
        a = model.available_capacity(2, 7)
        b = model.available_capacity(2, 7)
        assert a == b

    def test_capacity_fluctuates_across_rounds(self, model):
        values = {model.available_capacity(0, r) for r in range(20)}
        assert len(values) > 1

    def test_capacity_bounded(self, model):
        for client in range(model.num_clients):
            nominal = model.nominal_capacity(client)
            for round_index in range(10):
                cap = model.available_capacity(client, round_index)
                assert 0.5 * nominal <= cap <= 1.1 * nominal

    @pytest.mark.parametrize("uncertainty", [0.1, 1.0])
    def test_fluctuation_clamp_equals_np_clip(self, uncertainty):
        """``min(max(draw, floor), ceiling)`` gives ``np.clip``'s value, the exact bounds included."""
        profiles = build_device_profiles(3, "4:3:3", np.random.default_rng(0))
        for client in range(3):
            for round_index in range(20):
                draw = 1.0 + uncertainty * np.random.default_rng((5, client, round_index)).standard_normal()
                if draw <= 0:
                    continue
                above, below = np.nextafter(draw, np.inf), np.nextafter(draw, 0.0)
                for floor, ceiling in (
                    (0.5, 1.1),
                    (draw, max(draw, 1.1)),  # the draw sits exactly on a bound
                    (min(draw, 0.5), draw),
                    (draw, draw),
                    (above, max(above, 1.1)),  # one ulp outside a bound
                    (min(below, 0.5), below),
                ):
                    model = ResourceModel(profiles, 1_000_000, uncertainty, floor, ceiling, seed=5)
                    value = model._fluctuation(client, round_index)
                    assert type(value) is float
                    assert value == float(np.clip(draw, floor, ceiling)), (draw, floor, ceiling)

    def test_static_model_has_no_fluctuation(self):
        profiles = build_device_profiles(4, "4:3:3", np.random.default_rng(0))
        model = StaticResourceModel(profiles, 1_000_000)
        assert model.available_capacity(0, 0) == model.available_capacity(0, 99)

    def test_out_of_range_client(self, model):
        with pytest.raises(IndexError):
            model.available_capacity(99, 0)
        with pytest.raises(ValueError):
            model.available_capacity(0, -1)


class TestTestbed:
    def test_device_mix_matches_table5(self):
        sim = TestbedSimulator()
        assert sim.num_devices == 17
        names = [spec.name for spec in TESTBED_DEVICE_SPECS]
        assert names == ["raspberry_pi_4b", "jetson_nano", "jetson_xavier_agx"]

    def test_profiles_cover_all_devices(self):
        sim = TestbedSimulator()
        profiles = sim.build_profiles(np.random.default_rng(0))
        assert len(profiles) == 17
        classes = [p.class_name for p in profiles]
        assert classes.count("weak") == 4
        assert classes.count("medium") == 10
        assert classes.count("strong") == 3

    def test_strong_devices_train_faster(self):
        sim = TestbedSimulator()
        sim.build_profiles()  # identity order: first 4 are weak Pi, last 3 are Xavier
        weak_time = sim.training_time(0, flops_per_sample=10_000_000, num_samples=100, local_epochs=1)
        strong_time = sim.training_time(16, flops_per_sample=10_000_000, num_samples=100, local_epochs=1)
        assert strong_time < weak_time

    def test_round_time_is_maximum(self):
        sim = TestbedSimulator()
        assert sim.round_time([1.0, 5.0, 3.0]) == 5.0
        assert sim.round_time([]) == 0.0

    def test_smaller_models_communicate_faster(self):
        sim = TestbedSimulator()
        sim.build_profiles()
        small = sim.communication_time(0, params_down=100_000, params_up=100_000)
        large = sim.communication_time(0, params_down=1_000_000, params_up=1_000_000)
        assert small < large
