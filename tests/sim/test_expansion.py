"""Regression tests of deterministic largest-remainder device expansion.

The historical per-template rounding drifted at large N (fraction sums
that rounded away clients or manufactured extras).  The rewritten
:func:`repro.sim.fleet._expand_device_counts` must produce counts that
sum *exactly* to ``num_clients`` at any scale, deterministically.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fleet import _expand_device_counts
from repro.sim.scenario import DeviceTemplate


def fraction_templates(fractions):
    return tuple(
        DeviceTemplate(
            name=f"t{i}", device_class="medium", flops_per_second=1e6,
            bandwidth_mbps=10.0, fraction=fraction,
        )
        for i, fraction in enumerate(fractions)
    )


def count_templates(counts):
    return tuple(
        DeviceTemplate(
            name=f"t{i}", device_class="medium", flops_per_second=1e6,
            bandwidth_mbps=10.0, count=count,
        )
        for i, count in enumerate(counts)
    )


class TestLargestRemainder:
    def test_thirds_sum_exactly_at_every_scale(self):
        templates = fraction_templates([1 / 3, 1 / 3, 1 / 3])
        for num_clients in (10, 100, 10_000, 1_000_000):
            counts = _expand_device_counts(templates, num_clients)
            assert sum(counts) == num_clients
            # a three-way even split never deviates by more than one client
            assert max(counts) - min(counts) <= 1

    def test_million_client_expansion_is_exact_and_proportional(self):
        fractions = [0.123456, 0.234567, 0.345678, 0.296299]
        counts = _expand_device_counts(fraction_templates(fractions), 1_000_000)
        assert sum(counts) == 1_000_000
        for count, fraction in zip(counts, fractions):
            assert abs(count - fraction * 1_000_000) < 1.0

    def test_deterministic_tie_break_prefers_earlier_template(self):
        # remainders are all equal (0.5): the extra client goes to index 0
        counts = _expand_device_counts(fraction_templates([0.5, 0.5]), 5)
        assert counts == [3, 2]

    def test_unnormalised_fractions_are_renormalised(self):
        counts = _expand_device_counts(fraction_templates([2.0, 6.0]), 8)
        assert counts == [2, 6]

    def test_fixed_counts_kept_verbatim_and_scaled_otherwise(self):
        templates = count_templates([4, 10, 3])
        assert _expand_device_counts(templates, 17) == [4, 10, 3]
        scaled = _expand_device_counts(templates, 170)
        assert scaled == [40, 100, 30]

    def test_more_templates_than_clients(self):
        counts = _expand_device_counts(fraction_templates([0.25] * 4), 2)
        assert sum(counts) == 2
        assert counts == [1, 1, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(
        fractions=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=1, max_size=8),
        num_clients=st.integers(1, 500_000),
    )
    def test_property_exact_sum_and_bounded_error(self, fractions, num_clients):
        templates = fraction_templates(fractions)
        counts = _expand_device_counts(templates, num_clients)
        assert sum(counts) == num_clients
        assert all(count >= 0 for count in counts)
        total = sum(fractions)
        for count, fraction in zip(counts, fractions):
            exact = fraction / total * num_clients
            # largest-remainder never strays more than one client per
            # template from the exact proportional share (plus float fuzz)
            assert count - exact < 1.0 + 1e-6 * num_clients
            assert exact - count < 1.0 + 1e-6 * num_clients

    def test_repeat_calls_are_deterministic(self):
        templates = fraction_templates([0.3, 0.3, 0.4])
        reference = _expand_device_counts(templates, 12345)
        assert all(_expand_device_counts(templates, 12345) == reference for _ in range(5))


class TestScaleConstruction:
    @pytest.mark.parametrize("num_clients", [100_000, 1_000_000])
    def test_fleet_construction_is_cheap_at_scale(self, num_clients):
        """SoA construction: no per-device Python objects at build time."""
        from repro.sim.fleet import FleetSimulator
        from repro.sim.scenario import ScenarioSpec

        spec = ScenarioSpec(name="scale", devices=fraction_templates([0.5, 0.3, 0.2]))
        fleet = FleetSimulator(spec, num_clients=num_clients, seed=0)
        assert fleet.num_clients == num_clients
        # the fleet keeps (template, count) runs in template order, never a per-client list
        assert fleet.device_counts == [num_clients // 2, num_clients * 3 // 10, num_clients // 5]
        assert fleet.available_mask(0).sum() == num_clients
        assert math.isclose(fleet._flops.sum(), 1e6 * num_clients)
