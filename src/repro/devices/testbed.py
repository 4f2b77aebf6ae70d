"""Simulated real test-bed (paper §4.5, Table 5 and Figure 6).

The paper's test-bed mixes 4 Raspberry Pi 4B, 10 Jetson Nano and 3 Jetson
Xavier AGX clients plus a workstation server, trains MobileNetV2 on Widar
and reports accuracy against wall-clock time.  Without the physical
hardware, this module models each device's training throughput,
communication bandwidth and memory ceiling and turns a round of federated
training into elapsed seconds: a round costs the maximum over its
participants of (download + local compute + upload), mirroring the
synchronous FL protocol the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.profiles import DeviceClass, DeviceProfile

__all__ = [
    "TestbedDeviceSpec",
    "TESTBED_DEVICE_SPECS",
    "TestbedSimulator",
    "DEFAULT_CAPACITY_FRACTIONS",
    "split_round_seconds",
]

#: bytes per parameter (float32 on the wire)
BYTES_PER_PARAM = 4
#: backward pass costs roughly twice the forward pass
TRAIN_FLOP_MULTIPLIER = 3.0


def split_round_seconds(
    bandwidth_mbps: float,
    flops_per_second: float,
    params_down: int,
    params_up: int,
    flops_per_sample: int,
    num_samples: int,
    local_epochs: int,
) -> tuple[float, float]:
    """(communication, training) seconds of one client's synchronous round.

    The single closed-form clock of the paper's §4.5 evaluation.  Both the
    reference :class:`TestbedSimulator` and the static path of
    :class:`repro.sim.fleet.FleetSimulator` compute through this function,
    which is what makes their ``paper_testbed`` parity structural rather
    than a convention.
    """
    bytes_total = (params_down + params_up) * BYTES_PER_PARAM
    communication = bytes_total * 8 / (bandwidth_mbps * 1e6)
    total_flops = TRAIN_FLOP_MULTIPLIER * flops_per_sample * num_samples * local_epochs
    return communication, total_flops / flops_per_second


@dataclass(frozen=True)
class TestbedDeviceSpec:
    """Latency/capacity model of one physical device type.

    ``flops_per_second`` is effective training throughput (forward+backward
    MACs per second), ``bandwidth_mbps`` the link to the server and
    ``memory_gb`` the ceiling that limits trainable model size.
    """

    name: str
    device_class: str
    flops_per_second: float
    bandwidth_mbps: float
    memory_gb: float
    count: int

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0 or self.bandwidth_mbps <= 0 or self.memory_gb <= 0:
            raise ValueError("device spec values must be positive")
        if self.count <= 0:
            raise ValueError("device count must be positive")


#: capacity fraction of the full model each device class can train
#: (shared with the fleet simulator's profile construction)
DEFAULT_CAPACITY_FRACTIONS: dict[str, float] = {"weak": 0.30, "medium": 0.55, "strong": 1.0}

#: Table 5 of the paper, with throughput figures representative of the
#: listed hardware (effective sustained training throughput, not peak).
TESTBED_DEVICE_SPECS: tuple[TestbedDeviceSpec, ...] = (
    TestbedDeviceSpec("raspberry_pi_4b", "weak", flops_per_second=6.0e8, bandwidth_mbps=40.0, memory_gb=2.0, count=4),
    TestbedDeviceSpec("jetson_nano", "medium", flops_per_second=6.0e9, bandwidth_mbps=80.0, memory_gb=8.0, count=10),
    TestbedDeviceSpec("jetson_xavier_agx", "strong", flops_per_second=4.0e10, bandwidth_mbps=200.0, memory_gb=32.0, count=3),
)


class TestbedSimulator:
    """Wall-clock model of the paper's 17-device test-bed.

    The reference the ``paper_testbed`` scenario is checked against
    (``tests/sim/test_scenario_parity.py``); runs use the scenario.
    """

    #: not a pytest test class despite the name
    __test__ = False

    def __init__(
        self,
        specs: tuple[TestbedDeviceSpec, ...] = TESTBED_DEVICE_SPECS,
        capacity_fractions: dict[str, float] | None = None,
    ):
        self.specs = tuple(specs)
        self.capacity_fractions = capacity_fractions or dict(DEFAULT_CAPACITY_FRACTIONS)
        self._device_specs: list[TestbedDeviceSpec] = []
        for spec in self.specs:
            self._device_specs.extend([spec] * spec.count)

    @property
    def num_devices(self) -> int:
        return len(self._device_specs)

    def device_spec(self, client_id: int) -> TestbedDeviceSpec:
        """The hardware spec backing one client."""
        return self._device_specs[client_id]

    def build_profiles(self, rng: np.random.Generator | None = None) -> list[DeviceProfile]:
        """Device profiles (weak/medium/strong) matching the test-bed mix."""
        order = np.arange(self.num_devices)
        if rng is not None:
            order = rng.permutation(self.num_devices)
        profiles = []
        for client_id, spec_index in enumerate(order):
            spec = self._device_specs[spec_index]
            device_class = DeviceClass(
                name=spec.device_class,
                capacity_fraction=self.capacity_fractions[spec.device_class],
                compute_speed=spec.flops_per_second / self.specs[-1].flops_per_second,
                memory_gb=spec.memory_gb,
            )
            profiles.append(DeviceProfile(client_id=client_id, device_class=device_class))
        self._profile_spec_order = [self._device_specs[i] for i in order]
        return profiles

    def _spec_for_profile(self, client_id: int) -> TestbedDeviceSpec:
        order = getattr(self, "_profile_spec_order", None)
        if order is None:
            return self._device_specs[client_id]
        return order[client_id]

    # -- timing -------------------------------------------------------------------
    def communication_time(self, client_id: int, params_down: int, params_up: int) -> float:
        """Seconds to download the dispatched model and upload the trained one."""
        spec = self._spec_for_profile(client_id)
        communication, _ = split_round_seconds(
            spec.bandwidth_mbps, spec.flops_per_second, params_down, params_up, 0, 0, 0
        )
        return communication

    def training_time(self, client_id: int, flops_per_sample: int, num_samples: int, local_epochs: int) -> float:
        """Seconds of local training for one round."""
        spec = self._spec_for_profile(client_id)
        _, training = split_round_seconds(
            spec.bandwidth_mbps, spec.flops_per_second, 0, 0, flops_per_sample, num_samples, local_epochs
        )
        return training

    def client_round_time(
        self,
        client_id: int,
        params_down: int,
        params_up: int,
        flops_per_sample: int,
        num_samples: int,
        local_epochs: int,
    ) -> float:
        """End-to-end time one client spends in a round."""
        return self.communication_time(client_id, params_down, params_up) + self.training_time(
            client_id, flops_per_sample, num_samples, local_epochs
        )

    def round_time(self, client_times: list[float]) -> float:
        """Synchronous-round duration: the slowest selected client."""
        if not client_times:
            return 0.0
        return float(max(client_times))
