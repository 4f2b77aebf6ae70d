"""Dynamic available-resource models.

The paper motivates AdaptiveFL with "uncertain operating environments"
whose available resources change on the fly.  :class:`ResourceModel`
produces, for every (client, round) pair, the capacity actually available
for local training: the device's nominal class capacity scaled by a
truncated-Gaussian fluctuation.  The draw is keyed on (seed, client,
round) so it is reproducible and independent of evaluation order.
Conceptually this is device-side information the real server never
observes; in the simulation the value feeds the simulated device's
resource-aware pruning — both when the client trains and when AdaptiveFL's
planning phase predicts that same pruning outcome to update its RL tables
before training fans out (see ``AdaptiveFL.run_round``).  No algorithm may
use it to steer client *selection*.
"""

from __future__ import annotations

import numpy as np

from repro.devices.profiles import DeviceProfile

__all__ = ["ResourceModel", "StaticResourceModel"]


class ResourceModel:
    """Per-round available capacity with multiplicative uncertainty."""

    def __init__(
        self,
        profiles: list[DeviceProfile],
        full_model_params: int,
        uncertainty: float = 0.1,
        floor_fraction: float = 0.5,
        ceiling_fraction: float = 1.1,
        seed: int = 0,
    ):
        if full_model_params <= 0:
            raise ValueError("full_model_params must be positive")
        if uncertainty < 0:
            raise ValueError("uncertainty must be non-negative")
        if not 0 < floor_fraction <= ceiling_fraction:
            raise ValueError("need 0 < floor_fraction <= ceiling_fraction")
        self.profiles = list(profiles)
        self.full_model_params = int(full_model_params)
        self.uncertainty = uncertainty
        self.floor_fraction = floor_fraction
        self.ceiling_fraction = ceiling_fraction
        self.seed = seed

    @property
    def num_clients(self) -> int:
        return len(self.profiles)

    def nominal_capacity(self, client_id: int) -> float:
        """Capacity of the client's device class without fluctuation."""
        return self.profiles[client_id].nominal_capacity(self.full_model_params)

    def _fluctuation(self, client_id: int, round_index: int) -> float:
        if self.uncertainty == 0:
            return 1.0
        rng = np.random.default_rng((self.seed, client_id, round_index))
        draw = 1.0 + self.uncertainty * rng.standard_normal()
        return float(min(max(draw, self.floor_fraction), self.ceiling_fraction))

    def available_capacity(self, client_id: int, round_index: int) -> float:
        """Parameter budget available to ``client_id`` during ``round_index``."""
        if not 0 <= client_id < self.num_clients:
            raise IndexError(f"client_id {client_id} out of range")
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        return self.nominal_capacity(client_id) * self._fluctuation(client_id, round_index)


class StaticResourceModel(ResourceModel):
    """A :class:`ResourceModel` without fluctuation (ablation / unit tests)."""

    def __init__(self, profiles: list[DeviceProfile], full_model_params: int):
        super().__init__(profiles, full_model_params, uncertainty=0.0)
