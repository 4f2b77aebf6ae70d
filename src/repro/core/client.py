"""The simulated AIoT device (client) side of the federation.

A :class:`SimulatedClient` is one device: its local data, its hardware
profile and its local-training settings.  What it trains each round is
fixed when the server plans the round.  For AdaptiveFL that plan already
applies the device's resource-aware pruning (paper §3.2, "Available
Resource-Aware Pruning") to the device's own available capacity
(:meth:`~repro.core.fl_base.FederatedAlgorithm.client_capacity`), so every
client round is one :class:`~repro.engine.tasks.TrainSubmodelTask`.  The
server never sees the device's resources — only the returned model's
size, which is what the RL tables learn from.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Callable

from repro.core.config import LocalTrainingConfig
# benchmarks/e2e/tracing.py (frozen between benchmark PRs) wraps this name in the
# module's __dict__; delete together with its hook row
from repro.core.local_training import train_local_model  # noqa: F401  (frozen benchmark hook)
from repro.data.datasets import Dataset
from repro.devices.profiles import DeviceProfile

__all__ = ["SimulatedClient", "LazyClients"]


class SimulatedClient:
    """One AIoT device participating in federated training."""

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        profile: DeviceProfile,
        local_config: LocalTrainingConfig,
    ):
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has no local data")
        self.client_id = client_id
        self.dataset = dataset
        self.profile = profile
        self.local_config = local_config

    @property
    def num_samples(self) -> int:
        return len(self.dataset)


class LazyClients(Sequence):
    """The fleet's clients, each built the first time it is indexed.

    Reads like the list it stands in for (``len``, negative indices,
    ``IndexError``, iteration); a client nobody indexed — and the shard
    building it cuts out of the training set — costs nothing.
    """

    def __init__(self, build: Callable[[int], SimulatedClient], count: int):
        self._build = build
        self._count = count
        self._built: dict[int, SimulatedClient] = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> SimulatedClient:
        client_id = range(self._count)[operator.index(index)]
        client = self._built.get(client_id)
        if client is None:
            client = self._built[client_id] = self._build(client_id)
        return client
