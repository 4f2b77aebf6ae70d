"""The simulated AIoT device (client) side of AdaptiveFL.

A client receives a dispatched submodel, measures its *currently
available* resources, adaptively prunes the received model if needed
(paper §3.2, "Available Resource-Aware Pruning"), trains it on local data
and uploads the result.  The server never sees the client's resources —
only the returned model's size, which is what the RL tables learn from.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult, train_local_model
from repro.core.model_pool import ModelPool, SubmodelConfig
from repro.core.pruning import resource_aware_prune, slice_state_dict
from repro.data.datasets import Dataset
from repro.devices.profiles import DeviceProfile
from repro.engine.transport import StateHandle

__all__ = ["ClientRoundResult", "SimulatedClient", "LazyClients"]


@dataclass
class ClientRoundResult:
    """What a client reports back to the server after one round."""

    client_id: int
    dispatched: SubmodelConfig
    returned: SubmodelConfig
    state: dict[str, np.ndarray]
    num_samples: int
    mean_loss: float
    locally_pruned: bool


class SimulatedClient:
    """One AIoT device participating in federated training.

    ``dataset`` may be a published transport handle
    (:class:`~repro.engine.transport.StateHandle`): it resolves lazily —
    against the per-worker cache when the client was pickled to a worker
    process, or to the in-process reference otherwise — so dispatching a
    client never re-ships its local data.
    """

    def __init__(
        self,
        client_id: int,
        dataset: "Dataset | StateHandle",
        profile: DeviceProfile,
        local_config: LocalTrainingConfig,
    ):
        if not isinstance(dataset, StateHandle) and len(dataset) == 0:
            raise ValueError(f"client {client_id} has no local data")
        self.client_id = client_id
        self._dataset = dataset
        self.profile = profile
        self.local_config = local_config

    @property
    def dataset(self) -> Dataset:
        if isinstance(self._dataset, StateHandle):
            self._dataset = self._dataset.load()
            if len(self._dataset) == 0:
                raise ValueError(f"client {self.client_id} has no local data")
        return self._dataset

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def adapt_model(
        self,
        pool: ModelPool,
        dispatched: SubmodelConfig,
        dispatched_state: dict[str, np.ndarray],
        available_capacity: float,
    ) -> tuple[SubmodelConfig, dict[str, np.ndarray]]:
        """Prune the received model to fit the available resources.

        Returns the configuration actually trained and the corresponding
        weights (a further prefix slice of the dispatched weights when
        pruning happened).
        """
        target = resource_aware_prune(pool, dispatched, available_capacity)
        if target.name == dispatched.name:
            return dispatched, dispatched_state
        sliced = slice_state_dict(dispatched_state, pool.architecture, pool.group_sizes(target))
        return target, sliced

    def local_round(
        self,
        pool: ModelPool,
        dispatched: SubmodelConfig,
        dispatched_state: dict[str, np.ndarray],
        available_capacity: float,
        rng: np.random.Generator,
    ) -> ClientRoundResult:
        """Receive a model, adapt it, train it and return the upload."""
        trained_config, initial_state = self.adapt_model(pool, dispatched, dispatched_state, available_capacity)
        result = train_local_model(
            architecture=pool.architecture,
            group_sizes=pool.group_sizes(trained_config),
            initial_state=initial_state,
            dataset=self.dataset,
            config=self.local_config,
            rng=rng,
        )
        return self.round_result(dispatched, trained_config, result)

    def round_result(
        self, dispatched: SubmodelConfig, trained_config: SubmodelConfig, result: LocalTrainingResult
    ) -> ClientRoundResult:
        """The upload of a round in which ``dispatched`` arrived and ``trained_config`` trained."""
        return ClientRoundResult(
            client_id=self.client_id,
            dispatched=dispatched,
            returned=trained_config,
            state=result.state,
            num_samples=result.num_samples,
            mean_loss=result.mean_loss,
            locally_pruned=trained_config.name != dispatched.name,
        )


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
