"""Shared helpers for the baseline algorithms.

A baseline differs from the others in one thing: which fixed submodel
each client is assigned.  It says so in ``assigned(client_id)``;
:class:`RandomSelectionMixin` samples the round's clients and
:func:`level_plan` turns the two into the round's
:class:`~repro.core.fl_base.RoundPlan`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.fl_base import FederatedAlgorithm, RoundPlan
from repro.core.model_pool import SubmodelConfig
from repro.sim.cohorts import masked_choice_without_replacement

__all__ = ["RandomSelectionMixin", "capacity_level_assignment", "level_plan"]


class RandomSelectionMixin:
    """Uniform client sampling without replacement (used by every baseline).

    Under a fleet scenario the draw is restricted to the clients that are
    reachable this round and widened by the scenario's over-selection
    margin.  It runs on the availability mask directly via cohort-sharded
    rank translation — the ids ``flatnonzero(mask)[rng.choice(...)]``
    would give, from the same generator stream, without ever
    materialising the online population as a list.
    """

    def sample_clients(self: FederatedAlgorithm, rng: np.random.Generator, round_index: int) -> list[int]:
        mask = self.selectable_mask(round_index)
        if mask is None:
            count = min(self.federated_config.clients_per_round, self.num_clients)
            return [int(c) for c in rng.choice(self.num_clients, size=count, replace=False)]
        count = min(self.dispatch_count(), int(np.count_nonzero(mask)))
        return [int(c) for c in masked_choice_without_replacement(rng, mask, count)]

    def plan_round(self, round_index: int, rng: np.random.Generator) -> RoundPlan:
        return level_plan(self.sample_clients(rng, round_index), self.assigned)


def level_plan(
    clients: Sequence[int], assigned: Callable[[int], tuple[str, int, Mapping[str, int]]]
) -> RoundPlan:
    """Every client trains, and returns, the ``(name, params, group_sizes)`` assigned to it."""
    slots = [assigned(client_id) for client_id in clients]
    names = [name for name, _, _ in slots]
    params = [count for _, count, _ in slots]
    return RoundPlan(
        clients=list(clients),
        dispatched=names,
        returned=list(names),
        sent_params=params,
        back_params=params,
        group_sizes=[group_sizes for _, _, group_sizes in slots],
        streams=["global"] * len(slots),
    )


def capacity_level_assignment(
    algorithm: FederatedAlgorithm,
    level_configs: dict[str, SubmodelConfig] | dict[str, int],
) -> dict[int, str]:
    """Assign each client the largest level its *nominal* capacity can train.

    HeteroFL and ScaleFL require the server to know device resources; this
    helper encodes that assumption (which AdaptiveFL removes).  Clients that
    cannot even fit the smallest level are still assigned the smallest one.
    ``level_configs`` maps level name to either a pool entry or a raw
    parameter count.
    """
    sizes: dict[str, int] = {}
    for level, value in level_configs.items():
        sizes[level] = value.num_params if isinstance(value, SubmodelConfig) else int(value)
    ordered = sorted(sizes.items(), key=lambda item: item[1])

    assignment: dict[int, str] = {}
    for client_id in range(algorithm.num_clients):
        capacity = algorithm.resource_model.nominal_capacity(client_id)
        chosen = ordered[0][0]
        for level, size in ordered:
            if size <= capacity:
                chosen = level
        assignment[client_id] = chosen
    return assignment
