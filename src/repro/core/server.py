"""The AdaptiveFL cloud server (paper §3, Algorithm 1).

Each round the server:

1. splits the global model into the heterogeneous model pool (Step 1),
2. randomly draws one pool entry per participant slot (Step 2, RandomSel),
3. selects a client for each drawn model with the RL strategy (Step 3),
4. lets the selected devices adaptively prune and train (Steps 4-5),
5. updates the curiosity and resource tables from the ⟨dispatched,
   returned⟩ pairs (Algorithm 1, lines 12-26),
6. aggregates every upload into the new global model (Step 6, Algorithm 2).

The ``selection_strategy`` knob reproduces the ablation variants of §4.4:
``rl-cs`` (the paper's AdaptiveFL), ``rl-c``, ``rl-s``, ``random`` and
``greedy`` (always dispatch the full model to randomly chosen clients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_algorithm
from repro.core.config import AdaptiveFLConfig
from repro.core.fl_base import FederatedAlgorithm, RoundPlan
from repro.core.model_pool import SubmodelConfig
from repro.core.pruning import resource_aware_prune
from repro.core.rl_selection import RLClientSelector
from repro.engine.tasks import LocalRoundTask
from repro.engine.transport import StateHandle
from repro.nn.dtype import resolve_dtype

__all__ = ["AdaptiveFL", "AdaptivePlan"]


@dataclass(kw_only=True)
class AdaptivePlan(RoundPlan):
    """A :class:`RoundPlan` that also carries what a device's local round needs."""

    #: the pool entries behind ``dispatched`` / ``returned``
    configs: list[SubmodelConfig]
    planned_returns: list[SubmodelConfig]
    #: each device's available resources this round (device-side information)
    capacities: list[float]


@register_algorithm(
    "adaptivefl",
    description="AdaptiveFL: fine-grained width-wise pruning + RL client selection (the paper)",
    uses_algorithm_config=True,
    uses_selection_strategy=True,
    order=50,
)
class AdaptiveFL(FederatedAlgorithm):
    """The paper's algorithm: fine-grained pruning + RL client selection."""

    name = "adaptivefl"

    def __init__(self, *args, algorithm_config: AdaptiveFLConfig | None = None, **kwargs):
        self.algorithm_config = algorithm_config or AdaptiveFLConfig()
        kwargs.setdefault("federated_config", self.algorithm_config.federated)
        kwargs.setdefault("local_config", self.algorithm_config.local)
        kwargs.setdefault("pool_config", self.algorithm_config.pool)
        super().__init__(*args, **kwargs)
        self.strategy = self.algorithm_config.selection_strategy
        selector_strategy = "random" if self.strategy == "greedy" else self.strategy
        self.selector = RLClientSelector(
            pool=self.pool,
            num_clients=self.num_clients,
            strategy=selector_strategy,
            resource_reward_cap=self.algorithm_config.resource_reward_cap,
        )

    # -- checkpointing ---------------------------------------------------------------------
    def _collect_extra_state(self, arrays, state) -> None:
        """Checkpoint the RL selection tables alongside the weights.

        The curiosity and resource tables are the only AdaptiveFL state
        beyond the shared base; persisting them is what lets a resumed run
        select clients exactly as the uninterrupted run would have.
        """
        for key, table in self.selector.state_dict().items():
            arrays[f"rl/{key}"] = table

    def _apply_extra_state(self, arrays, state) -> None:
        """Restore the RL tables captured by ``_collect_extra_state``.

        A checkpoint without the touched-rows arrays is refused by name
        instead of silently resetting the tables to all-ones.
        """
        required = ("rl/client_ids", "rl/curiosity_columns", "rl/resource_columns")
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ValueError(f"checkpoint is missing AdaptiveFL RL state: {', '.join(missing)}")
        self.selector.load_state_dict(
            {key.removeprefix("rl/"): arrays[key] for key in required}
        )

    # -- Algorithm 1 -----------------------------------------------------------------------
    def _random_sel(self, rng: np.random.Generator) -> SubmodelConfig:
        """Step 2 (RandomSel): uniform draw from the pool, or L1 under "greedy"."""
        if self.strategy == "greedy":
            return self.pool.full_config
        index = int(rng.integers(0, len(self.pool)))
        return self.pool.by_rank(index)

    def plan_round(self, round_index: int, rng: np.random.Generator) -> AdaptivePlan:
        """Algorithm 1's control flow, resolved before any training runs.

        One ``select`` call walks the participant slots in order: each slot
        draws a pool entry (RandomSel) and then a client (ClientSel) from
        ``rng``, so the draws interleave exactly as in the sequential
        protocol.  Each slot's capacity and resource-aware pruning follow,
        and one ``update`` applies the round's ⟨dispatched, returned⟩ pairs
        to the RL tables (Algorithm 1, lines 12-26).  Deferring the update
        is exact: a client picked at slot *s* leaves the mask at once and
        slot *s*'s update writes only that client's row, so no later slot
        of the round reads a row the round has updated, and a round's
        clients are distinct, so their updates commute.  The returned size
        is the deterministic outcome of resource-aware pruning under the
        capacity the server's resource model already simulates, so the
        independent local rounds can then fan out through the executor;
        per-client RNG streams make the result bit-identical to the
        historical fully sequential implementation for every executor
        choice.
        """
        # mask-based planning: never materialise per-client python objects
        # for the whole fleet — availability arrives as a boolean array
        allowed_mask = self.selectable_mask(round_index)
        if allowed_mask is None:
            allowed_mask = np.ones(self.num_clients, dtype=bool)
        participants = min(self.dispatch_count(), int(np.count_nonzero(allowed_mask)))

        configs: list[SubmodelConfig] = []

        def random_sel():
            # drawn as select reaches each slot, between the slots' own draws
            for _ in range(participants):
                configs.append(self._random_sel(rng))
                yield configs[-1]

        selected = self.selector.select(random_sel(), rng, allowed_mask)
        capacities = [self.client_capacity(client_id, round_index) for client_id in selected]
        planned_returns = [
            resource_aware_prune(self.pool, dispatched, capacity)
            for dispatched, capacity in zip(configs, capacities)
        ]
        self.selector.update(configs, planned_returns, selected)

        return AdaptivePlan(
            clients=selected,
            dispatched=[config.name for config in configs],
            returned=[config.name for config in planned_returns],
            sent_params=[config.num_params for config in configs],
            back_params=[config.num_params for config in planned_returns],
            group_sizes=[self.pool.group_sizes(config) for config in planned_returns],
            streams=["global"] * participants,
            configs=configs,
            planned_returns=planned_returns,
            capacities=capacities,
        )

    def make_task(self, round_index: int, plan: AdaptivePlan, slot: int, source: StateHandle) -> LocalRoundTask:
        """The device's full local round: adapt (prune) then train.

        The task carries only a handle plus the *planned-return*
        configuration, so the worker cuts exactly the slice the device
        trains.  The modeled downlink is that slice.
        """
        client_id, dispatched, planned = plan.clients[slot], plan.configs[slot], plan.planned_returns[slot]
        self.count_downlink(planned.num_params * np.dtype(resolve_dtype()).itemsize)
        return LocalRoundTask(
            client=self.dispatch_client(client_id),
            pool=self.pool,
            dispatched=dispatched,
            dispatched_state=source,
            available_capacity=plan.capacities[slot],
            rng_stream=self.client_stream(round_index, client_id),
            planned_return=planned,
            codec=self._codec,
            codec_residual=self.codec_residual_for(client_id, plan.group_sizes[slot]),
            trace=self.task_trace(),
        )

    def fold_round(self, plan: AdaptivePlan, keep, results):
        for slot, result in zip(keep, results):
            if result.returned.name != plan.returned[slot]:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"client {result.client_id} returned {result.returned.name} but the "
                    f"resource plan predicted {plan.returned[slot]}"
                )
        return super().fold_round(plan, keep, results)
