"""The AdaptiveFL cloud server (paper §3, Algorithm 1).

Each round the server:

1. splits the global model into the heterogeneous model pool (Step 1),
2. randomly draws one pool entry per participant slot (Step 2, RandomSel),
3. selects a client for each drawn model with the RL strategy (Step 3),
4. resolves each selected device's resource-aware pruning on that
   device's own available capacity, then has it train the pruned
   submodel (Steps 4-5),
5. updates the curiosity and resource tables from the ⟨dispatched,
   returned⟩ pairs (Algorithm 1, lines 12-26),
6. aggregates every upload into the new global model (Step 6, Algorithm 2).

The ``selection_strategy`` knob reproduces the ablation variants of §4.4:
``rl-cs`` (the paper's AdaptiveFL), ``rl-c``, ``rl-s``, ``random`` and
``greedy`` (always dispatch the full model to randomly chosen clients).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.core.config import AdaptiveFLConfig
from repro.core.fl_base import FederatedAlgorithm, RoundPlan
from repro.core.model_pool import SubmodelConfig
from repro.core.pruning import resource_aware_prune
from repro.core.rl_selection import RLClientSelector

__all__ = ["AdaptiveFL"]


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

    def state_parts(self):
        """The RL curiosity and resource tables, ahead of the base parts: a resumed
        run selects clients exactly as the uninterrupted one would have."""
        return {"rl": self.selector, **super().state_parts()}

    # -- Algorithm 1 -----------------------------------------------------------------------
    def _random_sel(self, rng: np.random.Generator) -> SubmodelConfig:
        """Step 2 (RandomSel): uniform draw from the pool, or L1 under "greedy"."""
        if self.strategy == "greedy":
            return self.pool.full_config
        index = int(rng.integers(0, len(self.pool)))
        return self.pool.by_rank(index)

    def plan_round(self, round_index: int, rng: np.random.Generator) -> RoundPlan:
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
        clients are distinct, so their updates commute.

        Resource-aware pruning (Step 4) is the device's decision, a pure
        function of the dispatched model and the device's own available
        capacity (:meth:`client_capacity`); it runs here, once per slot,
        and its outcome is what the slot trains (``group_sizes``), what
        the RL update and the fleet clock read, and what the device
        uploads.  Every slot is then an ordinary
        :class:`~repro.engine.tasks.TrainSubmodelTask` from the base
        :meth:`make_task`, and per-client RNG streams make the round
        bit-identical for every executor choice.
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
        returned = [
            resource_aware_prune(self.pool, dispatched, capacity)
            for dispatched, capacity in zip(configs, capacities)
        ]
        self.selector.update(configs, returned, selected)

        return RoundPlan(
            clients=selected,
            dispatched=[config.name for config in configs],
            returned=[config.name for config in returned],
            sent_params=[config.num_params for config in configs],
            back_params=[config.num_params for config in returned],
            group_sizes=[self.pool.group_sizes(config) for config in returned],
            streams=["global"] * participants,
        )
