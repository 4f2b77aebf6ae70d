"""HeteroFL (Diao et al., ICLR 2021) on the shared substrate.

HeteroFL statically prunes *every* layer of the global model by a
per-level width ratio and assigns each client the largest level its
(known) resources can train.  Aggregation is the same prefix-overlap
weighted averaging as AdaptiveFL — the differences under test are the
coarse pruning granularity (whole-network width only, no ``I`` knob) and
the reliance on accurate device resource information.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin, capacity_level_assignment
from repro.core.config import ModelPoolConfig
from repro.core.fl_base import FederatedAlgorithm
from repro.core.history import RoundRecord
from repro.core.metrics import communication_waste_rate

__all__ = ["HeteroFL", "HETEROFL_POOL_CONFIG"]

#: Width ratios chosen so the level parameter counts approximate the
#: canonical HeteroFL 1.0× / 0.5× / 0.25× complexity levels (parameters of
#: conv layers scale with the square of the width ratio).
HETEROFL_POOL_CONFIG = ModelPoolConfig(
    models_per_level=1,
    level_width_ratios={"L": 1.0, "M": 0.71, "S": 0.5},
    start_layers=(0,),
    min_start_layer=0,
)


@register_algorithm(
    "heterofl",
    description="HeteroFL: static whole-network width pruning, capacity-based levels",
    # HeteroFL ships its own canonical 1.0x/0.71x/0.5x pool; the experiment's
    # fine-grained pool_config must NOT be forced on it (declared here instead
    # of an `if name != "heterofl"` branch in the runner).
    uses_pool_config=False,
    order=30,
)
class HeteroFL(RandomSelectionMixin, FederatedAlgorithm):
    """Static whole-network width pruning with capacity-based assignment."""

    name = "heterofl"

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("pool_config", HETEROFL_POOL_CONFIG)
        super().__init__(*args, **kwargs)
        self.level_heads = self.pool.level_heads()
        self.client_level = capacity_level_assignment(self, self.level_heads)

    def run_round(self, round_index: int) -> RoundRecord:
        rng = self.round_rng(round_index)
        selected = self.sample_clients(rng, round_index)

        handle = self.publish_state(self.global_state)
        assignments = []
        dispatched: list[str] = []
        for client_id in selected:
            config = self.level_heads[self.client_level[client_id]]
            group_sizes = self.pool.group_sizes(config)
            source = self.state_source(handle, self.global_state, group_sizes)
            assignments.append((client_id, group_sizes, source))
            dispatched.append(config.name)

        outcome = self.plan_round_outcome(round_index, selected, dispatched, dispatched)
        keep = outcome.aggregated_positions() if outcome is not None else range(len(selected))
        kept = [assignments[i] for i in keep]
        results = self.run_local_training(round_index, kept)
        losses = [result.mean_loss for result in results]

        self.fold_results(results, [sizes for _, sizes, _ in kept])
        # dropped/late dispatches return nothing and count as pure waste
        aggregated = set(keep)
        sent = [self.level_heads[self.client_level[c]].num_params for c in selected]
        back = [size if i in aggregated else 0 for i, size in enumerate(sent)]
        record = RoundRecord(
            round_index=round_index,
            train_loss=float(np.mean(losses)) if losses else None,
            communication_waste=communication_waste_rate(sent, back) if sent else None,
            dispatched=dispatched,
            returned=list(dispatched),
            selected_clients=selected,
        )
        return self.finalize_round(record, outcome)
