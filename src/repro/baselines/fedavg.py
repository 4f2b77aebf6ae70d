"""All-Large: classic FedAvg on the full global model.

This is the paper's reference upper-capacity baseline: every selected
client trains the unpruned L1 model regardless of its resources (which a
real resource-constrained deployment could not do — the comparison shows
how close AdaptiveFL gets without that assumption).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin
from repro.core.fl_base import FederatedAlgorithm
from repro.core.history import RoundRecord
from repro.core.metrics import communication_waste_rate

__all__ = ["AllLargeFedAvg"]


@register_algorithm(
    "all_large",
    description="All-Large: classic FedAvg training the unpruned model on every client",
    order=10,
)
class AllLargeFedAvg(RandomSelectionMixin, FederatedAlgorithm):
    """FedAvg with the full model dispatched to every participant."""

    name = "all_large"

    def run_round(self, round_index: int) -> RoundRecord:
        rng = self.round_rng(round_index)
        selected = self.sample_clients(rng, round_index)
        full_sizes = self.architecture.full_group_sizes()
        full_params = self.pool.full_config.num_params
        dispatched = ["L1"] * len(selected)

        outcome = self.plan_round_outcome(round_index, selected, dispatched, dispatched)
        keep = outcome.aggregated_positions() if outcome is not None else range(len(selected))
        aggregated = set(keep)
        handle = self.publish_state(self.global_state)
        source = handle if handle is not None else self.global_state
        results = self.run_local_training(
            round_index,
            [(selected[i], full_sizes, source) for i in keep],
        )
        losses = [result.mean_loss for result in results]

        self.fold_results(results, [full_sizes] * len(results))
        record = RoundRecord(
            round_index=round_index,
            train_loss=float(np.mean(losses)) if losses else None,
            # dropped/late dispatches return nothing and count as pure waste
            communication_waste=(
                communication_waste_rate(
                    [full_params] * len(selected),
                    [full_params if i in aggregated else 0 for i in range(len(selected))],
                )
                if selected
                else None
            ),
            dispatched=dispatched,
            returned=list(dispatched),
            selected_clients=selected,
        )
        return self.finalize_round(record, outcome)
