"""All-Large: classic FedAvg on the full global model.

This is the paper's reference upper-capacity baseline: every selected
client trains the unpruned L1 model regardless of its resources (which a
real resource-constrained deployment could not do — the comparison shows
how close AdaptiveFL gets without that assumption).
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin
from repro.core.fl_base import FederatedAlgorithm

__all__ = ["AllLargeFedAvg"]


@register_algorithm(
    "all_large",
    description="All-Large: classic FedAvg training the unpruned model on every client",
    order=10,
)
class AllLargeFedAvg(RandomSelectionMixin, FederatedAlgorithm):
    """FedAvg with the full model dispatched to every participant."""

    name = "all_large"

    def assigned(self, client_id: int):
        return "L1", self.pool.full_config.num_params, self.architecture.full_group_sizes()
