"""HeteroFL (Diao et al., ICLR 2021) on the shared substrate.

HeteroFL statically prunes *every* layer of the global model by a
per-level width ratio and assigns each client the largest level its
(known) resources can train.  Aggregation is the same prefix-overlap
weighted averaging as AdaptiveFL — the differences under test are the
coarse pruning granularity (whole-network width only, no ``I`` knob) and
the reliance on accurate device resource information.
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin, capacity_level_assignment
from repro.core.config import ModelPoolConfig
from repro.core.fl_base import FederatedAlgorithm

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

    def assigned(self, client_id: int):
        config = self.level_heads[self.client_level[client_id]]
        return config.name, config.num_params, self.pool.group_sizes(config)
