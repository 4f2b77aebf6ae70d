"""ScaleFL (Ilhan et al., CVPR 2023) on the shared substrate.

ScaleFL scales submodels along *two* dimensions: width (channel pruning)
and depth (dropping the deepest blocks, with early-exit classifiers).
This reproduction keeps the two-dimensional scaling but realises the depth
dimension by shrinking the deepest layers to a minimal residual width
instead of removing them, which keeps every submodel a prefix slice of the
global model so the shared heterogeneous aggregation applies unchanged.
The self-distillation between exits of the original method is not
reproduced (documented in DESIGN.md); the behaviour under test — 2-D
scaled submodels assigned from known device resources — is.

Width ratios are calibrated per architecture so the S/M/L levels hit the
0.25× / 0.5× / 1.0× parameter budgets used throughout the paper.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin, capacity_level_assignment
from repro.core.fl_base import FederatedAlgorithm
from repro.nn.models.spec import SlimmableArchitecture, scaled_size

__all__ = ["ScaleFL", "two_dimensional_group_sizes", "calibrate_width_ratio"]

#: per-level (target parameter fraction, kept depth fraction, tail width ratio)
SCALEFL_LEVELS: dict[str, tuple[float, float, float]] = {
    "S": (0.25, 0.50, 0.10),
    "M": (0.50, 0.75, 0.15),
    "L": (1.00, 1.00, 1.00),
}


def two_dimensional_group_sizes(
    architecture: SlimmableArchitecture,
    width_ratio: float,
    depth_fraction: float,
    tail_ratio: float,
) -> dict[str, int]:
    """Channel sizes for a width × depth scaled submodel.

    Layers within the kept depth are scaled by ``width_ratio``; layers
    beyond it collapse to ``tail_ratio`` (the prefix-slice stand-in for
    depth truncation).
    """
    if not 0.0 < width_ratio <= 1.0:
        raise ValueError("width_ratio must be in (0, 1]")
    if not 0.0 < depth_fraction <= 1.0:
        raise ValueError("depth_fraction must be in (0, 1]")
    if not 0.0 < tail_ratio <= 1.0:
        raise ValueError("tail_ratio must be in (0, 1]")
    max_layer = architecture.num_prunable_layers()
    depth_cutoff = int(np.ceil(depth_fraction * max_layer))
    sizes: dict[str, int] = {}
    for group in architecture.channel_groups():
        if not group.prunable:
            sizes[group.name] = group.full_size
        elif group.layer_index <= depth_cutoff:
            sizes[group.name] = scaled_size(group.full_size, width_ratio)
        else:
            sizes[group.name] = scaled_size(group.full_size, tail_ratio)
    return sizes


def calibrate_width_ratio(
    architecture: SlimmableArchitecture,
    target_fraction: float,
    depth_fraction: float,
    tail_ratio: float,
    tolerance: float = 0.01,
) -> float:
    """Find the width ratio whose 2-D submodel hits a parameter budget.

    Binary search over the width ratio; the parameter count is monotone in
    it.  Returns 1.0 immediately for the full level.
    """
    if target_fraction >= 1.0:
        return 1.0
    full = architecture.parameter_count()
    low, high = 0.05, 1.0
    for _ in range(40):
        mid = (low + high) / 2.0
        sizes = two_dimensional_group_sizes(architecture, mid, depth_fraction, tail_ratio)
        fraction = architecture.parameter_count(sizes) / full
        if abs(fraction - target_fraction) <= tolerance:
            return mid
        if fraction > target_fraction:
            high = mid
        else:
            low = mid
    return (low + high) / 2.0


@register_algorithm(
    "scalefl",
    description="ScaleFL: two-dimensional (width + depth) submodel scaling",
    order=40,
)
class ScaleFL(RandomSelectionMixin, FederatedAlgorithm):
    """Two-dimensional (width + depth) submodel scaling."""

    name = "scalefl"

    def __init__(self, *args, level_specs: Mapping[str, tuple[float, float, float]] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.level_specs = dict(level_specs) if level_specs is not None else dict(SCALEFL_LEVELS)
        self.level_sizes: dict[str, dict[str, int]] = {}
        self.level_params: dict[str, int] = {}
        for level, (target, depth, tail) in self.level_specs.items():
            width = calibrate_width_ratio(self.architecture, target, depth, tail)
            sizes = (
                self.architecture.full_group_sizes()
                if target >= 1.0
                else two_dimensional_group_sizes(self.architecture, width, depth, tail)
            )
            self.level_sizes[level] = sizes
            self.level_params[level] = self.architecture.parameter_count(sizes)
        self.client_level = capacity_level_assignment(self, self.level_params)

    def level_group_sizes(self) -> dict[str, dict[str, int]]:
        """Evaluate the per-level heads at ScaleFL's own 2-D configurations."""
        return {level: dict(sizes) for level, sizes in self.level_sizes.items()}

    def assigned(self, client_id: int):
        level = self.client_level[client_id]
        return f"{level}1", self.level_params[level], self.level_sizes[level]
