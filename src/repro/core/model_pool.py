"""The heterogeneous model pool (Step 1 of every AdaptiveFL round).

The cloud server splits the full global model into ``2p + 1`` submodels at
three size levels.  Each submodel is identified by its level (S/M/L) and a
rank within the level, and is fully described by its width ratio ``r_w``
and starting pruning layer ``I`` — Table 1 of the paper for VGG16 with
``p = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ModelPoolConfig
from repro.nn.models.spec import SlimmableArchitecture

__all__ = ["SubmodelConfig", "ModelPool", "LEVELS"]

#: size levels, smallest first
LEVELS: tuple[str, ...] = ("S", "M", "L")


@dataclass(frozen=True)
class SubmodelConfig:
    """One entry of the model pool.

    ``rank`` orders the pool from the smallest submodel (rank 0) to the
    unpruned global model (rank ``2p``); ``level_rank`` is the paper's
    subscript within a level (1 = largest of its level).
    """

    name: str
    level: str
    level_rank: int
    rank: int
    width_ratio: float
    start_layer: int | None
    num_params: int

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {self.level!r}")
        if not 0.0 < self.width_ratio <= 1.0:
            raise ValueError("width_ratio must be in (0, 1]")
        if self.num_params <= 0:
            raise ValueError("num_params must be positive")


class ModelPool:
    """All submodel configurations the server can dispatch.

    The pool is ordered by parameter count (ascending), mirroring the
    paper's ``R = {m_Sp, ..., m_S1, m_Mp, ..., m_M1, m_L1}``.
    """

    def __init__(self, architecture: SlimmableArchitecture, config: ModelPoolConfig):
        self.architecture = architecture
        self.config = config
        max_layer = architecture.num_prunable_layers()
        if max(config.start_layers) >= max_layer:
            raise ValueError(
                f"start layers {config.start_layers} must be smaller than the number of "
                f"prunable layers ({max_layer}) of {architecture.name!r}"
            )
        self._configs = self._build_configs()
        self._by_name = {cfg.name: cfg for cfg in self._configs}
        # geometry is a pure function of the pool entry: computed once, keyed by
        # the frozen config itself so an entry of another pool never matches
        self._group_sizes = {
            cfg: architecture.group_sizes_for(cfg.width_ratio, cfg.start_layer) for cfg in self._configs
        }
        self._prunable_to = {received: self._reachable_from(received) for received in self._configs}

    def _build_configs(self) -> list[SubmodelConfig]:
        configs: list[SubmodelConfig] = []
        p = self.config.models_per_level
        for level in ("S", "M"):
            ratio = self.config.level_width_ratios[level]
            for level_rank, start_layer in enumerate(self.config.start_layers, start=1):
                sizes = self.architecture.group_sizes_for(ratio, start_layer)
                configs.append(
                    SubmodelConfig(
                        name=f"{level}{level_rank}",
                        level=level,
                        level_rank=level_rank,
                        rank=-1,
                        width_ratio=ratio,
                        start_layer=start_layer,
                        num_params=self.architecture.parameter_count(sizes),
                    )
                )
        configs.append(
            SubmodelConfig(
                name="L1",
                level="L",
                level_rank=1,
                rank=-1,
                width_ratio=1.0,
                start_layer=None,
                num_params=self.architecture.parameter_count(),
            )
        )
        configs.sort(key=lambda cfg: cfg.num_params)
        ranked = [
            SubmodelConfig(
                name=cfg.name,
                level=cfg.level,
                level_rank=cfg.level_rank,
                rank=rank,
                width_ratio=cfg.width_ratio,
                start_layer=cfg.start_layer,
                num_params=cfg.num_params,
            )
            for rank, cfg in enumerate(configs)
        ]
        expected = 2 * p + 1
        if len(ranked) != expected:
            raise RuntimeError(f"expected {expected} pool entries, built {len(ranked)}")
        return ranked

    # -- access -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    @property
    def configs(self) -> list[SubmodelConfig]:
        return list(self._configs)

    @property
    def full_config(self) -> SubmodelConfig:
        return self._configs[-1]

    def by_name(self, name: str) -> SubmodelConfig:
        """Look up a pool entry such as ``"S2"`` or ``"L1"``."""
        if name not in self._by_name:
            raise KeyError(f"unknown submodel {name!r}; pool has {sorted(self._by_name)}")
        return self._by_name[name]

    def by_rank(self, rank: int) -> SubmodelConfig:
        """Look up a pool entry by its size rank (0 = smallest)."""
        return self._configs[rank]

    def level_heads(self) -> dict[str, SubmodelConfig]:
        """The largest submodel of each level (S1, M1, L1) — used for the
        per-level "avg" evaluation of Table 2."""
        heads: dict[str, SubmodelConfig] = {}
        for cfg in self._configs:
            if cfg.level_rank == 1:
                heads[cfg.level] = cfg
        return heads

    def _sizes(self, config: SubmodelConfig) -> dict[str, int]:
        """The pool's own (shared, read-only) size table entry; a config of
        another pool is resolved from its ``(r_w, I)`` instead."""
        sizes = self._group_sizes.get(config)
        if sizes is None:
            sizes = self.architecture.group_sizes_for(config.width_ratio, config.start_layer)
        return sizes

    def group_sizes(self, config: SubmodelConfig) -> dict[str, int]:
        """Channel-group sizes of one pool entry (a fresh dict)."""
        return dict(self._sizes(config))

    def level_index(self, level: str) -> int:
        """Index of a level in the curiosity table (0 = S, 1 = M, 2 = L)."""
        return LEVELS.index(level)

    def fits_within(self, inner: SubmodelConfig, outer: SubmodelConfig) -> bool:
        """True when ``inner`` keeps no more channels than ``outer`` in every group.

        A device that received ``outer`` can only return submodels that fit
        within it, because local pruning can drop channels but never
        recreate ones the dispatched model did not carry.
        """
        inner_sizes = self._sizes(inner)
        outer_sizes = self._sizes(outer)
        return all(inner_sizes[name] <= outer_sizes[name] for name in inner_sizes)

    def prunable_to(self, received: SubmodelConfig) -> list[SubmodelConfig]:
        """Pool entries a device can reach by pruning ``received`` (incl. itself)."""
        reachable = self._prunable_to.get(received)
        return list(reachable) if reachable is not None else self._reachable_from(received)

    def _reachable_from(self, received: SubmodelConfig) -> list[SubmodelConfig]:
        return [cfg for cfg in self._configs if self.fits_within(cfg, received)]
