"""Configuration dataclasses shared by AdaptiveFL and the baselines.

Every config is :class:`~repro.core.serialization.Serializable`: it
serialises with ``to_dict()`` and reconstructs with ``from_dict()`` so
experiment specs can round-trip through JSON (``from_dict(to_dict(x)) ==
x``); unknown payload keys raise :class:`ValueError` and bad values hit the
regular ``__post_init__`` validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.serialization import Serializable
from repro.engine.factory import validate_executor_choice

__all__ = [
    "LocalTrainingConfig", "FederatedConfig", "ModelPoolConfig", "AdaptiveFLConfig",
    "RUNTIME_FIELDS", "SELECTION_STRATEGIES", "TRANSPORTS",
]

#: the :class:`FederatedConfig` fields an experiment setting carries through
#: unchanged (``ExperimentSetting.runtime_options()``)
RUNTIME_FIELDS = ("executor", "max_workers", "scenario", "transport", "transport_codec")
#: valid values of ``FederatedConfig.transport``; the field leaves once
#: ``benchmarks/e2e/workloads.py`` stops passing it
TRANSPORTS = ("delta",)
#: AdaptiveFL client-selection strategies, the default (the paper's) first
SELECTION_STRATEGIES = ("rl-cs", "rl-c", "rl-s", "random", "greedy")


@dataclass(frozen=True)
class LocalTrainingConfig(Serializable):
    """Hyper-parameters of one client's local training pass.

    Defaults follow the paper's §4: SGD with learning rate 0.01 and
    momentum 0.5, batch size 50, five local epochs.
    """

    local_epochs: int = 5
    batch_size: int = 50
    learning_rate: float = 0.01
    momentum: float = 0.5
    weight_decay: float = 0.0
    max_batches_per_epoch: int | None = None

    def __post_init__(self) -> None:
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        # written so that NaN fails every check: ``nan <= 0`` is False
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.max_batches_per_epoch is not None and self.max_batches_per_epoch <= 0:
            raise ValueError("max_batches_per_epoch must be positive when set")



@dataclass(frozen=True)
class FederatedConfig(Serializable):
    """Global federated-learning loop configuration."""

    num_rounds: int = 100
    clients_per_round: int = 10
    eval_every: int = 10
    eval_batch_size: int = 200
    seed: int = 0
    #: how per-client local training fans out: "serial", "thread" or "process"
    #: (all bit-identical at a fixed seed — see :mod:`repro.engine`)
    executor: str = "serial"
    #: worker count for pool-based executors (None = the usable CPU count)
    max_workers: int | None = None
    #: registered fleet scenario driving system dynamics (None = no simulation);
    #: see :mod:`repro.sim` — "paper_testbed" is the paper's §4.5 test-bed clock
    scenario: str | None = None
    #: weight transport between server and client workers, and its only
    #: value: "delta" means sliced download, exact upload — the global
    #: state is published once per round (version tag + per-worker cache),
    #: the worker cuts the submodel slice it trains and returns the trained
    #: slice itself, bit-exact across any pickle (see tests/perf)
    transport: str = "delta"
    #: lossy update codec layered on the transport ("none", "fp16",
    #: "int8", "topk" — see :mod:`repro.engine.codecs`).  "none" keeps
    #: the exact bit-identical contract; lossy codecs stay deterministic
    #: per (seed, round, client) but trade accuracy for uplink bytes,
    #: tested under the bounded-accuracy contract (tests/engine).
    transport_codec: str = "none"

    def __post_init__(self) -> None:
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if self.clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {list(TRANSPORTS)}, got {self.transport!r}")
        validate_executor_choice(self.executor, self.max_workers)
        # imported inside the method for the same circularity reason as
        # the scenario validation below
        from repro.engine.codecs import available_codecs

        if self.transport_codec not in available_codecs():
            raise ValueError(
                f"transport_codec must be one of {sorted(available_codecs())}, "
                f"got {self.transport_codec!r}"
            )
        if self.scenario is not None:
            # imported inside the method: repro.sim.scenario imports
            # repro.core.serialization, so a module-level import here would
            # be circular through the repro.core package init
            from repro.sim.scenario import validate_scenario_choice

            validate_scenario_choice(self.scenario)


@dataclass(frozen=True)
class ModelPoolConfig(Serializable):
    """How the global model is split into the heterogeneous model pool.

    ``models_per_level`` is the paper's ``p``; the pool then contains
    ``2p + 1`` submodels: p small, p medium and the unpruned large model.
    ``level_width_ratios`` are the coarse width knobs per level and
    ``start_layers`` the fine layer knobs (largest first), matching
    Table 1's ``r_w`` / ``I`` columns.  ``min_start_layer`` is the paper's
    threshold τ that guarantees heterogeneous models share shallow layers.
    """

    models_per_level: int = 3
    level_width_ratios: dict[str, float] = field(
        default_factory=lambda: {"L": 1.0, "M": 0.66, "S": 0.40}
    )
    start_layers: tuple[int, ...] = (8, 6, 4)
    min_start_layer: int = 4

    def __post_init__(self) -> None:
        if self.models_per_level <= 0:
            raise ValueError("models_per_level must be positive")
        if set(self.level_width_ratios) != {"L", "M", "S"}:
            raise ValueError("level_width_ratios must define exactly L, M and S")
        if self.level_width_ratios["L"] != 1.0:
            raise ValueError("the L level must keep the full width (ratio 1.0)")
        if not self.level_width_ratios["S"] < self.level_width_ratios["M"] <= 1.0:
            raise ValueError("level ratios must satisfy S < M <= 1")
        if len(self.start_layers) != self.models_per_level:
            raise ValueError("start_layers must provide one entry per model of a level")
        if sorted(self.start_layers, reverse=True) != list(self.start_layers):
            raise ValueError("start_layers must be sorted from largest to smallest")
        if min(self.start_layers) < self.min_start_layer:
            raise ValueError("start_layers must respect the min_start_layer threshold τ")


@dataclass(frozen=True)
class AdaptiveFLConfig(Serializable):
    """Full AdaptiveFL algorithm configuration."""

    federated: FederatedConfig = field(default_factory=FederatedConfig)
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    pool: ModelPoolConfig = field(default_factory=ModelPoolConfig)
    #: client-selection strategy, one of SELECTION_STRATEGIES (default: the paper's)
    selection_strategy: str = SELECTION_STRATEGIES[0]
    #: success-rate cap applied to the resource reward (paper: 0.5)
    resource_reward_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise ValueError(f"selection_strategy must be one of {sorted(SELECTION_STRATEGIES)}")
        if not 0.0 < self.resource_reward_cap <= 1.0:
            raise ValueError("resource_reward_cap must be in (0, 1]")
