"""AdaptiveFL core: the paper's contribution.

* :mod:`repro.core.pruning` — fine-grained width-wise model pruning,
* :mod:`repro.core.model_pool` — the heterogeneous model pool (S/M/L × p),
* :mod:`repro.core.rl_selection` — RL-based client selection,
* :mod:`repro.core.aggregation` — heterogeneous model aggregation,
* :mod:`repro.core.server` — the AdaptiveFL training loop,
* :mod:`repro.core.fl_base` — shared federated scaffolding reused by the
  baselines.

Exports resolve lazily (PEP 562), as :mod:`repro.engine`'s do: the leaf
modules here (``serialization``, ``config``, ``client`` …) are imported by
``repro.engine``, ``repro.sim`` and ``repro.obs``, which ``fl_base`` and
``server`` import in turn — an eager package init makes ``import
repro.engine.codecs`` (or ``repro.serve.client``, ``repro.engine.tasks``)
as the first ``repro`` import circular.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS: dict[str, str] = {
    "AdaptiveFL": "repro.core.server",
    "AdaptiveFLConfig": "repro.core.config",
    "FederatedConfig": "repro.core.config",
    "LocalTrainingConfig": "repro.core.config",
    "ModelPoolConfig": "repro.core.config",
    "FederatedAlgorithm": "repro.core.fl_base",
    "ModelPool": "repro.core.model_pool",
    "SubmodelConfig": "repro.core.model_pool",
    "LEVELS": "repro.core.model_pool",
    "RLClientSelector": "repro.core.rl_selection",
    "ClientUpdate": "repro.core.aggregation",
    "aggregate_heterogeneous": "repro.core.aggregation",
    "fedavg_aggregate": "repro.core.aggregation",
    "ClientRoundResult": "repro.core.client",
    "SimulatedClient": "repro.core.client",
    "LocalTrainingResult": "repro.core.local_training",
    "train_local_model": "repro.core.local_training",
    "TrainingHistory": "repro.core.history",
    "RoundRecord": "repro.core.history",
    "evaluate_model": "repro.core.metrics",
    "evaluate_state": "repro.core.metrics",
    "evaluate_heads": "repro.core.metrics",
    "communication_waste_rate": "repro.core.metrics",
    "slice_tensor": "repro.core.pruning",
    "slice_state_dict": "repro.core.pruning",
    "extract_submodel_state": "repro.core.pruning",
    "build_submodel": "repro.core.pruning",
    "resource_aware_prune": "repro.core.pruning",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
