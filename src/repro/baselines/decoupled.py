"""Decoupled: independent FedAvg per size level.

Each level (S1 / M1 / L1) keeps its own global model, trained only by the
clients whose resources can afford that level, and no parameters are
shared across levels.  The paper uses this baseline to show what is lost
without heterogeneous aggregation: small-capable clients never contribute
to the large model and vice versa.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin, capacity_level_assignment
from repro.core.aggregation import ClientUpdate, fedavg_aggregate
from repro.core.fl_base import FederatedAlgorithm, RoundPlan
from repro.core.metrics import evaluate_state
from repro.core.pruning import extract_submodel_state
from repro.engine.codecs import NonFiniteUpdateError

__all__ = ["DecoupledFL"]


@register_algorithm(
    "decoupled",
    description="Decoupled: independent FedAvg per size level, no cross-level sharing",
    order=20,
)
class DecoupledFL(RandomSelectionMixin, FederatedAlgorithm):
    """One isolated FedAvg per model level."""

    name = "decoupled"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.level_heads = self.pool.level_heads()
        # Every level starts from the matching slice of the same initial model.
        self.level_states = {
            level: extract_submodel_state(self.global_state, self.pool, config)
            for level, config in self.level_heads.items()
        }
        self.client_level = capacity_level_assignment(self, self.level_heads)

    # -- checkpointing ---------------------------------------------------------------------
    def _collect_extra_state(self, arrays, state) -> None:
        """Checkpoint the per-level models: ``global_state`` is only the L one."""
        for level, weights in self.level_states.items():
            for key, value in weights.items():
                arrays[f"stream/{level}/{key}"] = value.copy()

    def _apply_extra_state(self, arrays, state) -> None:
        """Restore the per-level models; a checkpoint without them is refused by name
        instead of silently resuming every level from its initial slice."""
        names = {
            level: {key: f"stream/{level}/{key}" for key in weights} for level, weights in self.level_states.items()
        }
        missing = [name for keys in names.values() for name in keys.values() if name not in arrays]
        if missing:
            raise ValueError(f"checkpoint is missing Decoupled per-level weights: {', '.join(missing)}")
        self.level_states = {
            level: {key: np.array(arrays[name]) for key, name in keys.items()} for level, keys in names.items()
        }

    def assigned(self, client_id: int):
        config = self.level_heads[self.client_level[client_id]]
        return config.name, config.num_params, self.pool.group_sizes(config)

    def plan_round(self, round_index: int, rng: np.random.Generator) -> RoundPlan:
        plan = super().plan_round(round_index, rng)
        plan.streams = [self.client_level[client_id] for client_id in plan.clients]
        return plan

    def round_streams(self):
        """One published stream per level: each level keeps its own global model."""
        return self.level_states

    def fold_round(self, plan: RoundPlan, keep, results):
        """FedAvg within each level; the "full" model of Decoupled is its L-level model."""
        per_level_updates: dict[str, list[ClientUpdate]] = {level: [] for level in self.level_states}
        refused = {}
        for slot, result in zip(keep, results):
            level = plan.streams[slot]
            try:
                state = self.decode_result_state(result.state, plan.group_sizes[slot], self.level_states[level])
            except NonFiniteUpdateError as error:
                refused[slot] = error
            else:
                per_level_updates[level].append(ClientUpdate(state, result.num_samples))
        for level, updates in per_level_updates.items():
            if updates:
                self.level_states[level] = fedavg_aggregate(updates)
        self.global_state = dict(self.level_states["L"])
        return refused

    def evaluate(self) -> tuple[float, dict[str, float]]:
        """Full = the L-level model; per-level heads use their own decoupled states."""
        full_sizes = self.architecture.full_group_sizes()
        full_accuracy, _ = evaluate_state(
            self.architecture,
            full_sizes,
            self.level_states["L"],
            self.test_dataset,
            batch_size=self.federated_config.eval_batch_size,
            model_cache=self._eval_model_cache,
        )
        level_accuracies: dict[str, float] = {}
        for level, config in self.level_heads.items():
            group_sizes = self.pool.group_sizes(config)
            if group_sizes == full_sizes and level == "L":
                # the L head evaluates the same state with the same sizes
                level_accuracies[level] = full_accuracy
                continue
            accuracy, _ = evaluate_state(
                self.architecture,
                group_sizes,
                self.level_states[level],
                self.test_dataset,
                batch_size=self.federated_config.eval_batch_size,
                model_cache=self._eval_model_cache,
            )
            level_accuracies[level] = accuracy
        return full_accuracy, level_accuracies
