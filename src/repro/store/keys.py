"""Canonical run keys: the identity a stored run is addressed by.

A run key is the complete, JSON-canonical description of one training
run — the :class:`~repro.experiments.settings.ExperimentSetting`, the
algorithm, its (normalised) selection strategy, the resolved round
budget and any per-run scenario override.  Hashing the canonical JSON of
the key yields the run ID, so submitting the same experiment twice maps
onto the same store entry and sweeps can skip completed cells without
preparing any data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.registry import DEFAULT_SELECTION_STRATEGY, get_algorithm
from repro.experiments.scaling import get_scale

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.settings import ExperimentSetting

__all__ = ["run_key", "resolve_num_rounds"]


def resolve_num_rounds(setting: "ExperimentSetting", num_rounds: int | None) -> int:
    """The run's total round budget: an explicit override or the scale preset.

    Cheap by construction — it only consults the scale registry, never
    synthesising data — so sweeps can compute keys for hundreds of cells
    before preparing anything.
    """
    if num_rounds is not None:
        return int(num_rounds)
    return int(get_scale(setting.scale, **setting.overrides).num_rounds)


def run_key(
    setting: "ExperimentSetting",
    algorithm: str,
    selection_strategy: str | None = None,
    num_rounds: int | None = None,
    scenario_override: str | None = None,
) -> dict:
    """The canonical identity of one run (hash it to get the run ID).

    The selection strategy is normalised so equivalent submissions
    collide: algorithms that ignore strategies always key on ``None``,
    and AdaptiveFL's default ``None`` keys on the paper's ``rl-cs``.
    """
    spec = get_algorithm(algorithm)
    if spec.uses_selection_strategy:
        strategy = selection_strategy or DEFAULT_SELECTION_STRATEGY
    else:
        if selection_strategy is not None:
            raise ValueError(
                f"algorithm {algorithm!r} does not accept a selection strategy "
                f"(got {selection_strategy!r})"
            )
        strategy = None
    return {
        "algorithm": algorithm,
        "selection_strategy": strategy,
        "setting": setting.to_dict(),
        "num_rounds": resolve_num_rounds(setting, num_rounds),
        "scenario_override": scenario_override,
    }
