"""Experiment scale presets.

The paper trains VGG16/ResNet18 for up to 1000 rounds on 100-500 clients
with a GPU; this repository's substrate is pure numpy on CPU, so every
experiment can be run at three scales:

* ``ci`` — seconds-scale configurations used by the test-suite and the
  pytest benchmarks (tiny models, few clients, few rounds),
* ``small`` — short runs (≈ 15 s each on the process executor, 2 cores).
  They do **not** reproduce the paper's orderings.  Measured with
  ``--distribution dirichlet --alpha 0.3`` at seeds 0-1: on cifar10-like
  every method's full model ends at 92-98 %, on the task's label-noise
  ceiling, so nothing can be ranked; on cifar100-like AdaptiveFL's full
  model comes last, ≈ 20 points behind HeteroFL, ScaleFL and Decoupled,
  because 40 rounds × 6 of 30 clients pick each client ≈ 8 times and the
  RL tables never learn who can train the large model.  A scale where the
  paper's claims can be tested is ROADMAP item I,
* ``paper`` — the paper's nominal settings (100/180 clients, 10%
  participation, full-width models); provided for completeness and only
  practical on a fast machine with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity against wall-clock time."""

    name: str
    #: dataset synthesis
    train_samples: int
    test_samples: int
    image_size: int
    #: model capacity
    width_multiplier: float
    classifier_width: int
    #: federated loop
    num_clients: int
    clients_per_round: int
    num_rounds: int
    local_epochs: int
    batch_size: int
    eval_every: int
    #: cap on batches per local epoch (None = no cap); keeps CI runs bounded
    max_batches_per_epoch: int | None = None

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """Copy of the scale with selected fields replaced."""
        return replace(self, **overrides)


SCALES: dict[str, ExperimentScale] = {
    "ci": ExperimentScale(
        name="ci",
        train_samples=600,
        test_samples=240,
        image_size=16,
        width_multiplier=0.25,
        classifier_width=64,
        num_clients=10,
        clients_per_round=4,
        num_rounds=6,
        local_epochs=1,
        batch_size=20,
        eval_every=3,
        max_batches_per_epoch=4,
    ),
    "small": ExperimentScale(
        name="small",
        train_samples=4_000,
        test_samples=1_000,
        image_size=16,
        width_multiplier=0.5,
        classifier_width=128,
        num_clients=30,
        clients_per_round=6,
        num_rounds=40,
        local_epochs=2,
        batch_size=32,
        eval_every=5,
        max_batches_per_epoch=None,
    ),
    "paper": ExperimentScale(
        name="paper",
        train_samples=50_000,
        test_samples=10_000,
        image_size=32,
        width_multiplier=1.0,
        classifier_width=4096,
        num_clients=100,
        clients_per_round=10,
        num_rounds=1000,
        local_epochs=5,
        batch_size=50,
        eval_every=10,
        max_batches_per_epoch=None,
    ),
}


def get_scale(name: str, **overrides) -> ExperimentScale:
    """Look up a preset by name and optionally override fields."""
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}")
    scale = SCALES[name]
    return scale.with_overrides(**overrides) if overrides else scale
