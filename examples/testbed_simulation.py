#!/usr/bin/env python
"""Simulated AIoT test-bed: Widar-like gestures on 17 heterogeneous devices.

Reproduces the paper's real test-bed experiment (§4.5, Table 5, Figure 6)
on the ``paper_testbed`` fleet scenario (:mod:`repro.sim`): 4 Raspberry
Pi 4B, 10 Jetson Nano and 3 Jetson Xavier AGX clients train a slimmable
MobileNetV2 on per-user non-IID CSI data, and the script prints accuracy
against simulated wall-clock seconds.

Run:
    python examples/testbed_simulation.py --rounds 5
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    AdaptiveFLConfig,
    FederatedConfig,
    FleetSimulator,
    LocalTrainingConfig,
    ModelPoolConfig,
    ProgressCallback,
    get_algorithm,
    get_scenario,
)
from repro.data.datasets import make_widar_like
from repro.data.partition import natural_partition
from repro.devices.resources import ResourceModel
from repro.devices.testbed import TESTBED_DEVICE_SPECS
from repro.store.report import format_table
from repro.nn.models import SlimmableMobileNetV2


def build_setup(args, seed):
    architecture = SlimmableMobileNetV2(
        num_classes=22,
        input_shape=(1, args.image_size, args.image_size),
        width_multiplier=args.width,
        stem_channels=8,
        head_channels=32,
    )
    train, test = make_widar_like(
        num_users=17, train_samples=args.samples, test_samples=args.samples // 4, image_size=args.image_size, seed=seed
    )
    # the profiles of the devices the paper_testbed clock times
    profiles = FleetSimulator(get_scenario("paper_testbed"), 17, seed=seed).build_profiles()
    partition = natural_partition(train, 17, np.random.default_rng(seed))
    resource_model = ResourceModel(profiles, architecture.parameter_count(), uncertainty=0.1, seed=seed)
    federated = FederatedConfig(num_rounds=args.rounds, clients_per_round=10, eval_every=max(1, args.rounds // 4))
    local = LocalTrainingConfig(local_epochs=1, batch_size=25)
    max_layer = architecture.num_prunable_layers()
    pool = ModelPoolConfig(
        models_per_level=3,
        start_layers=(max_layer - 1, max_layer - 3, max_layer - 5),
        min_start_layer=1,
    )
    kwargs = dict(
        architecture=architecture,
        train_dataset=train,
        partition=partition,
        test_dataset=test,
        profiles=profiles,
        federated_config=federated,
        local_config=local,
        resource_model=resource_model,
        scenario="paper_testbed",
        seed=seed,
    )
    return kwargs, AdaptiveFLConfig(federated=federated, local=local, pool=pool), pool


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--samples", type=int, default=850)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--width", type=float, default=0.25, help="MobileNetV2 width multiplier")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("Test-bed platform (Table 5):")
    rows = [[s.name, s.device_class, f"{s.memory_gb:.0f}G", s.count] for s in TESTBED_DEVICE_SPECS]
    print(format_table(["device", "class", "memory", "count"], rows))

    progress = ProgressCallback()
    print("\nrunning AdaptiveFL ...")
    kwargs, adaptive_config, pool = build_setup(args, args.seed)
    adaptivefl = get_algorithm("adaptivefl").factory
    adaptive_history = adaptivefl(algorithm_config=adaptive_config, pool_config=pool, **kwargs).run(callbacks=[progress])

    print("running HeteroFL ...")
    kwargs, _, _ = build_setup(args, args.seed)
    heterofl = get_algorithm("heterofl").factory
    hetero_history = heterofl(**kwargs).run(callbacks=[progress])

    print("\n=== Accuracy vs simulated wall-clock time (Figure 6 style) ===")
    for name, history in (("adaptivefl", adaptive_history), ("heterofl", hetero_history)):
        seconds, accuracies = history.time_curve("full")
        series = ", ".join(f"({t:.0f}s, {a * 100:.1f}%)" for t, a in zip(seconds, accuracies))
        print(f"{name:>10}: {series}")


if __name__ == "__main__":
    main()
