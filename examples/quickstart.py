#!/usr/bin/env python
"""Quickstart: train AdaptiveFL on a synthetic CIFAR-10-like federation.

Uses the ``repro.api`` experiment-session layer: build an
:class:`~repro.api.session.ExperimentSession`, attach a progress callback
and run the registered ``"adaptivefl"`` algorithm.  The same experiment is
one shell command away::

    python -m repro run --algorithm adaptivefl --dataset cifar10 --scale ci

Run:
    python examples/quickstart.py --scale ci
    python examples/quickstart.py --scale small --model vgg11
"""

from __future__ import annotations

import argparse

from repro import ExperimentSession, ExperimentSetting, ProgressCallback
from repro.core.model_pool import ModelPool


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["ci", "small", "paper"], help="experiment size preset")
    parser.add_argument("--model", default="simple_cnn", help="architecture registry name (simple_cnn, vgg16, resnet18, ...)")
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "femnist", "widar"])
    parser.add_argument("--alpha", type=float, default=None, help="Dirichlet alpha for non-IID data (omit for IID)")
    parser.add_argument("--rounds", type=int, default=None, help="override the number of federated rounds")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    distribution = "dirichlet" if args.alpha is not None else "iid"
    setting = ExperimentSetting(
        dataset=args.dataset,
        model=args.model,
        distribution=distribution,
        alpha=args.alpha,
        scale=args.scale,
        seed=args.seed,
    )
    session = ExperimentSession(setting).with_callback(ProgressCallback())
    prepared = session.prepared
    print(f"dataset={args.dataset} model={args.model} clients={prepared.scale.num_clients} "
          f"rounds={args.rounds or prepared.scale.num_rounds} distribution={distribution}")
    print(f"global model parameters: {prepared.architecture.parameter_count():,}")
    pool = ModelPool(prepared.architecture, prepared.pool_config)
    print("model pool:", ", ".join(f"{c.name}={c.num_params:,}" for c in pool))

    result = session.run("adaptivefl", num_rounds=args.rounds)
    final = result.history.evaluated_records()[-1]
    print("\n=== AdaptiveFL results ===")
    print(f"full global model accuracy : {result.full_accuracy * 100:.2f}%")
    print(f"avg submodel accuracy      : {result.avg_accuracy * 100:.2f}%")
    for level, accuracy in sorted(final.level_accuracies.items()):
        print(f"  level {level} head accuracy : {accuracy * 100:.2f}%")
    print(f"mean communication waste   : {result.communication_waste * 100:.2f}%")


if __name__ == "__main__":
    main()
