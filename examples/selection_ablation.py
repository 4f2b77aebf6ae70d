#!/usr/bin/env python
"""Ablate the RL-based client selection strategy (Figure 5).

Runs AdaptiveFL under the five dispatch/selection variants of the paper's
ablation — Greedy, Random, RL-C (curiosity only), RL-S (resource only) and
RL-CS (the full method) — on one shared
:class:`~repro.api.session.ExperimentSession` (the experiment is prepared
once, so the ablation is paired) and prints their communication-waste rate
and final accuracy.

Run:
    python examples/selection_ablation.py --scale ci --rounds 10
"""

from __future__ import annotations

import argparse

from repro import ExperimentSession, ExperimentSetting
from repro.store.report import format_table

STRATEGIES = ("greedy", "random", "rl-c", "rl-s", "rl-cs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["ci", "small", "paper"])
    parser.add_argument("--dataset", default="cifar100", choices=["cifar10", "cifar100", "femnist"])
    parser.add_argument("--model", default="simple_cnn")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    setting = ExperimentSetting(dataset=args.dataset, model=args.model, distribution="iid", scale=args.scale, seed=args.seed)
    session = ExperimentSession(setting)

    rows = []
    for strategy in STRATEGIES:
        print(f"running AdaptiveFL+{strategy} ...")
        result = session.run("adaptivefl", selection_strategy=strategy, num_rounds=args.rounds)
        rows.append([strategy, f"{result.communication_waste * 100:.2f}", f"{result.full_accuracy * 100:.2f}"])

    print("\n=== RL client-selection ablation (Figure 5 style) ===")
    print(format_table(["strategy", "communication waste (%)", "full accuracy (%)"], rows))


if __name__ == "__main__":
    main()
