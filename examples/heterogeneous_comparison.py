#!/usr/bin/env python
"""Compare AdaptiveFL against the paper's four baselines (Table 2 style).

Runs the selected registered algorithms through ``ExperimentSession.compare``,
which prepares the federation **once** (same data partition, same heterogeneous
devices) and trains every algorithm on the identical snapshot, then prints
the avg/full accuracy table plus the communication-waste column of
Figure 5a.

Run:
    python examples/heterogeneous_comparison.py --scale ci
    python examples/heterogeneous_comparison.py --scale small --alpha 0.3 --proportion 8:1:1
"""

from __future__ import annotations

import argparse

from repro import ExperimentSession, ExperimentSetting, ProgressCallback, available_algorithms
from repro.store.report import render_accuracy_table, render_waste_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["ci", "small", "paper"])
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100", "femnist"])
    parser.add_argument("--model", default="simple_cnn")
    parser.add_argument("--alpha", type=float, default=None, help="Dirichlet alpha; omit for IID")
    parser.add_argument("--proportion", default="4:3:3", help="weak:medium:strong device proportion (Table 3)")
    parser.add_argument("--algorithms", nargs="*", default=list(available_algorithms()))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    distribution = "dirichlet" if args.alpha is not None else "iid"
    setting = ExperimentSetting(
        dataset=args.dataset,
        model=args.model,
        distribution=distribution,
        alpha=args.alpha,
        proportion=args.proportion,
        scale=args.scale,
        seed=args.seed,
    )

    results = ExperimentSession(setting).with_callback(ProgressCallback).compare(args.algorithms)

    title = (
        f"{args.dataset} / {args.model} / {distribution}"
        + (f"(alpha={args.alpha})" if args.alpha else "")
        + f" / devices {args.proportion} / scale {args.scale}"
    )
    print("\n=== Accuracy (Table 2 style) ===")
    print(render_accuracy_table(results, title))
    print("\n=== Communication waste (Figure 5a style) ===")
    print(render_waste_table(results))


if __name__ == "__main__":
    main()
